"""Test-only tape ops and reference implementations.

The package never calls these. The per-step GRU and single-sequence BiGRU
are the oracles the fused batched scan is checked against, replay_segment
is the one rank-jumping segmentation is checked against, and grad_check
is the one finite-difference checker; the small tape ops and the scalar
loss and norm helpers keep the tests short.
"""

import numpy as np

from sawreader import autodiff as ad
from sawreader.autodiff import Tensor
from sawreader.bpe import MergeTable, _merge_symbols
from sawreader.neural import GruParams, ParamStore, bigru_batch, bigru_finals
from sawreader.training import loss_node


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)
    if not ad._needs(a, b):
        return out

    def backward():
        if a.requires_grad:
            ad.accumulate(a, out.grad)
        if b.requires_grad:
            ad.accumulate(b, -out.grad)

    return ad._record(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    if not ad._needs(a):
        return out

    def backward():
        ad.accumulate(a, out.grad * c)

    return ad._record(out, (a,), backward)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a (n, d) matrix."""
    if not tensors:
        raise ValueError("stack_rows: empty input")
    out = Tensor(np.stack([t.data for t in tensors], axis=0))
    if not ad._needs(*tensors):
        return out

    def backward():
        for i, t in enumerate(tensors):
            if t.requires_grad:
                ad.accumulate(t, out.grad[i])

    return ad._record(out, tuple(tensors), backward)


def slice1d(a: Tensor, start: int, stop: int) -> Tensor:
    if a.ndim != 1:
        raise ValueError("slice1d: expected a 1-D tensor")
    out = Tensor(a.data[start:stop])
    if not ad._needs(a):
        return out

    def backward():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += out.grad

    return ad._record(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) is in (0, 1], so neither branch can overflow
    t = np.exp(-np.abs(a.data))
    out = Tensor(np.where(a.data >= 0, 1.0 / (1.0 + t), t / (1.0 + t)))
    if not ad._needs(a):
        return out

    def backward():
        ad.accumulate(a, out.grad * out.data * (1.0 - out.data))

    return ad._record(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    if not ad._needs(a):
        return out

    def backward():
        ad.accumulate(a, out.grad * (1.0 - out.data * out.data))

    return ad._record(out, (a,), backward)


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One gated update; with all-zero parameters this halves the state."""
    if x.ndim != 1 or h_prev.ndim != 1:
        raise ValueError("gru_step: x and h_prev must be 1-D")
    if x.shape[0] != p.input_dim:
        raise ValueError(
            f"gru_step: input dim {x.shape[0]} != expected {p.input_dim}"
        )
    hid = p.hidden_dim
    if h_prev.shape[0] != hid:
        raise ValueError(
            f"gru_step: state dim {h_prev.shape[0]} != expected {hid}"
        )

    def gate(v: Tensor, i: int) -> Tensor:
        return slice1d(v, i * hid, (i + 1) * hid)

    wx = ad.matmul(p.W, x)
    a = ad.add(ad.add(wx, ad.matmul(p.U, h_prev)), p.b)
    r = sigmoid(gate(a, 0))
    z = sigmoid(gate(a, 1))
    u_rh = ad.matmul(p.U, ad.mul(r, h_prev))
    h_cand = tanh(ad.add(ad.add(gate(wx, 2), gate(u_rh, 2)), gate(p.b, 2)))
    ones = Tensor(np.ones(hid))
    return ad.add(ad.mul(sub(ones, z), h_prev), ad.mul(z, h_cand))


def bigru(seq, fwd: GruParams, bwd: GruParams):
    """Single-sequence BiGRU.

    Accepts a (T, in) tensor or a list of (in,) tensors. Returns the
    (T, 2*hidden) per-step outputs and the (final_forward, final_backward)
    state pair.
    """
    if isinstance(seq, (list, tuple)):
        if not seq:
            raise ValueError("bigru: empty sequence")
        seq = stack_rows(list(seq))
    if seq.ndim != 2 or seq.shape[0] == 0:
        raise ValueError("bigru: expected a non-empty (T, in) tensor")
    steps = seq.shape[0]
    x3 = ad.reshape(seq, (1, steps, seq.shape[1]))
    lengths = np.array([steps], dtype=np.intp)
    h3 = bigru_batch(x3, lengths, fwd, bwd)
    outputs = ad.slice_rows(h3, 0, steps)
    finals = ad.take_row(bigru_finals(h3, lengths), 0)
    hid = fwd.hidden_dim
    return outputs, (slice1d(finals, 0, hid), slice1d(finals, hid, 2 * hid))


def replay_segment(word: str, table: MergeTable) -> tuple[str, ...]:
    """Split a word into characters, then replay every merge in rank order."""
    symbols = list(word)
    for rule in table.rules:
        if len(symbols) < 2:
            break
        symbols = _merge_symbols(symbols, (rule.left, rule.right))
    return tuple(symbols)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum((g * g).sum() for g in grads.values())))


def loss(pass_result, answer_word: str) -> float:
    return float(loss_node(pass_result, answer_word).data)


def grad_check(
    objective,
    params,
    eps: float = 1e-5,
    analytic: dict | None = None,
    floor: float = 1e-8,
) -> float:
    """Max relative error between tape gradients and central differences.

    `objective` is a zero-argument callable that rebuilds the graph from the
    current parameter values and returns a scalar Tensor; it is re-evaluated
    many times, so it must be deterministic. `params` is a ParamStore or a
    list of leaf tensors. Pass `analytic`, keyed by parameter name (or list
    position), to check externally supplied gradients instead of running
    backward().

    The error per coordinate is |a - n| / max(|a|, |n|, floor). The floor
    sets the gradient magnitude below which disagreement counts as absolute:
    central differences on an order-one objective carry ~1e-11 of absolute
    noise from cancellation, so checks over deep compositions whose smallest
    gradient entries sit near zero need a floor around 1e-5 for the relative
    tolerance to be meaningful.
    """
    if isinstance(params, ParamStore):
        named = params.items()
    else:
        named = list(enumerate(params))
    if analytic is None:
        for _, t in named:
            t.grad = None
        out = objective()
        if out.data.size != 1 or not np.isfinite(out.data).all():
            raise ValueError("grad_check: objective must return a finite scalar")
        out.backward()
        analytic = {
            name: np.array(t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in named
        }
    worst = 0.0
    with ad.no_grad():
        for name, t in named:
            flat = t.data.reshape(-1)
            a_flat = np.asarray(analytic[name]).reshape(-1)
            for j in range(flat.size):
                saved = flat[j]
                flat[j] = saved + eps
                f_plus = float(objective().data)
                flat[j] = saved - eps
                f_minus = float(objective().data)
                flat[j] = saved
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise ValueError("grad_check: non-finite objective value")
                numeric = (f_plus - f_minus) / (2.0 * eps)
                denom = max(abs(a_flat[j]), abs(numeric), floor)
                worst = max(worst, abs(a_flat[j] - numeric) / denom)
    return worst
