"""Test-only tape ops and reference implementations.

The package never calls these. The per-step GRU and single-sequence BiGRU
are the oracles the fused batched scan is checked against; the small tape
ops and the scalar loss and norm helpers keep the tests short.
"""

import numpy as np

from sawreader import autodiff as ad
from sawreader.autodiff import Tensor
from sawreader.neural import GruParams, bigru_batch, bigru_finals
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


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One gated update; with all-zero parameters this halves the state."""
    if x.ndim != 1 or h_prev.ndim != 1:
        raise ValueError("gru_step: x and h_prev must be 1-D")
    if x.shape[0] != p.input_dim:
        raise ValueError(
            f"gru_step: input dim {x.shape[0]} != expected {p.input_dim}"
        )
    if h_prev.shape[0] != p.hidden_dim:
        raise ValueError(
            f"gru_step: state dim {h_prev.shape[0]} != expected {p.hidden_dim}"
        )
    r = ad.sigmoid(ad.matmul(p.W_r, x) + ad.matmul(p.U_r, h_prev) + p.b_r)
    z = ad.sigmoid(ad.matmul(p.W_z, x) + ad.matmul(p.U_z, h_prev) + p.b_z)
    h_cand = ad.tanh(
        ad.matmul(p.W_h, x) + ad.matmul(p.U_h, ad.mul(r, h_prev)) + p.b_h
    )
    ones = Tensor(np.ones_like(z.data))
    return ad.mul(sub(ones, z), h_prev) + ad.mul(z, h_cand)


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


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum((g * g).sum() for g in grads.values())))


def loss(pass_result, answer_word: str) -> float:
    return float(loss_node(pass_result, answer_word).data)
