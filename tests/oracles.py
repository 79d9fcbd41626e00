"""Test-only tape ops and reference implementations.

The package never calls these. matmul, reshape, transpose and softmax
are the tape ops the fused nodes stand for. The per-step GRU and
single-sequence BiGRU are the oracles the fused batched scan is checked
against, gated_attention_2d is the one the batched masked attention is
checked against, gated_attention_chain and answer_pointer_chain are the six-op
and seven-op tape chains the fused gated-attention and answer-pointer
nodes must equal bit for bit, bpe_train is the
from-scratch recount merge learning is checked against, replay_segment
is the one rank-jumping segmentation is checked against, count_bigrams
gives the pair counts the hand-counted BPE tests check, and grad_check is
the one finite-difference checker; the small tape ops and the scalar loss
and norm helpers keep the tests short. random_guess_accuracy is the
chance baseline the accuracy criteria compare against. clip_out_of_place
and adam_out_of_place are the copying optimizer step the in-place
clip_gradients and adam_step are checked against. dropout_mul is the
float64-mask product the BiGRU's input dropout is checked against, and
traced_memory is the one tracemalloc harness of the memory tests.
"""

import tracemalloc

import numpy as np

from sawreader import autodiff as ad
from sawreader.autodiff import Tensor
from sawreader.bpe import MergeTable
from sawreader.neural import GruParams, ParamStore, bigru_batch, bigru_finals
from sawreader.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, loss_node


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


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    if not ad._needs(a):
        return out

    def backward():
        ad.accumulate(a, -out.grad)

    return ad._record(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, m) @ (..., m, k) -> (..., n, k); leading axes must match."""
    if a.ndim < 2 or a.ndim != b.ndim:
        raise ValueError(f"matmul: unsupported ranks {a.ndim} @ {b.ndim}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dim mismatch {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if not ad._needs(a, b):
        return out

    def backward():
        if a.requires_grad:
            ad.accumulate(a, out.grad @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            ad.accumulate(b, np.swapaxes(a.data, -1, -2) @ out.grad)

    return ad._record(out, (a, b), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if not ad._needs(a):
        return out

    def backward():
        ad.accumulate(a, out.grad.reshape(a.shape))

    return ad._record(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ValueError("transpose: expected at least 2 axes")
    out = Tensor(np.swapaxes(a.data, -1, -2))
    if not ad._needs(a):
        return out

    def backward():
        ad.accumulate(a, np.swapaxes(out.grad, -1, -2))

    return ad._record(out, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis of a 1-D, 2-D or 3-D tensor.

    Entries of -inf get probability exactly 0, so adding a mask of 0 and
    -inf leaves them out; each row needs at least one finite entry. Raises
    on NaN input rather than propagating it.
    """
    if a.ndim not in (1, 2, 3):
        raise ValueError("softmax: expected a 1-D, 2-D or 3-D tensor")
    if np.isnan(a.data).any():
        raise ValueError("softmax: input contains NaN")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = Tensor(ex / ex.sum(axis=-1, keepdims=True))
    if not ad._needs(a):
        return out

    def backward():
        g = out.grad
        y = out.data
        dot = (g * y).sum(axis=-1, keepdims=True)
        ad.accumulate(a, (g - dot) * y)

    return ad._record(out, (a,), backward)


def sum_at(p: Tensor, indices) -> Tensor:
    """Scalar sum of selected entries of a 1-D tensor."""
    idx = np.asarray(indices, dtype=np.intp)
    if p.ndim != 1:
        raise ValueError("sum_at: expected a 1-D tensor")
    out = Tensor(p.data[idx].sum())
    if not ad._needs(p):
        return out

    def backward():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        np.add.at(p.grad, idx, out.grad)

    return ad._record(out, (p,), backward)


def log_floored(x: Tensor, floor: float = 1e-12) -> Tensor:
    """log(max(x, floor)) on a scalar; gradient is zero below the floor."""
    if x.data.size != 1:
        raise ValueError("log_floored: expected a scalar")
    val = float(x.data)
    out = Tensor(np.log(max(val, floor)))
    if not ad._needs(x):
        return out

    def backward():
        if val >= floor:
            ad.accumulate(x, out.grad / val)

    return ad._record(out, (x,), backward)


def weighted_sum(t: Tensor, weights) -> Tensor:
    """Collapse any tensor to a scalar with fixed weights; keeps the output
    gradient non-uniform so transposed or misrouted gradients get caught."""
    flat = t if t.ndim == 1 else reshape(t, (t.data.size,))
    w = Tensor(np.asarray(weights, dtype=np.float64).reshape(-1))
    return sum_at(ad.mul(flat, w), np.arange(flat.data.size))


def take_row(a: Tensor, i: int) -> Tensor:
    if a.ndim != 2:
        raise ValueError("take_row: expected a 2-D tensor")
    if not 0 <= i < a.shape[0]:
        raise ValueError(f"take_row: row {i} out of range for {a.shape}")
    out = Tensor(a.data[i])
    if not ad._needs(a):
        return out

    def backward():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[i] += out.grad

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


def slice_rows(a: Tensor, i: int, length: int) -> Tensor:
    """a[i, :length]: the first `length` rows of batch item i."""
    if a.ndim < 2:
        raise ValueError("slice_rows: expected a batched tensor")
    out = Tensor(a.data[i, :length])
    if not ad._needs(a):
        return out

    def backward():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[i, :length] += out.grad

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


def dropout_mul(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout as a product with a float64 mask tensor."""
    return ad.mul(x, Tensor(keep.astype(np.float64) / (1.0 - rate)))


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

    def matvec(m: Tensor, v: Tensor) -> Tensor:
        col = matmul(m, reshape(v, (v.shape[0], 1)))
        return reshape(col, (m.shape[0],))

    wx = matvec(p.W, x)
    a = ad.add(ad.add(wx, matvec(p.U, h_prev)), p.b)
    r = sigmoid(gate(a, 0))
    z = sigmoid(gate(a, 1))
    u_rh = matvec(p.U, ad.mul(r, h_prev))
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
    x3 = reshape(seq, (1, steps, seq.shape[1]))
    lengths = np.array([steps], dtype=np.intp)
    h3 = bigru_batch(x3, lengths, fwd, bwd)
    outputs = slice_rows(h3, 0, steps)
    finals = take_row(bigru_finals(h3, lengths), 0)
    hid = fwd.hidden_dim
    return outputs, (slice1d(finals, 0, hid), slice1d(finals, hid, 2 * hid))


def gated_attention_2d(h_doc: Tensor, h_query: Tensor) -> tuple[Tensor, Tensor]:
    """One example's gated attention over its unpadded (k_doc, dim) and
    (k_query, dim) states: the gated states and the (k_doc, k_query)
    attention."""
    scores = matmul(h_doc, transpose(h_query))
    alpha = softmax(scores)
    beta = matmul(alpha, h_query)
    return ad.mul(h_doc, beta), alpha


def gated_attention_chain(
    h_doc: Tensor, h_query: Tensor, q_lens
) -> tuple[Tensor, Tensor]:
    """Batched masked gated attention as a chain of six tape ops: scores
    h_doc @ h_query^T, plus a mask of -inf past each row's query length,
    softmax, beta = alpha @ h_query, and h_doc * beta. Returns the gated
    states and the attention's array.

    h_query is read through one identity reshape node, so its two terms
    (beta's, then the scores') meet in that node before they land in
    h_query, as they do in the fused layer."""
    batch, t_doc, t_query = h_doc.shape[0], h_doc.shape[1], h_query.shape[1]
    q_lens = np.asarray(q_lens, dtype=np.intp)
    mask = np.where(np.arange(t_query)[None, :] < q_lens[:, None], 0.0, -np.inf)
    mask = np.broadcast_to(mask[:, None, :], (batch, t_doc, t_query))
    query = reshape(h_query, h_query.shape)
    scores = matmul(h_doc, transpose(query))
    alpha = softmax(ad.add(scores, Tensor(mask)))
    beta = matmul(alpha, query)
    return ad.mul(h_doc, beta), alpha.data


def answer_pointer_chain(
    h_doc: Tensor, h_query: Tensor, placeholders, d_lens
) -> Tensor:
    """The answer pointer as a chain of seven tape ops: reshape h_query to
    rows, gather each row's placeholder state, reshape it to a column,
    matmul with h_doc, reshape the scores to (B, Td), add a mask of -inf
    past each row's document length, and softmax."""
    batch, t_doc, width = h_doc.shape
    t_query = h_query.shape[1]
    d_lens = np.asarray(d_lens, dtype=np.intp)
    mask = np.where(np.arange(t_doc)[None, :] < d_lens[:, None], 0.0, -np.inf)
    rows = np.arange(batch) * t_query + np.asarray(placeholders, dtype=np.intp)
    q_t = ad.gather_rows(reshape(h_query, (batch * t_query, width)), rows)
    scores = matmul(h_doc, reshape(q_t, (batch, width, 1)))
    return softmax(ad.add(reshape(scores, (batch, t_doc)), Tensor(mask)))


# The BPE oracle shares no helper with the library: it recounts every pair
# of every word before each merge, with no incremental bookkeeping.


def bpe_pairs(symbols) -> dict[tuple[str, str], int]:
    """Non-overlapping adjacent pair counts of one word, left to right."""
    totals: dict[tuple[str, str], int] = {}
    last_at = -2
    last_pair = None
    for i in range(len(symbols) - 1):
        pair = (symbols[i], symbols[i + 1])
        # an occurrence overlapping one just counted is not counted again
        if i - 1 == last_at and pair == last_pair:
            continue
        totals[pair] = totals.get(pair, 0) + 1
        last_at, last_pair = i, pair
    return totals


def bpe_merge(symbols, pair) -> list[str]:
    """Fuse each (left, right) occurrence, greedy left to right."""
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def bpe_train(counts: dict[str, int], num_merges: int) -> list[tuple[str, str]]:
    """Merge pairs in rank order: at each step, recount every word and take
    the most frequent pair, smallest first on ties; stop when none is left."""
    segs = {word: list(word) for word in counts}
    rules = []
    for _ in range(num_merges):
        totals = count_bigrams(segs, counts)
        if not totals:
            break
        best = min(totals, key=lambda p: (-totals[p], p))
        if totals[best] < 1:
            break
        segs = {word: bpe_merge(symbols, best) for word, symbols in segs.items()}
        rules.append(best)
    return rules


def replay_segment(word: str, table: MergeTable) -> tuple[str, ...]:
    """Split a word into characters, then replay every merge in rank order."""
    symbols = list(word)
    for rule in table.rules:
        if len(symbols) < 2:
            break
        symbols = bpe_merge(symbols, (rule.left, rule.right))
    return tuple(symbols)


def count_bigrams(
    segmentations: dict[str, list[str]], counts: dict[str, int]
) -> dict[tuple[str, str], int]:
    """Count-weighted pair counts over a segmentation state."""
    totals: dict[tuple[str, str], int] = {}
    for word, count in counts.items():
        symbols = segmentations[word]
        if not symbols:
            raise ValueError(f"word {word!r} has an empty segmentation")
        for pair, n in bpe_pairs(symbols).items():
            totals[pair] = totals.get(pair, 0) + n * count
    return totals


def grad_enabled() -> bool:
    """Whether the tape records: a product of a tracked leaf is tracked."""
    x = Tensor(np.ones(1), requires_grad=True)
    return ad.mul(x, x).requires_grad


def random_guess_accuracy(examples) -> float:
    """Expected accuracy of a uniform guess over each document's distinct words."""
    if not examples:
        raise ValueError("random_guess_accuracy: empty dataset")
    return float(np.mean([1.0 / len(set(ex.document)) for ex in examples]))


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum((g * g).sum() for g in grads.values())))


def clip_out_of_place(
    grads: dict[str, np.ndarray], threshold: float
) -> tuple[dict[str, np.ndarray], float]:
    """Clipped copies of the gradients, and their norm before clipping."""
    total = 0.0
    for g in grads.values():
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient")
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm <= threshold:
        return {name: g.copy() for name, g in grads.items()}, norm
    factor = threshold / norm
    return {name: g * factor for name, g in grads.items()}, norm


def adam_out_of_place(
    params: ParamStore, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """Bias-corrected Adam that rebinds the moments and every parameter."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    state.t += 1
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for name, t in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / corr1
        v_hat = state.v[name] / corr2
        t.data = t.data - lr * m_hat / (np.sqrt(v_hat) + eps)


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


def traced_memory(*stages):
    """Run the stages in turn under one tracemalloc session, each called
    with the result of the one before it (the first with no argument).

    Returns the last stage's result and, per stage, (live, peak): the bytes
    traced when the stage returned and at their highest while it ran, both
    over the bytes traced before the first stage began.
    """
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        args, sizes = (), []
        for stage in stages:
            tracemalloc.reset_peak()
            result = stage(*args)
            live, peak = tracemalloc.get_traced_memory()
            sizes.append((live - base, peak - base))
            args = (result,)
    finally:
        tracemalloc.stop()
    return result, sizes
