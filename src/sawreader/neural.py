"""GRU recurrences and parameter storage.

The BiGRU is one fused tape node for both directions: the batched scan
runs in numpy, and the hand-derived backward replays the cached gates. A
large scan runs each direction on its own thread, with the same arithmetic.
It projects its inputs one block of steps at a time, so a scan with no
graph to record keeps the gates of one block only. The scan works on the packed layout of pack_padded_sequence and cuDNN:
rows sorted by length, so each step touches only the rows still running,
and the backward direction starts each row at its own last token. Padded
positions are never read, and their outputs are zero in both directions.
Input dropout is applied inside the scan, to each block of gathered
inputs, so no dropped copy of the input is made. The fused backward is
validated against a per-step oracle and central finite differences in
the test suite.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.05

# A BiGRU runs its two directions on two threads when rows at step 0 times
# hidden squared reaches this; README gives the measured crossover.
THREADED_MIN_WORK = 16 * 128 * 128
# the name prefix of that one worker thread
WORKER_NAME = "sawreader-bigru"
# A scan projects its inputs one block of whole steps at a time, each block
# at least this many packed rows (see _blocks); README gives the measured
# choice.
BLOCK_ROWS = 128
_worker_pool = None
_worker_lock = threading.Lock()


@dataclass
class GruParams:
    """One direction's gate weights, stacked in the gate order r, z, h.

    W (3h, in) acts on the input, U (3h, h) on the state, b (3h,) is the bias.
    """

    W: Tensor
    U: Tensor
    b: Tensor

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[1]


class ParamStore:
    """Insertion-ordered named parameters; order defines the checkpoint layout."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Current gradients by name; parameters never touched get zeros."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._params.items()
        }

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def save(self, bin_path, manifest_path) -> None:
        """Flat little-endian float64 blob plus a name/shape manifest."""
        with open(bin_path, "wb") as fh:
            for t in self._params.values():
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        with open(manifest_path, "w", encoding="utf-8") as fh:
            for name, t in self._params.items():
                dims = ",".join(str(d) for d in t.data.shape)
                fh.write(f"{name}\t{dims}\n")

    def load_values(self, bin_path, manifest_path) -> None:
        """Overwrite parameter values; names and shapes must match exactly.

        The values become views of one buffer read from the blob.
        """
        man = os.path.basename(manifest_path)
        entries: list[tuple[int, str, tuple[int, ...]]] = []
        with open(manifest_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    name, dims = line.split("\t")
                    shape = tuple(int(d) for d in dims.split(",")) if dims else ()
                except ValueError:
                    raise ValueError(
                        f"{man} line {lineno}: expected name<TAB>dims, got {line!r}"
                    ) from None
                entries.append((lineno, name, shape))
        expected = self.names()
        for i, (lineno, name, shape) in enumerate(entries):
            if i >= len(expected) or name != expected[i]:
                raise ValueError(
                    f"{man} line {lineno}: manifest does not match the "
                    f"parameter set: unexpected name {name!r}"
                )
            if shape != self._params[name].data.shape:
                raise ValueError(f"{man} line {lineno}: shape mismatch for {name}")
        if len(entries) < len(expected):
            raise ValueError(
                f"{man}: manifest does not match the parameter set: "
                f"missing {expected[len(entries)]!r}"
            )
        total = self.num_values()
        size = os.path.getsize(bin_path)
        if size != 8 * total:
            relation = "shorter" if size < 8 * total else "longer"
            raise ValueError(
                f"{os.path.basename(bin_path)} is {relation} than {man} "
                f"describes: {size} bytes for {total} float64 values"
            )
        raw = np.fromfile(bin_path, dtype="<f8").astype(np.float64, copy=False)
        offset = 0
        for t in self._params.values():
            n = t.data.size
            t.data = raw[offset : offset + n].reshape(t.data.shape)
            offset += n


def uniform_init(
    rng: np.random.Generator | None, shape, scale: float = INIT_SCALE
) -> np.ndarray:
    """Uniform in (-scale, scale). With no rng the values are left unset, for
    a caller that overwrites every one: nothing is drawn, and np.empty
    touches no memory until the values arrive."""
    if rng is None:
        return np.empty(shape)
    return rng.uniform(-scale, scale, size=shape)


def fan_scaled_init(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Uniform with limit sqrt(6 / (fan_in + fan_out)) for (out, in) matrices.

    Embeddings use the flat 0.05 scale; recurrence and projection weights
    need the fan-scaled limit to keep activations (and so gradients) at a
    workable magnitude through the stacked gated layers.
    """
    fan_out, fan_in = shape
    return uniform_init(rng, shape, np.sqrt(6.0 / (fan_in + fan_out)))


def init_gru(
    store: ParamStore,
    prefix: str,
    input_dim: int,
    hidden_dim: int,
    rng: np.random.Generator | None,
) -> GruParams:
    """Fan-scaled uniform gate weights, biases zero; unset with no rng.

    Each gate block gets its own (hidden, in) or (hidden, hidden) fan limit
    and draw; the draw order (the r, z, h blocks of W, then those of U) is
    fixed, since seeded initial values depend on it.
    """
    shapes = ((hidden_dim, input_dim), (hidden_dim, hidden_dim))
    if rng is None:
        w, u = (np.empty((3 * rows, cols)) for rows, cols in shapes)
    else:
        w, u = (
            np.concatenate([fan_scaled_init(rng, shape) for _ in range(3)])
            for shape in shapes
        )
    return GruParams(
        W=store.add(f"{prefix}/W", w),
        U=store.add(f"{prefix}/U", u),
        b=store.add(f"{prefix}/b", np.zeros(3 * hidden_dim)),
    )


def _packing(lengths: np.ndarray, steps: int):
    """The packed layout of a padded (B, steps) batch, as in a PackedSequence.

    Rows are stable-sorted by length, longest first, so step s touches only
    the first counts[s] of them, and slots run step-major: slot starts[s] + j
    is sorted row j at step s. Returns the flat index into the padded
    (B * steps) positions that each slot reads, as a (2, N_real) array whose
    forward direction reads position s and backward direction position
    len - 1 - s; and counts and starts as lists.
    """
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    live = np.arange(lengths.max(initial=0))[:, None] < lens[None, :]
    step, row = np.nonzero(live)
    base = order[row] * steps
    src = np.stack([base + step, base + lens[row] - 1 - step])
    counts = live.sum(axis=1)
    starts = np.concatenate([[0], np.cumsum(counts)])
    return src, counts.tolist(), starts.tolist()


def _blocks(starts: list[int]) -> list[tuple[int, int]]:
    """Step ranges [s0, s1) that split the packed slots, starts[s0] up to
    starts[s1], into blocks of at least BLOCK_ROWS; a shorter tail joins
    the block before it, and a scan with fewer slots is one block."""
    steps = len(starts) - 1
    bounds = [0]
    for s in range(1, steps + 1):
        if starts[s] - starts[bounds[-1]] >= BLOCK_ROWS:
            bounds.append(s)
    if len(bounds) == 1:
        bounds.append(steps)
    bounds[-1] = steps
    return list(zip(bounds, bounds[1:]))


def _worker():
    """The one thread that runs direction 1 of a large scan, made on first use."""
    global _worker_pool
    with _worker_lock:
        if _worker_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=WORKER_NAME
            )
    return _worker_pool


def _each_direction(run, threaded: bool) -> list:
    """run over the direction pair: its per-direction results, in order.

    run takes a slice of the leading direction axis and returns a list.
    Serially it is called once on both directions; threaded, the worker
    runs direction 1 while this thread runs direction 0 (numpy releases the
    GIL in BLAS calls and ufunc loops, so the two overlap). run writes into
    the caller's buffers, so this returns only after both calls have ended,
    also when one raises.
    """
    if not threaded:
        return run(slice(0, 2))
    future = _worker().submit(run, slice(1, 2))
    try:
        first = run(slice(0, 1))
    except BaseException:
        future.exception()  # waits for direction 1
        raise
    return first + future.result()


def _gather(x_flat, rows, keep, scale, out=None) -> np.ndarray:
    """x_flat[rows], with dropout's keep-mask and scale applied when keep
    is set. Kept entries are multiplied by 1.0 and then by scale, dropped
    ones by 0.0 and then by scale: the same bits as a product with the
    float mask keep * scale, without making that mask."""
    # rows index real positions by construction, so mode="clip" checks
    # nothing that can fail, and it lets take write straight into out
    xs = np.take(x_flat, rows, axis=0, out=out, mode="clip")
    if keep is not None:
        np.multiply(xs, np.take(keep, rows, axis=0, mode="clip"), out=xs)
        xs *= scale
    return xs


def _scan(
    x_flat, src, w, b, u_rz, u_cand, counts, starts, blocks, gates, states, res,
    keep, scale,
) -> list:
    """Forward recurrence of the directions stacked on the leading axis.

    w and b list each direction's W and b; src, u_rz, u_cand, gates and
    states hold one entry per direction, and the (B * T, directions, h)
    output res one column. Each block of steps gathers its inputs (with
    dropout applied when keep is set, see _gather) and projects them;
    then each step fills its gate rows with r, z and the candidate
    state and its states rows with the new state, and the block's states
    go to the positions their slots read. states holds one block. gates
    holds one block too, or a row for every slot when the backward will
    replay them. Returns no results.
    """
    hid = u_cand.shape[2]
    reuse = gates.shape[1] < starts[-1]
    h = np.zeros((len(w), counts[0], hid))
    for s0, s1 in blocks:
        lo, hi = starts[s0], starts[s1]
        base = lo if reuse else 0
        for d in range(len(w)):
            g_blk = gates[d, lo - base : hi - base]
            np.matmul(_gather(x_flat, src[d, lo:hi], keep, scale), w[d].T, out=g_blk)
            g_blk += b[d]
        for s in range(s0, s1):
            n, at = counts[s], starts[s]
            h = h[:, :n]
            g = gates[:, at - base : at - base + n]
            rz = g[..., : 2 * hid]
            rz += h @ u_rz.transpose(0, 2, 1)
            # sigmoid(a) = (1 + tanh(a / 2)) / 2: one transcendental ufunc,
            # and stable at any magnitude
            rz *= 0.5
            np.tanh(rz, out=rz)
            rz += 1.0
            rz *= 0.5
            r, z = rz[..., :hid], rz[..., hid:]
            cand = g[..., 2 * hid :]
            cand += (r * h) @ u_cand.transpose(0, 2, 1)
            np.tanh(cand, out=cand)
            h_new = states[:, at - lo : at - lo + n]
            np.subtract(cand, h, out=h_new)
            h_new *= z
            h_new += h
            h = h_new
        for d in range(len(w)):
            res[src[d, lo:hi], d] = states[d, : hi - lo]
        h = h.copy()  # the next block overwrites states
    return []


def _scan_backward(
    x_flat, src, w, u_rz, u_cand, counts, starts, gates, h_prev, d_state, xs,
    need_dx, keep, scale,
) -> list:
    """Backward of _scan for the directions stacked on the leading axis.

    Uses up its buffers, as the tape runs a node's backward once: each
    slot's gates become its gate pre-activation gradients, and d_state,
    the gradient on each slot's state, ends holding r * h_prev. Returns
    each direction's (dW, dU, db); with need_dx, xs ends holding each
    direction's input gradient in packed order, before dropout's mask.
    """
    hid = u_cand.shape[2]
    batch = counts[0]
    dh = np.zeros((len(w), 0, hid))  # nothing flows into the last step
    for lo, n in zip(reversed(starts[:-1]), reversed(counts)):
        dh_total = d_state[:, lo : lo + n]
        dh_total[:, : dh.shape[1]] += dh
        g = gates[:, lo : lo + n]
        r, z, cand = g[..., :hid], g[..., hid : 2 * hid], g[..., 2 * hid :]
        hp = h_prev[:, lo - batch : lo - batch + n] if lo else 0.0
        # read the candidate before its slot takes its gradient
        cand_hp = cand - hp
        d_tanh = 1.0 - cand * cand
        da_cand = np.multiply(dh_total, z, out=cand)
        da_cand *= d_tanh
        drh = da_cand @ u_cand
        one_z = 1.0 - z
        dh = dh_total * one_z + drh * r
        da_z = dh_total * cand_hp * z * one_z
        if lo:
            np.multiply(r, hp, out=dh_total)
        r[...] = drh * hp * r * (1.0 - r)
        z[...] = da_z
        dh += g[..., : 2 * hid] @ u_rz
    # xs takes each direction's gathered inputs, as the forward read them,
    # then its input gradient: one (N_real, in) buffer per direction, made
    # by the caller
    results = []
    for d in range(len(w)):
        # step 0 read zeros, so only the later slots add to dU
        da, da_later, rh = gates[d], gates[d, batch:], d_state[d, batch:]
        du = np.concatenate(
            [da_later[:, : 2 * hid].T @ h_prev[d], da_later[:, 2 * hid :].T @ rh]
        )
        _gather(x_flat, src[d], keep, scale, out=xs[d])
        results.append((da.T @ xs[d], du, da.sum(axis=0)))
        if need_dx:
            np.matmul(da, w[d], out=xs[d])
    return results


def bigru_batch(
    x: Tensor,
    lengths: np.ndarray,
    fwd: GruParams,
    bwd: GruParams,
    keep: np.ndarray | None = None,
    scale: float = 1.0,
) -> Tensor:
    """Bidirectional scan over (B, T, in); padded positions output zeros.

    With a boolean keep-mask of x's shape, the scan reads inverted dropout
    of x instead of x: each entry times keep * scale, where scale is
    1 / (1 - rate). That equals a scan over the product of x with a
    float64 mask tensor bit for bit, in the output and in every gradient,
    but the node keeps only the mask, one byte per entry; each gathered
    block is masked as the scan reads it, and the backward masks its
    rebuilt inputs and the input gradient the same way.

    Output is (B, T, 2*hidden): forward states then backward states. The
    forward state at a sequence's last real position and the backward state
    at position 0 are that sequence's final states. Past its length a row's
    output is zero in both directions; padded inputs are never read and get
    zero gradient, and a gradient on a padded output goes nowhere.

    The scan runs over the packed real positions (see _packing), with the
    states of step s stacked as (directions, counts[s], h) and one batched
    matmul per gate group. It goes one block of steps at a time (see
    _blocks): one GEMM per direction projects the block's inputs into a
    gate buffer that each step overwrites with its activations r, z and
    the candidate state, and the block's states go straight to the output.
    With a graph to record, the gate buffer is (2, N_real, 3h), and the
    hand-derived backward replays it and overwrites it with the gate
    gradients; with none, every block reuses one block's buffer. Both
    make the same GEMM calls, so their outputs are equal bit for bit. When
    a step's work, B * h * h, reaches THREADED_MIN_WORK, each direction's
    projection, scan and gradient GEMMs run on their own thread; the
    arithmetic, and so every bit of the results, is the same either way.
    """
    if x.ndim != 3:
        raise ValueError("bigru_batch: expected a (B, T, in) tensor")
    batch, steps, in_dim = x.shape
    if in_dim != fwd.input_dim or in_dim != bwd.input_dim:
        raise ValueError(
            f"bigru_batch: input dim {in_dim} does not match GRU params"
        )
    if fwd.hidden_dim != bwd.hidden_dim:
        raise ValueError("bigru_batch: direction hidden dims differ")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or (lengths < 1).any() or (lengths > steps).any():
        raise ValueError("bigru_batch: lengths must be in [1, T] per batch row")
    if keep is not None and (keep.dtype != np.bool_ or keep.shape != x.shape):
        raise ValueError("bigru_batch: keep must be a boolean mask of x's shape")
    hid = fwd.hidden_dim
    dirs = (fwd, bwd)
    threaded = batch * hid * hid >= THREADED_MIN_WORK
    src, counts, starts = _packing(lengths, steps)
    blocks = _blocks(starts)
    x_flat = x.data.reshape(-1, in_dim)
    keep_flat = None if keep is None else keep.reshape(-1, in_dim)
    w = [p.W.data for p in dirs]
    b = [p.b.data for p in dirs]
    u_rz = np.stack([p.U.data[: 2 * hid] for p in dirs])
    u_cand = np.stack([p.U.data[2 * hid :] for p in dirs])
    parents = (x, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b)
    needs_grad = ad._needs(*parents)
    # only the backward replays every slot's gates
    rows = max(starts[e] - starts[s] for s, e in blocks)
    gates = np.empty((2, src.shape[1] if needs_grad else rows, 3 * hid))
    states = np.empty((2, rows, hid))
    # (B, T, 2h) once reshaped: each slot's state goes to the position it
    # read, and padding stays zero
    res = np.zeros((batch * steps, 2, hid))
    _each_direction(
        lambda ds: _scan(
            x_flat, src[ds], w[ds], b[ds], u_rz[ds], u_cand[ds],
            counts, starts, blocks, gates[ds], states[ds], res[:, ds],
            keep_flat, scale,
        ),
        threaded,
    )
    out = Tensor(res.reshape(batch, steps, 2 * hid))
    if not needs_grad:
        return out

    def backward():
        g_out = out.grad.reshape(-1, 2, hid)
        # gathered straight into their buffers, with no per-direction
        # copies; src indexes real positions by construction, and
        # mode="clip" lets take write into out without buffering the result
        d_state = np.empty((2, src.shape[1], hid))
        for d in range(2):
            np.take(g_out[:, d], src[d], axis=0, out=d_state[d], mode="clip")
        # the state each slot after step 0 read: the previous position in its
        # own direction (step 0 read zeros)
        o_flat = out.data.reshape(-1, 2, hid)
        h_prev = np.empty((2, src.shape[1] - batch, hid))
        for d, step in enumerate((-1, 1)):
            np.take(
                o_flat[:, d], src[d, batch:] + step, axis=0, out=h_prev[d],
                mode="clip",
            )
        xs = np.empty((2, src.shape[1], in_dim))
        need_dx = x.requires_grad
        per_dir = _each_direction(
            lambda ds: _scan_backward(
                x_flat, src[ds], w[ds], u_rz[ds], u_cand[ds], counts, starts,
                gates[ds], h_prev[ds], d_state[ds], xs[ds], need_dx,
                keep_flat, scale,
            ),
            threaded,
        )
        # spent: freed before dx is made, which lowers the peak
        del d_state, h_prev
        for p, grads in zip(dirs, per_dir):
            for t, grad in zip((p.W, p.U, p.b), grads):
                if t.requires_grad:
                    ad.accumulate(t, grad, fresh=True)
        if need_dx:
            dx = np.zeros_like(x_flat)
            for d in range(2):
                dx[src[d]] += xs[d]
            del xs
            if keep is not None:
                # dropout's backward, in place: the bits of dx * (keep * scale)
                np.multiply(dx, keep_flat, out=dx)
                dx *= scale
            ad.accumulate(x, dx.reshape(x.shape), fresh=True)

    return ad._record(out, parents, backward)


def bigru_finals(h: Tensor, lengths: np.ndarray) -> Tensor:
    """Gather each row's final forward and backward states from (B, T, 2h)."""
    if h.ndim != 3 or h.shape[2] % 2 != 0:
        raise ValueError("bigru_finals: expected a (B, T, 2h) tensor")
    lengths = np.asarray(lengths, dtype=np.intp)
    batch = h.shape[0]
    hid = h.shape[2] // 2
    rows = np.arange(batch)
    out = Tensor(
        np.concatenate(
            [h.data[rows, lengths - 1, :hid], h.data[rows, 0, hid:]], axis=1
        )
    )
    if not ad._needs(h):
        return out

    def backward():
        ad.accumulate_at(h, (rows, lengths - 1, slice(None, hid)), out.grad[:, :hid])
        ad.accumulate_at(h, (rows, 0, slice(hid, None)), out.grad[:, hid:])

    return ad._record(out, (h,), backward)
