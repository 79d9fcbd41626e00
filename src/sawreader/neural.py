"""GRU recurrences and parameter storage.

The BiGRU is one fused tape node for both directions: the batched scan
runs in numpy, and the hand-derived backward replays the cached gates.
Several BiGRUs over the same inputs and lengths, one direction pair each,
can run as one scan over all their directions and one tape node (the
reader's K query BiGRUs). A large scan runs each half of its directions on
its own thread, with the same arithmetic. It projects its inputs one block
of steps at a time into two contiguous gate planes, one for r and z and
one for the candidate, on which each step's elementwise gate math runs; a
scan with no graph to record keeps the planes of one block only, and one
that records copies each block's planes into the gate buffer its backward
replays. The scan works on the packed layout of pack_padded_sequence and cuDNN:
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
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.05

# A BiGRU runs each half of its directions on its own thread when rows at
# step 0 times hidden squared reaches this; README gives the measured
# crossover.
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
    """The one thread that runs the second half of a large scan's
    directions, made on first use."""
    global _worker_pool
    with _worker_lock:
        if _worker_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=WORKER_NAME
            )
    return _worker_pool


def _each_direction(run, dirs: int, threaded: bool) -> list:
    """run over the dirs directions: their per-direction results, in order.

    run takes a slice of the leading direction axis and returns a list.
    Serially it is called once on all directions; threaded, the worker
    runs the second half while this thread runs the first (numpy releases
    the GIL in BLAS calls and ufunc loops, so the two overlap). run writes
    into the caller's buffers, so this returns only after both calls have
    ended, also when one raises.
    """
    if not threaded:
        return run(slice(0, dirs))
    half = dirs // 2
    future = _worker().submit(run, slice(half, dirs))
    try:
        first = run(slice(0, half))
    except BaseException:
        future.exception()  # waits for the second half
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
    x_flat, src, w, b, u_rz, u_cand, counts, starts, blocks, gates, rz_plane,
    cand_plane, states, res, keep, scale,
) -> list:
    """Forward recurrence of the directions stacked on the leading axis.

    w, b, src, keep and res list each direction's W, b, slot sources,
    flat keep-mask (or None) and (B * T, h) output; u_rz, u_cand,
    rz_plane, cand_plane, states and gates (when set) hold one entry per
    direction. Each block of steps gathers its inputs (with dropout
    applied when the direction's keep is set, see _gather) and projects
    them straight into two contiguous planes: r and z into rz_plane by a
    GEMM over W's first 2h rows, the candidate into cand_plane by one over
    its last h rows. Each step then overwrites its plane rows with r, z
    and the candidate state and fills its states rows with the new state,
    and the block's states go to the positions their slots read. The
    planes and states hold one block. gates is None with no graph to
    record; otherwise it holds a (N_real, 3h) row for every slot, into
    which each block's planes are copied for the backward to replay.
    Returns no results.
    """
    hid = u_cand.shape[2]
    h = np.zeros((len(w), counts[0], hid))
    for s0, s1 in blocks:
        lo, hi = starts[s0], starts[s1]
        for d in range(len(w)):
            xs = _gather(x_flat, src[d][lo:hi], keep[d], scale)
            rz, cand = rz_plane[d, : hi - lo], cand_plane[d, : hi - lo]
            np.matmul(xs, w[d][: 2 * hid].T, out=rz)
            rz += b[d][: 2 * hid]
            np.matmul(xs, w[d][2 * hid :].T, out=cand)
            cand += b[d][2 * hid :]
            del xs  # freed before the next direction gathers its own
        for s in range(s0, s1):
            n, at = counts[s], starts[s] - lo
            h = h[:, :n]
            rz = rz_plane[:, at : at + n]
            rz += h @ u_rz.transpose(0, 2, 1)
            # sigmoid(a) = (1 + tanh(a / 2)) / 2: one transcendental ufunc,
            # and stable at any magnitude
            rz *= 0.5
            np.tanh(rz, out=rz)
            rz += 1.0
            rz *= 0.5
            r, z = rz[..., :hid], rz[..., hid:]
            cand = cand_plane[:, at : at + n]
            cand += (r * h) @ u_cand.transpose(0, 2, 1)
            np.tanh(cand, out=cand)
            h_new = states[:, at : at + n]
            np.subtract(cand, h, out=h_new)
            h_new *= z
            h_new += h
            h = h_new
        if gates is not None:
            gates[:, lo:hi, : 2 * hid] = rz_plane[:, : hi - lo]
            gates[:, lo:hi, 2 * hid :] = cand_plane[:, : hi - lo]
        for d in range(len(w)):
            res[d][src[d][lo:hi]] = states[d, : hi - lo]
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
        _gather(x_flat, src[d], keep[d], scale, out=xs[d])
        results.append((da.T @ xs[d], du, da.sum(axis=0)))
        if need_dx:
            np.matmul(da, w[d], out=xs[d])
    return results


def bigru_batch(
    x: Tensor,
    lengths: np.ndarray,
    fwd: GruParams | Sequence[GruParams],
    bwd: GruParams | Sequence[GruParams],
    keep: np.ndarray | Sequence[np.ndarray | None] | None = None,
    scale: float = 1.0,
) -> Tensor | list[Tensor]:
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

    fwd and bwd may also be equal-length sequences of K direction pairs,
    with keep None or a sequence of K masks (each None or a mask): K
    BiGRUs over the same x and lengths, which may differ in their weights
    and masks but not in hidden size. They run as one scan of 2K
    directions and one tape node, and the result is a list of each pair's
    output, each picked from that node by a node of its own. Each output
    and every gradient equals that of a call with its pair alone, bit for
    bit; x takes the pairs' input gradients in order, first pair first.

    The scan runs over the packed real positions (see _packing), with the
    states of step s stacked as (directions, counts[s], h) and one batched
    matmul per gate group. It goes one block of steps at a time (see
    _blocks): two GEMMs per direction project the block's inputs into
    contiguous (directions, rows, 2h) r-and-z and (directions, rows, h)
    candidate planes, which each step overwrites with its activations, and
    the block's states go straight to the output. Every block reuses one
    block's planes. With a graph to record, each block's planes are then
    copied into a (directions, N_real, 3h) gate buffer, which the
    hand-derived backward replays and overwrites with the gate gradients.
    Both paths make the same GEMM calls, so their outputs are equal bit for
    bit. When a step's work for one pair, B * h * h, reaches
    THREADED_MIN_WORK, each half of the directions runs its projections,
    scan and gradient GEMMs on its own thread; the arithmetic, and so every
    bit of the results, is the same either way.
    """
    pairs = not isinstance(fwd, GruParams)
    if pairs:
        fwds, bwds = list(fwd), list(bwd)
        keeps = [None] * len(fwds) if keep is None else list(keep)
    else:
        fwds, bwds, keeps = [fwd], [bwd], [keep]
    if not fwds or len(bwds) != len(fwds) or len(keeps) != len(fwds):
        raise ValueError(
            "bigru_batch: need one bwd direction and one keep-mask per fwd direction"
        )
    if x.ndim != 3:
        raise ValueError("bigru_batch: expected a (B, T, in) tensor")
    batch, steps, in_dim = x.shape
    dirs = [p for pair in zip(fwds, bwds) for p in pair]
    hid = dirs[0].hidden_dim
    if any(p.input_dim != in_dim for p in dirs):
        raise ValueError(
            f"bigru_batch: input dim {in_dim} does not match GRU params"
        )
    if any(p.hidden_dim != hid for p in dirs):
        raise ValueError("bigru_batch: direction hidden dims differ")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or (lengths < 1).any() or (lengths > steps).any():
        raise ValueError("bigru_batch: lengths must be in [1, T] per batch row")
    for k in keeps:
        if k is not None and (k.dtype != np.bool_ or k.shape != x.shape):
            raise ValueError("bigru_batch: keep must be a boolean mask of x's shape")
    n_pairs, n_dirs = len(fwds), len(dirs)
    threaded = batch * hid * hid >= THREADED_MIN_WORK
    packed, counts, starts = _packing(lengths, steps)
    blocks = _blocks(starts)
    n_real = packed.shape[1]
    # per direction: the positions its slots read, its flat keep-mask, and
    # its (B * T, h) column of the output
    src = [packed[0], packed[1]] * n_pairs
    keep_flat = [None if k is None else k.reshape(-1, in_dim) for k in keeps]
    keep_dirs = [k for k in keep_flat for _ in range(2)]
    x_flat = x.data.reshape(-1, in_dim)
    w = [p.W.data for p in dirs]
    b = [p.b.data for p in dirs]
    u_rz = np.stack([p.U.data[: 2 * hid] for p in dirs])
    u_cand = np.stack([p.U.data[2 * hid :] for p in dirs])
    parents = (x,) + tuple(t for p in dirs for t in (p.W, p.U, p.b))
    needs_grad = ad._needs(*parents)
    # only the backward replays every slot's gates; the planes, and the
    # states, hold one block
    gates = np.empty((n_dirs, n_real, 3 * hid)) if needs_grad else None
    rows = max(starts[e] - starts[s] for s, e in blocks)
    rz_plane = np.empty((n_dirs, rows, 2 * hid))
    cand_plane = np.empty((n_dirs, rows, hid))
    states = np.empty((n_dirs, rows, hid))
    # each pair's (B, T, 2h) once reshaped: each slot's state goes to the
    # position it read, and padding stays zero. A tape node keeps every
    # pair's output in one buffer; with no graph each pair has its own, so a
    # caller can drop one pair's states while it still holds the others.
    size = (batch * steps, 2, hid)
    if needs_grad:
        res = np.zeros((n_pairs,) + size)
        per_pair = list(res)
    else:
        per_pair = [np.zeros(size) for _ in range(n_pairs)]
    res_dirs = [r[:, j] for r in per_pair for j in range(2)]
    _each_direction(
        lambda ds: _scan(
            x_flat, src[ds], w[ds], b[ds], u_rz[ds], u_cand[ds],
            counts, starts, blocks, None if gates is None else gates[ds],
            rz_plane[ds], cand_plane[ds], states[ds], res_dirs[ds],
            keep_dirs[ds], scale,
        ),
        n_dirs,
        threaded,
    )
    shape = (batch, steps, 2 * hid)
    if not needs_grad:
        outs = [Tensor(r.reshape(shape)) for r in per_pair]
        return outs if pairs else outs[0]
    out = Tensor(res.reshape((n_pairs,) + shape if pairs else shape))

    def backward():
        g_out = out.grad.reshape(n_pairs, -1, 2, hid)
        # gathered straight into their buffers, with no per-direction
        # copies; src indexes real positions by construction, and
        # mode="clip" lets take write into out without buffering the
        # result
        d_state = np.empty((n_dirs, n_real, hid))
        # the state each slot after step 0 read: the previous position
        # in its own direction (step 0 read zeros)
        h_prev = np.empty((n_dirs, n_real - batch, hid))
        prev = [packed[0, batch:] - 1, packed[1, batch:] + 1]
        for d in range(n_dirs):
            k, j = divmod(d, 2)
            np.take(g_out[k, :, j], src[d], axis=0, out=d_state[d], mode="clip")
            np.take(res_dirs[d], prev[j], axis=0, out=h_prev[d], mode="clip")
        xs = np.empty((n_dirs, n_real, in_dim))
        need_dx = x.requires_grad
        per_dir = _each_direction(
            lambda ds: _scan_backward(
                x_flat, src[ds], w[ds], u_rz[ds], u_cand[ds], counts, starts,
                gates[ds], h_prev[ds], d_state[ds], xs[ds], need_dx,
                keep_dirs[ds], scale,
            ),
            n_dirs,
            threaded,
        )
        # spent: freed before dx is made, which lowers the peak
        del d_state, h_prev
        for p, grads in zip(dirs, per_dir):
            for t, grad in zip((p.W, p.U, p.b), grads):
                if t.requires_grad:
                    ad.accumulate(t, grad, fresh=True)
        if need_dx:
            for k, mask in enumerate(keep_flat):
                dx = np.zeros_like(x_flat)
                for d in (2 * k, 2 * k + 1):
                    dx[src[d]] += xs[d]
                if mask is not None:
                    # dropout's backward, in place: the bits of
                    # dx * (mask * scale)
                    np.multiply(dx, mask, out=dx)
                    dx *= scale
                ad.accumulate(x, dx.reshape(x.shape), fresh=True)

    ad._record(out, parents, backward)
    if not pairs:
        return out
    return [_pick(out, k) for k in range(n_pairs)]


def _pick(fused: Tensor, k: int) -> Tensor:
    """Pair k's (B, T, 2h) output, a view of a fused scan's (K, B, T, 2h)
    output; its gradient lands in that pair's part of the fused one."""
    out = Tensor(fused.data[k])

    def backward():
        if fused.grad is None:
            fused.grad = np.zeros_like(fused.data)
        fused.grad[k] += out.grad

    return ad._record(out, (fused,), backward)


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
