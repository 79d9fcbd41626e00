"""GRU recurrences, parameter storage, and dropout.

The BiGRU is implemented as one fused tape node per direction: the whole
batched sequence scan runs in numpy, and the hand-derived backward replays
the cached gates. Padded positions are masked so each sequence keeps its
own final state. The fused backward is validated against central finite
differences in the test suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.05


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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

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


def uniform_init(rng: np.random.Generator, shape, scale: float = INIT_SCALE):
    return rng.uniform(-scale, scale, size=shape)


def fan_scaled_init(rng: np.random.Generator, shape):
    """Uniform with limit sqrt(6 / (fan_in + fan_out)) for (out, in) matrices.

    Embeddings use the flat 0.05 scale; recurrence and projection weights
    need the fan-scaled limit to keep activations (and so gradients) at a
    workable magnitude through the stacked gated layers.
    """
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_gru(
    store: ParamStore,
    prefix: str,
    input_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
) -> GruParams:
    """Fan-scaled uniform gate weights, biases zero.

    Each gate block gets its own (hidden, in) or (hidden, hidden) fan limit
    and draw; the draw order (the r, z, h blocks of W, then those of U) is
    fixed, since seeded initial values depend on it.
    """
    w = [fan_scaled_init(rng, (hidden_dim, input_dim)) for _ in range(3)]
    u = [fan_scaled_init(rng, (hidden_dim, hidden_dim)) for _ in range(3)]
    return GruParams(
        W=store.add(f"{prefix}/W", np.concatenate(w)),
        U=store.add(f"{prefix}/U", np.concatenate(u)),
        b=store.add(f"{prefix}/b", np.zeros(3 * hidden_dim)),
    )


def _expit(x):
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _gru_scan(x3, mask, p: GruParams, reverse: bool):
    """Masked batched scan in one direction.

    The input projection is one GEMM over all steps; the time loop does only
    the recurrence. Returns the (B, T, h) states and the (B, T, 3h) gate
    activations r, z and the candidate state, which the backward replays.
    """
    batch, steps, in_dim = x3.shape
    hid = p.hidden_dim
    u_rz, u_cand = p.U.data[: 2 * hid], p.U.data[2 * hid :]
    b_rz, b_cand = p.b.data[: 2 * hid], p.b.data[2 * hid :]
    # every step's input projection; each step overwrites its own slot with
    # its gate activations once it has read it
    gates = (x3.reshape(-1, in_dim) @ p.W.data.T).reshape(batch, steps, 3 * hid)
    out = np.empty((batch, steps, hid))
    h = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        g = gates[:, t, :]
        rz = _expit(g[:, : 2 * hid] + h @ u_rz.T + b_rz)
        r, z = rz[:, :hid], rz[:, hid:]
        h_cand = np.tanh(g[:, 2 * hid :] + (r * h) @ u_cand.T + b_cand)
        m = mask[:, t : t + 1]
        h = m * ((1.0 - z) * h + z * h_cand) + (1.0 - m) * h
        out[:, t, :] = h
        g[:, : 2 * hid] = rz
        g[:, 2 * hid :] = h_cand
    return out, gates


def _gru_scan_backward(d_out, x3, mask, p: GruParams, out, gates, reverse: bool):
    """Backpropagate through one direction's scan; returns (dx, dW, dU, db).

    The loop fills the stacked pre-activation deltas (B, T, 3h); the weight,
    bias and input gradients are then one GEMM or sum each over all steps.
    """
    batch, steps, in_dim = x3.shape
    hid = p.hidden_dim
    u_rz, u_cand = p.U.data[: 2 * hid], p.U.data[2 * hid :]
    # the state each step read: the previous step's output in scan order
    h_prev_all = np.zeros_like(out)
    if reverse:
        h_prev_all[:, :-1] = out[:, 1:]
    else:
        h_prev_all[:, 1:] = out[:, :-1]
    da = np.empty((batch, steps, 3 * hid))
    dh = np.zeros((batch, hid))
    for t in range(steps) if reverse else range(steps - 1, -1, -1):
        h_prev = h_prev_all[:, t]
        r, z, h_cand = (gates[:, t, i * hid : (i + 1) * hid] for i in range(3))
        m = mask[:, t : t + 1]
        dh_total = d_out[:, t, :] + dh
        dh_gru = m * dh_total
        dh = (1.0 - m) * dh_total + dh_gru * (1.0 - z)
        da_h = dh_gru * z * (1.0 - h_cand * h_cand)
        drh = da_h @ u_cand
        dh += drh * r
        da[:, t, :hid] = drh * h_prev * r * (1.0 - r)
        da[:, t, hid : 2 * hid] = dh_gru * (h_cand - h_prev) * z * (1.0 - z)
        da[:, t, 2 * hid :] = da_h
        dh += da[:, t, : 2 * hid] @ u_rz
    flat = da.reshape(-1, 3 * hid)
    dx = (flat @ p.W.data).reshape(x3.shape)
    dw = flat.T @ x3.reshape(-1, in_dim)
    rh = gates[:, :, :hid] * h_prev_all
    du = np.concatenate(
        [
            flat[:, : 2 * hid].T @ h_prev_all.reshape(-1, hid),
            flat[:, 2 * hid :].T @ rh.reshape(-1, hid),
        ]
    )
    return dx, dw, du, flat.sum(axis=0)


def bigru_batch(
    x: Tensor, lengths: np.ndarray, fwd: GruParams, bwd: GruParams
) -> Tensor:
    """Bidirectional scan over (B, T, in); rows past each length are frozen.

    Output is (B, T, 2*hidden): forward states then backward states. The
    forward state at a sequence's last real position and the backward state
    at position 0 are that sequence's final states.
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
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
    # backward direction: start the reverse scan at each row's own last token
    # by masking, so padding never contaminates the state
    out_f, gates_f = _gru_scan(x.data, mask, fwd, reverse=False)
    out_b, gates_b = _gru_scan(x.data, mask, bwd, reverse=True)
    out = Tensor(np.concatenate([out_f, out_b], axis=2))
    parents = (x, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b)
    if not ad._needs(*parents):
        return out

    hid = fwd.hidden_dim

    def backward():
        g = out.grad
        dx_f, *grads_f = _gru_scan_backward(
            g[:, :, :hid], x.data, mask, fwd, out.data[:, :, :hid], gates_f, False
        )
        dx_b, *grads_b = _gru_scan_backward(
            g[:, :, hid:], x.data, mask, bwd, out.data[:, :, hid:], gates_b, True
        )
        if x.requires_grad:
            ad.accumulate(x, dx_f + dx_b)
        for p, grads in ((fwd, grads_f), (bwd, grads_b)):
            for t, grad in zip((p.W, p.U, p.b), grads):
                if t.requires_grad:
                    ad.accumulate(t, grad)

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
        if h.grad is None:
            h.grad = np.zeros_like(h.data)
        h.grad[rows, lengths - 1, :hid] += out.grad[:, :hid]
        h.grad[rows, 0, hid:] += out.grad[:, hid:]

    return ad._record(out, (h,), backward)


def dropout(
    x: Tensor, rate: float, mode: str, rng: np.random.Generator | None = None
) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/(1-rate); identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout: unknown mode {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: train mode needs an rng")
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(np.float64) / (1.0 - rate)
    return ad.mul(x, Tensor(mask))
