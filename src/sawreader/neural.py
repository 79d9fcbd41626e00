"""GRU recurrences, parameter storage, dropout, and gradient checking.

The BiGRU is implemented as one fused tape node per direction: the whole
batched sequence scan runs in numpy, and the hand-derived backward replays
the cached gates. Padded positions are masked so each sequence keeps its
own final state. The fused backward is validated against central finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.05

# creation order is fixed: checkpoints and rng draws depend on it
_GRU_FIELDS = ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")


@dataclass
class GruParams:
    """One direction's gate weights: W_* act on the input, U_* on the state."""

    W_r: Tensor
    W_z: Tensor
    W_h: Tensor
    U_r: Tensor
    U_z: Tensor
    U_h: Tensor
    b_r: Tensor
    b_z: Tensor
    b_h: Tensor

    @property
    def input_dim(self) -> int:
        return self.W_r.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_r.shape[0]

    def fields(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in _GRU_FIELDS]


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
        """Flat little-endian float32 blob plus a name/shape manifest."""
        with open(bin_path, "wb") as fh:
            for t in self._params.values():
                fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        with open(manifest_path, "w", encoding="utf-8") as fh:
            for name, t in self._params.items():
                dims = ",".join(str(d) for d in t.data.shape)
                fh.write(f"{name}\t{dims}\n")

    def load_values(self, bin_path, manifest_path) -> None:
        """Overwrite parameter values; names and shapes must match exactly."""
        entries: list[tuple[str, tuple[int, ...]]] = []
        with open(manifest_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                name, dims = line.split("\t")
                shape = tuple(int(d) for d in dims.split(",")) if dims else ()
                entries.append((name, shape))
        if [name for name, _ in entries] != self.names():
            raise ValueError("checkpoint manifest does not match parameter set")
        raw = np.fromfile(bin_path, dtype="<f4")
        offset = 0
        for name, shape in entries:
            t = self._params[name]
            if shape != t.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            n = t.data.size
            if offset + n > raw.size:
                raise ValueError("checkpoint binary is shorter than manifest")
            t.data = raw[offset : offset + n].astype(np.float64).reshape(shape)
            offset += n
        if offset != raw.size:
            raise ValueError("checkpoint binary is longer than manifest")


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
    """Fan-scaled uniform gate weights, biases zero."""
    shapes = {
        "W_r": (hidden_dim, input_dim),
        "W_z": (hidden_dim, input_dim),
        "W_h": (hidden_dim, input_dim),
        "U_r": (hidden_dim, hidden_dim),
        "U_z": (hidden_dim, hidden_dim),
        "U_h": (hidden_dim, hidden_dim),
    }
    tensors = {}
    for name in _GRU_FIELDS:
        if name.startswith("b_"):
            tensors[name] = store.add(f"{prefix}/{name}", np.zeros(hidden_dim))
        else:
            tensors[name] = store.add(
                f"{prefix}/{name}", fan_scaled_init(rng, shapes[name])
            )
    return GruParams(**tensors)


def _gru_scan(x3, mask, p: GruParams, reverse: bool):
    """Masked batched scan in one direction. Returns outputs and step cache."""
    batch, steps, _ = x3.shape
    hid = p.hidden_dim
    w_r, w_z, w_h = p.W_r.data, p.W_z.data, p.W_h.data
    u_r, u_z, u_h = p.U_r.data, p.U_z.data, p.U_h.data
    b_r, b_z, b_h = p.b_r.data, p.b_z.data, p.b_h.data
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    out = np.zeros((batch, steps, hid))
    h = np.zeros((batch, hid))
    cache = []
    for t in order:
        x = x3[:, t, :]
        r = _expit(x @ w_r.T + h @ u_r.T + b_r)
        z = _expit(x @ w_z.T + h @ u_z.T + b_z)
        rh = r * h
        h_cand = np.tanh(x @ w_h.T + rh @ u_h.T + b_h)
        h_gru = (1.0 - z) * h + z * h_cand
        m = mask[:, t : t + 1]
        h_new = m * h_gru + (1.0 - m) * h
        out[:, t, :] = h_new
        cache.append((t, h, r, z, rh, h_cand))
        h = h_new
    return out, cache


def _expit(x):
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _gru_scan_backward(d_out, x3, mask, p: GruParams, cache):
    """Backpropagate through one direction's scan; returns dX and param grads."""
    w_r, w_z, w_h = p.W_r.data, p.W_z.data, p.W_h.data
    u_r, u_z, u_h = p.U_r.data, p.U_z.data, p.U_h.data
    dx3 = np.zeros_like(x3)
    grads = {name: np.zeros_like(getattr(p, name).data) for name in _GRU_FIELDS}
    dh = np.zeros((x3.shape[0], p.hidden_dim))
    for t, h_prev, r, z, rh, h_cand in reversed(cache):
        x = x3[:, t, :]
        m = mask[:, t : t + 1]
        dh_total = d_out[:, t, :] + dh
        dh_gru = m * dh_total
        dh_prev = (1.0 - m) * dh_total
        dz = dh_gru * (h_cand - h_prev)
        dh_cand = dh_gru * z
        dh_prev += dh_gru * (1.0 - z)
        da_h = dh_cand * (1.0 - h_cand * h_cand)
        grads["W_h"] += da_h.T @ x
        grads["U_h"] += da_h.T @ rh
        grads["b_h"] += da_h.sum(axis=0)
        drh = da_h @ u_h
        dr = drh * h_prev
        dh_prev += drh * r
        da_r = dr * r * (1.0 - r)
        da_z = dz * z * (1.0 - z)
        grads["W_r"] += da_r.T @ x
        grads["U_r"] += da_r.T @ h_prev
        grads["b_r"] += da_r.sum(axis=0)
        grads["W_z"] += da_z.T @ x
        grads["U_z"] += da_z.T @ h_prev
        grads["b_z"] += da_z.sum(axis=0)
        dh_prev += da_r @ u_r + da_z @ u_z
        dx3[:, t, :] += da_r @ w_r + da_z @ w_z + da_h @ w_h
        dh = dh_prev
    return dx3, grads


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
    out_f, cache_f = _gru_scan(x.data, mask, fwd, reverse=False)
    out_b, cache_b = _gru_scan(x.data, mask, bwd, reverse=True)
    out = Tensor(np.concatenate([out_f, out_b], axis=2))
    parents = [x]
    for p in (fwd, bwd):
        parents.extend(t for _, t in p.fields())
    if not ad._needs(*parents):
        return out

    hid = fwd.hidden_dim

    def backward():
        g = out.grad
        dx_f, grads_f = _gru_scan_backward(
            g[:, :, :hid], x.data, mask, fwd, cache_f
        )
        dx_b, grads_b = _gru_scan_backward(
            g[:, :, hid:], x.data, mask, bwd, cache_b
        )
        if x.requires_grad:
            ad.accumulate(x, dx_f + dx_b)
        for p, grads in ((fwd, grads_f), (bwd, grads_b)):
            for name, t in p.fields():
                if t.requires_grad:
                    ad.accumulate(t, grads[name])

    return ad._record(out, tuple(parents), backward)


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


def grad_check(
    objective,
    params: ParamStore,
    eps: float = 1e-5,
    analytic: dict[str, np.ndarray] | None = None,
    floor: float = 1e-8,
) -> float:
    """Max relative error between tape gradients and central differences.

    `objective` is a zero-argument callable that rebuilds the graph from the
    current parameter values and returns a scalar Tensor. Pass `analytic` to
    check externally supplied gradients instead of running backward().

    The error per coordinate is |a - n| / max(|a|, |n|, floor). The floor
    sets the gradient magnitude below which disagreement counts as absolute:
    central differences on an order-one objective carry ~1e-11 of absolute
    noise from cancellation, so checks over deep compositions whose smallest
    gradient entries sit near zero need a floor around 1e-5 for the relative
    tolerance to be meaningful.
    """
    if analytic is None:
        params.zero_grads()
        out = objective()
        if out.data.size != 1 or not np.isfinite(out.data).all():
            raise ValueError("grad_check: objective must return a finite scalar")
        out.backward()
        analytic = {
            name: np.array(t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in params.items()
        }
    worst = 0.0
    with ad.no_grad():
        for name, t in params.items():
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
