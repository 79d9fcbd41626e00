"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every operation returns a Tensor that remembers its parent
tensors and a closure that pushes the output gradient back to them.
``Tensor.backward()`` walks the graph in reverse topological order and lets
go of each node once it has run, so after a walk only leaves (tensors with
no recorded backward, such as parameters) and the root keep ``.grad``; an
interior node the caller still holds keeps its ``.data`` but not its
gradient. Only the operations this model needs are implemented, all in
float64. Each one takes a whole padded batch, so a train step's graph holds
no node per example: answer_nll is the batch's one loss node.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (cheap forward passes)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        A graph is walked once. Each node leaves the walk's order as it
        runs and drops its closure and parents, and an interior node (one
        with a recorded backward, other than this root) also drops its
        .grad, which no later node reads. So each node's gradient and
        cached arrays are freed by reference counting as soon as nothing
        left to run needs them, and only leaves and the root keep .grad.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            step = node._backward
            node._backward = None
            node._parents = ()
            if step is not None:
                if node.grad is not None:
                    step()
                if node is not self:
                    node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into t.grad; the first touch stores a float64 copy of g.

    With fresh, g is a float64 array the caller has just built and shares
    with no one, so the first touch takes it as is. Never pass an
    out.grad, a view of an array anything else holds, or one array meant
    for two tensors: a later touch adds into the stored array in place.

    An interior t holds its gradient only until its own backward has run
    (see Tensor.backward); a leaf keeps it."""
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def accumulate_at(t: Tensor, index, g) -> None:
    """Scatter-add g into t.grad at index, as np.add.at does, so repeated
    entries of index add up; the first touch starts from zeros, and a
    later touch adds into the stored array in place."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    np.add.at(t.grad, index, g)


def _record(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    out.requires_grad = True
    out._parents = parents
    out._backward = backward
    return out


def _needs(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    if not _needs(a, b):
        return out

    def backward():
        if a.requires_grad:
            accumulate(a, out.grad)
        if b.requires_grad:
            accumulate(b, out.grad)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)
    if not _needs(a, b):
        return out

    def backward():
        if a.requires_grad:
            accumulate(a, out.grad * b.data)
        if b.requires_grad:
            accumulate(b, out.grad * a.data)

    return _record(out, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise dense map: (n,d) @ (o,d).T + (o,) -> (n,o)."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ValueError("affine: expected x (n,d), w (o,d), b (o,)")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ValueError(
            f"affine: shape mismatch x{x.shape}, w{w.shape}, b{b.shape}"
        )
    out = Tensor(x.data @ w.data.T + b.data)
    if not _needs(x, w, b):
        return out

    def backward():
        if x.requires_grad:
            accumulate(x, out.grad @ w.data)
        if w.requires_grad:
            accumulate(w, out.grad.T @ x.data)
        if b.requires_grad:
            accumulate(b, out.grad.sum(axis=0))

    return _record(out, (x, w, b), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat: empty input")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    if not _needs(*tensors):
        return out

    sizes = [t.shape[axis] for t in tensors]

    def backward():
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * out.grad.ndim
                sl[axis] = slice(offset, offset + size)
                accumulate(t, out.grad[tuple(sl)])
            offset += size

    return _record(out, tuple(tensors), backward)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Rows of a 2-D table for an integer index array of any shape, as an
    indices.shape + (width,) tensor; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.ndim != 2:
        raise ValueError("gather_rows: expected a 2-D table")
    out = Tensor(table.data[idx])
    if not _needs(table):
        return out

    def backward():
        accumulate_at(table, idx, out.grad)

    return _record(out, (table,), backward)


def answer_nll(probs: Tensor, rows, positions, floor: float) -> Tensor:
    """The batch's answer loss: the mean over k of
    -log(max(sum of probs[rows[k], positions[k]], floor)) for a (B, T)
    probs. A repeated position counts twice; a row below the floor gets
    zero gradient. The mean is the sequential sum of the row losses over
    their count, as mean_of takes it."""
    if probs.ndim != 2:
        raise ValueError("answer_nll: expected a (B, T) tensor")
    if not rows or len(rows) != len(positions):
        raise ValueError("answer_nll: need one position list per row")
    idx = [np.asarray(ix, dtype=np.intp) for ix in positions]
    totals = [float(probs.data[r, ix].sum()) for r, ix in zip(rows, idx)]
    out = Tensor(sum(float(-np.log(max(t, floor))) for t in totals) / len(totals))
    if not _needs(probs):
        return out

    def backward():
        g = out.grad / len(totals)
        for r, ix, total in zip(rows, idx, totals):
            if total >= floor:
                accumulate_at(probs, (r, ix), -g / total)

    return _record(out, (probs,), backward)


def mean_of(scalars: list[Tensor]) -> Tensor:
    """Mean of scalar nodes. Over one-row answer_nll nodes of a batch it
    equals that batch's answer_nll bit for bit, in value and gradient."""
    if not scalars:
        raise ValueError("mean_of: empty input")
    out = Tensor(sum(float(s.data) for s in scalars) / len(scalars))
    if not _needs(*scalars):
        return out

    inv = 1.0 / len(scalars)

    def backward():
        for s in scalars:
            if s.requires_grad:
                accumulate(s, out.grad * inv)

    return _record(out, tuple(scalars), backward)
