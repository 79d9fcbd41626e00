"""Every tape operation against central finite differences."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from sawreader import autodiff as ad
from sawreader.autodiff import Tensor
from sawreader.neural import ParamStore

from oracles import (
    grad_check,
    grad_enabled,
    log_floored,
    matmul,
    neg,
    reshape,
    scale,
    sigmoid,
    slice1d,
    slice_rows,
    softmax,
    stack_rows,
    sub,
    sum_at,
    take_row,
    tanh,
    transpose,
    weighted_sum,
)


# every finite-difference check here uses these
EPS, TOL = 1e-6, 1e-7


def _leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_add_sub_mul_neg_scale_grads():
    rng = np.random.default_rng(100)
    a = _leaf(rng, 3, 2)
    b = _leaf(rng, 3, 2)
    w = rng.standard_normal(6)
    assert grad_check(lambda: weighted_sum(ad.add(a, b), w), [a, b], eps=EPS) < TOL
    assert grad_check(lambda: weighted_sum(sub(a, b), w), [a, b], eps=EPS) < TOL
    assert grad_check(lambda: weighted_sum(ad.mul(a, b), w), [a, b], eps=EPS) < TOL
    assert grad_check(lambda: weighted_sum(neg(a), w), [a], eps=EPS) < TOL
    assert grad_check(lambda: weighted_sum(scale(a, -1.7), w), [a], eps=EPS) < TOL


def test_elementwise_shape_mismatch():
    a = Tensor(np.zeros((2, 2)))
    b = Tensor(np.zeros((2, 3)))
    for op in (ad.add, sub, ad.mul):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, b)


def test_matmul_grads_and_errors():
    rng = np.random.default_rng(101)
    a = _leaf(rng, 3, 4)
    b = _leaf(rng, 4, 2)
    v = _leaf(rng, 4)
    w6, w3 = rng.standard_normal(6), rng.standard_normal(3)
    assert grad_check(lambda: weighted_sum(matmul(a, b), w6), [a, b], eps=EPS) < TOL
    column = lambda: matmul(a, reshape(v, (4, 1)))
    assert grad_check(lambda: weighted_sum(column(), w3), [a, v], eps=EPS) < TOL
    # batched: one product per leading index, on data of its own
    rng = np.random.default_rng(7)
    a3, b3 = _leaf(rng, 2, 3, 4), _leaf(rng, 2, 4, 2)
    w12 = rng.standard_normal(12)
    assert grad_check(lambda: weighted_sum(matmul(a3, b3), w12), [a3, b3], eps=EPS) < TOL
    with pytest.raises(ValueError, match="inner dim"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="inner dim"):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))
    with pytest.raises(ValueError, match="unsupported ranks"):
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match="unsupported ranks"):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros(3)))


def test_affine_matches_manual_and_grads():
    rng = np.random.default_rng(102)
    x = _leaf(rng, 5, 3)
    w = _leaf(rng, 2, 3)
    b = _leaf(rng, 2)
    out = ad.affine(x, w, b)
    assert np.allclose(out.data, x.data @ w.data.T + b.data, atol=1e-15)
    w10 = rng.standard_normal(10)
    objective = lambda: weighted_sum(ad.affine(x, w, b), w10)
    assert grad_check(objective, [x, w, b], eps=EPS) < TOL
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.affine(x, w, Tensor(np.zeros(3)))


def test_transpose_grads():
    rng = np.random.default_rng(103)
    a = _leaf(rng, 2, 5)
    w = rng.standard_normal(10)
    assert grad_check(lambda: weighted_sum(transpose(a), w), [a], eps=EPS) < TOL


def test_sigmoid_values_and_stability():
    x = Tensor(np.array([0.0, -1000.0, 1000.0]))
    y = sigmoid(x)
    assert np.isfinite(y.data).all()
    assert y.data[0] == pytest.approx(0.5)
    assert y.data[1] == pytest.approx(0.0, abs=1e-12)
    assert y.data[2] == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_tanh_grads():
    rng = np.random.default_rng(104)
    a = _leaf(rng, 7)
    w = rng.standard_normal(7)
    assert grad_check(lambda: weighted_sum(sigmoid(a), w), [a], eps=EPS) < TOL
    assert grad_check(lambda: weighted_sum(tanh(a), w), [a], eps=EPS) < TOL


def test_softmax_known_values():
    # softmax([0, ln 2]) = [1/3, 2/3]
    y = softmax(Tensor(np.array([0.0, np.log(2.0)])))
    assert np.allclose(y.data, [1 / 3, 2 / 3], atol=1e-12)
    # shift invariance keeps large inputs stable
    y = softmax(Tensor(np.array([1000.0, 1000.0])))
    assert np.allclose(y.data, [0.5, 0.5], atol=1e-12)


def test_softmax_rows_and_grads():
    rng = np.random.default_rng(105)
    a = _leaf(rng, 3, 4)
    y = softmax(a)
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
    w12 = rng.standard_normal(12)
    assert grad_check(lambda: weighted_sum(softmax(a), w12), [a], eps=EPS) < TOL
    v = _leaf(rng, 5)
    w5 = rng.standard_normal(5)
    assert grad_check(lambda: weighted_sum(softmax(v), w5), [v], eps=EPS) < TOL


def test_softmax_rejects_nan_and_bad_rank():
    with pytest.raises(ValueError, match="NaN"):
        softmax(Tensor(np.array([1.0, np.nan])))
    with pytest.raises(ValueError, match="1-D, 2-D or 3-D"):
        softmax(Tensor(np.zeros((2, 2, 2, 2))))


def test_batched_transpose_softmax_and_masked_entries():
    rng = np.random.default_rng(8)
    a = _leaf(rng, 2, 3, 4)
    w24 = rng.standard_normal(24)
    # the gradient of a weighted sum of the transpose is the weights swapped back
    weighted_sum(transpose(a), w24).backward()
    assert np.array_equal(a.grad, np.swapaxes(w24.reshape(2, 4, 3), -1, -2))
    assert grad_check(lambda: weighted_sum(softmax(a), w24), [a], eps=EPS) < TOL
    # a -inf entry gets probability exactly 0 and passes back no gradient
    mask = np.zeros((2, 3, 4))
    mask[0, :, 2:] = -np.inf
    y = softmax(ad.add(a, Tensor(mask)))
    assert np.array_equal(y.data[0, :, 2:], np.zeros((3, 2)))
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
    a.grad = None
    weighted_sum(y, w24).backward()
    assert np.array_equal(a.grad[0, :, 2:], np.zeros((3, 2)))


def test_concat_grads_both_axes():
    rng = np.random.default_rng(106)
    a = _leaf(rng, 2, 3)
    b = _leaf(rng, 4, 3)
    c = _leaf(rng, 2, 2)
    w18, w10 = rng.standard_normal(18), rng.standard_normal(10)
    objective = lambda: weighted_sum(ad.concat([a, b], axis=0), w18)
    assert grad_check(objective, [a, b], eps=EPS) < TOL
    objective = lambda: weighted_sum(ad.concat([a, c], axis=1), w10)
    assert grad_check(objective, [a, c], eps=EPS) < TOL
    with pytest.raises(ValueError, match="empty"):
        ad.concat([])


def test_stack_rows_grads():
    rng = np.random.default_rng(107)
    a = _leaf(rng, 4)
    b = _leaf(rng, 4)
    w = rng.standard_normal(8)
    objective = lambda: weighted_sum(stack_rows([a, b]), w)
    assert grad_check(objective, [a, b], eps=EPS) < TOL


def test_reshape_grads():
    rng = np.random.default_rng(108)
    a = _leaf(rng, 2, 6)
    w = rng.standard_normal(12)
    objective = lambda: weighted_sum(reshape(a, (3, 4)), w)
    assert grad_check(objective, [a], eps=EPS) < TOL


def test_gather_rows_accumulates_duplicates():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = sum_at(reshape(ad.gather_rows(table, [0, 0, 2]), (6,)), range(6))
    out.backward()
    assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_gather_rows_grads():
    rng = np.random.default_rng(109)
    table = _leaf(rng, 4, 3)
    w = rng.standard_normal(12)
    objective = lambda: weighted_sum(ad.gather_rows(table, [1, 1, 3, 0]), w)
    assert grad_check(objective, [table], eps=EPS) < TOL


def test_gather_rows_takes_an_index_array_of_any_shape():
    # a padded (B, T) index: row 0 pads, and rows 1 and 3 repeat; it must
    # equal a flat gather reshaped, bit for bit in value and gradient
    rng = np.random.default_rng(111)
    idx = np.array([[2, 1, 1, 0, 0], [3, 1, 0, 0, 0], [3, 3, 2, 1, 1]])
    data = rng.standard_normal((4, 6))
    w = rng.standard_normal(idx.size * 6)
    table, flat = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    out = ad.gather_rows(table, idx)
    ref = reshape(ad.gather_rows(flat, idx.reshape(-1)), (3, 5, 6))
    assert out.shape == (3, 5, 6)
    assert np.array_equal(out.data, ref.data)
    weighted_sum(out, w).backward()
    weighted_sum(ref, w).backward()
    assert np.array_equal(table.grad, flat.grad)
    objective = lambda: weighted_sum(ad.gather_rows(table, idx), w)
    assert grad_check(objective, [table], eps=EPS) < TOL
    for bad in (np.zeros(4), np.zeros((4, 6, 1))):
        with pytest.raises(ValueError, match="2-D table"):
            ad.gather_rows(Tensor(bad, requires_grad=True), idx)


def test_take_row_and_slices():
    rng = np.random.default_rng(110)
    a = _leaf(rng, 4, 3)
    w3 = rng.standard_normal(3)
    assert grad_check(lambda: weighted_sum(take_row(a, 2), w3), [a], eps=EPS) < TOL
    with pytest.raises(ValueError, match="out of range"):
        take_row(a, 4)
    v = _leaf(rng, 6)
    w3b = rng.standard_normal(3)
    assert grad_check(lambda: weighted_sum(slice1d(v, 1, 4), w3b), [v], eps=EPS) < TOL


def test_slice_rows_grads():
    rng = np.random.default_rng(111)
    a = _leaf(rng, 2, 4, 3)
    w = rng.standard_normal(6)
    objective = lambda: weighted_sum(slice_rows(a, 1, 2), w)
    assert grad_check(objective, [a], eps=EPS) < TOL
    m = _leaf(rng, 3, 5)
    w2 = rng.standard_normal(2)
    objective = lambda: weighted_sum(slice_rows(m, 2, 2), w2)
    assert grad_check(objective, [m], eps=EPS) < TOL


def test_sum_at_duplicate_indices():
    p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    out = sum_at(p, [0, 0, 2])
    assert float(out.data) == pytest.approx(5.0)
    out.backward()
    assert np.array_equal(p.grad, [2.0, 0.0, 1.0])


def test_log_floored_gradient_and_floor():
    x = Tensor(np.array(0.25), requires_grad=True)
    out = log_floored(x)
    out.backward()
    assert float(out.data) == pytest.approx(np.log(0.25))
    assert x.grad == pytest.approx(4.0)
    below = Tensor(np.array(1e-30), requires_grad=True)
    out = log_floored(below)
    out.backward()
    assert float(out.data) == pytest.approx(np.log(1e-12))
    assert below.grad is None or below.grad == 0.0


def _composed_nll(p, rows, positions):
    """answer_nll's oracle: the mean of each row's own -log(floored sum)."""
    return ad.mean_of(
        [
            neg(log_floored(sum_at(take_row(p, r), ix), 1e-12))
            for r, ix in zip(rows, positions)
        ]
    )


def test_answer_nll_matches_composition_and_finite_differences():
    # row 0's answer occurs at positions 0 and 2; row 1 lists position 3
    # twice, which counts its probability twice
    p = Tensor(
        np.array([[0.1, 0.3, 0.2, 0.15, 0.25], [0.3, 0.1, 0.2, 0.15, 0.25]]),
        requires_grad=True,
    )
    rows, positions = [0, 1], [[0, 2], [3, 3]]
    out = ad.answer_nll(p, rows, positions, 1e-12)
    ref = _composed_nll(p, rows, positions)
    assert float(out.data) == float(ref.data) == pytest.approx(-np.log(0.3))
    out.backward()
    got, p.grad = p.grad, None
    ref.backward()
    assert np.array_equal(got, p.grad)
    assert np.allclose(
        got,
        [[-0.5 / 0.3, 0.0, -0.5 / 0.3, 0.0, 0.0], [0.0, 0.0, 0.0, -1 / 0.3, 0.0]],
        rtol=1e-14,
    )
    objective = lambda: ad.answer_nll(p, rows, positions, 1e-12)
    assert grad_check(objective, [p], eps=EPS) < TOL
    # past numpy's 8-wide pairwise block the mean still sums row by row
    rng = np.random.default_rng(112)
    big = Tensor(rng.dirichlet(np.ones(5), size=12), requires_grad=True)
    rows = list(range(12))
    positions = [sorted(rng.choice(5, 2, replace=False)) for _ in rows]
    out = ad.answer_nll(big, rows, positions, 1e-12)
    ref = _composed_nll(big, rows, positions)
    assert float(out.data) == float(ref.data)
    out.backward()
    got, big.grad = big.grad, None
    ref.backward()
    assert np.array_equal(got, big.grad)
    # below the floor a row's loss is -log(floor) and its gradient is zero
    tiny = Tensor(np.array([[1e-30, 0.5, 1e-30], [0.2, 0.5, 0.3]]), requires_grad=True)
    out = ad.answer_nll(tiny, [0, 1], [[0, 2], [1]], 1e-12)
    assert float(out.data) == pytest.approx((-np.log(1e-12) - np.log(0.5)) / 2)
    out.backward()
    assert np.array_equal(tiny.grad, [[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    with pytest.raises(ValueError, match="one position list per row"):
        ad.answer_nll(p, [0, 1], [[0]], 1e-12)
    with pytest.raises(ValueError, match=r"\(B, T\)"):
        ad.answer_nll(Tensor(np.ones(3)), [0], [[0]], 1e-12)


def test_mean_of_grads():
    xs = [Tensor(np.array(float(i)), requires_grad=True) for i in range(4)]
    out = ad.mean_of(xs)
    assert float(out.data) == pytest.approx(1.5)
    out.backward()
    for x in xs:
        assert x.grad == pytest.approx(0.25)


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        t.backward()


def test_no_grad_disables_recording():
    a = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        assert not grad_enabled()
        out = ad.mul(a, a)
        assert out._parents == ()
        assert not out.requires_grad
        with ad.no_grad():
            pass
        assert not grad_enabled()  # nesting restores the inner save
    assert grad_enabled()


def test_untracked_inputs_build_no_graph():
    a = Tensor(np.ones(2))
    out = ad.add(a, Tensor(np.ones(2)))
    assert out._parents == () and out._backward is None


def test_deep_chain_backward_is_iterative():
    # a recursive topological sort would blow the interpreter stack here
    x = Tensor(np.array(1.0), requires_grad=True)
    node = x
    for _ in range(5000):
        node = scale(node, 1.0)
    node.backward()
    assert x.grad == pytest.approx(1.0)


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.array(2.0), requires_grad=True)
    scale(x, 3.0).backward()
    scale(x, 3.0).backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_keeps_grads_of_leaves_and_root_only():
    rng = np.random.default_rng(121)
    w = ParamStore().add("w", rng.standard_normal((3, 4)))
    x = _leaf(rng, 3, 4)
    weights = rng.standard_normal(12)
    held = {}

    def objective():
        h = ad.mul(x, w)
        # a diamond: h feeds two consumers whose outputs meet again, and
        # add(both, both) hands one gradient to the same parent twice
        both = ad.add(softmax(h), tanh(h))
        held.update(h=h, both=both)
        return weighted_sum(ad.add(both, both), weights)

    out = objective()
    out.backward()
    assert out.grad == 1.0
    assert all(t.grad is None for t in held.values())
    # the leaves' gradients, derived by hand
    g = 2.0 * weights.reshape(3, 4)
    y, t = held["h"].data, np.tanh(held["h"].data)
    y = np.exp(y - y.max(axis=1, keepdims=True))
    y /= y.sum(axis=1, keepdims=True)
    dh = (g - (g * y).sum(axis=1, keepdims=True)) * y + g * (1.0 - t * t)
    assert np.allclose(x.grad, dh * w.data, rtol=1e-12, atol=1e-15)
    assert np.allclose(w.grad, dh * x.data, rtol=1e-12, atol=1e-15)
    analytic = {0: x.grad.copy(), 1: w.grad.copy()}
    assert grad_check(objective, [x, w], eps=EPS, analytic=analytic) < TOL


def test_package_tape_ops_all_have_callers():
    # code only the tests use belongs in tests/oracles.py, not in the
    # package API: each public name of autodiff is used outside it. Only a
    # qualified reference counts (ad.name, autodiff.name, or a name
    # imported from the module), so numpy's own x.reshape or x.concat
    # keeps no op alive.
    root = Path(__file__).resolve().parents[1]
    sources = [
        p for d in ("src", "bench") for p in (root / d).rglob("*.py")
        if p.name != "autodiff.py"
    ]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    used = set(re.findall(r"\b(?:ad|autodiff)\.(\w+)", text))
    imports = r"from (?:\.|sawreader\.)autodiff import (\([^)]*\)|.*)"
    for names in re.findall(imports, text):
        used.update(re.findall(r"\w+", names))
    public = [
        name for name, obj in vars(ad).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == ad.__name__
    ]
    assert "accumulate" in public and "softmax" not in public
    unused = [name for name in public if name not in used]
    assert unused == []
