"""GRU semantics, the fused bidirectional scan, its input dropout, and
checkpoints.

The packed bidirectional scan is checked two independent ways: value-for-value
against a plain per-step loop built from gru_step, and gradient-for-gradient
against central finite differences. Both checks run on the serial path and on
the path that gives each direction its own thread, and the two paths are
checked to agree bit for bit.
"""

import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawreader import autodiff as ad
from sawreader import neural
from sawreader.autodiff import Tensor
from sawreader.neural import (
    GruParams,
    ParamStore,
    bigru_batch,
    bigru_finals,
    fan_scaled_init,
    init_gru,
    uniform_init,
)

from oracles import (
    bigru,
    dropout_mul,
    grad_check,
    gru_step,
    reshape,
    slice_rows,
    sum_at,
    take_row,
    traced_memory,
    weighted_sum,
)


def _zero_gru(input_dim, hidden_dim):
    store = ParamStore()
    p = GruParams(
        W=store.add("W", np.zeros((3 * hidden_dim, input_dim))),
        U=store.add("U", np.zeros((3 * hidden_dim, hidden_dim))),
        b=store.add("b", np.zeros(3 * hidden_dim)),
    )
    return p, store


def _random_grus(rng, input_dim, hidden_dim):
    store = ParamStore()
    fwd = init_gru(store, "fwd", input_dim, hidden_dim, rng)
    bwd = init_gru(store, "bwd", input_dim, hidden_dim, rng)
    # non-zero biases so the finite-difference check covers them
    for p in (fwd, bwd):
        p.b.data = rng.standard_normal(p.b.data.shape) * 0.1
    return fwd, bwd, store


def test_gru_step_zero_params_halves_state():
    p, _ = _zero_gru(2, 3)
    h = Tensor(np.array([2.0, -4.0, 6.0]))
    out = gru_step(Tensor(np.ones(2)), h, p)
    assert np.allclose(out.data, [1.0, -2.0, 3.0], atol=1e-15)


def test_gru_step_saturated_update_gate_forgets_state():
    # b_z = +10 pushes z to ~1, so the new state is ~tanh(0) = 0
    p, _ = _zero_gru(2, 3)
    p.b.data[3:6] = 10.0
    out = gru_step(Tensor(np.ones(2)), Tensor(np.array([5.0, -5.0, 2.0])), p)
    assert np.abs(out.data).max() < 1e-3


def test_gru_step_dim_errors():
    p, _ = _zero_gru(2, 3)
    with pytest.raises(ValueError, match="input dim"):
        gru_step(Tensor(np.ones(3)), Tensor(np.zeros(3)), p)
    with pytest.raises(ValueError, match="state dim"):
        gru_step(Tensor(np.ones(2)), Tensor(np.zeros(2)), p)
    with pytest.raises(ValueError, match="1-D"):
        gru_step(Tensor(np.ones((1, 2))), Tensor(np.zeros(3)), p)


def test_bigru_batch_matches_stepwise_loop():
    # independent route: run the same sequences through gru_step one token
    # at a time, forward and reversed, and compare every output row
    rng = np.random.default_rng(3)
    fwd, bwd, _ = _random_grus(rng, 3, 4)
    lengths = np.array([4, 1, 3])
    x = rng.standard_normal((3, 4, 3))
    x[1, 1:] = 0.0
    x[2, 3:] = 0.0
    out = bigru_batch(Tensor(x), lengths, fwd, bwd)
    with ad.no_grad():
        for i, n in enumerate(lengths):
            h = Tensor(np.zeros(4))
            for t in range(n):
                h = gru_step(Tensor(x[i, t]), h, fwd)
                assert np.allclose(out.data[i, t, :4], h.data, atol=1e-12)
            h = Tensor(np.zeros(4))
            for t in range(n - 1, -1, -1):
                h = gru_step(Tensor(x[i, t]), h, bwd)
                assert np.allclose(out.data[i, t, 4:], h.data, atol=1e-12)


def test_bigru_batch_zeroes_padded_positions():
    rng = np.random.default_rng(4)
    fwd, bwd, _ = _random_grus(rng, 2, 3)
    x = rng.standard_normal((2, 5, 2))
    out = bigru_batch(Tensor(x), np.array([2, 5]), fwd, bwd)
    # past its length a row outputs zeros in both directions
    assert not out.data[0, 2:].any()
    assert out.data[0, :2].all() and out.data[1].all()
    # backward scan never lets padding into the real positions: the state at
    # the last real token equals a fresh one-step update
    with ad.no_grad():
        h1 = gru_step(Tensor(x[0, 1]), Tensor(np.zeros(3)), bwd)
    assert np.allclose(out.data[0, 1, 3:], h1.data, atol=1e-12)


def test_bigru_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    fwd, bwd, store = _random_grus(rng, 2, 3)
    x = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
    store_all = store  # params only; x checked through grad_check's analytic arg
    lengths = np.array([3, 2])
    w = rng.standard_normal(2 * 3 * 6)

    def objective():
        out = bigru_batch(x, lengths, fwd, bwd)
        flat = reshape(out, (out.data.size,))
        return sum_at(ad.mul(flat, Tensor(w)), np.arange(flat.data.size))

    assert grad_check(objective, store_all, eps=1e-5) < 1e-6


def test_bigru_batch_input_gradient():
    rng = np.random.default_rng(6)
    fwd, bwd, _ = _random_grus(rng, 2, 2)
    store = ParamStore()
    x = store.add("x", rng.standard_normal((1, 3, 2)))
    lengths = np.array([3])
    w = rng.standard_normal(12)

    def objective():
        out = bigru_batch(x, lengths, fwd, bwd)
        flat = reshape(out, (out.data.size,))
        return sum_at(ad.mul(flat, Tensor(w)), np.arange(flat.data.size))

    assert grad_check(objective, store, eps=1e-5) < 1e-6


def _fused_and_stepwise(x, lengths, w, fwd, bwd):
    """sum(w * outputs) over each row's real positions, built two ways: from
    the fused scan, and from per-step gru_step tape nodes run over each
    unpadded sequence forward and reversed. Returns the fused output, both
    scalars, and the per-step outputs keyed by (row, position)."""
    out = bigru_batch(x, lengths, fwd, bwd)
    real = np.arange(w.shape[1])[None, :] < lengths[:, None]
    masked_w = (w * real[:, :, None]).reshape(-1)
    flat = reshape(out, (out.data.size,))
    fused = sum_at(ad.mul(flat, Tensor(masked_w)), np.arange(flat.data.size))
    step = None
    pieces = {}
    for i, n in enumerate(int(n) for n in lengths):
        rows = slice_rows(x, i, n)
        states_f, states_b = [], [None] * n
        h = Tensor(np.zeros(fwd.hidden_dim))
        for t in range(n):
            h = gru_step(take_row(rows, t), h, fwd)
            states_f.append(h)
        h = Tensor(np.zeros(bwd.hidden_dim))
        for t in range(n - 1, -1, -1):
            h = gru_step(take_row(rows, t), h, bwd)
            states_b[t] = h
        for t in range(n):
            piece = pieces[i, t] = ad.concat([states_f[t], states_b[t]], axis=0)
            term = sum_at(ad.mul(piece, Tensor(w[i, t])), np.arange(w.shape[2]))
            step = term if step is None else ad.add(step, term)
    return out, fused, step, pieces


def _grads_of(objective, store, x):
    store.zero_grads()
    x.grad = None
    objective.backward()
    grads = {name: g.copy() for name, g in store.grads().items()}
    grads["x"] = x.grad.copy()
    return grads


def test_fused_backward_matches_stepwise_tape_gradients():
    # second analytic route: the same objective built from per-step gru_step
    # tape nodes; agreement here is exact, not limited by finite differences
    rng = np.random.default_rng(21)
    fwd, bwd, store = _random_grus(rng, 3, 4)
    lengths = np.array([4, 2])
    x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    w = rng.standard_normal((2, 4, 8))
    _, fused, step, _ = _fused_and_stepwise(x, lengths, w, fwd, bwd)
    assert abs(float(step.data) - float(fused.data)) < 1e-10
    fused_grads = _grads_of(fused, store, x)
    step_grads = _grads_of(step, store, x)
    for name in fused_grads:
        assert np.allclose(
            fused_grads[name], step_grads[name], rtol=1e-9, atol=1e-12
        ), name


@st.composite
def _lengths(draw, min_rows=1):
    """Up to 8 row lengths in the order given: free, extremely skewed (one
    row at T, wherever it sits, the rest at 1) or all tied."""
    steps = draw(st.integers(1, 6))
    batch = draw(st.integers(min_rows, 8))
    kind = draw(st.sampled_from(["free", "skew", "tied"]))
    if kind == "free":
        lengths = draw(st.lists(st.integers(1, steps), min_size=batch, max_size=batch))
    elif kind == "skew":
        lengths = [1] * batch
        lengths[draw(st.integers(0, batch - 1))] = steps
    else:
        lengths = [draw(st.integers(1, steps))] * batch
    return np.array(lengths), steps


@st.composite
def _padded_batches(draw):
    lengths, steps = draw(_lengths())
    return (
        lengths,
        steps,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(deadline=None, max_examples=40)
@given(_padded_batches())
def test_bigru_batch_matches_stepwise_oracle_and_padding_never_leaks(case):
    lengths, steps, in_dim, hid, seed = case
    rng = np.random.default_rng(seed)
    fwd, bwd, store = _random_grus(rng, in_dim, hid)
    # padded positions hold noise: none of it may reach a real output or a
    # gradient
    batch = len(lengths)
    x = Tensor(rng.standard_normal((batch, steps, in_dim)), requires_grad=True)
    w = rng.standard_normal((batch, steps, 2 * hid))
    out, fused, step, pieces = _fused_and_stepwise(x, lengths, w, fwd, bwd)
    for (i, t), piece in pieces.items():
        assert np.allclose(out.data[i, t], piece.data, atol=1e-12)
    for i, n in enumerate(lengths):
        # past its length a row outputs zeros in both directions
        assert not out.data[i, n:].any()
    assert abs(float(step.data) - float(fused.data)) < 1e-10
    fused_grads = _grads_of(fused, store, x)
    step_grads = _grads_of(step, store, x)
    for i, n in enumerate(lengths):
        assert not fused_grads["x"][i, n:].any()
    for name in fused_grads:
        assert np.allclose(
            fused_grads[name], step_grads[name], rtol=1e-9, atol=1e-12
        ), name


@st.composite
def _permuted_batches(draw):
    lengths, steps = draw(_lengths(min_rows=2))
    perm = draw(st.permutations(range(len(lengths))))
    return lengths, steps, np.array(perm), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=40)
@given(_permuted_batches())
def test_bigru_batch_permuting_rows_permutes_outputs_and_gradients(case):
    # the scan sorts rows by length internally; the caller's row order must
    # come back unchanged, and the weight gradients must not depend on it
    lengths, steps, perm, seed = case
    rng = np.random.default_rng(seed)
    fwd, bwd, store = _random_grus(rng, 3, 2)
    x = rng.standard_normal((len(lengths), steps, 3))
    w = rng.standard_normal((len(lengths), steps, 4))
    results = []
    for rows in (np.arange(len(lengths)), perm):
        xt = Tensor(x[rows], requires_grad=True)
        out = bigru_batch(xt, lengths[rows], fwd, bwd)
        flat = reshape(out, (out.data.size,))
        weighted = ad.mul(flat, Tensor(w[rows].reshape(-1)))
        obj = sum_at(weighted, np.arange(flat.data.size))
        results.append((out.data, _grads_of(obj, store, xt)))
    (out, grads), (out_p, grads_p) = results
    assert np.allclose(out_p, out[perm], rtol=0, atol=1e-12)
    assert np.allclose(grads_p.pop("x"), grads.pop("x")[perm], rtol=0, atol=1e-12)
    for name in grads:
        assert np.allclose(grads_p[name], grads[name], rtol=0, atol=1e-12), name


@contextmanager
def _scan_path(threaded):
    """Force bigru_batch onto the two-thread path, or onto the serial one."""
    saved = neural.THREADED_MIN_WORK
    neural.THREADED_MIN_WORK = 0 if threaded else sys.maxsize
    try:
        yield
    finally:
        neural.THREADED_MIN_WORK = saved


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
@pytest.mark.parametrize(
    "check",
    [
        test_bigru_batch_matches_stepwise_loop,
        test_bigru_batch_zeroes_padded_positions,
        test_bigru_batch_gradients_match_finite_differences,
        test_bigru_batch_input_gradient,
        test_fused_backward_matches_stepwise_tape_gradients,
        test_bigru_batch_matches_stepwise_oracle_and_padding_never_leaks,
    ],
    ids=lambda check: check.__name__.removeprefix("test_"),
)
def test_scan_checks_hold_on_both_paths(check, threaded):
    with _scan_path(threaded):
        check()


@st.composite
def _path_cases(draw):
    """Skewed, tied or free lengths, with sizes small and past a BLAS block."""
    lengths, steps = draw(_lengths())
    return (
        lengths,
        steps,
        draw(st.sampled_from([1, 3, 100])),
        draw(st.sampled_from([1, 2, 5, 130])),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(deadline=None, max_examples=30)
@given(_path_cases())
def test_threaded_scan_is_bit_equal_to_serial(case):
    lengths, steps, in_dim, hid, seed = case
    rng = np.random.default_rng(seed)
    fwd, bwd, store = _random_grus(rng, in_dim, hid)
    # padded positions hold noise, which neither path may read
    x = Tensor(rng.standard_normal((len(lengths), steps, in_dim)), requires_grad=True)
    w = rng.standard_normal(len(lengths) * steps * 2 * hid)
    results = []
    for threaded in (False, True):
        with _scan_path(threaded):
            out = bigru_batch(x, lengths, fwd, bwd)
            flat = reshape(out, (out.data.size,))
            obj = sum_at(ad.mul(flat, Tensor(w)), np.arange(flat.data.size))
            results.append((out.data, _grads_of(obj, store, x)))
    (out_s, grads_s), (out_t, grads_t) = results
    assert np.array_equal(out_t, out_s)
    assert grads_t.keys() == grads_s.keys()
    for name in grads_s:
        assert np.array_equal(grads_t[name], grads_s[name]), name


def _on_worker():
    return threading.current_thread().name.startswith(neural.WORKER_NAME)


@pytest.mark.parametrize("failing", ["caller", "worker"])
@pytest.mark.parametrize("stage", ["_scan", "_scan_backward"])
def test_threaded_scan_error_reaches_caller_after_both_directions(
    monkeypatch, stage, failing
):
    rng = np.random.default_rng(30)
    fwd, bwd, store = _random_grus(rng, 3, 4)
    lengths = np.array([5, 2, 4])
    x = Tensor(rng.standard_normal((3, 5, 3)), requires_grad=True)
    g = rng.standard_normal((3, 5, 8))

    def run():
        out = bigru_batch(x, lengths, fwd, bwd)
        out.grad = g
        store.zero_grads()
        x.grad = None
        out._backward()
        return out.data, x.grad, store.grads()

    real = getattr(neural, stage)
    ended = []

    def one_direction_fails(*args):
        if _on_worker() == (failing == "worker"):
            raise RuntimeError("direction failed")
        # still running when the other direction has failed
        time.sleep(0.05)
        result = real(*args)
        ended.append(threading.current_thread().name)
        return result

    with _scan_path(True):
        expected = run()
        monkeypatch.setattr(neural, stage, one_direction_fails)
        with pytest.raises(RuntimeError, match="direction failed"):
            run()
        # the direction that did not fail had ended before the error arrived
        assert len(ended) == 1
        monkeypatch.setattr(neural, stage, real)
        again = run()
    assert np.array_equal(again[0], expected[0])
    assert np.array_equal(again[1], expected[1])
    for name in expected[2]:
        assert np.array_equal(again[2][name], expected[2][name]), name


@contextmanager
def _block_rows(rows):
    """Set the minimum rows of a projection block."""
    saved = neural.BLOCK_ROWS
    neural.BLOCK_ROWS = rows
    try:
        yield
    finally:
        neural.BLOCK_ROWS = saved


@pytest.mark.parametrize(
    "starts, rows, blocks",
    [
        # fewer slots than one block: a single block
        ([0, 3, 5], 8, [(0, 2)]),
        # every block closes exactly
        ([0, 4, 8, 12], 4, [(0, 1), (1, 2), (2, 3)]),
        # a block closes at the first step that reaches the minimum
        ([0, 4, 8, 11, 13, 15, 16], 5, [(0, 2), (2, 6)]),
        # the tail (steps 5 on, one slot) joins the block before it
        ([0, 4, 8, 11, 13, 15, 16], 3, [(0, 1), (1, 2), (2, 3), (3, 6)]),
    ],
)
def test_blocks_split_whole_steps_and_merge_a_short_tail(starts, rows, blocks):
    with _block_rows(rows):
        assert neural._blocks(starts) == blocks


@st.composite
def _block_cases(draw):
    """_path_cases plus a minimum block size small enough to give a scan
    several blocks."""
    return draw(_path_cases()) + (draw(st.integers(1, 12)),)


@settings(deadline=None, max_examples=30)
@given(_block_cases())
# at 8 rows a block: steps 0-1, 2-3, 4-6, and 7-14, where 10-14 are a short
# tail merged into the block before; hidden 130 over 100 inputs is a shape
# whose GEMM rows depend on the row count
@example((np.array([15, 2, 9, 11, 4]), 15, 3, 5, 0, 8))
@example((np.array([15, 2, 9, 11, 4]), 15, 100, 130, 1, 8))
def test_no_grad_scan_is_bit_equal_to_recorded_forward(case):
    # without a graph the scan keeps one block of gates at a time; it must
    # make the same projections, and so the same states, as the recorded one
    lengths, steps, in_dim, hid, seed, rows = case
    rng = np.random.default_rng(seed)
    fwd, bwd, _ = _random_grus(rng, in_dim, hid)
    x = Tensor(rng.standard_normal((len(lengths), steps, in_dim)), requires_grad=True)
    for threaded in (False, True):
        with _scan_path(threaded), _block_rows(rows):
            recorded = bigru_batch(x, lengths, fwd, bwd)
            with ad.no_grad():
                bare = bigru_batch(x, lengths, fwd, bwd)
        assert recorded._backward is not None and bare._backward is None
        assert np.array_equal(bare.data, recorded.data)


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
def test_no_grad_scan_peaks_below_one_full_gate_buffer(threaded):
    # 64 rows of 30 to 40 steps at hidden 128, as a doc scan of a 64-example
    # eval chunk after layer 1
    rng = np.random.default_rng(40)
    hid, in_dim = 128, 256
    fwd, bwd, _ = _random_grus(rng, in_dim, hid)
    lengths = rng.integers(30, 41, size=64)
    x = Tensor(rng.standard_normal((64, 40, in_dim)))
    gate_buffer = 2 * int(lengths.sum()) * 3 * hid * 8
    with _scan_path(threaded), ad.no_grad():
        out, [(_, peak)] = traced_memory(lambda: bigru_batch(x, lengths, fwd, bwd))
    assert out.shape == (64, 40, 2 * hid)
    assert peak < gate_buffer


def test_bigru_batch_length_validation():
    rng = np.random.default_rng(7)
    fwd, bwd, _ = _random_grus(rng, 2, 2)
    x = Tensor(np.zeros((2, 3, 2)))
    for lengths in ([0, 3], [3, 4], [3]):
        with pytest.raises(ValueError):
            bigru_batch(x, np.array(lengths), fwd, bwd)
    with pytest.raises(ValueError, match="input dim"):
        bigru_batch(Tensor(np.zeros((1, 2, 5))), np.array([2]), fwd, bwd)


def test_bigru_finals_picks_ends():
    rng = np.random.default_rng(8)
    fwd, bwd, _ = _random_grus(rng, 2, 3)
    x = rng.standard_normal((2, 4, 2))
    lengths = np.array([2, 4])
    out = bigru_batch(Tensor(x), lengths, fwd, bwd)
    finals = bigru_finals(out, lengths)
    for i, n in enumerate(lengths):
        assert np.array_equal(finals.data[i, :3], out.data[i, n - 1, :3])
        assert np.array_equal(finals.data[i, 3:], out.data[i, 0, 3:])


def test_bigru_single_sequence_api():
    rng = np.random.default_rng(9)
    fwd, bwd, _ = _random_grus(rng, 2, 3)
    seq = [Tensor(rng.standard_normal(2)) for _ in range(5)]
    outputs, (final_f, final_b) = bigru(seq, fwd, bwd)
    assert outputs.shape == (5, 6)
    assert np.array_equal(final_f.data, outputs.data[-1, :3])
    assert np.array_equal(final_b.data, outputs.data[0, 3:])
    one, (f1, b1) = bigru([seq[0]], fwd, bwd)
    assert one.shape == (1, 6)
    assert np.array_equal(f1.data, one.data[0, :3])
    with pytest.raises(ValueError, match="empty"):
        bigru([], fwd, bwd)


def _pass_through_gru(dim):
    """A direction whose state is tanh of its current input: W reads the
    input into the candidate gate, U is zero, and a bias of 100 holds the
    update gate at exactly 1."""
    store = ParamStore()
    w = np.zeros((3 * dim, dim))
    w[2 * dim :] = np.eye(dim)
    b = np.zeros(3 * dim)
    b[dim : 2 * dim] = 100.0
    return GruParams(
        W=store.add("W", w), U=store.add("U", np.zeros((3 * dim, dim))),
        b=store.add("b", b),
    )


def test_dropout_train_statistics():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones((200, 50, 10)))
    keep = rng.random(x.shape) >= 0.3
    gru = _pass_through_gru(10)
    out = bigru_batch(x, np.full(200, 50), gru, gru, keep, 1.0 / 0.7)
    # each direction's state is tanh of the dropped input the scan read
    read = np.arctanh(out.data[..., :10])
    assert np.array_equal(read == 0.0, ~keep)
    assert np.allclose(np.arctanh(out.data[..., 10:]), read, atol=1e-12)
    zero_frac = float((read == 0.0).mean())
    assert abs(zero_frac - 0.3) < 0.02
    # inverted scaling keeps the expectation at 1
    assert abs(float(read.mean()) - 1.0) < 0.02
    assert np.allclose(read[keep], 1.0 / 0.7, atol=1e-12)


def test_dropout_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    fwd, bwd, store = _random_grus(rng, 5, 3)
    x = store.add("x", rng.standard_normal((3, 4, 5)))
    lengths = np.array([4, 2, 3])
    w = rng.standard_normal(3 * 4 * 6)

    def objective():
        # a re-seeded generator draws the same mask on every call
        keep = np.random.default_rng(5).random(x.shape) >= 0.4
        return weighted_sum(bigru_batch(x, lengths, fwd, bwd, keep, 1.0 / 0.6), w)

    assert grad_check(objective, store, eps=1e-5) < 1e-6


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
def test_dropout_equals_float_mask_product_bit_for_bit(rate):
    # the scan applies the mask to what it reads; a scan over the dropped
    # copy made by a product with a float64 mask must give the same bits in
    # the output, x.grad and every weight gradient, on both paths
    rng = np.random.default_rng(13)
    fwd, bwd, store = _random_grus(rng, 5, 4)
    lengths = np.array([6, 2, 5, 6])
    # padded positions hold noise, which the scan never reads
    x = Tensor(rng.standard_normal((4, 6, 5)), requires_grad=True)
    keep = rng.random(x.shape) >= rate
    w = rng.standard_normal(4 * 6 * 8)
    for threaded in (False, True):
        results = []
        with _scan_path(threaded):
            for op in (
                lambda: bigru_batch(x, lengths, fwd, bwd, keep, 1.0 / (1.0 - rate)),
                lambda: bigru_batch(dropout_mul(x, keep, rate), lengths, fwd, bwd),
            ):
                out = op()
                results.append((out.data, _grads_of(weighted_sum(out, w), store, x)))
        (out, grads), (out_ref, grads_ref) = results
        assert np.array_equal(out, out_ref)
        assert grads.keys() == grads_ref.keys() and len(grads) == 7
        for name in grads:
            assert np.array_equal(grads[name], grads_ref[name]), name


def test_dropout_node_keeps_one_byte_per_entry_beyond_its_output():
    # the mask, made inside the traced stage, is all a dropping scan keeps
    # beyond what the same scan keeps without one
    rng = np.random.default_rng(14)
    fwd, bwd, _ = _random_grus(rng, 64, 16)
    x = Tensor(rng.standard_normal((32, 40, 64)), requires_grad=True)
    lengths = rng.integers(20, 41, size=32)
    plain, [(live_plain, _)] = traced_memory(lambda: bigru_batch(x, lengths, fwd, bwd))
    out, [(live, _)] = traced_memory(
        lambda: bigru_batch(x, lengths, fwd, bwd, rng.random(x.shape) >= 0.5, 2.0)
    )
    assert out.requires_grad
    assert live <= live_plain + x.data.size + 4096


def test_bigru_batch_rejects_a_mask_of_another_shape_or_type():
    rng = np.random.default_rng(15)
    fwd, bwd, _ = _random_grus(rng, 2, 2)
    x = Tensor(np.zeros((2, 3, 2)))
    lengths = np.array([3, 1])
    for keep in (np.ones((2, 3, 1), dtype=bool), np.ones((2, 3, 2))):
        with pytest.raises(ValueError, match="boolean mask of x's shape"):
            bigru_batch(x, lengths, fwd, bwd, keep, 2.0)


def test_param_store_basics():
    store = ParamStore()
    a = store.add("a", np.ones(2))
    store.add("b", np.zeros((2, 2)))
    assert store.names() == ["a", "b"]
    assert store.num_values() == 6
    assert store["a"] is a
    with pytest.raises(ValueError, match="duplicate"):
        store.add("a", np.ones(1))
    a.grad = np.ones(2)
    grads = store.grads()
    assert np.array_equal(grads["a"], np.ones(2))
    assert np.array_equal(grads["b"], np.zeros((2, 2)))
    store.zero_grads()
    assert a.grad is None


def test_param_store_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    store = ParamStore()
    store.add("w", rng.standard_normal((3, 2)))
    store.add("b", rng.standard_normal(3))
    bin_path = tmp_path / "params.bin"
    man_path = tmp_path / "params.manifest"
    store.save(bin_path, man_path)
    clone = ParamStore()
    clone.add("w", np.zeros((3, 2)))
    clone.add("b", np.zeros(3))
    clone.load_values(bin_path, man_path)
    for name in ("w", "b"):
        assert np.array_equal(clone[name].data, store[name].data)


def test_param_store_checkpoint_mismatches(tmp_path):
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    bin_path = tmp_path / "p.bin"
    man_path = tmp_path / "p.manifest"
    store.save(bin_path, man_path)

    renamed = ParamStore()
    renamed.add("other", np.ones((2, 2)))
    with pytest.raises(ValueError, match="manifest does not match"):
        renamed.load_values(bin_path, man_path)

    reshaped = ParamStore()
    reshaped.add("w", np.ones((4, 1)))
    with pytest.raises(ValueError, match="shape mismatch"):
        reshaped.load_values(bin_path, man_path)

    truncated = ParamStore()
    truncated.add("w", np.ones((2, 2)))
    with open(bin_path, "wb") as fh:
        fh.write(np.zeros(3, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="shorter"):
        truncated.load_values(bin_path, man_path)
    with open(bin_path, "wb") as fh:
        fh.write(np.zeros(9, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="longer"):
        truncated.load_values(bin_path, man_path)


def _saved_store(tmp_path):
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    store.add("b", np.ones(2))
    bin_path = tmp_path / "params.bin"
    man_path = tmp_path / "params.manifest"
    store.save(bin_path, man_path)
    return store, bin_path, man_path


def test_param_store_load_rejects_stray_trailing_bytes(tmp_path):
    store, bin_path, man_path = _saved_store(tmp_path)
    good = bin_path.read_bytes()
    for extra in (1, 2, 3):
        bin_path.write_bytes(good + b"\0" * extra)
        with pytest.raises(ValueError, match="params.bin is longer"):
            store.load_values(bin_path, man_path)


def test_param_store_load_names_malformed_manifest_line(tmp_path):
    store, bin_path, man_path = _saved_store(tmp_path)
    for text in ("w\t2,2\nb 2\n", "w\t2,2\nb\t2,x\n", "w\t2,2\nb\t2\textra\n"):
        man_path.write_text(text)
        with pytest.raises(ValueError, match="params.manifest line 2: expected"):
            store.load_values(bin_path, man_path)


def test_param_store_load_names_first_unexpected_name(tmp_path):
    store, bin_path, man_path = _saved_store(tmp_path)
    man_path.write_text("w\t2,2\nb_r\t2\nb\t2\n")
    with pytest.raises(ValueError, match="params.manifest line 2: .*'b_r'"):
        store.load_values(bin_path, man_path)
    man_path.write_text("w\t2,2\n")
    with pytest.raises(ValueError, match="params.manifest: .*missing 'b'"):
        store.load_values(bin_path, man_path)


def test_init_bounds_and_bias_zeros():
    rng = np.random.default_rng(13)
    w = uniform_init(rng, (50, 50))
    assert np.abs(w).max() <= 0.05
    fan = fan_scaled_init(rng, (30, 20))
    assert np.abs(fan).max() <= np.sqrt(6.0 / 50)
    store = ParamStore()
    p = init_gru(store, "g", 4, 5, rng)
    assert p.W.shape == (15, 4) and p.U.shape == (15, 5)
    assert np.array_equal(p.b.data, np.zeros(15))
    # each gate block keeps its own per-gate fan limit
    for stacked in (p.W.data, p.U.data):
        for block in np.split(stacked, 3):
            assert np.abs(block).max() <= np.sqrt(6.0 / sum(block.shape))
    assert p.input_dim == 4 and p.hidden_dim == 5
    assert store.names() == ["g/W", "g/U", "g/b"]


def test_grad_check_accepts_correct_and_flags_wrong():
    store = ParamStore()
    theta = store.add("theta", np.array([0.7, -1.3]))

    def objective():
        return sum_at(ad.mul(theta, theta), [0, 1])

    assert grad_check(objective, store, eps=1e-5) < 1e-8
    wrong = {"theta": 4.0 * theta.data}  # true gradient is 2*theta
    assert grad_check(objective, store, eps=1e-5, analytic=wrong) > 0.3


def test_grad_check_rejects_non_scalar_objective():
    store = ParamStore()
    t = store.add("t", np.ones(2))
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda: ad.mul(t, t), store)
