"""GRU semantics, the fused bidirectional scan, dropout, and checkpoints.

The batched masked scan is checked two independent ways: value-for-value
against a plain per-step loop built from gru_step, and gradient-for-gradient
against central finite differences.
"""

import numpy as np
import pytest

from sawreader import autodiff as ad
from sawreader import neural
from sawreader.autodiff import Tensor
from sawreader.neural import (
    GruParams,
    ParamStore,
    bigru_batch,
    bigru_finals,
    dropout,
    fan_scaled_init,
    grad_check,
    init_gru,
    uniform_init,
)

from oracles import bigru, gru_step


def _zero_gru(input_dim, hidden_dim):
    store = ParamStore()
    fields = {}
    for name in ("W_r", "W_z", "W_h"):
        fields[name] = store.add(name, np.zeros((hidden_dim, input_dim)))
    for name in ("U_r", "U_z", "U_h"):
        fields[name] = store.add(name, np.zeros((hidden_dim, hidden_dim)))
    for name in ("b_r", "b_z", "b_h"):
        fields[name] = store.add(name, np.zeros(hidden_dim))
    return GruParams(**fields), store


def _random_grus(rng, input_dim, hidden_dim):
    store = ParamStore()
    fwd = init_gru(store, "fwd", input_dim, hidden_dim, rng)
    bwd = init_gru(store, "bwd", input_dim, hidden_dim, rng)
    # non-zero biases so the finite-difference check covers them
    for p in (fwd, bwd):
        for name, t in p.fields():
            if name.startswith("b_"):
                t.data = rng.standard_normal(t.data.shape) * 0.1
    return fwd, bwd, store


def test_gru_step_zero_params_halves_state():
    p, _ = _zero_gru(2, 3)
    h = Tensor(np.array([2.0, -4.0, 6.0]))
    out = gru_step(Tensor(np.ones(2)), h, p)
    assert np.allclose(out.data, [1.0, -2.0, 3.0], atol=1e-15)


def test_gru_step_saturated_update_gate_forgets_state():
    # b_z = +10 pushes z to ~1, so the new state is ~tanh(0) = 0
    p, _ = _zero_gru(2, 3)
    p.b_z.data = np.full(3, 10.0)
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


def test_bigru_batch_freezes_padded_rows():
    rng = np.random.default_rng(4)
    fwd, bwd, _ = _random_grus(rng, 2, 3)
    x = rng.standard_normal((2, 5, 2))
    out = bigru_batch(Tensor(x), np.array([2, 5]), fwd, bwd)
    # forward states past the length hold the last real state
    assert np.array_equal(out.data[0, 2, :3], out.data[0, 1, :3])
    assert np.array_equal(out.data[0, 4, :3], out.data[0, 1, :3])
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
        flat = ad.reshape(out, (out.data.size,))
        return ad.sum_at(ad.mul(flat, Tensor(w)), np.arange(flat.data.size))

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
        flat = ad.reshape(out, (out.data.size,))
        return ad.sum_at(ad.mul(flat, Tensor(w)), np.arange(flat.data.size))

    assert grad_check(objective, store, eps=1e-5) < 1e-6


def test_fused_backward_matches_stepwise_tape_gradients():
    # second analytic route: the same objective built from per-step gru_step
    # tape nodes; agreement here is exact, not limited by finite differences
    rng = np.random.default_rng(21)
    fwd, bwd, store = _random_grus(rng, 3, 4)
    lengths = np.array([4, 2])
    x = rng.standard_normal((2, 4, 3))
    w = rng.standard_normal((2, 4, 8))

    def scalar_from(out_rows):
        total = None
        for piece in out_rows:
            term = ad.sum_at(
                ad.mul(ad.reshape(piece, (piece.data.size,)), Tensor(piece_w.pop(0))),
                np.arange(piece.data.size),
            )
            total = term if total is None else ad.add(total, term)
        return total

    store.zero_grads()
    out = bigru_batch(Tensor(x), lengths, fwd, bwd)
    flat = ad.reshape(out, (out.data.size,))
    masked_w = np.zeros_like(w)
    for i, n in enumerate(lengths):
        masked_w[i, :n] = w[i, :n]
    fused_obj = ad.sum_at(
        ad.mul(flat, Tensor(masked_w.reshape(-1))), np.arange(flat.data.size)
    )
    fused_obj.backward()
    fused_grads = {name: g.copy() for name, g in store.grads().items()}

    store.zero_grads()
    piece_w = []
    pieces = []
    for i, n in enumerate(lengths):
        h = Tensor(np.zeros(4))
        states_f = []
        for t in range(int(n)):
            h = gru_step(Tensor(x[i, t]), h, fwd)
            states_f.append(h)
        h = Tensor(np.zeros(4))
        states_b = [None] * int(n)
        for t in range(int(n) - 1, -1, -1):
            h = gru_step(Tensor(x[i, t]), h, bwd)
            states_b[t] = h
        for t in range(int(n)):
            pieces.append(ad.concat([states_f[t], states_b[t]], axis=0))
            piece_w.append(w[i, t].copy())
    step_obj = scalar_from(pieces)
    assert abs(step_obj.item() - fused_obj.item()) < 1e-10
    step_obj.backward()
    step_grads = store.grads()
    for name in fused_grads:
        assert np.allclose(
            fused_grads[name], step_grads[name], rtol=1e-9, atol=1e-12
        ), name


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


def test_dropout_eval_and_zero_rate_are_identity():
    x = Tensor(np.ones((3, 3)))
    assert dropout(x, 0.5, "eval") is x
    assert dropout(x, 0.0, "train", np.random.default_rng(0)) is x


def test_dropout_train_statistics():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones((100, 1000)))
    out = dropout(x, 0.3, "train", rng)
    zero_frac = float((out.data == 0.0).mean())
    assert abs(zero_frac - 0.3) < 0.02
    # inverted scaling keeps the expectation at 1
    assert abs(float(out.data.mean()) - 1.0) < 0.02
    kept = out.data[out.data != 0.0]
    assert np.allclose(kept, 1.0 / 0.7, atol=1e-12)


def test_dropout_validation():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="rate"):
        dropout(x, 1.0, "train", np.random.default_rng(0))
    with pytest.raises(ValueError, match="mode"):
        dropout(x, 0.5, "test")
    with pytest.raises(ValueError, match="rng"):
        dropout(x, 0.5, "train")


def test_param_store_basics():
    store = ParamStore()
    a = store.add("a", np.ones(2))
    store.add("b", np.zeros((2, 2)))
    assert store.names() == ["a", "b"]
    assert len(store) == 2 and "a" in store
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
    # storage is float32, so loaded values are the float32 rounding
    for name in ("w", "b"):
        assert np.array_equal(
            clone[name].data, store[name].data.astype(np.float32).astype(np.float64)
        )


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


def test_init_bounds_and_bias_zeros():
    rng = np.random.default_rng(13)
    w = uniform_init(rng, (50, 50))
    assert np.abs(w).max() <= 0.05
    fan = fan_scaled_init(rng, (30, 20))
    assert np.abs(fan).max() <= np.sqrt(6.0 / 50)
    store = ParamStore()
    p = init_gru(store, "g", 4, 5, rng)
    for name, t in p.fields():
        if name.startswith("b_"):
            assert np.array_equal(t.data, np.zeros(5))
        else:
            assert np.abs(t.data).max() <= np.sqrt(6.0 / sum(t.data.shape))
    assert p.input_dim == 4 and p.hidden_dim == 5
    assert store.names()[0] == "g/W_r"


def test_grad_check_accepts_correct_and_flags_wrong():
    store = ParamStore()
    theta = store.add("theta", np.array([0.7, -1.3]))

    def objective():
        return ad.sum_at(ad.mul(theta, theta), [0, 1])

    assert grad_check(objective, store, eps=1e-5) < 1e-8
    wrong = {"theta": 4.0 * theta.data}  # true gradient is 2*theta
    assert grad_check(objective, store, eps=1e-5, analytic=wrong) > 0.3


def test_grad_check_rejects_non_scalar_objective():
    store = ParamStore()
    t = store.add("t", np.ones(2))
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda: ad.mul(t, t), store)
