"""Optimizer arithmetic, clipping, the lr schedule, and the train loop."""

import functools
import gc
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sawreader import autodiff as ad
import sawreader
from sawreader import neural, reader, training
from sawreader.data import ClozeExample
from sawreader.harness import build_pipeline, evaluate, new_model
from sawreader.neural import ParamStore
from sawreader.reader import ReaderConfig, ReaderModel, forward_batch
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.training import (
    CLIP_THRESHOLD,
    EVAL_CHUNK,
    AdamState,
    EpochStats,
    TrainConfig,
    TrainHistory,
    adam_step,
    batch_loss,
    clip_gradients,
    eval_passes,
    loss_node,
    lr_schedule,
    train,
)

from oracles import (
    adam_out_of_place,
    clip_out_of_place,
    global_norm,
    grad_enabled,
    loss,
    traced_memory,
)


def test_lr_schedule_holds_then_halves():
    got = [lr_schedule(e, 0.001) for e in range(1, 6)]
    assert got == [0.001, 0.001, 0.0005, 0.00025, 0.000125]
    with pytest.raises(ValueError, match="numbered from 1"):
        lr_schedule(0, 0.001)


def test_clip_rescales_to_threshold():
    rng = np.random.default_rng(0)
    grads = {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal(7)}
    norm = global_norm(grads)
    scaled = {k: g * (25.0 / norm) for k, g in grads.items()}
    before = {k: g.copy() for k, g in scaled.items()}
    assert abs(clip_gradients(scaled, 10.0) - 25.0) < 1e-9
    assert abs(global_norm(scaled) - 10.0) < 1e-9
    # direction is preserved
    ratio = scaled["a"] / before["a"]
    assert np.allclose(ratio, ratio.flat[0], atol=1e-12)


def test_clip_below_threshold_leaves_gradients_unchanged():
    a = np.array([3.0, 4.0])  # norm 5
    grads = {"a": a}
    assert clip_gradients(grads, 10.0) == 5.0
    assert grads["a"] is a
    assert np.array_equal(a, [3.0, 4.0])


def test_clip_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        clip_gradients({"a": np.array([np.inf])}, 1.0)
    with pytest.raises(ValueError, match="positive"):
        clip_gradients({"a": np.zeros(1)}, 0.0)


def test_clip_names_non_finite_gradient():
    grads = {"alpha": np.ones(2), "theta": np.array([np.nan]), "omega": np.array([np.inf])}
    with pytest.raises(ValueError, match="^non-finite gradient for theta$"):
        clip_gradients(grads, 10.0)


def test_clip_rejects_overflowing_norm():
    # every value is finite, but the sum of squares is not: clipping would
    # scale every gradient by threshold / inf, to zero
    grads = {"a": np.array([1e200, 1.0])}
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^gradient norm is not finite"):
            clip_gradients(grads, 10.0)
    assert np.array_equal(grads["a"], [1e200, 1.0])


def test_in_place_step_equals_out_of_place_reference():
    shapes = {"w": (3, 4), "b": (4,), "unused": (2, 2)}
    rng = np.random.default_rng(7)
    # parameters of the size of one update, so a rounding change in the
    # update shows in the parameters
    inits = {name: 0.01 * rng.standard_normal(shape) for name, shape in shapes.items()}
    store, ref_store = ParamStore(), ParamStore()
    for name, value in inits.items():
        store.add(name, value.copy())
        ref_store.add(name, value.copy())
    state, ref_state = AdamState(store), AdamState(ref_store)
    fired = []
    for scale in (0.5, 20.0, 3.0, 40.0, 1.0):
        grads = {name: scale * rng.standard_normal(shape) for name, shape in shapes.items()}
        grads["unused"] = np.zeros(shapes["unused"])  # a parameter the loss never reaches
        ref_grads, ref_norm = clip_out_of_place(grads, CLIP_THRESHOLD)
        objects = [(t.data, state.m[name], state.v[name]) for name, t in store.items()]
        norm = clip_gradients(grads, CLIP_THRESHOLD)
        adam_step(store, grads, state, 0.01)
        adam_out_of_place(ref_store, ref_grads, ref_state, 0.01)
        fired.append(norm > CLIP_THRESHOLD)
        assert norm == ref_norm
        assert state.t == ref_state.t
        for (name, t), (data, m, v) in zip(store.items(), objects):
            assert t.data is data and state.m[name] is m and state.v[name] is v, name
            assert np.array_equal(t.data, ref_store[name].data), name
            assert np.array_equal(state.m[name], ref_state.m[name]), name
            assert np.array_equal(state.v[name], ref_state.v[name]), name
    assert any(fired) and not all(fired)
    assert np.array_equal(store["unused"].data, inits["unused"])


def test_adam_two_constant_steps_oracle():
    # with a constant gradient the bias-corrected moments equal g and g^2
    # exactly, so each step moves by lr * g / (|g| + eps)
    store = ParamStore()
    theta = store.add("theta", np.array([1.0]))
    state = AdamState(store)
    for _ in range(2):
        adam_step(store, {"theta": np.array([1.0])}, state, 0.001)
    expected = 1.0 - 2.0 * (0.001 * 1.0 / (1.0 + 1e-8))
    assert theta.data[0] == pytest.approx(expected, rel=1e-12)
    assert state.t == 2


def test_adam_direction_follows_gradient_sign():
    store = ParamStore()
    theta = store.add("theta", np.array([0.0, 0.0]))
    state = AdamState(store)
    adam_step(store, {"theta": np.array([1.0, -2.0])}, state, 0.01)
    assert theta.data[0] < 0 < theta.data[1]


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="base_lr"):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0
    assert [f.name for f in fields(TrainConfig)] == ["batch_size", "base_lr", "epochs", "seed"]


@pytest.mark.parametrize("field", ["base_lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        TrainConfig(**{field: value})


def _tiny_setup():
    examples = [
        ClozeExample(
            "t1",
            tuple("bo hid the pin . ana ran .".split()),
            tuple("<blank> hid the pin .".split()),
            "bo",
        ),
        ClozeExample(
            "t2",
            tuple("ana found a cup . bo slept .".split()),
            tuple("<blank> found a cup .".split()),
            "ana",
        ),
        ClozeExample(
            "t3",
            tuple("the cup fell . ana hid .".split()),
            tuple("the <blank> fell .".split()),
            "cup",
        ),
    ]
    config = ReaderConfig(
        integration_op="mul",
        num_layers=1,
        hidden=3,
        word_dim=4,
        subword_dim=3,
        gamma=0.9,
        num_merges=10,
        dropout=0.0,
    )
    merges, subwords, vocab, short_list = build_pipeline(examples, config)
    model = ReaderModel(config, merges, subwords, vocab, short_list, seed=0)
    return model, examples


def test_loss_is_negative_log_answer_mass():
    model, examples = _tiny_setup()
    ex = examples[0]
    with ad.no_grad():
        fp = forward_batch(model, [ex])[0]
    mass = sum(fp.dist.per_position[i] for i in fp.dist.positions[ex.answer])
    assert loss(fp, ex.answer) == pytest.approx(-np.log(mass), rel=1e-12)


def test_loss_rejects_absent_answer():
    model, examples = _tiny_setup()
    with ad.no_grad():
        fp = forward_batch(model, [examples[0]])[0]
    with pytest.raises(ValueError, match="unanswerable example 't1'"):
        loss_node(fp, "zebra")


def test_batch_loss_is_mean_of_example_losses():
    # the one batched node and the mean of per-example nodes (the objective
    # the benchmark's gradient check builds) agree bit for bit
    model, examples = _tiny_setup()
    answers = [ex.answer for ex in examples]
    results = []
    for build in (
        lambda passes: batch_loss(passes, answers),
        lambda passes: ad.mean_of([loss_node(fp, a) for fp, a in zip(passes, answers)]),
    ):
        model.params.zero_grads()
        objective = build(forward_batch(model, examples))
        objective.backward()
        results.append((float(objective.data), model.params.grads()))
    (value, grads), (value_mean, grads_mean) = results
    assert value == value_mean
    passes = forward_batch(model, examples)
    per_example = [loss(fp, a) for fp, a in zip(passes, answers)]
    assert value == pytest.approx(np.mean(per_example), rel=1e-12)
    for name, g in grads.items():
        assert np.array_equal(g, grads_mean[name]), name
    assert any(g.any() for g in grads.values())
    with pytest.raises(ValueError, match="different batches"):
        batch_loss(
            forward_batch(model, examples[:1]) + forward_batch(model, examples[1:2]),
            answers[:2],
        )


def test_train_validates_inputs():
    model, examples = _tiny_setup()
    config = TrainConfig(batch_size=2, epochs=1)
    with pytest.raises(ValueError, match="non-empty"):
        train(model, [], examples, config)
    bad = ClozeExample("bad", ("a", "b"), ("<blank>", "b"), "zzz")
    with pytest.raises(ValueError, match="unanswerable example 'bad'"):
        train(model, [bad], examples, config)


def test_train_validates_valid_set():
    model, examples = _tiny_setup()
    config = TrainConfig(batch_size=2, epochs=1)
    bad = ClozeExample("bad-valid", ("a", "b"), ("<blank>", "b"), "zzz")
    with pytest.raises(ValueError, match="unanswerable example 'bad-valid'"):
        train(model, examples, examples + [bad], config)
    missing = ClozeExample("no-answer", ("a", "b"), ("<blank>", "b"), None)
    with pytest.raises(ValueError, match="example 'no-answer': missing answer"):
        train(model, examples, [missing], config)


def test_non_finite_training_names_epoch_and_batch():
    model, examples = _tiny_setup()
    config = TrainConfig(batch_size=2, epochs=1)
    model.params["sub_enc/fwd/W"].data[0, 0] = np.nan
    first = np.random.default_rng([config.seed, 1]).permutation(len(examples))[:2]
    ids = ", ".join(repr(examples[int(i)].id) for i in first)
    with pytest.raises(ValueError, match="NaN|non-finite") as err:
        train(model, examples, examples, config)
    assert str(err.value).startswith(f"epoch 1, examples {ids}: ")


def test_backward_frees_graph_without_cyclic_collector():
    model, examples = _tiny_setup()
    gc.disable()
    try:
        passes = forward_batch(model, examples)
        total = batch_loss(passes, [ex.answer for ex in examples])
        # the array of an intermediate node: the last layer's gated states
        probe = weakref.ref(passes[0].probs._parents[0].data)
        total.backward()
        del passes, total
        assert probe() is None
    finally:
        gc.enable()
    assert all(t.grad is not None for _, t in model.params.items())


def test_train_returns_model_without_gradients():
    model, examples = _tiny_setup()
    train(model, examples, examples, TrainConfig(batch_size=2, epochs=2))
    assert [name for name, t in model.params.items() if t.grad is not None] == []


def test_step_gradients_are_freed_before_the_next_backward(monkeypatch):
    model, examples = _tiny_setup()
    refs: list[weakref.ref] = []
    checked = []
    step = training.adam_step
    backward = ad.Tensor.backward

    def adam_recording(params, grads, state, lr):
        refs.extend(weakref.ref(g) for g in grads.values())
        step(params, grads, state, lr)

    def backward_checking(self):
        alive = sum(r() is not None for r in refs)
        checked.append((len(refs), alive))
        refs.clear()
        backward(self)

    monkeypatch.setattr(training, "adam_step", adam_recording)
    monkeypatch.setattr(ad.Tensor, "backward", backward_checking)
    gc.disable()
    try:
        train(model, examples, examples, TrainConfig(batch_size=1, epochs=1))
    finally:
        gc.enable()
    n_params = len(model.params.items())
    # three steps: the first backward has nothing to check, the next two
    # must find every gradient of the step before freed
    assert checked == [(0, 0), (n_params, 0), (n_params, 0)]


@functools.lru_cache(maxsize=None)
def _train_step_memory(rate):
    """Traced bytes of one train-mode step at hidden 32 on 16 seed-1
    train-default examples: the forward graph, the backward's peak, and
    the number of entries the dropout masks of layers 2 and 3 cover."""
    splits = generate_synthetic(
        SyntheticSpec(
            seed=1, vocab_size=300, entity_pool=40, doc_len_range=(20, 40),
            num_examples=240,
        )
    )
    config = ReaderConfig(
        num_layers=3, hidden=32, word_dim=40, subword_dim=20, num_merges=100,
        dropout=rate,
    )
    batch = splits["train"][:16]
    model = new_model(splits["train"], config, seed=0)
    rng = np.random.default_rng(0)

    def forward():
        passes = forward_batch(model, batch, mode="train", rng=rng)
        return batch_loss(passes, [ex.answer for ex in batch])

    _, [(graph, _), (_, peak)] = traced_memory(forward, lambda loss: loss.backward())
    t_doc = max(len(ex.document) for ex in batch)
    t_query = max(len(ex.query) for ex in batch)
    masked = (config.num_layers - 1) * len(batch) * (
        t_doc * 2 * config.hidden + t_query * config.embed_dim
    )
    return graph, peak, masked


@pytest.mark.parametrize("rate", [0.5, 0.0])
def test_backward_peaks_close_to_the_forward_graph(rate):
    # each node lets go of its gradient and caches once it has run, so the
    # walk's peak reads 1.20 of the graph at dropout 0.5 and 1.21 at 0; a
    # walk that keeps every node until its end reads 1.38 and 1.44
    graph, peak, _ = _train_step_memory(rate)
    assert peak < 1.25 * graph


def test_dropout_adds_one_byte_per_masked_entry_to_the_forward_graph():
    # the BiGRU keeps each boolean keep-mask and applies it as it reads its
    # input, so dropout adds no float mask and no dropped copy of the input
    graph, _, masked = _train_step_memory(0.5)
    graph_no_dropout, _, _ = _train_step_memory(0.0)
    assert graph - graph_no_dropout <= masked + 32 * 1024


def test_eval_passes_restore_grad_mode_between_yields():
    model, examples = _tiny_setup()
    seen = []
    for fp in eval_passes(model, examples * 20):
        assert grad_enabled()
        assert fp.probs._backward is None
        seen.append(fp.example)
        if len(seen) == 40:
            break
    assert grad_enabled()
    assert seen == (examples * 20)[:40]


def _chunk_words(examples, size):
    """Each chunk's distinct document and query words, in first-seen order."""
    return [
        list(dict.fromkeys(t for ex in examples[i : i + size] for t in ex.document + ex.query))
        for i in range(0, len(examples), size)
    ]


def _encoded_words(monkeypatch):
    """The list that each word reaching subword_encode_batch is appended to."""
    words = []
    inner = reader.subword_encode_batch

    def counting(model, batch):
        words.extend(batch)
        return inner(model, batch)

    monkeypatch.setattr(reader, "subword_encode_batch", counting)
    return words


def test_eval_encodes_each_distinct_word_once_per_window(monkeypatch):
    train_set, _, reader_cfg = _synthetic_setup()
    model = new_model(train_set, reader_cfg)
    size = 8
    monkeypatch.setattr(training, "EVAL_CHUNK", size)
    # several groups per table
    monkeypatch.setattr(reader, "TABLE_GROUP", 7)
    vocabularies = _chunk_words(train_set, size)
    # one window of chunks whose vocabularies overlap
    assert 3 <= len(vocabularies) <= training.EVAL_WINDOW
    assert set(vocabularies[0]) & set(vocabularies[1]) & set(vocabularies[2])
    words = _encoded_words(monkeypatch)
    passes = list(eval_passes(model, train_set))
    distinct = {w for vocab in vocabularies for w in vocab}
    assert len(words) == len(distinct) and set(words) == distinct
    # the same probabilities as chunks that embed their own words
    with ad.no_grad():
        own = [
            fp
            for i in range(0, len(train_set), size)
            for fp in forward_batch(model, train_set[i : i + size], mode="eval")
        ]
    for fp, ref in zip(passes, own, strict=True):
        assert fp.example is ref.example
        np.testing.assert_allclose(
            fp.dist.per_position, ref.dist.per_position, rtol=1e-12, atol=0
        )


def test_eval_window_bounds_the_word_table(monkeypatch):
    # a window of one chunk encodes each chunk's words, as a chunk that
    # embeds its own does, and its table holds those words only
    train_set, _, reader_cfg = _synthetic_setup()
    model = new_model(train_set, reader_cfg)
    size = 8
    monkeypatch.setattr(training, "EVAL_CHUNK", size)
    monkeypatch.setattr(training, "EVAL_WINDOW", 1)
    rows = []
    inner = training.word_table

    def recording(model, examples):
        table = inner(model, examples)
        rows.append(table.rows.shape[0])
        return table

    monkeypatch.setattr(training, "word_table", recording)
    words = _encoded_words(monkeypatch)
    list(eval_passes(model, train_set))
    vocabularies = _chunk_words(train_set, size)
    assert words == [w for vocab in vocabularies for w in vocab]
    assert rows == [len(vocab) for vocab in vocabularies]


def test_forward_batch_names_a_word_missing_from_its_table():
    train_set, _, reader_cfg = _synthetic_setup()
    model = new_model(train_set, reader_cfg)
    table = reader.word_table(model, train_set[:1])
    other = next(ex for ex in train_set if set(ex.document) - table.index.keys())
    with pytest.raises(ValueError, match=f"example {other.id!r}: word .* is not in the word table"):
        forward_batch(model, [other], table=table)


def test_train_history_rows_and_determinism():
    model_a, examples = _tiny_setup()
    config = TrainConfig(batch_size=2, base_lr=0.01, epochs=3, seed=1)
    logged = []
    hist_a = train(model_a, examples, examples, config, log=logged.append)
    assert [r.epoch for r in hist_a.rows] == [1, 2, 3]
    assert [r.lr for r in hist_a.rows] == [0.01, 0.01, 0.005]
    assert len(logged) == 3 and isinstance(logged[0], EpochStats)
    for r in hist_a.rows:
        assert 0.0 <= r.train_acc <= 1.0
        assert 0.0 <= r.valid_acc <= 1.0
        assert np.isfinite(r.train_loss)
    model_b, _ = _tiny_setup()
    hist_b = train(model_b, examples, examples, config)
    assert hist_a == hist_b
    for name, t in model_a.params.items():
        assert np.array_equal(t.data, model_b.params[name].data)


def test_history_csv_round_trip(tmp_path):
    hist = TrainHistory()
    hist.append(EpochStats(1, 0.001, 1.5, 0.25, 0.2))
    hist.append(EpochStats(2, 0.001, 1.2, 0.5, 0.4))
    text = hist.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,train_acc,valid_acc"
    assert lines[1].startswith("1,0.001,1.5,")
    path = tmp_path / "history.csv"
    hist.save(path)
    assert path.read_text() == text
    other = TrainHistory()
    other.append(EpochStats(1, 0.001, 1.5, 0.25, 0.2))
    assert hist != other
    other.append(EpochStats(2, 0.001, 1.2, 0.5, 0.4))
    assert hist == other


def _synthetic_setup():
    """32 train examples (within one EVAL_CHUNK) and 8 valid ones, no dropout."""
    splits = generate_synthetic(
        SyntheticSpec(num_examples=40, doc_len_range=(8, 14), seed=3)
    )
    train_set, valid_set = splits["train"], splits["valid"] + splits["test"]
    config = ReaderConfig(
        integration_op="mul",
        num_layers=1,
        hidden=6,
        word_dim=6,
        subword_dim=4,
        gamma=0.9,
        num_merges=20,
        dropout=0.0,
    )
    return train_set, valid_set, config


def test_train_acc_is_the_epochs_own_predictions():
    # one batch per epoch and no dropout: the epoch's train-mode pass sees
    # the parameters an eval pass before the step sees, so train_acc is the
    # eval accuracy of the model as it stood when the epoch began
    train_set, valid_set, reader_cfg = _synthetic_setup()
    assert len(train_set) <= EVAL_CHUNK
    kwargs = dict(batch_size=len(train_set), base_lr=0.5, seed=0)
    config = TrainConfig(epochs=2, **kwargs)
    history = train(new_model(train_set, reader_cfg), train_set, valid_set, config)
    fresh_twin = new_model(train_set, reader_cfg)
    assert history.rows[0].train_acc == evaluate(fresh_twin, train_set).accuracy
    train(fresh_twin, train_set, valid_set, TrainConfig(epochs=1, **kwargs))
    assert history.rows[1].train_acc == evaluate(fresh_twin, train_set).accuracy
    assert history.rows[0].train_acc != history.rows[1].train_acc


def test_train_loss_and_valid_acc_match_recorded_history():
    # recorded before train_acc was taken from the epoch's own passes; the
    # loss and the end-of-epoch valid accuracy must not move
    train_set, valid_set, reader_cfg = _synthetic_setup()
    config = TrainConfig(batch_size=8, base_lr=0.05, epochs=3, seed=0)
    history = train(new_model(train_set, reader_cfg), train_set, valid_set, config)
    assert [r.train_loss for r in history.rows] == [
        2.1895294656362845,
        2.037932033127895,
        1.3762331706732276,
    ]
    assert [r.valid_acc for r in history.rows] == [0.375, 0.875, 0.875]


def test_train_runs_no_eval_pass_over_train_split(monkeypatch):
    train_set, valid_set, reader_cfg = _synthetic_setup()
    seen = {"train": 0, "eval": 0}
    inner = training.forward_batch

    def counting(model, batch, mode="eval", rng=None, table=None):
        seen[mode] += len(batch)
        return inner(model, batch, mode=mode, rng=rng, table=table)

    monkeypatch.setattr(training, "forward_batch", counting)
    config = TrainConfig(batch_size=8, base_lr=0.05, epochs=2, seed=0)
    train(new_model(train_set, reader_cfg), train_set, valid_set, config)
    assert seen == {
        "train": config.epochs * len(train_set),
        "eval": config.epochs * len(valid_set),
    }


# the README quickstart, trained for two epochs and evaluated in a fresh process
QUICKSTART = """
import sys, threading
from sawreader import (ReaderConfig, SyntheticSpec, TrainConfig, evaluate,
                       generate_synthetic, neural, new_model, train)
splits = generate_synthetic(SyntheticSpec(vocab_size=80, entity_pool=20,
                                          doc_len_range=(12, 24), num_examples=250, seed=5))
config = ReaderConfig(integration_op="mul", num_layers=2, hidden=16, word_dim=16,
                      subword_dim=16, gamma=0.9, num_merges=100, dropout=0.0)
model = new_model(splits["train"], config, seed=0)
train(model, splits["train"], splits["valid"], TrainConfig(batch_size=8, base_lr=0.04, epochs=2))
evaluate(model, splits["test"])
print(any(t.name.startswith(neural.WORKER_NAME) for t in threading.enumerate()))
print("concurrent.futures" in sys.modules)
"""


def test_quickstart_trains_without_a_worker_thread():
    src = str(Path(sawreader.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", QUICKSTART],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    worker_seen, futures_loaded = done.stdout.splitlines()
    assert worker_seen == "False"
    assert futures_loaded == "False"


def test_default_config_trains_bit_identically_with_threads_off(tmp_path, monkeypatch):
    splits = generate_synthetic(SyntheticSpec(num_examples=80, seed=2))
    reader_cfg = ReaderConfig()
    config = TrainConfig(epochs=2, seed=0)
    assert config.batch_size * reader_cfg.hidden**2 >= neural.THREADED_MIN_WORK
    started = []
    worker = neural._worker
    monkeypatch.setattr(neural, "_worker", lambda: started.append(1) or worker())
    saved = {}
    for run, min_work in (("threaded", neural.THREADED_MIN_WORK), ("serial", sys.maxsize)):
        monkeypatch.setattr(neural, "THREADED_MIN_WORK", min_work)
        model = new_model(splits["train"], reader_cfg, seed=0)
        history = train(model, splits["train"], splits["valid"], config)
        history.save(tmp_path / f"{run}.csv")
        saved[run] = model.params.items()
        if run == "threaded":
            assert started, "the default config should take the threaded path"
            started.clear()
    assert not started
    assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    for (name, p), (name_s, p_s) in zip(saved["threaded"], saved["serial"]):
        assert name == name_s
        assert p.data.tobytes() == p_s.data.tobytes(), name
