"""Pipeline fitting, evaluation reports, sweeps, and attention dumps."""

import dataclasses

import numpy as np
import pytest

from sawreader.data import ClozeExample
from sawreader.harness import (
    EvalReport,
    build_pipeline,
    dump_attention,
    evaluate,
    new_model,
    sweep,
    sweep_csv,
)
from sawreader.reader import ReaderConfig, forward_batch
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.training import TrainConfig

from oracles import random_guess_accuracy


def _splits():
    spec = SyntheticSpec(
        vocab_size=30,
        entity_pool=8,
        num_examples=40,
        doc_len_range=(10, 16),
        seed=1,
    )
    return generate_synthetic(spec)


def _config(**overrides):
    base = dict(
        integration_op="mul",
        num_layers=1,
        hidden=4,
        word_dim=4,
        subword_dim=4,
        gamma=0.9,
        num_merges=30,
        dropout=0.0,
    )
    base.update(overrides)
    return ReaderConfig(**base)


def test_build_pipeline_covers_query_tokens():
    splits = _splits()
    config = _config()
    merges, subwords, vocab, short_list = build_pipeline(splits["train"], config)
    for ex in splits["train"]:
        for token in ex.document + ex.query:
            assert token in vocab.counts
    assert merges.num_merges <= config.num_merges
    assert short_list.kept_count <= vocab.size


def test_evaluate_is_pure_and_splits_oov():
    splits = _splits()
    model = new_model(splits["train"], _config(gamma=0.5))
    report_a = evaluate(model, splits["test"])
    report_b = evaluate(model, splits["test"])
    assert report_a == report_b
    assert len(report_a.results) == len(splits["test"])
    assert report_a.oov_total + report_a.in_vocab_total == len(splits["test"])
    correct = report_a.oov_correct + report_a.in_vocab_correct
    assert report_a.accuracy == pytest.approx(correct / len(splits["test"]))
    for r in report_a.results:
        assert r.oov_answer == (r.gold not in model.short_list)
        assert r.correct == (r.predicted == r.gold)


def test_evaluate_validations():
    splits = _splits()
    model = new_model(splits["train"], _config())
    with pytest.raises(ValueError, match="empty dataset"):
        evaluate(model, [])
    no_answer = ClozeExample("n1", ("a", "b"), ("<blank>", "b"), None)
    with pytest.raises(ValueError, match="missing answer"):
        evaluate(model, [no_answer])
    bad = ClozeExample("n2", ("a", "b"), ("<blank>", "b"), "zzz")
    with pytest.raises(ValueError, match="unanswerable"):
        evaluate(model, [bad])


def test_eval_report_optional_accuracies():
    report = EvalReport(
        accuracy=0.5,
        results=[],
        oov_total=0,
        oov_correct=0,
        in_vocab_total=4,
        in_vocab_correct=2,
    )
    assert report.oov_accuracy is None
    assert report.in_vocab_accuracy == pytest.approx(0.5)


def test_random_guess_accuracy_oracle():
    examples = [
        ClozeExample("r1", ("a", "b", "a", "c"), ("<blank>",), "a"),  # 3 distinct
        ClozeExample("r2", ("x", "y"), ("<blank>",), "x"),  # 2 distinct
    ]
    assert random_guess_accuracy(examples) == pytest.approx((1 / 3 + 1 / 2) / 2)
    with pytest.raises(ValueError, match="empty"):
        random_guess_accuracy([])


def test_sweep_rows_and_csv():
    splits = _splits()
    train_cfg = TrainConfig(batch_size=8, base_lr=0.01, epochs=1, seed=0)
    rows = sweep("merges", [5, 25], splits, _config(), train_cfg)
    assert [r.value for r in rows] == [5, 25]
    # more merges grow the subword vocabulary (size law, holding chars fixed)
    assert rows[0].subword_vocab_size < rows[1].subword_vocab_size
    for r in rows:
        assert r.axis == "merges"
        assert 0.0 <= r.valid_accuracy <= 1.0
        assert 0.0 <= r.test_accuracy <= 1.0
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "axis,value,subword_vocab_size,valid_accuracy,test_accuracy"
    assert len(lines) == 3
    assert lines[1].startswith("merges,5,")


def test_sweep_leaves_base_config_alone():
    splits = _splits()
    base = _config()
    frozen = dataclasses.replace(base)
    sweep("gamma", [0.5], splits, base, TrainConfig(batch_size=8, epochs=1))
    assert base == frozen


def test_sweep_validations():
    splits = _splits()
    cfg = _config()
    tcfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep("depth", [1], splits, cfg, tcfg)
    with pytest.raises(ValueError, match="no values"):
        sweep("merges", [], splits, cfg, tcfg)


def test_dump_attention_rows_and_prediction_match():
    splits = _splits()
    model = new_model(splits["train"], _config(num_layers=2))
    ex = splits["test"][0]
    dump = dump_attention(model, ex, layer=2)
    assert dump.layer == 2
    assert dump.alpha.shape == (len(ex.document), len(ex.query))
    assert np.allclose(dump.alpha.sum(axis=1), 1.0, atol=1e-9)
    assert dump.per_position.shape == (len(ex.document),)
    assert dump.per_position.sum() == pytest.approx(1.0, abs=1e-9)
    # the dumped distribution is the model's own answer distribution
    report = evaluate(model, [ex])
    best = int(np.argmax([dump.per_position[i] for i in range(len(ex.document))]))
    assert isinstance(report.results[0].predicted, str)
    text = dump.to_text()
    assert text.startswith("layer\t2\n")
    assert f"query\t{' '.join(ex.query)}" in text
    assert text.count("\nalpha\t") == len(ex.document)
    assert text.count("\np\t") == len(ex.document)
    assert ex.document[best] in text


def test_dump_attention_reads_the_forward_pass():
    splits = _splits()
    model = new_model(splits["train"], _config(num_layers=2))
    ex = splits["test"][1]
    fp = forward_batch(model, [ex], collect_attention=True)[0]
    for layer in (1, 2):
        dump = dump_attention(model, ex, layer=layer)
        assert np.array_equal(dump.alpha, fp.alphas[layer - 1])
        assert np.array_equal(dump.per_position, fp.dist.per_position)


def test_dump_attention_layer_range():
    splits = _splits()
    model = new_model(splits["train"], _config(num_layers=1))
    with pytest.raises(ValueError, match="layer out of range"):
        dump_attention(model, splits["test"][0], layer=2)
    with pytest.raises(ValueError, match="layer out of range"):
        dump_attention(model, splits["test"][0], layer=0)
