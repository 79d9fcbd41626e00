"""Acceptance checks for the whole package, one verdict line per criterion.

Each test prints a single [PASS]/[FAIL] line (visible even without -s,
via capsys.disabled) and then asserts. Criteria with a runtime budget
measure wall time with time.monotonic and include it in the verdict.
"""

import math
import time

import numpy as np

from sawreader.bpe import (
    MergeTable,
    build_subword_vocab,
    segment_word,
    train_bpe,
)
from sawreader.data import PLACEHOLDER, ClozeExample
from sawreader.harness import (
    evaluate,
    new_model,
    sweep,
    sweep_csv,
)
from sawreader.reader import ReaderConfig, forward_batch
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.training import (
    TrainConfig,
    clip_gradients,
    loss_node,
    lr_schedule,
    train,
)
from sawreader.vocab import index_subwords

from oracles import bpe_train, global_norm, grad_check, random_guess_accuracy


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{verdict}] criterion-{num}: {detail}")
    assert ok, f"criterion-{num}: {detail}"


def _random_corpus(rng) -> dict[str, int]:
    alphabet = "abcdefgh"[: int(rng.integers(2, 9))]
    counts: dict[str, int] = {}
    for _ in range(int(rng.integers(1, 51))):
        length = int(rng.integers(1, 9))
        word = "".join(alphabet[int(j)] for j in rng.integers(0, len(alphabet), length))
        counts[word] = counts.get(word, 0) + int(rng.integers(1, 21))
    return counts


def test_criterion_1_merge_learning_matches_recount_oracle(capsys):
    rng = np.random.default_rng(20260819)
    start = time.monotonic()
    matched = 0
    for _ in range(200):
        counts = _random_corpus(rng)
        num_merges = int(rng.integers(1, 31))
        table = train_bpe(counts, num_merges)
        expected = bpe_train(counts, num_merges)
        assert [(r.left, r.right) for r in table.rules] == expected
        assert [r.rank for r in table.rules] == list(range(len(expected)))
        matched += 1
    elapsed = time.monotonic() - start
    _report(
        capsys,
        1,
        matched == 200 and elapsed < 30.0,
        f"{matched}/200 random corpora match the recount oracle exactly "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_segmentation_round_trip_and_size_law(capsys):
    rng = np.random.default_rng(77)
    round_trips = 0
    law_checks = 0
    for case in range(100):
        counts = _random_corpus(rng)
        # small merge budgets on half the corpora keep training non-exhausted
        requested = int(rng.integers(1, 7 if case % 2 else 25))
        table = train_bpe(counts, requested)
        for _ in range(100):
            length = int(rng.integers(1, 13))
            word = "".join(
                "abcdefghij"[int(j)] for j in rng.integers(0, 10, length)
            )
            seg = segment_word(word, table)
            assert "".join(seg.subwords) == word
            round_trips += 1
        if table.num_merges == requested:
            single_chars = {c for w in counts for c in w}
            vocab = build_subword_vocab(counts, table)
            assert vocab.size == len(single_chars) + table.num_merges + 1
            law_checks += 1
    _report(
        capsys,
        2,
        round_trips == 10_000 and law_checks >= 10,
        f"{round_trips} round-trips exact; size law held on "
        f"{law_checks} non-exhausted tables",
    )


def test_criterion_3_end_to_end_gradients_match_finite_differences(capsys):
    example = ClozeExample(
        id="g1",
        document=("nola", "gave", "rem", "the", "vase", "."),
        query=("nola", "gave", "rem", "the", PLACEHOLDER, "."),
        answer="vase",
    )
    start = time.monotonic()
    errors = {}
    for k in (1, 2, 3):
        config = ReaderConfig(
            integration_op="mul",
            num_layers=k,
            hidden=8,
            word_dim=8,
            subword_dim=8,
            gamma=0.9,
            num_merges=20,
            dropout=0.0,
        )
        model = new_model([example], config, seed=k)

        def objective():
            fp = forward_batch(model, [example], mode="train")[0]
            return loss_node(fp, example.answer)

        # floor 1e-5: entries below that are compared absolutely, since
        # central differences cannot resolve 1e-10-scale entries relatively
        errors[k] = grad_check(objective, model.params, eps=1e-5, floor=1e-5)
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    _report(
        capsys,
        3,
        worst < 1e-4 and elapsed < 120.0,
        "max relative gradient error "
        + ", ".join(f"K={k}: {e:.2e}" for k, e in errors.items())
        + f" (all < 1e-4; {elapsed:.1f}s < 120s)",
    )


def test_criterion_4_probability_and_attention_normalization(capsys):
    splits = generate_synthetic(
        SyntheticSpec(
            vocab_size=60,
            entity_pool=12,
            doc_len_range=(10, 18),
            num_examples=1250,
            seed=11,
        )
    )
    examples = splits["train"]
    assert len(examples) == 1000
    config = ReaderConfig(
        integration_op="concat",
        num_layers=2,
        hidden=8,
        word_dim=8,
        subword_dim=8,
        gamma=0.8,
        num_merges=60,
        dropout=0.5,
    )
    model = new_model(examples, config, seed=7)
    worst_position = worst_candidate = worst_attention = 0.0
    for batch_start in range(0, len(examples), 32):
        chunk = examples[batch_start : batch_start + 32]
        for fp in forward_batch(model, chunk, mode="eval", collect_attention=True):
            worst_position = max(
                worst_position, abs(float(fp.dist.per_position.sum()) - 1.0)
            )
            worst_candidate = max(
                worst_candidate, abs(sum(fp.dist.per_candidate.values()) - 1.0)
            )
            for alpha in fp.alphas:
                worst_attention = max(
                    worst_attention, float(np.abs(alpha.sum(axis=1) - 1.0).max())
                )
    ok = max(worst_position, worst_candidate, worst_attention) < 1e-6
    _report(
        capsys,
        4,
        ok,
        f"1000 forwards: |sum-1| per-position {worst_position:.1e}, "
        f"per-candidate {worst_candidate:.1e}, attention rows "
        f"{worst_attention:.1e} (all < 1e-6)",
    )


# --- shared learning-smoke pipeline (criteria 5, 8, and 9) ---

_SMOKE: dict = {}


def _smoke_splits():
    return generate_synthetic(
        SyntheticSpec(
            vocab_size=80,
            entity_pool=20,
            doc_len_range=(12, 24),
            num_examples=250,
            seed=5,
        )
    )


def _smoke_reader_config() -> ReaderConfig:
    return ReaderConfig(
        integration_op="mul",
        num_layers=2,
        hidden=16,
        word_dim=16,
        subword_dim=16,
        gamma=0.9,
        num_merges=100,
        dropout=0.0,
    )


def _run_smoke():
    splits = _smoke_splits()
    train_config = TrainConfig(batch_size=8, base_lr=0.04, epochs=10, seed=0)
    model = new_model(splits["train"], _smoke_reader_config(), seed=0)
    history = train(model, splits["train"], splits["valid"], train_config)
    report = evaluate(model, splits["test"])
    return splits, history, report


def _first_smoke_run():
    if "run" not in _SMOKE:
        start = time.monotonic()
        _SMOKE["run"] = _run_smoke()
        _SMOKE["seconds"] = time.monotonic() - start
    return _SMOKE["run"], _SMOKE["seconds"]


def test_criterion_5_learning_smoke_test(capsys):
    (splits, history, report), seconds = _first_smoke_run()
    best_train = max(row.train_acc for row in history.rows)
    baseline = random_guess_accuracy(splits["test"])
    ok = (
        len(history.rows) <= 50
        and best_train >= 0.95
        and report.accuracy >= 5.0 * baseline
        and seconds < 300.0
    )
    _report(
        capsys,
        5,
        ok,
        f"train acc {best_train:.3f} >= 0.95 in {len(history.rows)} epochs; "
        f"test acc {report.accuracy:.3f} >= 5x baseline {baseline:.3f} "
        f"({seconds:.1f}s < 300s)",
    )


def test_criterion_6_oov_answers_use_unk_word_and_spelling_subwords(capsys):
    splits = generate_synthetic(
        SyntheticSpec(
            vocab_size=80,
            entity_pool=20,
            doc_len_range=(12, 24),
            num_examples=250,
            oov_rate=0.2,
            seed=9,
        )
    )
    config = ReaderConfig(
        integration_op="mul",
        num_layers=2,
        hidden=16,
        word_dim=16,
        subword_dim=16,
        gamma=0.5,
        num_merges=100,
        dropout=0.0,
    )
    model = new_model(splits["train"], config, seed=2)
    held_out = splits["valid"] + splits["test"]
    oov_examples = [ex for ex in held_out if ex.answer not in model.short_list]
    assert oov_examples, "expected injected and filtered answers in held-out data"
    for ex in oov_examples:
        assert model.short_list.index(ex.answer) == model.short_list.unk_index
        seg = segment_word(ex.answer, model.merges)
        assert "".join(seg.subwords) == ex.answer
        expected = tuple(model.subwords.lookup(unit) for unit in seg.subwords)
        assert index_subwords(ex.answer, model.merges, model.subwords) == expected

    history = train(
        model,
        splits["train"],
        splits["valid"],
        TrainConfig(batch_size=8, base_lr=0.04, epochs=10, seed=2),
    )
    assert len(history.rows) == 10
    report = evaluate(model, held_out)
    baseline = random_guess_accuracy(held_out)
    ok = (
        report.oov_total == len(oov_examples)
        and report.oov_accuracy is not None
        and report.oov_accuracy > baseline
    )
    _report(
        capsys,
        6,
        ok,
        f"{len(oov_examples)} held-out answers map to the unk word row with "
        f"spelling-derived subwords; oov accuracy {report.oov_accuracy:.3f} > "
        f"baseline {baseline:.3f}",
    )


def test_criterion_7_optimizer_schedule_clipping_and_defaults(capsys):
    schedule = [lr_schedule(epoch, 0.001) for epoch in range(1, 6)]
    ok_schedule = schedule == [0.001, 0.001, 0.0005, 0.00025, 0.000125]

    rng = np.random.default_rng(3)
    raw = {"a": rng.standard_normal((4, 5)), "b": rng.standard_normal(7)}
    norm = global_norm(raw)
    big = {k: v * (25.0 / norm) for k, v in raw.items()}
    small = {k: v * (4.0 / norm) for k, v in raw.items()}
    big_before = {k: v.copy() for k, v in big.items()}
    norm_big = clip_gradients(big, 10.0)  # clipped in place
    norm_small = clip_gradients(small, 10.0)
    ok_clip = (
        abs(norm_big - 25.0) < 1e-9
        and abs(norm_small - 4.0) < 1e-9
        and abs(global_norm(big) - 10.0) < 1e-9
        and abs(global_norm(small) - 4.0) < 1e-9
        and np.allclose(big["a"] * 2.5, big_before["a"], rtol=1e-12)
    )

    train_defaults = TrainConfig()
    reader_defaults = ReaderConfig(integration_op="mul")
    ok_defaults = (
        train_defaults.batch_size == 64
        and reader_defaults.num_layers == 3
        and reader_defaults.hidden == 128
        and reader_defaults.dropout == 0.5
        and reader_defaults.num_merges == 1000
        and reader_defaults.gamma == 0.9
    )
    _report(
        capsys,
        7,
        ok_schedule and ok_clip and ok_defaults,
        "lr halves after epoch 2 (0.001, 0.001, 0.0005, 0.00025, 0.000125); "
        "pre-clip norms 25 and 4 returned and clipped in place to min(25,10)=10 "
        "and min(4,10)=4 within 1e-9; defaults "
        "batch=64, layers=3, hidden=128, dropout=0.5, merges=1000, gamma=0.9",
    )


def test_criterion_8_all_integration_operators_train_and_evaluate(capsys):
    (splits, _, _), _ = _first_smoke_run()
    rows = sweep(
        "op",
        ["concat", "sum", "mul"],
        splits,
        _smoke_reader_config(),
        TrainConfig(batch_size=8, base_lr=0.04, epochs=2, seed=0),
    )
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    accuracies = [(r.valid_accuracy, r.test_accuracy) for r in rows]
    ok = (
        [r.value for r in rows] == ["concat", "sum", "mul"]
        and len(lines) == 4
        and all(
            math.isfinite(v) and math.isfinite(t) and 0.0 <= v <= 1.0 and 0.0 <= t <= 1.0
            for v, t in accuracies
        )
    )
    _report(
        capsys,
        8,
        ok,
        "operators concat/sum/mul all trained and evaluated; sweep csv has "
        f"3 data rows; accuracies {['%.2f' % t for _, t in accuracies]}",
    )


def test_criterion_9_identical_seeds_reproduce_history_and_report(capsys):
    (_, history_a, report_a), _ = _first_smoke_run()
    _, history_b, report_b = _run_smoke()
    ok = (
        history_a == history_b
        and history_a.to_csv() == history_b.to_csv()
        and report_a == report_b
    )
    _report(
        capsys,
        9,
        ok,
        "two seeded runs: training history and evaluation report are "
        "bit-identical",
    )
