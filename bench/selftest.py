"""Self-test of the benchmark: every check fails on a wrong input, and a
tiny-size run of each workload completes with its checks passing.

    python3 bench/selftest.py

Run from the root of a checkout; takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from types import SimpleNamespace

from run import WORKDIR, prepare

TINY_MODEL = dict(hidden=8, word_dim=8, subword_dim=8, num_merges=40)
TINY = {
    "train-default": dict(
        data=dict(vocab_size=30, entity_pool=8, doc_len_range=(10, 16), num_examples=40),
        reader=dict(TINY_MODEL),
        train=dict(batch_size=8, epochs=1),
        setups=2,
    ),
    "train-quickstart": dict(
        data=dict(vocab_size=40, entity_pool=10, doc_len_range=(12, 24), num_examples=120),
        train=dict(batch_size=8, base_lr=0.04, epochs=2),
        setups=2,
    ),
    "eval-oov": dict(
        data=dict(
            vocab_size=200, entity_pool=20, doc_len_range=(12, 20), num_examples=100, oov_rate=0.5
        ),
        reader=dict(TINY_MODEL, gamma=0.5),
        setups=2,
    ),
}


def expect(name: str, failures: list[str], should_fail: bool, log: list[str]) -> None:
    ok = bool(failures) == should_fail
    verdict = "ok  " if ok else "FAIL"
    what = "rejects a wrong input" if should_fail else "accepts a right input"
    log.append(f"{verdict} {name} {what}" + (f": {failures[0]}" if failures and ok else ""))
    if not ok:
        log.append(f"     got {failures!r}")


def check_checks(log: list[str]) -> None:
    import numpy as np

    import checks

    expect("segmentation", checks.segmentations_concatenate({"baba": ("ba", "ba")}), False, log)
    expect("segmentation", checks.segmentations_concatenate({"baba": ("ba", "b")}), True, log)

    freqs = {"abab": 3, "abc": 2, "cab": 1}
    right = checks.brute_force_merges(freqs, 3)
    expect("merge recount", checks.merges_match_recount(right, freqs, 3), False, log)
    expect("merge recount", checks.merges_match_recount(right[::-1], freqs, 3), True, log)

    words = ["abab", "abc"]
    expect("size law", checks.subword_vocab_size_law(3 + 5 + 1, words, 5, 5), False, log)
    expect("size law", checks.subword_vocab_size_law(3 + 5 + 2, words, 5, 5), True, log)
    expect("size law", checks.subword_vocab_size_law(3 + 4 + 1, words, 4, 5), True, log)

    alpha = np.array([[0.25, 0.75], [1.0, 0.0]])
    good = ("x", np.array([0.2, 0.8]), [0.2, 0.8], [alpha])
    expect("normalised", checks.distributions_normalised([good]), False, log)
    expect(
        "normalised",
        checks.distributions_normalised([("x", np.array([0.2, 0.9]), [0.2, 0.8], [alpha])]),
        True,
        log,
    )
    bad_alpha = np.array([[0.25, 0.75], [1.0, 0.1]])
    expect(
        "normalised",
        checks.distributions_normalised([("x", good[1], good[2], [bad_alpha])]),
        True,
        log,
    )

    doc = ("mira", "gave", "rok", "mira", ".")
    p = np.array([0.2, 0.1, 0.3, 0.15, 0.25])
    expect("argmax", checks.predictions_match([("x", doc, p, "mira")]), False, log)
    expect("argmax", checks.predictions_match([("x", doc, p, "rok")]), True, log)
    tie = np.array([0.125, 0.0, 0.375, 0.25, 0.25])
    expect("argmax tie", checks.predictions_match([("x", doc, tie, "mira")]), False, log)
    expect("argmax tie", checks.predictions_match([("x", doc, tie, "rok")]), True, log)

    expect("solo", checks.solo_matches_batch([("x", doc, p, p + 1e-13)]), False, log)
    expect("solo", checks.solo_matches_batch([("x", doc, p, p + 1e-9)]), True, log)
    expect("solo", checks.solo_matches_batch([("x", doc, tie, tie + 1e-13)]), False, log)
    expect("solo", checks.solo_matches_batch([("x", doc, p, p[[0, 1, 3, 2, 4]])]), True, log)

    r = lambda gold, pred, oov: SimpleNamespace(
        id=gold, gold=gold, predicted=pred, correct=gold == pred, oov_answer=oov
    )
    results = [r("a", "a", False), r("b", "c", False), r("z", "z", True)]
    report = SimpleNamespace(
        accuracy=2 / 3,
        results=results,
        oov_total=1,
        oov_correct=1,
        in_vocab_total=2,
        in_vocab_correct=1,
    )
    short_list = {"a", "b", "c"}
    variant = lambda **changes: SimpleNamespace(**{**vars(report), **changes})
    expect("report", checks.report_consistent(report, short_list), False, log)
    expect("report", checks.report_consistent(variant(oov_correct=0), short_list), True, log)
    swapped = [r("a", "b", False)] + results[1:]
    expect("report", checks.report_consistent(variant(results=swapped), short_list), True, log)

    probe = dict(
        word="zapi",
        in_short_list=False,
        context_in_short_list=True,
        units=["za", "pi"],
        units_known=True,
        unk_row_used=True,
        unit_rows_used=True,
        unknown_unit_used=False,
    )
    expect("oov probe", checks.oov_answers_read_unk([probe]), False, log)
    for key, wrong in (
        ("in_short_list", True),
        ("unk_row_used", False),
        ("unit_rows_used", False),
        ("unknown_unit_used", True),
        ("units", ["za", "p"]),
    ):
        expect(f"oov probe {key}", checks.oov_answers_read_unk([{**probe, key: wrong}]), True, log)

    expect("accuracy", checks.accuracy_beats_baseline(0.5, 0.07, 5), False, log)
    expect("accuracy", checks.accuracy_beats_baseline(0.3, 0.07, 5), True, log)
    expect("deterministic", checks.runs_identical(["a", "a"]), False, log)
    expect("deterministic", checks.runs_identical(["a", "b"]), True, log)


def check_gradients(log: list[str]) -> None:
    """The finite-difference check passes on the tape's gradient and fails
    on a perturbed one."""
    import checks
    from workloads import WORKLOADS, Run

    w = dataclasses.replace(WORKLOADS["train-quickstart"], **TINY["train-quickstart"])
    with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
        run = Run(w, seed=3, scratch=scratch, tracer=None)
        run.rep(traced=False)
        samples = run.gradient_samples(run.model)
    expect("gradient", checks.gradients_match(samples), False, log)
    perturbed = [(n, j, a * 1.01, num) for n, j, a, num in samples]
    expect("gradient", checks.gradients_match(perturbed), True, log)


def check_tiny_runs(log: list[str]) -> None:
    from workloads import WORKLOADS, run_workload

    for name, overrides in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], **overrides)
        for trace in (False, True):
            out = run_workload(w, seed=5, seconds=0.1, trace=trace, workdir=WORKDIR)
            ok = not out["failures"] and not out["errors"] and out["attempted"] > 0
            if trace:
                metrics, _ = out["tracer"].metrics()
                ok = ok and not out["tracer"].unmeasured and all(
                    v == v for v in metrics.values()
                )
            log.append(
                f"{'ok  ' if ok else 'FAIL'} tiny {name} trace={int(trace)}: "
                f"{out['attempted']} operations, {out['examples_per_s']:.1f} examples/s"
            )
            log.extend(f"     {f}" for f in out["failures"] + out["errors"])


def main() -> int:
    problem = prepare()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    log: list[str] = []
    check_checks(log)
    check_gradients(log)
    check_tiny_runs(log)
    print("\n".join(log))
    failed = sum(line.startswith("FAIL") for line in log)
    print(f"selftest: {len(log) - failed} passed, {failed} failed" if failed else "selftest: all passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
