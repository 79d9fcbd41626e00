"""Correctness checks for the benchmark's workloads.

Every check takes plain values and returns a list of failure messages, empty
when the check passes, so the self-test can hand each one a deliberately
wrong input. No check compares against a saved copy of the program's output:
each recomputes the expected value apart from the program, or tests a
property the method must have.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# acceptance criterion 3: relative error per coordinate, with gradients
# below the floor compared absolutely
GRAD_TOLERANCE = 1e-4
GRAD_FLOOR = 1e-5
GRAD_EPS = 1e-5
SUM_TOLERANCE = 1e-9
SOLO_TOLERANCE = 1e-12


def _first(bad: list[str], total: int, what: str) -> list[str]:
    if not bad:
        return []
    more = f" (and {total - len(bad)} more)" if total > len(bad) else ""
    return [f"{what}: " + "; ".join(bad) + more]


def segmentations_concatenate(segmentations: dict[str, tuple[str, ...]]) -> list[str]:
    """Every word's subword units concatenate back to the word."""
    bad = [w for w, units in segmentations.items() if "".join(units) != w]
    shown = [f"{w!r} -> {segmentations[w]!r}" for w in bad[:3]]
    return _first(shown, len(bad), "segmentation does not concatenate")


def _pair_counts(symbols: list[str]) -> Counter:
    # an occurrence overlapping the previous counted one of the same pair
    # ("aaa" holds one (a, a)) is skipped
    counts: Counter = Counter()
    counted_at: dict[tuple[str, str], int] = {}
    for i in range(len(symbols) - 1):
        pair = (symbols[i], symbols[i + 1])
        if counted_at.get(pair) == i - 1:
            continue
        counts[pair] += 1
        counted_at[pair] = i
    return counts


def _fuse(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def replay_merges(word: str, merges: list[tuple[str, str]]) -> list[str]:
    """Segment a word by replaying merges in rank order."""
    symbols = list(word)
    for pair in merges:
        if len(symbols) < 2:
            break
        symbols = _fuse(symbols, pair)
    return symbols


def brute_force_merges(freqs: dict[str, int], count: int) -> list[tuple[str, str]]:
    """The first `count` BPE merges, recounting every pair from scratch.

    Each round counts frequency-weighted adjacent pairs over all words,
    takes the most frequent (ties to the smallest pair) and fuses it
    greedily left to right.
    """
    segs = {w: list(w) for w in freqs}
    merges: list[tuple[str, str]] = []
    for _ in range(count):
        totals: Counter = Counter()
        for word, n in freqs.items():
            for pair, k in _pair_counts(segs[word]).items():
                totals[pair] += k * n
        if not totals:
            break
        best = min(totals, key=lambda p: (-totals[p], p))
        merges.append(best)
        segs = {w: _fuse(s, best) for w, s in segs.items()}
    return merges


def merges_match_recount(
    program: list[tuple[str, str]], freqs: dict[str, int], count: int
) -> list[str]:
    """The program's first merges equal a brute-force recount."""
    expected = brute_force_merges(freqs, count)
    got = list(program[: len(expected)])
    if got != expected:
        return [f"first merges {got!r} differ from the recount {expected!r}"]
    return []


def subword_vocab_size_law(
    size: int, words: list[str], merges: int, requested: int
) -> list[str]:
    """Characters + merges + 1 units, when the merges were not exhausted."""
    failures = []
    if merges != requested:
        failures.append(f"learned {merges} merges of {requested}: merges ran out")
    chars = len({ch for w in words for ch in w})
    if size != chars + merges + 1:
        failures.append(
            f"subword vocabulary has {size} units, expected "
            f"{chars} characters + {merges} merges + 1 = {chars + merges + 1}"
        )
    return failures


def distributions_normalised(
    rows: list[tuple[str, np.ndarray, list[float], list[np.ndarray]]]
) -> list[str]:
    """Per-position, per-candidate and attention rows each sum to 1.

    `rows` holds (example id, per-position probabilities, aggregated
    candidate probabilities, attention matrices).
    """
    bad = []
    for ex_id, per_position, per_candidate, alphas in rows:
        sums = {
            "per-position": float(np.sum(per_position)),
            "per-candidate": float(np.sum(per_candidate)),
        }
        for k, alpha in enumerate(alphas, start=1):
            row_sums = np.sum(alpha, axis=1)
            worst = row_sums[np.argmax(np.abs(row_sums - 1.0))]
            sums[f"attention layer {k}"] = float(worst)
        if not alphas:
            sums["attention"] = float("nan")
        bad.extend(
            f"{ex_id} {what} sums to {s!r}"
            for what, s in sums.items()
            if not abs(s - 1.0) <= SUM_TOLERANCE
        )
    return _first(bad[:3], len(bad), "distribution not normalised")


def candidate_sums(doc_tokens: tuple[str, ...], per_position: np.ndarray) -> dict[str, float]:
    """Per-position probability summed over each word's positions."""
    positions: dict[str, list[int]] = {}
    for i, token in enumerate(doc_tokens):
        positions.setdefault(token, []).append(i)
    p = np.asarray(per_position, dtype=np.float64)
    # dicts keep insertion order, so words come in order of first position
    return {w: float(p[ix].sum()) for w, ix in positions.items()}


def independent_answer(doc_tokens: tuple[str, ...], per_position: np.ndarray) -> str:
    """Argmax over positions summed per word; ties to the earliest word."""
    sums = candidate_sums(doc_tokens, per_position)
    best = max(sums.values())
    return next(w for w, s in sums.items() if s == best)


def predictions_match(
    rows: list[tuple[str, tuple[str, ...], np.ndarray, str]]
) -> list[str]:
    """Each prediction equals the independent argmax.

    `rows` holds (example id, document tokens, per-position probabilities,
    the program's predicted answer).
    """
    bad = []
    for ex_id, doc, per_position, predicted in rows:
        expected = independent_answer(doc, per_position)
        if predicted != expected:
            bad.append(f"{ex_id} predicted {predicted!r}, argmax is {expected!r}")
    return _first(bad[:3], len(bad), "prediction is not the argmax")


def solo_matches_batch(
    rows: list[tuple[str, tuple[str, ...], np.ndarray, np.ndarray]]
) -> list[str]:
    """Examples run alone give the batched probabilities and predictions.

    `rows` holds (example id, document tokens, batched probabilities, solo
    probabilities). Probabilities may differ by SOLO_TOLERANCE, so the two
    predictions may differ only where the batched sums of the two answers
    lie within twice that of each other.
    """
    bad = []
    for ex_id, doc, batched, solo in rows:
        if batched.shape != solo.shape:
            bad.append(f"{ex_id} shapes {batched.shape} vs {solo.shape}")
            continue
        diff = float(np.max(np.abs(batched - solo)))
        if not diff <= SOLO_TOLERANCE:
            bad.append(f"{ex_id} differs by {diff:.3e}")
        a, b = independent_answer(doc, batched), independent_answer(doc, solo)
        sums = candidate_sums(doc, batched)
        if a != b and not abs(sums[a] - sums[b]) <= 2 * SOLO_TOLERANCE:
            bad.append(f"{ex_id} predicts {a!r} batched, {b!r} alone")
    return _first(bad[:3], len(bad), "solo run differs from batch")


def report_consistent(report, short_list: set[str]) -> list[str]:
    """The report's totals agree with its own per-example results."""
    failures = []
    results = report.results
    for r in results:
        if r.correct != (r.predicted == r.gold):
            failures.append(f"{r.id}: correct={r.correct} for {r.predicted!r}/{r.gold!r}")
        if r.oov_answer != (r.gold not in short_list):
            failures.append(f"{r.id}: oov_answer={r.oov_answer} for {r.gold!r}")
    oov = [r for r in results if r.gold not in short_list]
    iv = [r for r in results if r.gold in short_list]
    expected = {
        "accuracy": sum(r.predicted == r.gold for r in results) / len(results),
        "oov_total": len(oov),
        "oov_correct": sum(r.predicted == r.gold for r in oov),
        "in_vocab_total": len(iv),
        "in_vocab_correct": sum(r.predicted == r.gold for r in iv),
    }
    for key, value in expected.items():
        if getattr(report, key) != value:
            failures.append(f"{key} is {getattr(report, key)!r}, results give {value!r}")
    return _first(failures[:3], len(failures), "report disagrees with its results")


def oov_answers_read_unk(probes: list[dict]) -> list[str]:
    """Answers outside the short list read the UNK word row and are spelled
    by their subword units.

    Each probe describes one answer word: whether it is in the short list,
    the units an independent replay of the merges gives, whether each is in
    the subword vocabulary, and whether perturbing the UNK word row, the
    units' rows and the unknown-unit row changed the model's output.
    """
    bad = []
    for p in probes:
        w = p["word"]
        if p["in_short_list"]:
            bad.append(f"{w!r} is in the short list")
        if not p["context_in_short_list"]:
            bad.append(f"the probe's other tokens for {w!r} are not all in the short list")
        if "".join(p["units"]) != w or not p["units_known"]:
            bad.append(f"{w!r} is not spelled by known units {p['units']!r}")
        if not p["unk_row_used"]:
            bad.append(f"{w!r} does not read the UNK word row")
        if not p["unit_rows_used"]:
            bad.append(f"{w!r} does not read its units' rows")
        if p["unknown_unit_used"]:
            bad.append(f"{w!r} reads the unknown subword row")
    return _first(bad[:3], len(bad), "OOV answer check")


def gradients_match(samples: list[tuple[str, int, float, float]]) -> list[str]:
    """Analytic gradients agree with central differences.

    `samples` holds (parameter name, flat index, analytic, numeric).
    """
    if not samples:
        return ["no gradient coordinates were sampled"]
    bad = []
    for name, index, analytic, numeric in samples:
        denom = max(abs(analytic), abs(numeric), GRAD_FLOOR)
        err = abs(analytic - numeric) / denom
        if not err < GRAD_TOLERANCE:
            bad.append(f"{name}[{index}] analytic {analytic:.6e} numeric {numeric:.6e}")
    return _first(bad[:3], len(bad), "gradient differs from finite differences")


def accuracy_beats_baseline(accuracy: float, baseline: float, factor: float) -> list[str]:
    if not accuracy >= factor * baseline:
        return [
            f"train accuracy {accuracy:.3f} is below {factor:g}x the "
            f"random-guess baseline {baseline:.3f}"
        ]
    return []


def random_guess_baseline(documents: list[tuple[str, ...]]) -> float:
    """Expected accuracy of a uniform guess over each document's words."""
    return float(np.mean([1.0 / len(set(doc)) for doc in documents]))


def runs_identical(histories: list[str]) -> list[str]:
    """Seeded training repeated on a fresh model gives the same history."""
    if any(h != histories[0] for h in histories[1:]):
        return [f"{len(set(histories))} different histories from {len(histories)} runs"]
    return []
