"""The benchmark's workloads, their timed loops and their correctness checks.

Imported only after run.py has fixed the BLAS thread count and put the
checkout's `src` first on the import path.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import resource
import shutil
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import sawreader as sw
from sawreader import autodiff, training

import checks
from tracing import SETUP, Tracer

# examples whose probabilities, attention and predictions are checked
CHECK_SAMPLE = 32
SOLO_SAMPLE = 8
RECOUNT_MERGES = 10
GRAD_BATCH = 2
GRAD_PARAMS = 6
ACCURACY_FACTOR = 5.0
# the workload seed drives the generated data; every model starts from this one
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # SyntheticSpec fields, all but the seed
    data: dict
    # ReaderConfig fields
    reader: dict
    # TrainConfig fields for a training workload; None evaluates instead
    train: dict | None
    # set-ups timed before the loop; setup_s is the median of these and of
    # the one before each training repetition
    setups: int
    check_accuracy: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-default",
            data=dict(vocab_size=300, entity_pool=40, doc_len_range=(20, 40), num_examples=240),
            reader={},
            train=dict(epochs=1),
            setups=10,
        ),
        Workload(
            name="train-quickstart",
            data=dict(vocab_size=80, entity_pool=20, doc_len_range=(12, 24), num_examples=250),
            reader=dict(
                integration_op="mul",
                num_layers=2,
                hidden=16,
                word_dim=16,
                subword_dim=16,
                gamma=0.9,
                num_merges=100,
                dropout=0.0,
            ),
            train=dict(batch_size=8, base_lr=0.04, epochs=2),
            setups=30,
            check_accuracy=True,
        ),
        Workload(
            name="eval-oov",
            data=dict(
                vocab_size=2100,
                entity_pool=60,
                doc_len_range=(20, 40),
                num_examples=2000,
                oov_rate=0.5,
            ),
            reader=dict(gamma=0.5),
            train=None,
            setups=4,
        ),
    )
}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One run of one workload: set-ups, checks, then the timed loop."""

    def __init__(self, workload: Workload, seed: int, scratch: str, tracer: Tracer | None):
        self.w = workload
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.splits = sw.generate_synthetic(sw.SyntheticSpec(seed=seed, **workload.data))
        self.reader_config = sw.ReaderConfig(**workload.reader)
        self.train_config = sw.TrainConfig(**workload.train) if workload.train else None
        self.held = self.splits["valid"] + self.splits["test"]
        self.setup_times: list[float] = []

    # -- operations -------------------------------------------------------

    def _timed(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.timed(name, fn, *args, **kwargs)

    def setup(self):
        """Generated examples in memory -> a model ready to train or evaluate."""
        tr = self.tracer
        idx = tr.open(SETUP) if tr is not None and tr.active else None
        try:
            model = sw.new_model(
                self.splits["train"], self.reader_config, seed=MODEL_SEED
            )
            if self.train_config is None:
                ckpt = os.path.join(self.scratch, "ckpt")
                self._timed("reader.save_model", sw.save_model, model, ckpt)
                model = self._timed("reader.load_model", sw.load_model, ckpt)
        finally:
            if idx is not None:
                tr.close(idx)
        if tr is not None:
            tr.register_model(model)
        return model

    def timed_setup(self):
        gc.collect()
        start = perf_counter()
        model = self.setup()
        self.setup_times.append(perf_counter() - start)
        return model

    def ops_per_rep(self) -> int:
        if self.train_config is None:
            return len(self.held)
        steps = math.ceil(len(self.splits["train"]) / self.train_config.batch_size)
        return steps * self.train_config.epochs

    def rep(self, traced: bool):
        """One timed operation; returns (examples per second, its result)."""
        # a training repetition starts from a fresh model, one more set-up sample
        model = self.timed_setup() if self.train_config is not None else self.model
        gc.collect()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.start_rep()
            tracer.active = True
        try:
            start = perf_counter()
            if self.train_config is None:
                result = self._timed("harness.evaluate", sw.evaluate, model, self.held)
                examples = len(self.held)
            else:
                result = self._timed(
                    "training.train",
                    sw.train,
                    model,
                    self.splits["train"],
                    self.splits["valid"],
                    self.train_config,
                )
                examples = len(self.splits["train"]) * self.train_config.epochs
            elapsed = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.end_rep()
        self.model = model
        return examples / elapsed, result

    def loop(self, seconds: float, trace: bool):
        """Whole repetitions until `seconds` have passed.

        The first repetition warms the process up (heap growth, first-touch
        pages) and its rate is left out. With `trace`, every other
        repetition after it is traced, so the untraced ones in between give
        the tracing overhead. Returns the median rate of the untraced and of
        the traced repetitions, all results, and the operations attempted
        and failed.
        """
        rates: dict[bool, list[float]] = {False: [], True: []}
        results = []
        attempted = failed = 0
        end = perf_counter() + seconds
        for i in itertools.count():
            done = perf_counter() >= end and (rates[False] or len(self.errors) > 1)
            if done and (rates[True] or not trace or self.errors):
                break
            traced = trace and i % 2 == 1
            attempted += self.ops_per_rep()
            try:
                rate, result = self.rep(traced)
            except Exception as exc:  # a failing operation is counted, not fatal
                failed += self.ops_per_rep()
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if i > 0:
                rates[traced].append(rate)
            results.append(result)
        median = lambda xs: statistics.median(xs) if xs else float("nan")
        return median(rates[False]), median(rates[True]), results, attempted, failed

    # -- checks -----------------------------------------------------------

    def check(self, name: str, failures: list[str]) -> None:
        self.failures.extend(f"[{self.w.name} {name}] {f}" for f in failures)

    def check_bpe(self, model) -> None:
        words = list(model.vocab.words)
        segs = {w: sw.segment_word(w, model.merges).subwords for w in words}
        self.check("bpe-concat", checks.segmentations_concatenate(segs))
        freqs = Counter(
            tok for ex in self.splits["train"] for seq in (ex.document, ex.query) for tok in seq
        )
        program = [(r.left, r.right) for r in model.merges.rules]
        self.check(
            "bpe-recount", checks.merges_match_recount(program, dict(freqs), RECOUNT_MERGES)
        )
        if self.train_config is None:
            self.check(
                "bpe-size",
                checks.subword_vocab_size_law(
                    model.subwords.size,
                    sorted(freqs),
                    model.merges.num_merges,
                    self.reader_config.num_merges,
                ),
            )

    def check_outputs(self, model, examples, predicted: list[str]) -> list:
        """Normalisation and argmax of the program's predictions."""
        with autodiff.no_grad():
            passes = sw.forward_batch(model, examples, mode="eval", collect_attention=True)
        self.check(
            "normalised",
            checks.distributions_normalised(
                [
                    (
                        fp.example.id,
                        fp.dist.per_position,
                        list(fp.dist.per_candidate.values()),
                        fp.alphas or [],
                    )
                    for fp in passes
                ]
            ),
        )
        self.check(
            "argmax",
            checks.predictions_match(
                [
                    (ex.id, ex.document, fp.dist.per_position, pred)
                    for ex, fp, pred in zip(examples, passes, predicted)
                ]
            ),
        )
        return passes

    def check_solo(self, model, passes) -> None:
        rows = []
        with autodiff.no_grad():
            for fp in passes[:SOLO_SAMPLE]:
                solo = sw.forward_batch(model, [fp.example], mode="eval")[0]
                rows.append(
                    (
                        fp.example.id,
                        fp.example.document,
                        fp.dist.per_position,
                        solo.dist.per_position,
                    )
                )
        self.check("solo-batch", checks.solo_matches_batch(rows))

    def probe_oov(self, model, word: str) -> dict:
        """Which embedding rows a probe example around an OOV word reads.

        The probe's other tokens are in the short list and spelled by known
        units, so a nonzero gradient on the UNK word row or on the unknown
        unit's row can only come from the word itself.
        """
        units = checks.replay_merges(word, [(r.left, r.right) for r in model.merges.rules])
        unit_ids = [model.subwords.lookup(u) for u in units]
        probe = sw.ClozeExample(
            id=f"probe-{word}",
            document=(word, "."),
            query=(sw.PLACEHOLDER, "."),
            answer=word,
        )
        fp = sw.forward_batch(model, [probe], mode="eval")[0]
        model.params.zero_grads()
        training.loss_node(fp, word).backward()
        word_grad = model.word_emb.grad
        sub_grad = model.sub_emb.grad
        used = lambda grad, row: grad is not None and bool(np.any(grad[row]))
        result = {
            "word": word,
            "in_short_list": word in model.short_list,
            "context_in_short_list": all(t in model.short_list for t in probe.query)
            and all(ch in model.subwords for t in probe.query for ch in t),
            "units": units,
            "units_known": all(i != model.subwords.unk_index for i in unit_ids),
            "unk_row_used": used(word_grad, model.short_list.unk_index),
            "unit_rows_used": all(used(sub_grad, i) for i in unit_ids),
            "unknown_unit_used": used(sub_grad, model.subwords.unk_index),
        }
        model.params.zero_grads()
        return result

    def check_eval(self, report) -> None:
        model = self.model
        sample = self.held[:CHECK_SAMPLE]
        predicted = [r.predicted for r in report.results[: len(sample)]]
        passes = self.check_outputs(model, sample, predicted)
        self.check_solo(model, passes)
        self.check("report", checks.report_consistent(report, set(model.short_list.kept)))
        oov_words = sorted({ex.answer for ex in self.held if ex.answer not in model.short_list})
        if not oov_words:
            self.check("oov", ["no held-out answer lies outside the short list"])
        self.check("oov", checks.oov_answers_read_unk([self.probe_oov(model, w) for w in oov_words]))

    def gradient_samples(self, model) -> list[tuple[str, int, float, float]]:
        """Analytic vs central-difference gradient at sampled coordinates.

        Central differences of an order-one loss resolve a gradient only
        down to about 1e-10, so the coordinates come from the parameters
        with the largest gradients: each one's largest entry and a random
        entry within a tenth of it.
        """
        batch = self.splits["train"][:GRAD_BATCH]

        def objective():
            # re-seeding fixes the dropout masks between evaluations
            rng = np.random.default_rng([self.seed, 7])
            passes = sw.forward_batch(model, batch, mode="train", rng=rng)
            losses = [training.loss_node(fp, ex.answer) for fp, ex in zip(passes, batch)]
            return autodiff.mean_of(losses)

        model.params.zero_grads()
        objective().backward()
        grads = [(name, t, np.abs(t.grad).reshape(-1)) for name, t in model.params.items()
                 if t.grad is not None]
        grads.sort(key=lambda item: -item[2].max())
        rng = np.random.default_rng(self.seed)
        coords = []
        for name, t, mag in grads[:GRAD_PARAMS]:
            large = np.flatnonzero(mag >= 0.1 * mag.max())
            coords.append((name, t, int(np.argmax(mag))))
            coords.append((name, t, int(large[rng.integers(len(large))])))
        samples = []
        with autodiff.no_grad():
            for name, t, j in coords:
                flat = t.data.reshape(-1)
                saved = flat[j]
                flat[j] = saved + checks.GRAD_EPS
                f_plus = float(objective().data)
                flat[j] = saved - checks.GRAD_EPS
                f_minus = float(objective().data)
                flat[j] = saved
                numeric = (f_plus - f_minus) / (2 * checks.GRAD_EPS)
                samples.append((name, j, float(t.grad.reshape(-1)[j]), numeric))
        model.params.zero_grads()
        return samples

    def check_training(self, histories) -> None:
        model = self.model
        sample = self.splits["train"][:CHECK_SAMPLE]
        report = sw.evaluate(model, sample)
        self.check_outputs(model, sample, [r.predicted for r in report.results])
        self.check("deterministic", checks.runs_identical([h.to_csv() for h in histories]))
        # on the trained model, whose gradients central differences resolve
        self.check("gradient", checks.gradients_match(self.gradient_samples(model)))
        if self.w.check_accuracy:
            baseline = checks.random_guess_baseline([ex.document for ex in self.splits["train"]])
            self.check(
                "accuracy",
                checks.accuracy_beats_baseline(
                    histories[-1].rows[-1].train_acc, baseline, ACCURACY_FACTOR
                ),
            )

    # -- whole run --------------------------------------------------------

    def run(self, seconds: float, traced: bool) -> dict:
        if traced:
            self.tracer.active = True
        for _ in range(self.w.setups):
            self.model = self.timed_setup()
        if traced:
            self.tracer.active = False
        self.check_bpe(self.model)
        untraced, traced_rate, results, attempted, failed = self.loop(seconds, traced)
        rss = peak_rss_mb()
        if results:
            if self.train_config is None:
                self.check_eval(results[-1])
            else:
                self.check_training(results)
        return {
            "setup_s": statistics.median(self.setup_times),
            "examples_per_s": untraced,
            "traced_examples_per_s": traced_rate,
            "peak_rss_mb": rss,
            "attempted": attempted,
            "failed": failed,
        }


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: str
) -> dict:
    """Run one workload; returns metrics, counts and check failures."""
    os.makedirs(workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()
        run = Run(workload, seed, scratch, tracer)
        out = run.run(seconds, trace)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    out["failures"] = run.failures
    out["errors"] = run.errors
    out["tracer"] = tracer
    return out
