"""Spans and counters recorded around the program's layers.

The tracer replaces a function under the name its caller looks it up by
(`reader.index_subwords`, `training.forward_batch`, ...) with a wrapper that
records a span: name, start, end and the enclosing span. Spans stay in
memory; self times and per-layer metrics are computed from them at the end.
A wrapper whose target no longer exists is skipped and its layer reported as
unmeasured, so a later restructuring of a layer does not break the run.
"""

from __future__ import annotations

import functools
import gc
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROLES = ("sub_enc",) + tuple(
    f"layer{k}-{side}" for k in (1, 2, 3) for side in ("doc", "query")
)

# span name of the operation each workload times; every other span nests in
# one of these or in a set-up span
SETUP = "bench.setup"
TIMED = ("training.train", "harness.evaluate")

SEGMENT = ("bpe.index_subwords", "bpe.segment_word")

GRU_METRICS = tuple(f"neural.gru_{d}_s.{role}" for d in ("fwd", "bwd") for role in ROLES)

# the metrics each span or counter feeds, left out when its wrapper is missing
FEEDS = {
    "harness.build_pipeline": ("harness.build_pipeline_s",),
    "vocab.build_vocab": ("vocab.build_vocab_s",),
    "bpe.train_bpe": ("bpe.train_bpe_s",),
    "bpe.build_subword_vocab": ("bpe.build_subword_vocab_s",),
    "bpe.segment_word": ("bpe.segment_calls", "bpe.segment_distinct_ratio"),
    "reader.forward": ("reader.forward_s", "training.step_s"),
    "reader.subword_encode": ("reader.subword_encode_s",),
    "reader.attention": ("reader.attention_s", "reader.attention_calls"),
    "reader.aggregate": ("reader.aggregate_s",),
    "neural.bigru_batch": GRU_METRICS
    + ("neural.gru_positions", "neural.gru_pad_ratio", "autodiff.tape_self_s"),
    "neural.roles": GRU_METRICS,
    "autodiff.backward": ("autodiff.backward_s", "autodiff.tape_self_s"),
    "autodiff._record": ("autodiff.tape_nodes_per_step",),
    "training.clip": ("training.clip_s", "training.clip_fired"),
    "training.adam": ("training.adam_s", "training.step_s"),
    "training.accuracy_pass": ("training.accuracy_pass_s",),
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        # counters count only inside a repetition of the timed operation
        self.in_rep = False
        self.counts: Counter = Counter()
        self.step_seconds: list[float] = []
        self._step_start: float | None = None
        self._words: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        # (missing function, span it would have fed)
        self.unmeasured: list[tuple[str, str]] = []
        self._roles: dict[int, str] = {}
        self._gc_start: float | None = None

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span when tracing is active."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def start_rep(self) -> None:
        self._words = set()
        self.in_rep = True

    def end_rep(self) -> None:
        self.in_rep = False
        self.counts["distinct_words"] += len(self._words)

    # -- wrapping ---------------------------------------------------------

    def _replace(self, owner, attr: str, label: str, make):
        target = getattr(owner, attr, None)
        if target is None:
            self.unmeasured.append((f"{owner.__name__}.{attr}", label))
            return
        setattr(owner, attr, functools.wraps(target)(make(target)))
        self._restore.append((owner, attr, target))

    def wrap(self, owner, attr: str, name: str, before=None):
        tracer = self

        def make(target):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return target(*args, **kwargs)
                if before is not None:
                    before(*args, **kwargs)
                idx = tracer.open(name)
                try:
                    return target(*args, **kwargs)
                finally:
                    tracer.close(idx)

            return wrapper

        self._replace(owner, attr, name, make)

    def register_model(self, model) -> None:
        """Name each GRU direction of a model by its role."""
        self._roles = {}
        try:
            self._roles[id(model.sub_enc_fwd)] = "sub_enc"
            for k, layer in enumerate(model.layers, start=1):
                self._roles[id(layer.doc_fwd)] = f"layer{k}-doc"
                self._roles[id(layer.query_fwd)] = f"layer{k}-query"
        except AttributeError:
            missing = ("ReaderModel GRU directions", "neural.roles")
            if missing not in self.unmeasured:
                self.unmeasured.append(missing)

    def install(self) -> None:
        """Wrap the program's layers."""
        from sawreader import autodiff, bpe, harness, neural, reader, training, vocab

        tracer = self

        # bpe and vocab: set-up stages and segmentation
        self.wrap(harness, "build_pipeline", "harness.build_pipeline")
        self.wrap(harness, "build_vocab", "vocab.build_vocab")
        self.wrap(harness, "train_bpe", "bpe.train_bpe")
        self.wrap(harness, "build_subword_vocab", "bpe.build_subword_vocab")
        self.wrap(reader, "index_subwords", "bpe.index_subwords")

        def seen(word, *args, **kwargs):
            if not tracer.in_rep:
                return
            tracer.counts["segment_calls"] += 1
            tracer._words.add(word)

        for owner in (vocab, bpe):
            self.wrap(owner, "segment_word", "bpe.segment_word", before=seen)

        # reader: forward pass pieces
        for owner in (training, harness):
            self.wrap(owner, "forward_batch", "reader.forward", before=self._step_begin)
        self.wrap(reader, "subword_encode_batch", "reader.subword_encode")
        self.wrap(reader, "gated_attention_layer", "reader.attention")
        self.wrap(reader, "build_distribution", "reader.aggregate")
        for owner in (training, harness):
            self.wrap(owner, "answer", "reader.aggregate")

        # neural: GRU scans by role, forward and backward
        self._replace(neural, "bigru_batch", "neural.bigru_batch", self._wrap_bigru)

        # autodiff: backward walk, tape nodes, cyclic collector
        self.wrap(autodiff.Tensor, "backward", "autodiff.backward")

        def make_record(target):
            def record(*args, **kwargs):
                if tracer.in_rep:
                    tracer.counts["tape_nodes"] += 1
                return target(*args, **kwargs)

            return record

        self._replace(autodiff, "_record", "autodiff._record", make_record)
        gc.callbacks.append(self._gc)

        # training: optimizer, clipping, accuracy passes
        def clip_seen(grads, threshold, *args, **kwargs):
            total = sum(float(np.sum(g * g)) for g in grads.values())
            if np.sqrt(total) > threshold:
                tracer.counts["clip_fired"] += 1

        self.wrap(training, "clip_gradients", "training.clip", before=clip_seen)
        self._replace(training, "adam_step", "training.adam", self._wrap_adam)
        self.wrap(training, "_accuracy", "training.accuracy_pass")

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._restore):
            setattr(owner, attr, target)
        self._restore = []
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    def _step_begin(self, model, examples, mode="eval", *args, **kwargs):
        if mode == "train":
            self._step_start = perf_counter()

    def _wrap_adam(self, target):
        tracer = self

        def adam(*args, **kwargs):
            if not tracer.active:
                return target(*args, **kwargs)
            idx = tracer.open("training.adam")
            try:
                return target(*args, **kwargs)
            finally:
                tracer.close(idx)
                if tracer._step_start is not None:
                    tracer.step_seconds.append(perf_counter() - tracer._step_start)
                    tracer._step_start = None
                tracer.counts["steps"] += 1

        return adam

    def _wrap_bigru(self, target):
        tracer = self

        def bigru(x, lengths, fwd, bwd, *args, **kwargs):
            if not tracer.in_rep:
                return target(x, lengths, fwd, bwd, *args, **kwargs)
            role = tracer._roles.get(id(fwd), "other")
            lens = np.asarray(lengths)
            # both directions scan every padded position
            tracer.counts["gru_positions"] += 2 * int(np.prod(x.shape[:2]))
            tracer.counts["gru_real_positions"] += 2 * int(lens.sum())
            idx = tracer.open(f"neural.gru_fwd.{role}")
            try:
                out = target(x, lengths, fwd, bwd, *args, **kwargs)
            finally:
                tracer.close(idx)
            step = getattr(out, "_backward", None)
            if step is not None:
                name = f"neural.gru_bwd.{role}"

                def backward():
                    if not tracer.active:
                        return step()
                    j = tracer.open(name)
                    try:
                        return step()
                    finally:
                        tracer.close(j)

                out._backward = backward
            return out

        return bigru

    def _gc(self, phase, info):
        if not self.in_rep:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.counts["gc_runs"] += 1
            self.counts["gc_collected"] += info.get("collected", 0)
            self.counts["gc_ns"] += int((perf_counter() - self._gc_start) * 1e9)
            self._gc_start = None

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, plus the wall-time shares of the timed spans.

        Set-up stages are given per set-up, everything else per repetition
        of the workload's timed operation. Metrics fed by a missing wrapper
        are left out.
        """
        n = len(self.spans)
        dur = np.empty(n)
        child = np.zeros(n)
        root = np.empty(n, dtype=np.intp)
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur[i] = end - start
            if parent < 0:
                root[i] = i
            else:
                root[i] = root[parent]
                child[parent] += dur[i]
        self_time = dur - child
        setups = [i for i in range(n) if self.spans[i][3] < 0 and names[i] == SETUP]
        reps = [i for i in range(n) if self.spans[i][3] < 0 and names[i] in TIMED]
        setup_set, rep_set = set(setups), set(reps)
        in_setup = [i for i in range(n) if root[i] in setup_set]
        in_rep = [i for i in range(n) if root[i] in rep_set]
        n_setup = max(len(setups), 1)
        n_rep = max(len(reps), 1)

        by_setup: dict[str, float] = defaultdict(float)
        for i in in_setup:
            by_setup[names[i]] += dur[i]
        by_rep: dict[str, float] = defaultdict(float)
        self_by_rep: dict[str, float] = defaultdict(float)
        for i in in_rep:
            by_rep[names[i]] += dur[i]
            self_by_rep[names[i]] += self_time[i]
        seg = sum(
            dur[i]
            for i in in_rep
            if names[i] in SEGMENT
            and not (self.spans[i][3] >= 0 and names[self.spans[i][3]] in SEGMENT)
        )
        gru_bwd = sum(v for k, v in by_rep.items() if k.startswith("neural.gru_bwd."))
        c = self.counts
        steps = c["steps"]
        m = {
            "bpe.train_bpe_s": by_setup["bpe.train_bpe"] / n_setup,
            "bpe.build_subword_vocab_s": by_setup["bpe.build_subword_vocab"] / n_setup,
            "bpe.segment_s": seg / n_rep,
            "bpe.segment_calls": c["segment_calls"] / n_rep,
            "bpe.segment_distinct_ratio": (
                c["distinct_words"] / c["segment_calls"] if c["segment_calls"] else 1.0
            ),
            "vocab.build_vocab_s": by_setup["vocab.build_vocab"] / n_setup,
            "reader.forward_s": self_by_rep["reader.forward"] / n_rep,
            "reader.subword_encode_s": self_by_rep["reader.subword_encode"] / n_rep,
            "reader.attention_s": by_rep["reader.attention"] / n_rep,
            "reader.attention_calls": sum(names[i] == "reader.attention" for i in in_rep) / n_rep,
            "reader.aggregate_s": by_rep["reader.aggregate"] / n_rep,
            "reader.save_model_s": by_setup["reader.save_model"] / n_setup,
            "reader.load_model_s": by_setup["reader.load_model"] / n_setup,
        }
        for role in ROLES:
            m[f"neural.gru_fwd_s.{role}"] = by_rep[f"neural.gru_fwd.{role}"] / n_rep
        for role in ROLES:
            m[f"neural.gru_bwd_s.{role}"] = by_rep[f"neural.gru_bwd.{role}"] / n_rep
        m.update(
            {
                "neural.gru_positions": c["gru_positions"] / n_rep,
                "neural.gru_pad_ratio": (
                    c["gru_real_positions"] / c["gru_positions"] if c["gru_positions"] else 1.0
                ),
                "autodiff.backward_s": by_rep["autodiff.backward"] / n_rep,
                "autodiff.tape_self_s": (by_rep["autodiff.backward"] - gru_bwd) / n_rep,
                "autodiff.tape_nodes_per_step": c["tape_nodes"] / steps if steps else 0.0,
                "autodiff.gc_runs": c["gc_runs"] / n_rep,
                "autodiff.gc_collected": c["gc_collected"] / n_rep,
                "autodiff.gc_s": c["gc_ns"] / 1e9 / n_rep,
                "training.step_s": (
                    statistics.median(self.step_seconds) if self.step_seconds else 0.0
                ),
                "training.adam_s": by_rep["training.adam"] / n_rep,
                "training.clip_s": by_rep["training.clip"] / n_rep,
                "training.clip_fired": c["clip_fired"] / n_rep,
                "training.accuracy_pass_s": by_rep["training.accuracy_pass"] / n_rep,
                "harness.build_pipeline_s": by_setup["harness.build_pipeline"] / n_setup,
                "harness.evaluate_s": by_rep["harness.evaluate"] / n_rep,
            }
        )
        wall = float(sum(dur[i] for i in reps))
        shares = {
            name: value / wall for name, value in sorted(by_rep.items()) if wall > 0
        }
        shares["bpe.segment (outermost)"] = seg / wall if wall > 0 else 0.0
        m["trace.unaccounted_share"] = (
            float(sum(self_time[i] for i in reps)) / wall if wall > 0 else 0.0
        )
        for _, span in self.unmeasured:
            for name in FEEDS.get(span, ()):
                m.pop(name, None)
        return m, shares
