"""Evaluation, the tokenization pipeline builder, hyperparameter sweeps,
and attention inspection.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bpe import MergeTable, SubwordVocab, build_subword_vocab, train_bpe
from .data import ClozeExample
from .reader import ReaderConfig, ReaderModel, answer, forward_batch
from .training import TrainConfig, check_answerable, eval_passes, train
from .vocab import ShortList, Vocabulary, build_short_list, build_vocab


def build_pipeline(
    train_set: list[ClozeExample], config: ReaderConfig
) -> tuple[MergeTable, SubwordVocab, Vocabulary, ShortList]:
    """Fit merges, subword vocab, vocabulary, and short list on a train split."""
    corpus = (seq for ex in train_set for seq in (ex.document, ex.query))
    vocab = build_vocab(corpus)
    merges = train_bpe(vocab.counts, config.num_merges)
    subwords = build_subword_vocab(vocab.words, merges)
    short_list = build_short_list(vocab, config.gamma)
    return merges, subwords, vocab, short_list


def new_model(
    train_set: list[ClozeExample], config: ReaderConfig, seed: int = 0
) -> ReaderModel:
    merges, subwords, vocab, short_list = build_pipeline(train_set, config)
    return ReaderModel(config, merges, subwords, vocab, short_list, seed=seed)


@dataclass
class ExampleResult:
    id: str
    gold: str
    predicted: str
    correct: bool
    oov_answer: bool


@dataclass
class EvalReport:
    """Overall accuracy plus the split between short-list and OOV answers."""

    accuracy: float
    results: list[ExampleResult]
    oov_total: int
    oov_correct: int
    in_vocab_total: int
    in_vocab_correct: int

    @property
    def oov_accuracy(self) -> float | None:
        if self.oov_total == 0:
            return None
        return self.oov_correct / self.oov_total

    @property
    def in_vocab_accuracy(self) -> float | None:
        if self.in_vocab_total == 0:
            return None
        return self.in_vocab_correct / self.in_vocab_total


def evaluate(model: ReaderModel, examples: list[ClozeExample]) -> EvalReport:
    """Pure given (model, examples): no rng, repeated calls agree exactly."""
    if not examples:
        raise ValueError("evaluate: empty dataset")
    check_answerable(examples)
    results: list[ExampleResult] = []
    for fp in eval_passes(model, examples):
        ex = fp.example
        predicted = answer(fp.dist)
        results.append(
            ExampleResult(
                id=ex.id,
                gold=ex.answer,
                predicted=predicted,
                correct=predicted == ex.answer,
                oov_answer=ex.answer not in model.short_list,
            )
        )
    oov = [r for r in results if r.oov_answer]
    iv = [r for r in results if not r.oov_answer]
    return EvalReport(
        accuracy=sum(r.correct for r in results) / len(results),
        results=results,
        oov_total=len(oov),
        oov_correct=sum(r.correct for r in oov),
        in_vocab_total=len(iv),
        in_vocab_correct=sum(r.correct for r in iv),
    )


SWEEP_AXES = {
    "merges": "num_merges",
    "gamma": "gamma",
    "op": "integration_op",
}


@dataclass
class SweepRow:
    axis: str
    value: object
    subword_vocab_size: int
    valid_accuracy: float
    test_accuracy: float


def sweep(
    axis: str,
    values: list,
    splits: dict[str, list[ClozeExample]],
    reader_config: ReaderConfig,
    train_config: TrainConfig,
    log=None,
) -> list[SweepRow]:
    """Retrain the whole pipeline once per value of one config axis."""
    if axis not in SWEEP_AXES:
        raise ValueError(
            f"unknown sweep axis: {axis!r} (expected one of {sorted(SWEEP_AXES)})"
        )
    if not values:
        raise ValueError("sweep: no values given")
    # every config is built, and so checked, before the first one trains
    configs = [
        dataclasses.replace(reader_config, **{SWEEP_AXES[axis]: value})
        for value in values
    ]
    rows: list[SweepRow] = []
    for value, config in zip(values, configs):
        model = new_model(splits["train"], config, seed=train_config.seed)
        train(model, splits["train"], splits["valid"], train_config)
        row = SweepRow(
            axis=axis,
            value=value,
            subword_vocab_size=model.subwords.size,
            valid_accuracy=evaluate(model, splits["valid"]).accuracy,
            test_accuracy=evaluate(model, splits["test"]).accuracy,
        )
        rows.append(row)
        if log is not None:
            log(row)
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["axis,value,subword_vocab_size,valid_accuracy,test_accuracy"]
    for r in rows:
        lines.append(
            f"{r.axis},{r.value},{r.subword_vocab_size},"
            f"{r.valid_accuracy!r},{r.test_accuracy!r}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class AttentionDump:
    layer: int
    doc_tokens: tuple[str, ...]
    query_tokens: tuple[str, ...]
    alpha: np.ndarray
    per_position: np.ndarray

    def to_text(self) -> str:
        """Tab-separated rows: alpha lines (one per document position,
        columns over query positions), then per-position p lines."""
        lines = [f"layer\t{self.layer}"]
        lines.append("query\t" + " ".join(self.query_tokens))
        for i, token in enumerate(self.doc_tokens):
            values = "\t".join(repr(float(v)) for v in self.alpha[i])
            lines.append(f"alpha\t{i}\t{token}\t{values}")
        for i, token in enumerate(self.doc_tokens):
            lines.append(f"p\t{i}\t{token}\t{float(self.per_position[i])!r}")
        return "\n".join(lines) + "\n"


def dump_attention(
    model: ReaderModel, example: ClozeExample, layer: int
) -> AttentionDump:
    """Attention matrix at one layer plus the final answer distribution."""
    k = model.config.num_layers
    if not 1 <= layer <= k:
        raise ValueError(f"layer out of range: {layer} (model has {k} layers)")
    with ad.no_grad():
        fp = forward_batch(model, [example], collect_attention=True)[0]
    return AttentionDump(
        layer=layer,
        doc_tokens=example.document,
        query_tokens=example.query,
        alpha=fp.alphas[layer - 1],
        per_position=fp.dist.per_position,
    )
