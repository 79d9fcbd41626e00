"""Training loop: Adam with bias correction, global-norm clipping, and a
learning rate that holds for two epochs then halves every epoch after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import ClozeExample
from .neural import ParamStore
from .reader import ForwardPass, ReaderModel, answer, forward_batch, word_table

LOSS_FLOOR = 1e-12
EVAL_CHUNK = 64
# eval_passes embeds the distinct words of this many chunks at a time, in
# one word table that those chunks read
EVAL_WINDOW = 16
CLIP_THRESHOLD = 10.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    batch_size: int = 64
    base_lr: float = 0.001
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and positive, got {self.base_lr!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class AdamState:
    """First and second moment accumulators plus the shared step counter."""

    def __init__(self, params: ParamStore):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.t = 0


def batch_loss(passes: list[ForwardPass], answer_words: list[str]) -> Tensor:
    """Mean over the passes of the negative log of each answer's aggregated
    probability, floored: one tape node on the batch's shared probs."""
    positions = []
    for fp, word in zip(passes, answer_words, strict=True):
        if fp.probs is not passes[0].probs:
            raise ValueError("batch_loss: passes come from different batches")
        ix = fp.dist.positions.get(word)
        if not ix:
            raise ValueError(
                f"unanswerable example {fp.example.id!r}: "
                f"answer {word!r} does not occur in the document"
            )
        positions.append(ix)
    rows = [fp.row for fp in passes]
    return ad.answer_nll(passes[0].probs, rows, positions, LOSS_FLOOR)


def loss_node(pass_result: ForwardPass, answer_word: str) -> Tensor:
    """One example's loss: batch_loss of that pass alone."""
    return batch_loss([pass_result], [answer_word])


def clip_gradients(grads: dict[str, np.ndarray], threshold: float) -> float:
    """Scale the gradients in place so their global L2 norm is at most the
    threshold, and return the norm before clipping."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for {name}")
        raise ValueError("gradient norm is not finite: the sum of squares overflows")
    if norm > threshold:
        factor = threshold / norm
        for g in grads.values():
            g *= factor
    return norm


def adam_step(
    params: ParamStore, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """Bias-corrected Adam update of the parameters and moments, in place."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    state.t += 1
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for name, t in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        t.data -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def lr_schedule(epoch: int, base_lr: float) -> float:
    """Epochs 1 and 2 run at base_lr; every later epoch halves it again."""
    if epoch < 1:
        raise ValueError("epochs are numbered from 1")
    if epoch <= 2:
        return base_lr
    return base_lr / (2.0 ** (epoch - 2))


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    valid_acc: float


class TrainHistory:
    def __init__(self):
        self.rows: list[EpochStats] = []

    def append(self, row: EpochStats) -> None:
        self.rows.append(row)

    def to_csv(self) -> str:
        lines = ["epoch,lr,train_loss,train_acc,valid_acc"]
        for r in self.rows:
            lines.append(
                f"{r.epoch},{r.lr!r},{r.train_loss!r},{r.train_acc!r},{r.valid_acc!r}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def __eq__(self, other) -> bool:
        return isinstance(other, TrainHistory) and self.to_csv() == other.to_csv()


def eval_passes(
    model: ReaderModel, examples: list[ClozeExample]
) -> Iterator[ForwardPass]:
    """Each example's eval-mode pass, in order, run without a graph in
    chunks of EVAL_CHUNK.

    Each window of EVAL_WINDOW chunks first embeds its distinct words once,
    in one word_table that its chunks read, so a word is encoded once per
    window and the table stays bounded by the window. The table is made
    from the parameters as they are when its window starts: the model must
    not change while the generator is live. Grad mode is off only inside
    the table's making and each forward_batch call, so the caller runs
    with its own mode between yields.
    """
    span = EVAL_CHUNK * EVAL_WINDOW
    for first in range(0, len(examples), span):
        window = examples[first : first + span]
        table = word_table(model, window)
        for start in range(0, len(window), EVAL_CHUNK):
            with ad.no_grad():
                passes = forward_batch(
                    model, window[start : start + EVAL_CHUNK], mode="eval", table=table
                )
            yield from passes


def check_answerable(examples: list[ClozeExample]) -> None:
    """Every example needs an answer that occurs in its document."""
    for ex in examples:
        if ex.answer is None:
            raise ValueError(f"example {ex.id!r}: missing answer")
        if ex.answer not in ex.document:
            raise ValueError(
                f"unanswerable example {ex.id!r}: answer not in document"
            )


def _accuracy(model: ReaderModel, examples: list[ClozeExample]) -> float:
    passes = eval_passes(model, examples)
    return sum(answer(fp.dist) == fp.example.answer for fp in passes) / len(examples)


def train(
    model: ReaderModel,
    train_set: list[ClozeExample],
    valid_set: list[ClozeExample],
    config: TrainConfig,
    log=None,
) -> TrainHistory:
    """Seeded shuffled minibatches; per-epoch loss, train and valid accuracy.

    train_loss and train_acc come from the epoch's own train-mode passes:
    each prediction is made before its batch's update, with dropout when
    dropout > 0. valid_acc is an eval-mode pass after the epoch.
    Deterministic for a fixed (model seed, config seed, dataset) triple.
    The model comes back without gradients: every parameter's .grad is None.
    """
    if not train_set or not valid_set:
        raise ValueError("train and valid sets must be non-empty")
    check_answerable(train_set)
    check_answerable(valid_set)
    state = AdamState(model.params)
    dropout_rng = np.random.default_rng([config.seed, 101])
    history = TrainHistory()
    n = len(train_set)
    for epoch in range(1, config.epochs + 1):
        lr = lr_schedule(epoch, config.base_lr)
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = [train_set[int(i)] for i in order[start : start + config.batch_size]]
            try:
                passes = forward_batch(model, batch, mode="train", rng=dropout_rng)
                loss = batch_loss(passes, [ex.answer for ex in batch])
                if not np.isfinite(loss.data):
                    raise ValueError("non-finite loss")
                # Drop the last step's gradients here, as the backward
                # starts, so its arrays reuse their memory. Not right after
                # adam_step: the heap's top is then free between steps,
                # glibc hands it back to the OS, and the next forward
                # faults it in again: 26-36k minor faults per default-config
                # train() call against 4-18k here, and a 5-6 % lower rate.
                grads = None
                model.params.zero_grads()
                loss.backward()
                grads = model.params.grads()
                clip_gradients(grads, CLIP_THRESHOLD)
            except ValueError as err:
                # a NaN parameter fails the NaN check of the gated
                # attention or the answer pointer, a non-finite loss or
                # gradient fails here or in clipping; say which examples
                ids = ", ".join(repr(ex.id) for ex in batch)
                raise ValueError(f"epoch {epoch}, examples {ids}: {err}") from err
            adam_step(model.params, grads, state, lr)
            total_loss += float(loss.data) * len(batch)
            correct += sum(answer(fp.dist) == ex.answer for fp, ex in zip(passes, batch))
        row = EpochStats(
            epoch=epoch,
            lr=lr,
            train_loss=total_loss / n,
            train_acc=correct / n,
            valid_acc=_accuracy(model, valid_set),
        )
        history.append(row)
        if log is not None:
            log(row)
    model.params.zero_grads()
    return history
