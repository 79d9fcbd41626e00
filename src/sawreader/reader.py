"""Cloze reader over subword-augmented word embeddings.

Each token gets a word embedding (through the short list, so filtered
words share one unknown row) and a subword embedding built by a BiGRU
over its BPE units. The two are fused by a configurable operator, run
through stacked gated-attention layers against the query, and the answer
distribution aggregates per-position probability over repeated words.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import neural
from .autodiff import Tensor
from .bpe import MergeTable, SubwordVocab, build_subword_vocab
from .configio import load_config, save_config
from .data import PLACEHOLDER, ClozeExample
from .neural import GruParams, ParamStore
from .vocab import ShortList, Vocabulary, build_short_list, index_subwords

if TYPE_CHECKING:
    from .training import TrainHistory

INTEGRATION_OPS = ("concat", "sum", "mul")
# word_table embeds this many words at a time, which bounds the subword
# encoder's scan; README gives the measured choice
TABLE_GROUP = 512


@dataclass
class ReaderConfig:
    integration_op: str = "mul"
    num_layers: int = 3
    hidden: int = 128
    word_dim: int = 200
    subword_dim: int = 100
    gamma: float = 0.9
    num_merges: int = 1000
    dropout: float = 0.5

    def __post_init__(self):
        if self.integration_op not in INTEGRATION_OPS:
            raise ValueError(f"unknown integration op: {self.integration_op!r}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        for name in ("hidden", "word_dim", "subword_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.num_merges < 0:
            raise ValueError("num_merges must be >= 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"invalid filter ratio: {self.gamma}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def subword_out_dim(self) -> int:
        # sum and mul need the subword vector in word-embedding space
        return self.word_dim if self.integration_op in ("sum", "mul") else self.subword_dim

    @property
    def embed_dim(self) -> int:
        if self.integration_op == "concat":
            return self.word_dim + self.subword_dim
        return self.word_dim


@dataclass
class LayerParams:
    doc_fwd: GruParams
    doc_bwd: GruParams
    query_fwd: GruParams
    query_bwd: GruParams


class ReaderModel:
    """Parameters plus the fitted tokenization artifacts.

    Parameter creation order is fixed; it defines both the rng draw
    sequence at init and the checkpoint layout. With seed None the
    parameters get their shapes only and nothing is drawn: load_model
    overwrites every value.

    segments memoises index_subwords for vocabulary words only, so it
    never outgrows the vocabulary; subword_encode_batch fills it as words
    come, and building a model segments nothing.
    """

    def __init__(
        self,
        config: ReaderConfig,
        merges: MergeTable,
        subwords: SubwordVocab,
        vocab: Vocabulary,
        short_list: ShortList,
        seed: int | None = 0,
    ):
        self.config = config
        self.merges = merges
        self.subwords = subwords
        self.vocab = vocab
        self.short_list = short_list
        self.segments: dict[str, tuple[int, ...]] = {}
        self.params = ParamStore()
        rng = None if seed is None else np.random.default_rng(seed)
        store = self.params
        # word rows at near-unit norm: uniform limit 1/sqrt(d) keeps the fused
        # mul/sum signal at a trainable scale; subword rows use the flat 0.05
        self.word_emb = store.add(
            "word_emb",
            neural.uniform_init(
                rng,
                (short_list.kept_count + 1, config.word_dim),
                scale=1.0 / np.sqrt(config.word_dim),
            ),
        )
        self.sub_emb = store.add(
            "sub_emb", neural.uniform_init(rng, (subwords.size, config.subword_dim))
        )
        self.sub_enc_fwd = neural.init_gru(
            store, "sub_enc/fwd", config.subword_dim, config.hidden, rng
        )
        self.sub_enc_bwd = neural.init_gru(
            store, "sub_enc/bwd", config.subword_dim, config.hidden, rng
        )
        self.sub_proj_w = store.add(
            "sub_proj/W",
            neural.fan_scaled_init(rng, (config.subword_out_dim, 2 * config.hidden)),
        )
        self.sub_proj_b = store.add("sub_proj/b", np.zeros(config.subword_out_dim))
        self.layers: list[LayerParams] = []
        for i in range(1, config.num_layers + 1):
            doc_in = config.embed_dim if i == 1 else 2 * config.hidden
            self.layers.append(
                LayerParams(
                    doc_fwd=neural.init_gru(
                        store, f"layer{i}/doc/fwd", doc_in, config.hidden, rng
                    ),
                    doc_bwd=neural.init_gru(
                        store, f"layer{i}/doc/bwd", doc_in, config.hidden, rng
                    ),
                    query_fwd=neural.init_gru(
                        store, f"layer{i}/query/fwd", config.embed_dim, config.hidden, rng
                    ),
                    query_bwd=neural.init_gru(
                        store, f"layer{i}/query/bwd", config.embed_dim, config.hidden, rng
                    ),
                )
            )


@dataclass
class AnswerDistribution:
    """Per-position probabilities plus their per-word aggregation."""

    per_position: np.ndarray
    positions: dict[str, list[int]]
    per_candidate: dict[str, float]


@dataclass
class ForwardPass:
    """One example's result. probs is the batch's (B, Td) answer
    distribution, shared by every pass of the batch, and row is this
    example's row of it; dist reads the row's real positions."""

    example: ClozeExample
    probs: Tensor
    row: int
    dist: AnswerDistribution
    alphas: list[np.ndarray] | None


def build_distribution(p: np.ndarray, doc_tokens: tuple[str, ...]) -> AnswerDistribution:
    positions: dict[str, list[int]] = {}
    for i, token in enumerate(doc_tokens):
        positions.setdefault(token, []).append(i)
    p = np.asarray(p, dtype=np.float64)
    per_candidate = {w: float(p[ix].sum()) for w, ix in positions.items()}
    return AnswerDistribution(p.copy(), positions, per_candidate)


def top_candidates(dist: AnswerDistribution, k: int) -> list[str]:
    """The k best words: highest aggregated probability first, ties going
    to the earliest first position."""
    return heapq.nsmallest(
        k,
        dist.per_candidate,
        key=lambda w: (-dist.per_candidate[w], dist.positions[w][0]),
    )


def answer(dist: AnswerDistribution) -> str:
    """The first of top_candidates."""
    return top_candidates(dist, 1)[0]


def _gather_padded(table: Tensor, seqs: list[list[int]]) -> tuple[Tensor, np.ndarray]:
    """Rows of a 2-D table for each index sequence, as a padded (B, T, D)
    batch, plus each sequence's length.

    Padded positions read row 0. The packed GRU scans neither read them nor
    send them gradient, and attention and the answer pointer mask them.
    """
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    idx = np.zeros((len(seqs), int(lengths.max())), dtype=np.intp)
    for i, seq in enumerate(seqs):
        idx[i, : len(seq)] = seq
    return ad.gather_rows(table, idx), lengths


def _subword_units(model: ReaderModel, word: str) -> tuple[int, ...]:
    """index_subwords of word, each vocabulary word's taken from
    model.segments once it has been segmented there."""
    units = model.segments.get(word)
    if units is None:
        units = index_subwords(word, model.merges, model.subwords)
        if word in model.vocab.counts:
            model.segments[word] = units
    return units


def subword_encode_batch(model: ReaderModel, words: list[str]) -> Tensor:
    """Subword embeddings for a list of words, stacked as (n, subword_out_dim)."""
    if not words:
        raise ValueError("subword_encode_batch: empty word list")
    seqs = [_subword_units(model, w) for w in words]
    x3, lengths = _gather_padded(model.sub_emb, seqs)
    h = neural.bigru_batch(x3, lengths, model.sub_enc_fwd, model.sub_enc_bwd)
    finals = neural.bigru_finals(h, lengths)
    return ad.affine(finals, model.sub_proj_w, model.sub_proj_b)


def _combine(op: str, we: Tensor, se: Tensor) -> Tensor:
    if op == "concat":
        return ad.concat([we, se], axis=1)
    if op == "sum":
        return ad.add(we, se)
    if op == "mul":
        return ad.mul(we, se)
    raise ValueError(f"unknown integration op: {op!r}")


def augment_words(model: ReaderModel, words: list[str]) -> Tensor:
    """Fused token embeddings (n, embed_dim); one row per distinct word.

    A word outside the short list reads the shared unknown word row, but
    its subword branch is always computed from the original spelling.
    """
    word_idx = np.array([model.short_list.index(w) for w in words], dtype=np.intp)
    we = ad.gather_rows(model.word_emb, word_idx)
    se = subword_encode_batch(model, words)
    return _combine(model.config.integration_op, we, se)


@dataclass
class WordTable:
    """augment_words' rows for a set of words, made with no graph: row
    index[w] of rows is word w's fused embedding."""

    index: dict[str, int]
    rows: np.ndarray


def _distinct_words(examples: list[ClozeExample]) -> dict[str, int]:
    """Each distinct document or query word of the examples, numbered in
    order of first occurrence."""
    distinct: dict[str, int] = {}
    for ex in examples:
        for token in ex.document + ex.query:
            if token not in distinct:
                distinct[token] = len(distinct)
    return distinct


def word_table(model: ReaderModel, examples: list[ClozeExample]) -> WordTable:
    """The word table of every distinct word of the examples, embedded
    with no graph TABLE_GROUP words at a time into one preallocated array."""
    index = _distinct_words(examples)
    words = list(index)
    rows = np.empty((len(words), model.config.embed_dim))
    with ad.no_grad():
        for start in range(0, len(words), TABLE_GROUP):
            group = words[start : start + TABLE_GROUP]
            rows[start : start + len(group)] = augment_words(model, group).data
    return WordTable(index, rows)


def _masked_softmax(scores: np.ndarray, lengths, node: str, axis: str) -> np.ndarray:
    """Softmax over the last axis of (B, ..., width) scores, in their own
    buffer; entries past each row's length get probability exactly 0.
    Raises, naming the node, on lengths outside [1, width] or NaN scores."""
    batch, width = scores.shape[0], scores.shape[-1]
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or (lengths < 1).any() or (lengths > width).any():
        raise ValueError(f"{node}: {axis} lengths must be in [1, {width}] per batch row")
    mask = np.where(np.arange(width)[None, :] < lengths[:, None], 0.0, -np.inf)
    scores += mask.reshape((batch,) + (1,) * (scores.ndim - 2) + (width,))
    if np.isnan(scores).any():
        raise ValueError(f"{node}: scores contain NaN")
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def gated_attention_layer(
    h_doc: Tensor, h_query: Tensor, q_lens: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Per-token query attention followed by the elementwise gate.

    Takes padded document states (B, Td, dim), query states (B, Tq, dim)
    and each row's query length; query columns past a row's length get
    exactly zero attention and zero gradient. Returns the gated document
    states h_doc * beta, where beta = alpha @ h_query, and the attention
    alpha (B, Td, Tq), whose rows sum to one. alpha is a plain array for
    inspection: nothing differentiates through it.

    One tape node. It keeps alpha but not beta, which its backward
    rebuilds with the same matmul, so with the same bits. The backward
    adds into h_doc first the gate's term and then the attention scores'
    term, as a chain of matmul, transpose, mask add, softmax, matmul and
    mul would, so the gradients are the same bits too. It sums h_query's
    two terms in that order before they land, as that chain does when it
    reads h_query through one node (see tests/oracles.py); then a
    gradient that lands in h_query first, such as the answer pointer's,
    gives the same bits either way, since addition commutes.
    """
    if h_doc.ndim != 3 or h_query.ndim != 3:
        raise ValueError("gated_attention_layer: expected 3-D state batches")
    if h_doc.shape[2] != h_query.shape[2]:
        raise ValueError(
            "gated_attention_layer: state dims differ "
            f"({h_doc.shape[2]} vs {h_query.shape[2]})"
        )
    if h_doc.shape[0] != h_query.shape[0]:
        raise ValueError("gated_attention_layer: batch sizes differ")
    d, q = h_doc.data, h_query.data
    alpha = _masked_softmax(
        d @ np.swapaxes(q, -1, -2), q_lens, "gated_attention_layer", "query"
    )
    # beta = alpha @ h_query, gated in its own buffer
    beta = alpha @ q
    out = Tensor(np.multiply(d, beta, out=beta))
    if not ad._needs(h_doc, h_query):
        return out, alpha

    def backward():
        g = out.grad
        # the gate's term
        gated = alpha @ q
        np.multiply(g, gated, out=gated)
        if h_doc.requires_grad:
            ad.accumulate(h_doc, gated, fresh=True)
        del gated
        g_beta = g * d
        if h_query.requires_grad:
            dq = np.swapaxes(alpha, -1, -2) @ g_beta
        # the scores' term, through the softmax; the mask passes it unchanged
        g_alpha = g_beta @ np.swapaxes(q, -1, -2)
        del g_beta
        dot = (g_alpha * alpha).sum(axis=-1, keepdims=True)
        g_scores = (g_alpha - dot) * alpha
        if h_doc.requires_grad:
            ad.accumulate(h_doc, g_scores @ q)
        if h_query.requires_grad:
            dq += np.swapaxes(np.swapaxes(d, -1, -2) @ g_scores, -1, -2)
            ad.accumulate(h_query, dq, fresh=True)

    return ad._record(out, (h_doc, h_query), backward), alpha


def answer_pointer(
    h_doc: Tensor, h_query: Tensor, placeholders, d_lens: np.ndarray
) -> Tensor:
    """The answer pointer over (B, Td, dim) document states: each row's
    placeholder state in the (B, Tq, dim) query states scores every
    document position, and one softmax over the row's first d_lens
    positions gives probs (B, Td). Padded positions get probability
    exactly 0 and send no gradient.

    One tape node that keeps only probs. Its arithmetic and order are
    those of a chain of reshape, gather_rows, reshape, matmul, reshape,
    mask add and softmax, so probs and both input gradients are the same
    bits; each input takes one freshly built gradient.
    """
    if h_doc.ndim != 3 or h_query.ndim != 3 or h_doc.shape[::2] != h_query.shape[::2]:
        raise ValueError(
            f"answer_pointer: states {h_doc.shape} and {h_query.shape} do not match"
        )
    batch, t_doc, width = h_doc.shape
    rows = np.arange(batch)
    pos = np.asarray(placeholders, dtype=np.intp)
    if pos.shape != (batch,) or (pos < 0).any() or (pos >= h_query.shape[1]).any():
        raise ValueError("answer_pointer: placeholders must be in [0, Tq) per batch row")
    q_col = h_query.data[rows, pos].reshape(batch, width, 1)
    probs = _masked_softmax(
        (h_doc.data @ q_col).reshape(batch, t_doc), d_lens, "answer_pointer", "document"
    )
    out = Tensor(probs)
    if not ad._needs(h_doc, h_query):
        return out

    def backward():
        g, y = out.grad, out.data
        g_scores = ((g - (g * y).sum(axis=-1, keepdims=True)) * y).reshape(
            batch, t_doc, 1
        )
        q_col = h_query.data[rows, pos].reshape(batch, width, 1)
        if h_doc.requires_grad:
            ad.accumulate(h_doc, g_scores @ np.swapaxes(q_col, -1, -2), fresh=True)
        if h_query.requires_grad:
            dq = np.zeros_like(h_query.data)
            dq[rows, pos] += (np.swapaxes(h_doc.data, -1, -2) @ g_scores).reshape(
                batch, width
            )
            ad.accumulate(h_query, dq, fresh=True)

    return ad._record(out, (h_doc, h_query), backward)


def _validate_example(ex: ClozeExample) -> None:
    n = ex.query.count(PLACEHOLDER)
    if n == 0:
        raise ValueError(f"example {ex.id!r}: query has no placeholder")
    if n > 1:
        raise ValueError(f"example {ex.id!r}: query has {n} placeholders")
    if not ex.document:
        raise ValueError(f"example {ex.id!r}: empty document")


def forward_batch(
    model: ReaderModel,
    examples: list[ClozeExample],
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    collect_attention: bool = False,
    table: WordTable | None = None,
) -> list[ForwardPass]:
    """Run the reader over a batch; one shared graph, one result per example.

    The batch's distinct words are embedded by augment_words, or, with a
    table, read from the table's rows, through which no gradient flows;
    every document and query word must then be in the table.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if not examples:
        raise ValueError("forward_batch: empty batch")
    cfg = model.config
    if mode == "train" and cfg.dropout > 0 and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    for ex in examples:
        _validate_example(ex)

    if table is None:
        distinct = _distinct_words(examples)
        embedded = augment_words(model, list(distinct))
    else:
        distinct, embedded = table.index, Tensor(table.rows)
    try:
        doc_rows = [[distinct[t] for t in ex.document] for ex in examples]
        query_rows = [[distinct[t] for t in ex.query] for ex in examples]
    except KeyError as err:  # only a table can lack a word
        word = err.args[0]
        ex = next(ex for ex in examples if word in ex.document + ex.query)
        raise ValueError(
            f"example {ex.id!r}: word {word!r} is not in the word table"
        ) from None
    doc_in, d_lens = _gather_padded(embedded, doc_rows)
    x_query, q_lens = _gather_padded(embedded, query_rows)
    # Each name is dropped once its tensor is spent: with no graph to hold
    # them, an eval pass keeps one layer's document states at a time, and
    # the query states of the layers still to run (all K at layer 1, since
    # one scan makes them before the first layer).
    del embedded, doc_rows, query_rows
    alphas: list[np.ndarray] = []
    # inverted dropout on the inputs of layers 2..K, applied by the BiGRU
    # as it reads them: layer i draws its document mask, then its query
    # mask, all before the first scan
    drop = mode == "train" and cfg.dropout > 0
    scale = 1.0 / (1.0 - cfg.dropout)
    d_keeps: list[np.ndarray | None] = [None]
    q_keeps: list[np.ndarray | None] = [None]
    d_shape = doc_in.shape[:2] + (2 * cfg.hidden,)
    for _ in model.layers[1:]:
        d_keeps.append(rng.random(d_shape) >= cfg.dropout if drop else None)
        q_keeps.append(rng.random(x_query.shape) >= cfg.dropout if drop else None)
    # every layer's query BiGRU reads x_query: one scan for all of them
    h_queries = neural.bigru_batch(
        x_query,
        q_lens,
        [layer.query_fwd for layer in model.layers],
        [layer.query_bwd for layer in model.layers],
        q_keeps,
        scale,
    )
    del x_query
    for layer, d_keep in zip(model.layers, d_keeps):
        h_query = None
        h_doc = neural.bigru_batch(
            doc_in, d_lens, layer.doc_fwd, layer.doc_bwd, d_keep, scale
        )
        doc_in = None
        h_query = h_queries.pop(0)
        doc_in, alpha = gated_attention_layer(h_doc, h_query, q_lens)
        del h_doc
        if collect_attention:
            alphas.append(alpha)

    probs = answer_pointer(
        doc_in, h_query, [ex.placeholder_position for ex in examples], d_lens
    )

    results: list[ForwardPass] = []
    for i, ex in enumerate(examples):
        d_len, q_len = int(d_lens[i]), int(q_lens[i])
        dist = build_distribution(probs.data[i, :d_len], ex.document)
        ex_alphas = (
            [a[i, :d_len, :q_len].copy() for a in alphas]
            if collect_attention
            else None
        )
        results.append(ForwardPass(ex, probs, i, dist, ex_alphas))
    return results


_CKPT_FILES = {
    "config": "reader.cfg",
    "merges": "merges.txt",
    "vocab": "vocab.tsv",
    "params": "params.bin",
    "manifest": "params.manifest",
}
HISTORY_FILE = "history.csv"


def save_model(
    model: ReaderModel, ckpt_dir, history: TrainHistory | None = None
) -> None:
    """Write the checkpoint files whole into a staging directory inside
    ckpt_dir, then move each one into place, so a save that raises leaves
    the old checkpoint as it was. No existing file is truncated or renamed
    over: on ext4 (auto_da_alloc) either makes the kernel write the new data
    out at once, which the README's "Checkpoint layout" times. A training
    history is staged as history.csv and moved with them. Other files in
    ckpt_dir are left alone."""
    os.makedirs(ckpt_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".save-", dir=ckpt_dir)
    try:
        path = lambda key: os.path.join(staging, _CKPT_FILES[key])
        save_config(model.config, path("config"))
        model.merges.save(path("merges"))
        model.vocab.save(path("vocab"))
        model.params.save(path("params"), path("manifest"))
        names = list(_CKPT_FILES.values())
        if history is not None:
            history.save(os.path.join(staging, HISTORY_FILE))
            names.append(HISTORY_FILE)
        for name in names:
            target = os.path.join(ckpt_dir, name)
            try:
                os.unlink(target)
            except FileNotFoundError:
                pass
            os.rename(os.path.join(staging, name), target)
    finally:
        shutil.rmtree(staging)


def load_model(ckpt_dir) -> ReaderModel:
    """Rebuild a saved model. The short list is refitted from vocab.tsv and
    gamma, and the subword vocabulary is rebuilt from vocab.tsv and
    merges.txt, so a shortlist.tsv or subwords.tsv left by older
    checkpoints is ignored."""
    path = lambda key: os.path.join(ckpt_dir, _CKPT_FILES[key])
    for key in _CKPT_FILES:
        if not os.path.exists(path(key)):
            raise FileNotFoundError(f"checkpoint is missing {_CKPT_FILES[key]}")
    (config,) = load_config(path("config"), ReaderConfig)
    merges = MergeTable.load(path("merges"))
    vocab = Vocabulary.load(path("vocab"))
    short_list = build_short_list(vocab, config.gamma)
    subwords = build_subword_vocab(vocab.words, merges)
    model = ReaderModel(config, merges, subwords, vocab, short_list, seed=None)
    model.params.load_values(path("params"), path("manifest"))
    return model
