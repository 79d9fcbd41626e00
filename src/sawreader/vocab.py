"""Word vocabulary with frequency ranking and short-list OOV filtering.

The short list keeps the top floor(gamma * size) words by frequency (ties
broken by first occurrence in the corpus); everything else shares one
unknown word index. Subword indices are always derived from the original
spelling, so a word dropped from the short list keeps its subword units.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

from .bpe import MergeTable, SubwordVocab, segment_word


class Vocabulary:
    """Words ordered by count descending, then first occurrence ascending."""

    def __init__(self, words: Sequence[str], counts: dict[str, int]):
        self.words: list[str] = list(words)
        self.counts: dict[str, int] = dict(counts)
        self._rank = {w: i for i, w in enumerate(self.words)}
        if len(self._rank) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    @property
    def size(self) -> int:
        return len(self.words)

    def rank(self, word: str) -> int:
        return self._rank[word]

    def __contains__(self, word: str) -> bool:
        return word in self._rank

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for word in self.words:
                fh.write(f"{word}\t{self.counts[word]}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        name = os.path.basename(path)
        words: list[str] = []
        counts: dict[str, int] = {}
        last = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(
                        f"{name} line {lineno}: expected word<TAB>count, got {line!r}"
                    )
                word, count_str = parts
                try:
                    count = int(count_str)
                except ValueError:
                    raise ValueError(
                        f"{name} line {lineno}: count is not an integer: {count_str!r}"
                    ) from None
                if last is not None and count > last:
                    raise ValueError(
                        f"{name} line {lineno}: counts must be non-increasing"
                    )
                if word in counts:
                    raise ValueError(f"{name} line {lineno}: duplicate word {word!r}")
                words.append(word)
                counts[word] = count
                last = count
        return cls(words, counts)


def build_vocab(corpus: Iterable[Sequence[str]]) -> Vocabulary:
    """Count tokens over an iterable of token sequences."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    position = 0
    for sequence in corpus:
        for token in sequence:
            if not token or any(ch.isspace() for ch in token):
                raise ValueError(f"invalid token: {token!r}")
            counts[token] = counts.get(token, 0) + 1
            if token not in first_seen:
                first_seen[token] = position
            position += 1
    if not counts:
        raise ValueError("empty corpus")
    order = sorted(counts, key=lambda w: (-counts[w], first_seen[w]))
    return Vocabulary(order, counts)


class ShortList:
    """Kept words with their ranks; everything else maps to unk_index."""

    def __init__(self, kept: Sequence[str], gamma: float):
        self.kept: tuple[str, ...] = tuple(kept)
        self.gamma = gamma
        self._index = {w: i for i, w in enumerate(self.kept)}

    @property
    def kept_count(self) -> int:
        return len(self.kept)

    @property
    def unk_index(self) -> int:
        return len(self.kept)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        return self._index.get(word, self.unk_index)


def build_short_list(vocab: Vocabulary, gamma: float) -> ShortList:
    """Keep the top max(1, floor(gamma * size)) words of the vocabulary."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"invalid filter ratio: {gamma}")
    # tiny epsilon guards float artifacts like 0.3 * 10 = 2.9999...
    kept_n = max(1, math.floor(gamma * vocab.size + 1e-12))
    return ShortList(vocab.words[:kept_n], gamma)


def index_subwords(
    word: str, table: MergeTable, subwords: SubwordVocab
) -> tuple[int, ...]:
    """Subword indices from the original spelling, short list membership aside."""
    seg = segment_word(word, table)
    return tuple(subwords.lookup(unit) for unit in seg.subwords)


def save_short_list(short_list: ShortList, vocab: Vocabulary, path) -> None:
    """Vocabulary lines prefixed with the filter ratio header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#gamma: {short_list.gamma!r}\n")
        for word in vocab.words:
            fh.write(f"{word}\t{vocab.counts[word]}\n")

