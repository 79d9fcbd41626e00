"""Word vocabulary with frequency ranking and short-list OOV filtering.

The short list keeps the top floor(gamma * size) words by frequency (ties
broken by first occurrence in the corpus); everything else shares one
unknown word index. Subword indices are always derived from the original
spelling, so a word dropped from the short list keeps its subword units.
A vocabulary is stored as word<TAB>count lines, the same format that merge
learning reads its frequencies from, so one reader checks both.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator, Sequence

from .bpe import MergeTable, SubwordVocab, segment_word


class Vocabulary:
    """Words ordered by count descending, then first occurrence ascending."""

    def __init__(self, words: Sequence[str], counts: dict[str, int]):
        self.words: list[str] = list(words)
        self.counts: dict[str, int] = dict(counts)
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    @property
    def size(self) -> int:
        return len(self.words)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for word in self.words:
                fh.write(f"{word}\t{self.counts[word]}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        counts: dict[str, int] = {}
        last = None
        for where, word, count in read_word_counts(path):
            if last is not None and count > last:
                raise ValueError(f"{where}: counts must be non-increasing")
            counts[word] = count
            last = count
        return cls(list(counts), counts)


def read_word_counts(path) -> Iterator[tuple[str, str, int]]:
    """Yield (where, word, count) for each non-blank line of a word<TAB>count
    file, where is "<file> line <n>". Words must be unique, non-empty and
    free of whitespace, and counts must be integers >= 1.
    """
    name = os.path.basename(path)
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{name} line {lineno}"
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{where}: expected word<TAB>count, got {line!r}")
            word, count_str = parts
            if not word:
                raise ValueError(f"{where}: empty word")
            if any(ch.isspace() for ch in word):
                raise ValueError(f"{where}: word contains whitespace: {word!r}")
            if word in seen:
                raise ValueError(f"{where}: duplicate word {word!r}")
            try:
                count = int(count_str)
            except ValueError:
                raise ValueError(
                    f"{where}: count is not an integer: {count_str!r}"
                ) from None
            if count < 1:
                raise ValueError(f"{where}: count for {word!r} must be >= 1, got {count}")
            seen.add(word)
            yield where, word, count


def build_vocab(corpus: Iterable[Sequence[str]]) -> Vocabulary:
    """Count tokens over an iterable of token sequences."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    position = 0
    for sequence in corpus:
        for token in sequence:
            if token not in first_seen:
                # a token type is checked once, when first seen, so the
                # first invalid token in corpus order is the one named
                if not token or any(ch.isspace() for ch in token):
                    raise ValueError(f"invalid token: {token!r}")
                first_seen[token] = position
            counts[token] = counts.get(token, 0) + 1
            position += 1
    if not counts:
        raise ValueError("empty corpus")
    order = sorted(counts, key=lambda w: (-counts[w], first_seen[w]))
    return Vocabulary(order, counts)


class ShortList:
    """Kept words with their ranks; everything else maps to unk_index."""

    def __init__(self, kept: Sequence[str]):
        self.kept: tuple[str, ...] = tuple(kept)
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
    return ShortList(vocab.words[:kept_n])


def index_subwords(
    word: str, table: MergeTable, subwords: SubwordVocab
) -> tuple[int, ...]:
    """Subword indices from the original spelling, short list membership aside."""
    seg = segment_word(word, table)
    return tuple(subwords.lookup(unit) for unit in seg.subwords)
