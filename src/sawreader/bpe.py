"""Byte pair encoding over word frequency tables.

Merges are learned by repeatedly fusing the most frequent adjacent symbol
pair, weighted by word frequency. Pair occurrences within a word are
counted left to right without overlap, so "aaa" holds one (a, a) pair.
Ties break toward the lexicographically smallest (left, right) pair, which
keeps training deterministic.

Learning keeps every pair's count up to date incrementally and picks each
merge from a lazy max-heap of (-count, pair) entries: a re-counted pair is
pushed again with its new count, and an entry whose count no longer equals
the pair's current count is stale and skipped when it reaches the top.
Tuple order makes the top entry the most frequent pair, smallest first on
ties, so the heap picks the same merge a scan of every count would.

Segmentation gives the result of replaying every merge in rank order, but
skips the rules that cannot fire. A rule changes the symbols only if its
pair occurs in them, so the replay equals repeating one step: among the
adjacent pairs, take the lowest rank at or above a floor, merge that pair,
and raise the floor past its rank. The floor keeps this exact: with rules
[(ab, c), (a, b)], "abc" replays to ("ab", "c"), because (ab, c) was passed
before "ab" existed, while lowest-rank-first without a floor would give
("abc",).
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

Pair = tuple[str, str]

SUBWORD_UNK = "<sub-unk>"


@dataclass(frozen=True)
class MergeRule:
    left: str
    right: str
    rank: int

    @property
    def product(self) -> str:
        return self.left + self.right


class MergeTable:
    """Ordered merge rules; rank i was learned at iteration i.

    The rules are a tuple, so the pair -> ranks index built here cannot go
    stale.
    """

    def __init__(self, rules: Sequence[MergeRule]):
        self.rules: tuple[MergeRule, ...] = tuple(rules)
        ranks: dict[Pair, list[int]] = defaultdict(list)
        for i, rule in enumerate(self.rules):
            if rule.rank != i:
                raise ValueError("merge ranks must be contiguous from 0")
            ranks[(rule.left, rule.right)].append(i)
        # ascending, since ranks are visited in order; a pair may repeat
        self._ranks: dict[Pair, list[int]] = dict(ranks)

    @property
    def num_merges(self) -> int:
        return len(self.rules)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#merges: {self.num_merges}\n")
            for rule in self.rules:
                fh.write(f"{rule.left}\t{rule.right}\n")

    @classmethod
    def load(cls, path) -> "MergeTable":
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith("#merges: "):
                raise ValueError(f"{name} line 1: bad merge table header: {header!r}")
            try:
                declared = int(header[len("#merges: ") :])
            except ValueError:
                raise ValueError(
                    f"{name} line 1: merge count is not an integer: {header!r}"
                ) from None
            rules = []
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(
                        f"{name} line {lineno}: expected left<TAB>right, got {line!r}"
                    )
                if not all(parts):
                    raise ValueError(
                        f"{name} line {lineno}: merge rule has an empty unit: {line!r}"
                    )
                rules.append(MergeRule(parts[0], parts[1], len(rules)))
        if len(rules) != declared:
            raise ValueError(
                f"{name} line 1: merge table declares {declared} rules "
                f"but has {len(rules)}"
            )
        return cls(rules)


@dataclass(frozen=True)
class Segmentation:
    word: str
    subwords: tuple[str, ...]

    def __post_init__(self):
        if "".join(self.subwords) != self.word:
            raise ValueError(
                f"subwords {self.subwords!r} do not concatenate to {self.word!r}"
            )


def _pair_occurrences(symbols: Sequence[str]) -> dict[Pair, int]:
    """Non-overlapping adjacent pair counts, scanned left to right.

    An occurrence at position i is skipped when the same pair was counted
    at i-1, which matches greedy left-to-right replacement. Only the pair
    at i-1 can overlap the one at i, so one look-back pair is enough.
    """
    counts: dict[Pair, int] = {}
    prev = None
    for pair in zip(symbols, symbols[1:]):
        if pair == prev:
            prev = None
            continue
        counts[pair] = counts.get(pair, 0) + 1
        prev = pair
    return counts


def _merge_symbols(symbols: Sequence[str], pair: Pair) -> list[str]:
    """Replace adjacent (left, right) with their fusion, greedy left to right."""
    left, right = pair
    product = left + right
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == left and symbols[i + 1] == right:
            out.append(product)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def train_bpe(counts: Mapping[str, int], num_merges: int) -> MergeTable:
    """Learn up to num_merges rules from word -> count; stops early when no
    pair is left.

    Pair counts are maintained incrementally: only words containing the
    merged pair are re-counted after each merge, and each pair those words
    touched is pushed onto the heap again with its new count when that
    count is at least 1. The next merge is the top heap entry whose count
    still equals its pair's current count; stale entries above it are
    popped and dropped.
    """
    if num_merges < 0:
        raise ValueError(f"num_merges must be >= 0, got {num_merges}")
    segs: dict[str, list[str]] = {w: list(w) for w in counts}
    pair_counts: dict[Pair, int] = defaultdict(int)
    pair_words: dict[Pair, set[str]] = defaultdict(set)
    for word, count in counts.items():
        for pair, n in _pair_occurrences(segs[word]).items():
            pair_counts[pair] += n * count
            pair_words[pair].add(word)
    heap = [(-count, pair) for pair, count in pair_counts.items() if count >= 1]
    heapq.heapify(heap)
    rules: list[MergeRule] = []
    for rank in range(num_merges):
        while heap and -heap[0][0] != pair_counts[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            break
        best = heapq.heappop(heap)[1]
        touched: set[Pair] = set()
        for word in pair_words[best].copy():
            count = counts[word]
            before = _pair_occurrences(segs[word])
            segs[word] = _merge_symbols(segs[word], best)
            after = _pair_occurrences(segs[word])
            for pair, n in before.items():
                pair_counts[pair] -= n * count
                if pair not in after:
                    pair_words[pair].discard(word)
            for pair, n in after.items():
                pair_counts[pair] += n * count
                pair_words[pair].add(word)
            touched.update(before)
            touched.update(after)
        for pair in touched:
            if pair_counts[pair] >= 1:
                heapq.heappush(heap, (-pair_counts[pair], pair))
        rules.append(MergeRule(best[0], best[1], rank))
    return MergeTable(rules)


def segment_word(word: str, table: MergeTable) -> Segmentation:
    """Split a word into characters and merge them as a rank-order replay
    of every rule would.

    Rules whose pair does not occur leave the symbols unchanged, so each
    step jumps to the lowest rank at or above the floor among the pairs
    that occur, merges that pair, and sets the floor one past that rank.
    Rules below the floor were passed by the replay and never fire again,
    even if a later merge creates their pair.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    symbols: list[str] = list(word)
    ranks = table._ranks
    floor = 0
    while len(symbols) > 1:
        best = None
        for pair in zip(symbols, symbols[1:]):
            pair_ranks = ranks.get(pair)
            if pair_ranks is None or pair_ranks[-1] < floor:
                continue
            rank = pair_ranks[bisect_left(pair_ranks, floor)]
            if best is None or rank < best:
                best, best_pair = rank, pair
        if best is None:
            break
        symbols = _merge_symbols(symbols, best_pair)
        floor = best + 1
    return Segmentation(word, tuple(symbols))


class SubwordVocab:
    """Subword unit -> index table; index 0 is the reserved unknown unit."""

    def __init__(self, units: Sequence[str]):
        if SUBWORD_UNK in units:
            raise ValueError(f"{SUBWORD_UNK!r} is reserved")
        self.units: list[str] = [SUBWORD_UNK] + list(units)
        self._index = {u: i for i, u in enumerate(self.units)}
        if len(self._index) != len(self.units):
            raise ValueError("duplicate subword units")

    @property
    def size(self) -> int:
        return len(self.units)

    @property
    def unk_index(self) -> int:
        return 0

    def lookup(self, unit: str) -> int:
        return self._index.get(unit, 0)

    def __contains__(self, unit: str) -> bool:
        return unit in self._index


def build_subword_vocab(words: Iterable[str], table: MergeTable) -> SubwordVocab:
    """Every corpus character, every merge product, plus the reserved unknown.

    Every unit segment_word yields is a character or a merge product, so no
    word needs segmenting here. Merge products are included even when later
    merges absorb them in every final segmentation, so the vocabulary size is
    exactly the number of single-character types plus the number of
    effective merges plus one. The result depends on the words and the
    merges alone, so checkpoints store those and rebuild it on load.
    """
    units: set[str] = set()
    for word in words:
        units.update(word)
    units.update(rule.product for rule in table.rules)
    return SubwordVocab(sorted(units))
