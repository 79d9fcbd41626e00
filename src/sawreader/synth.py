"""Deterministic synthetic cloze corpus.

Documents are short template stories about invented entities; the query
repeats one sentence with an entity blanked out, so the answer is always
present in the document. Entities and content words are syllable
compounds, which gives the subword layer real structure to learn. With a
positive oov_rate, that share of valid and test examples gets an answer
entity drawn from a held-out pool that never occurs in the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PLACEHOLDER, ClozeExample

# shortest document length a SyntheticSpec (and `saw gen-data --doc-len`) accepts
MIN_DOC_LEN = 8

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass
class SyntheticSpec:
    vocab_size: int = 80
    entity_pool: int = 20
    doc_len_range: tuple[int, int] = (20, 40)
    num_examples: int = 250
    oov_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.entity_pool < 2:
            raise ValueError("entity pool too small: need at least 2 entities")
        if self.vocab_size < 6:
            raise ValueError("vocab_size must be >= 6")
        if self.num_examples < 3:
            raise ValueError("num_examples must be >= 3 (one per split)")
        if not 0.0 <= self.oov_rate <= 1.0:
            raise ValueError(f"oov_rate must be in [0, 1], got {self.oov_rate}")
        lo, hi = self.doc_len_range
        if lo < MIN_DOC_LEN or hi < lo:
            raise ValueError(f"doc_len_range must satisfy {MIN_DOC_LEN} <= lo <= hi")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _word_bank(spec: SyntheticSpec, rng: np.random.Generator):
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    pairs = [a + b for a in syllables for b in syllables]
    oov_pool = max(2, spec.entity_pool // 2)
    needed = spec.entity_pool + oov_pool + spec.vocab_size
    if needed > len(pairs):
        raise ValueError(f"generator supports at most {len(pairs)} distinct words")
    order = rng.permutation(len(pairs))
    picked = [pairs[int(i)] for i in order[:needed]]
    entities = picked[: spec.entity_pool]
    oov_entities = picked[spec.entity_pool : spec.entity_pool + oov_pool]
    content = picked[spec.entity_pool + oov_pool :]
    n_nouns = max(2, int(spec.vocab_size * 0.4))
    n_verbs = max(2, int(spec.vocab_size * 0.4))
    nouns = content[:n_nouns]
    verbs = content[n_nouns : n_nouns + n_verbs]
    adjs = content[n_nouns + n_verbs :] or content[:2]
    return entities, oov_entities, nouns, verbs, adjs


def _pick(rng: np.random.Generator, items: list[str]) -> str:
    return items[int(rng.integers(len(items)))]


def _make_sentence(rng, subject, cast, nouns, verbs, adjs):
    """One template sentence; returns tokens and (offset, entity) occurrences."""
    verb = _pick(rng, verbs)
    noun = _pick(rng, nouns)
    template = int(rng.integers(4))
    if template == 0:
        tokens = [subject, verb, "the", noun, "."]
        occurrences = [(0, subject)]
    elif template == 1:
        tokens = [subject, verb, "the", _pick(rng, adjs), noun, "."]
        occurrences = [(0, subject)]
    elif template == 2:
        other = _pick(rng, cast)
        tokens = [subject, "and", other, verb, "near", "the", noun, "."]
        occurrences = [(0, subject), (2, other)]
    else:
        tokens = [subject, verb, "with", "a", noun, "then", _pick(rng, verbs), "."]
        occurrences = [(0, subject)]
    return tokens, occurrences


def _make_example(
    rng, ex_id, protagonist, cast, nouns, verbs, adjs, doc_len_range, force_protagonist
):
    lo, hi = doc_len_range
    target = int(rng.integers(lo, hi + 1))
    doc: list[str] = []
    sentences: list[tuple[int, list[str]]] = []
    occurrences: list[tuple[int, str]] = []
    while len(doc) < target:
        subject = protagonist if not sentences else _pick(rng, [protagonist] + cast)
        tokens, ents = _make_sentence(rng, subject, cast, nouns, verbs, adjs)
        if len(doc) + len(tokens) > hi and len(doc) >= lo:
            break
        base = len(doc)
        sentences.append((base, tokens))
        occurrences.extend((base + off, ent) for off, ent in ents)
        doc.extend(tokens)
    if force_protagonist:
        candidates = [(pos, e) for pos, e in occurrences if e == protagonist]
    else:
        candidates = occurrences
    pos, answer_word = candidates[int(rng.integers(len(candidates)))]
    base, tokens = next(
        (b, t) for b, t in sentences if b <= pos < b + len(t)
    )
    query = list(tokens)
    query[pos - base] = PLACEHOLDER
    return ClozeExample(ex_id, tuple(doc), tuple(query), answer_word)


def generate_synthetic(spec: SyntheticSpec) -> dict[str, list[ClozeExample]]:
    """Three splits keyed train/valid/test; same spec, same seed, same data."""
    rng = np.random.default_rng(spec.seed)
    entities, oov_entities, nouns, verbs, adjs = _word_bank(spec, rng)
    n_valid = max(1, spec.num_examples // 10)
    n_test = max(1, spec.num_examples // 10)
    n_train = spec.num_examples - n_valid - n_test
    splits: dict[str, list[ClozeExample]] = {}
    for split, count in (("train", n_train), ("valid", n_valid), ("test", n_test)):
        examples = []
        for i in range(count):
            inject = split != "train" and float(rng.random()) < spec.oov_rate
            if inject:
                protagonist = _pick(rng, oov_entities)
            else:
                protagonist = _pick(rng, entities)
            others = [e for e in entities if e != protagonist]
            k = int(rng.integers(1, min(3, len(others)) + 1))
            idx = rng.permutation(len(others))[:k]
            cast = [others[int(j)] for j in idx]
            examples.append(
                _make_example(
                    rng,
                    f"{split}-{i:05d}",
                    protagonist,
                    cast,
                    nouns,
                    verbs,
                    adjs,
                    spec.doc_len_range,
                    force_protagonist=inject,
                )
            )
        splits[split] = examples
    return splits
