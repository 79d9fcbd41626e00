"""Merge learning against the from-scratch recount oracle, plus file formats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawreader.bpe import (
    SUBWORD_UNK,
    MergeRule,
    MergeTable,
    Segmentation,
    SubwordVocab,
    build_subword_vocab,
    segment_word,
    train_bpe,
)
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.vocab import Vocabulary, build_vocab, read_word_counts

from oracles import bpe_train, count_bigrams, replay_segment


# ---------------------------------------------------- hand-counted cases ---


def test_pair_counts_hand_oracle():
    # "abab" twice and "ab" once: (a,b) occurs 2*2+1 = 5, (b,a) 1*2 = 2
    freqs = {"abab": 2, "ab": 1}
    segs = {w: list(w) for w in freqs}
    counts = count_bigrams(segs, freqs)
    assert counts == {("a", "b"): 5, ("b", "a"): 2}


def test_pair_counts_non_overlapping_runs():
    # "aaa" has one (a,a) pair, "aaaa" has two
    freqs = {"aaa": 1, "aaaa": 1}
    counts = count_bigrams({"aaa": list("aaa"), "aaaa": list("aaaa")}, freqs)
    assert counts[("a", "a")] == 3


def test_count_bigrams_rejects_empty_segmentation():
    freqs = {"ab": 1}
    with pytest.raises(ValueError, match="empty segmentation"):
        count_bigrams({"ab": []}, freqs)


def test_first_merge_is_most_frequent_pair():
    table = train_bpe({"abab": 2, "ab": 1}, 1)
    assert table.rules[0].left == "a"
    assert table.rules[0].right == "b"


def test_tie_breaks_to_lexicographically_smallest():
    # (b,a) and (a,b) both occur twice; the smaller pair wins
    table = train_bpe({"ba": 2, "ab": 2}, 1)
    assert (table.rules[0].left, table.rules[0].right) == ("a", "b")


def test_merge_exhaustion_stops_early():
    table = train_bpe({"ab": 3}, 10)
    assert table.num_merges == 1
    single = train_bpe({"a": 5}, 10)
    assert single.num_merges == 0


def test_train_bpe_rejects_negative_merges():
    with pytest.raises(ValueError, match="num_merges"):
        train_bpe({"ab": 1}, -1)


def test_merged_symbol_feeds_later_merges():
    # "abc" x3: first merge (a,b), second merge (ab,c)
    table = train_bpe({"abc": 3}, 2)
    got = [(r.left, r.right) for r in table.rules]
    assert got == [("a", "b"), ("ab", "c")]
    assert segment_word("abc", table).subwords == ("abc",)


# ------------------------------------------------------ randomized oracle ---


def _random_corpus(rng):
    alphabet = "abcdefgh"[: rng.randint(2, 8)]
    entries = {}
    for _ in range(rng.randint(1, 50)):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        entries[word] = rng.randint(1, 20)
    return entries


def test_train_bpe_matches_recount_oracle():
    rng = random.Random(20240817)
    for _ in range(60):
        entries = _random_corpus(rng)
        num_merges = rng.randint(0, 30)
        got = train_bpe(entries, num_merges)
        expected = bpe_train(entries, num_merges)
        assert [(r.left, r.right) for r in got.rules] == expected
        assert [r.rank for r in got.rules] == list(range(len(expected)))


def _rules(table):
    return [(r.left, r.right) for r in table.rules]


def test_train_bpe_matches_oracle_to_exhaustion_on_synthetic_vocab():
    # the seed-1 train split of the default benchmark corpus: 347 word types
    # whose merges run out at 434, so the heap is drained of every pair and
    # passes through many ties and stale entries on the way
    spec = SyntheticSpec(
        seed=1, vocab_size=300, entity_pool=40, doc_len_range=(20, 40), num_examples=240
    )
    train_set = generate_synthetic(spec)["train"]
    vocab = build_vocab(seq for ex in train_set for seq in (ex.document, ex.query))
    assert vocab.size == 347
    table = train_bpe(vocab.counts, 500)
    assert table.num_merges == 434
    assert _rules(table) == bpe_train(vocab.counts, 500)
    assert [r.rank for r in table.rules] == list(range(434))


@st.composite
def _tie_heavy_corpora(draw):
    """Few letters, counts of 1 or 2 and runs such as "aaaa", so that many
    pairs tie and overlapping occurrences are common."""
    alphabet = "abc"[: draw(st.integers(2, 3))]
    runs = st.tuples(st.sampled_from(alphabet), st.integers(1, 4))
    words = st.lists(runs, min_size=1, max_size=4).map(
        lambda rs: "".join(letter * n for letter, n in rs)[:8]
    )
    return draw(st.dictionaries(words, st.sampled_from([1, 2]), min_size=1, max_size=10))


@settings(deadline=None)
@given(corpus=_tie_heavy_corpora(), data=st.data())
def test_train_bpe_matches_oracle_on_tie_heavy_corpora(corpus, data):
    exhausted = len(bpe_train(corpus, 10**6))
    num_merges = data.draw(st.integers(0, exhausted + 3), label="num_merges")
    table = train_bpe(corpus, num_merges)
    assert _rules(table) == bpe_train(corpus, num_merges)
    assert [r.rank for r in table.rules] == list(range(min(num_merges, exhausted)))


def test_segmentation_round_trip_random_words():
    rng = random.Random(7)
    for _ in range(40):
        entries = _random_corpus(rng)
        table = train_bpe(entries, rng.randint(0, 25))
        for _ in range(25):
            word = "".join(
                rng.choice("abcdefghij") for _ in range(rng.randint(1, 12))
            )
            seg = segment_word(word, table)
            assert "".join(seg.subwords) == word


def test_segment_rejects_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        segment_word("", MergeTable([]))


# ----------------------------------------------------------- size law -----


def test_subword_vocab_size_law():
    # non-exhausted training: size = single-char types + merges + 1 (unknown)
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        entries = _random_corpus(rng)
        num_merges = rng.randint(0, 15)
        table = train_bpe(entries, num_merges)
        if table.num_merges < num_merges:
            continue
        vocab = build_subword_vocab(entries, table)
        chars = set("".join(entries))
        assert vocab.size == len(chars) + num_merges + 1
        checked += 1
    assert checked >= 10


def test_size_law_counts_absorbed_products():
    # (a,b) then (ab,c): "ab" never survives segmentation of "abc" but still
    # owns a vocabulary slot
    freqs = {"abc": 3}
    table = train_bpe(freqs, 2)
    vocab = build_subword_vocab(freqs, table)
    assert "ab" in vocab
    assert vocab.size == 3 + 2 + 1


_WORDS = st.text(alphabet="abcd", min_size=1, max_size=6)


@settings(deadline=None)
@given(
    corpus=st.dictionaries(_WORDS, st.integers(1, 5), min_size=1, max_size=8),
    num_merges=st.integers(0, 40),
    others=st.lists(_WORDS, max_size=4),
)
def test_segmentation_units_lie_in_subword_vocab(corpus, num_merges, others):
    # 8 words of at most 6 letters allow at most 40 merges, so the top of the
    # range exhausts the merge table; the vocabulary is built without
    # segmenting, and must still hold every unit of every word spelled in
    # the corpus's letters, corpus words or not
    table = train_bpe(corpus, num_merges)
    vocab = build_subword_vocab(corpus, table)
    letters = set("".join(corpus))
    for word in list(corpus) + [w for w in others if set(w) <= letters]:
        assert all(u in vocab for u in segment_word(word, table).subwords)


# ------------------------------------------------ segmentation vs replay ---


def test_segment_skips_merges_passed_before_their_pair_existed():
    # the replay meets (ab, c) while "abc" is still three letters, so only
    # (a, b) fires; taking the lowest rank that occurs without a floor
    # would fire (ab, c) after (a, b) and give ("abc",)
    table = MergeTable([MergeRule("ab", "c", 0), MergeRule("a", "b", 1)])
    assert replay_segment("abc", table) == ("ab", "c")
    assert segment_word("abc", table).subwords == ("ab", "c")


@settings(deadline=None)
@given(
    corpus=st.dictionaries(_WORDS, st.integers(1, 5), min_size=1, max_size=8),
    num_merges=st.integers(0, 40),
    others=st.lists(st.text(alphabet="abcde", min_size=1, max_size=8), max_size=6),
)
def test_segment_equals_replay_on_learned_tables(corpus, num_merges, others):
    table = train_bpe(corpus, num_merges)
    for word in list(corpus) + others:
        assert segment_word(word, table).subwords == replay_segment(word, table)


# units for hand-built rules: mostly single letters, so that rules fire,
# every string of two letters, so that a unit is often some other rule's
# product, and a few that are empty or hold a fourth letter
_UNITS = list("abc") * 6 + [x + y for x in "abc" for y in "abc"] + ["", "d", "ad", "bcd"]


@st.composite
def _hand_cases(draw):
    """A table whose units are any short strings or other rules' products,
    earlier or later ones, with repeated pairs; and words spelled from its
    letters and products."""
    pairs = [
        (draw(st.sampled_from(_UNITS)), draw(st.sampled_from(_UNITS)))
        for _ in range(draw(st.integers(0, 30)))
    ]
    products = [left + right for left, right in pairs]
    for i, (left, right) in enumerate(pairs):
        kind = draw(st.integers(0, 3))
        if kind == 1:
            pairs[i] = (draw(st.sampled_from(products)), right)
        elif kind == 2:
            pairs[i] = (left, draw(st.sampled_from(products)))
        elif kind == 3:
            pairs[i] = draw(st.sampled_from(pairs))
    table = MergeTable([MergeRule(l, r, k) for k, (l, r) in enumerate(pairs)])
    pieces = st.sampled_from(list("abc") + products)
    words = st.lists(pieces, min_size=1, max_size=4).map("".join).filter(bool)
    return table, draw(st.lists(words, min_size=1, max_size=8))


@settings(deadline=None)
@given(case=_hand_cases())
def test_segment_equals_replay_on_hand_built_tables(case):
    table, words = case
    for word in words:
        assert segment_word(word, table).subwords == replay_segment(word, table)


def test_merge_table_rules_are_immutable():
    table = MergeTable([MergeRule("a", "b", 0)])
    with pytest.raises(AttributeError):
        table.rules.append(MergeRule("b", "c", 1))


# -------------------------------------------------------------- formats ---


def test_merge_table_round_trip(tmp_path):
    table = train_bpe({"abab": 2, "cab": 4}, 3)
    path = tmp_path / "merges.txt"
    table.save(path)
    loaded = MergeTable.load(path)
    assert [(r.left, r.right, r.rank) for r in loaded.rules] == [
        (r.left, r.right, r.rank) for r in table.rules
    ]


def test_merge_table_load_rejects_bad_header(tmp_path):
    path = tmp_path / "merges.txt"
    path.write_text("a\tb\n")
    with pytest.raises(ValueError, match="merges.txt line 1: bad merge table header"):
        MergeTable.load(path)


def test_merge_table_load_rejects_non_integer_count(tmp_path):
    path = tmp_path / "merges.txt"
    path.write_text("#merges: two\na\tb\n")
    with pytest.raises(ValueError, match="merges.txt line 1: merge count is not an integer"):
        MergeTable.load(path)


def test_merge_table_load_rejects_line_without_tab(tmp_path):
    path = tmp_path / "merges.txt"
    path.write_text("#merges: 2\na\tb\nab c\n")
    with pytest.raises(ValueError, match="merges.txt line 3: expected left<TAB>right"):
        MergeTable.load(path)


def test_merge_table_load_rejects_empty_unit(tmp_path):
    path = tmp_path / "merges.txt"
    for rule in ("a\t", "\tb"):
        path.write_text(f"#merges: 1\n{rule}\n")
        with pytest.raises(ValueError, match="merges.txt line 2: merge rule has an empty unit"):
            MergeTable.load(path)


def test_merge_table_load_rejects_count_mismatch(tmp_path):
    path = tmp_path / "merges.txt"
    path.write_text("#merges: 2\na\tb\n")
    with pytest.raises(ValueError, match="merges.txt line 1: merge table declares 2"):
        MergeTable.load(path)


def test_merge_table_requires_contiguous_ranks():
    with pytest.raises(ValueError, match="contiguous"):
        MergeTable([MergeRule("a", "b", 1)])


def test_word_freq_table_round_trip(tmp_path):
    # Vocabulary.save is the one writer of word<TAB>count files
    path = tmp_path / "freqs.tsv"
    Vocabulary(["spam", "eggs"], {"spam": 3, "eggs": 1}).save(path)
    assert list(read_word_counts(path)) == [
        ("freqs.tsv line 1", "spam", 3),
        ("freqs.tsv line 2", "eggs", 1),
    ]


def _read_error(path, text):
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        list(read_word_counts(path))
    return str(info.value)


def test_word_freq_table_validation(tmp_path):
    path = tmp_path / "freqs.tsv"
    assert _read_error(path, "ok\t2\n\t1\n") == "freqs.tsv line 2: empty word"
    assert _read_error(path, "a b\t1\n") == "freqs.tsv line 1: word contains whitespace: 'a b'"
    assert _read_error(path, "ok\t0\n") == "freqs.tsv line 1: count for 'ok' must be >= 1, got 0"
    assert _read_error(path, "ab\t5\n\nab\t1\n") == "freqs.tsv line 3: duplicate word 'ab'"


def test_word_freq_table_from_tsv_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    assert _read_error(path, "word_without_count\n") == (
        "bad.tsv line 1: expected word<TAB>count, got 'word_without_count'"
    )
    assert _read_error(path, "word\tnot_a_number\n") == (
        "bad.tsv line 1: count is not an integer: 'not_a_number'"
    )


def test_segmentation_validates_concatenation():
    with pytest.raises(ValueError, match="concatenate"):
        Segmentation("abc", ("a", "c"))


def test_subword_vocab_reserved_slot():
    vocab = SubwordVocab(["ab", "c"])
    assert vocab.unk_index == 0
    assert vocab.units[0] == SUBWORD_UNK
    assert vocab.lookup("ab") == 1
    assert vocab.lookup("zz") == 0
    assert "c" in vocab and "zz" not in vocab
    with pytest.raises(ValueError, match="reserved"):
        SubwordVocab([SUBWORD_UNK])
    with pytest.raises(ValueError, match="duplicate"):
        SubwordVocab(["x", "x"])
