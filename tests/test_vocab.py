"""Vocabulary ordering, the short-list filter, and index decoupling."""

import pytest

from sawreader.bpe import build_subword_vocab, segment_word, train_bpe
from sawreader.vocab import (
    ShortList,
    Vocabulary,
    build_short_list,
    build_vocab,
    index_subwords,
)


def test_build_vocab_orders_by_count_then_first_seen():
    corpus = [("b", "a", "b"), ("c", "a")]
    vocab = build_vocab(corpus)
    # a and b both occur twice; b appeared first
    assert vocab.words == ["b", "a", "c"]
    assert vocab.counts == {"b": 2, "a": 2, "c": 1}
    assert "a" in vocab.counts and "z" not in vocab.counts


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([])


def test_build_vocab_rejects_bad_tokens():
    with pytest.raises(ValueError, match="invalid token"):
        build_vocab([("ok", "")])
    with pytest.raises(ValueError, match="invalid token"):
        build_vocab([("a b",)])
    # a token type is checked when first seen: the first invalid token in
    # corpus order is named, even when it recurs after other tokens
    with pytest.raises(ValueError) as info:
        build_vocab([("ok", "fine"), ("ok", "b c", "ok"), ("b c", "\t")])
    assert str(info.value) == "invalid token: 'b c'"
    with pytest.raises(ValueError) as info:
        build_vocab([("ok",), ("", "ok")])
    assert str(info.value) == "invalid token: ''"


def test_short_list_keeps_top_fraction():
    vocab = build_vocab([tuple("aaabbc")])
    short = build_short_list(vocab, 2 / 3)
    assert short.kept == ("a", "b")
    assert short.kept_count == 2
    assert short.unk_index == 2
    assert short.index("a") == 0
    assert short.index("c") == 2
    assert "c" not in short


def test_short_list_floor_guard():
    # 0.3 * 10 is 2.9999... in floats; the guard keeps it at 3
    vocab = Vocabulary(list("abcdefghij"), {w: 1 for w in "abcdefghij"})
    assert build_short_list(vocab, 0.3).kept_count == 3
    assert build_short_list(vocab, 1.0).kept_count == 10


def test_short_list_keeps_at_least_one_word():
    vocab = Vocabulary(["only"], {"only": 5})
    short = build_short_list(vocab, 0.01)
    assert short.kept == ("only",)


def test_short_list_gamma_validation():
    vocab = Vocabulary(["w"], {"w": 1})
    for gamma in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="invalid filter ratio"):
            build_short_list(vocab, gamma)


def test_index_word_maps_filtered_to_unk():
    vocab = build_vocab([tuple("aaabbc")])
    short = build_short_list(vocab, 2 / 3)
    assert short.index("a") == 0
    assert short.index("c") == short.unk_index
    assert short.index("never-seen") == short.unk_index


def test_subword_indices_ignore_short_list_membership():
    # a word dropped from the short list keeps subword units from its own
    # spelling; only the word-level index collapses to unk
    freqs = {"abab": 4, "ab": 2, "cd": 1}
    table = train_bpe(freqs, 2)
    subwords = build_subword_vocab(freqs, table)
    vocab = build_vocab([("abab", "abab", "ab", "cd")])
    short = build_short_list(vocab, 0.4)  # keeps only "abab"
    assert "cd" not in short
    seg = segment_word("cd", table).subwords
    assert index_subwords("cd", table, subwords) == tuple(
        subwords.lookup(u) for u in seg
    )
    # unseen spelling still segments; unknown units map to the reserved 0
    assert index_subwords("zq", table, subwords) == (0, 0)


def test_vocabulary_round_trip(tmp_path):
    vocab = build_vocab([("x", "y", "x", "z")])
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.words == vocab.words
    assert loaded.counts == vocab.counts


def test_vocabulary_load_rejects_increasing_counts(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t1\nb\t2\n")
    with pytest.raises(ValueError, match="non-increasing"):
        Vocabulary.load(path)


def test_vocabulary_load_rejects_bad_line(tmp_path):
    path = tmp_path / "vocab.tsv"
    for text, message in (
        ("just-a-word\n", "vocab.tsv line 1: expected word<TAB>count"),
        ("a\t2\na b\t1\n", "vocab.tsv line 2: word contains whitespace: 'a b'"),
        ("a\t2\n\nb\t0\n", "vocab.tsv line 3: count for 'b' must be >= 1, got 0"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}"):
            Vocabulary.load(path)


def test_vocabulary_load_rejects_non_integer_count(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t2\nb\tmany\n")
    with pytest.raises(ValueError, match="vocab.tsv line 2: count is not an integer: 'many'"):
        Vocabulary.load(path)


def test_vocabulary_load_rejects_duplicate_word(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t2\nb\t1\na\t1\n")
    with pytest.raises(ValueError, match="vocab.tsv line 3: duplicate word 'a'"):
        Vocabulary.load(path)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(["a", "a"], {"a": 2})


def test_short_list_direct_constructor():
    short = ShortList(("w1", "w2"))
    assert short.index("w2") == 1
    assert short.unk_index == 2
