"""Embedding fusion, gated attention, answer aggregation, and checkpoints."""

import errno
import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawreader import autodiff as ad
from sawreader.autodiff import Tensor
from sawreader.bpe import segment_word
from sawreader.data import PLACEHOLDER, ClozeExample
from sawreader.harness import build_pipeline, new_model
from sawreader import reader
from sawreader.reader import (
    INTEGRATION_OPS,
    ReaderConfig,
    ReaderModel,
    answer,
    answer_pointer,
    augment_words,
    build_distribution,
    forward_batch,
    gated_attention_layer,
    load_model,
    save_model,
    subword_encode_batch,
    top_candidates,
)
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.training import batch_loss, loss_node
from sawreader.vocab import index_subwords

from oracles import (
    answer_pointer_chain,
    gated_attention_2d,
    gated_attention_chain,
    grad_check,
    matmul,
    reshape,
    traced_memory,
    weighted_sum,
)


def _examples():
    return [
        ClozeExample(
            "e1",
            tuple("mira took the lamp . rok saw mira .".split()),
            tuple("<blank> took the lamp .".split()),
            "mira",
        ),
        ClozeExample(
            "e2",
            tuple("rok found a stone . mira waved then left .".split()),
            tuple("rok found a <blank> .".split()),
            "stone",
        ),
        ClozeExample(
            "e3",
            tuple("the lamp fell . rok took it .".split()),
            tuple("the <blank> fell .".split()),
            "lamp",
        ),
    ]


def _model(op="mul", gamma=0.5, num_layers=2, seed=0):
    config = ReaderConfig(
        integration_op=op,
        num_layers=num_layers,
        hidden=3,
        word_dim=4,
        subword_dim=3,
        gamma=gamma,
        num_merges=10,
        dropout=0.5,
    )
    merges, subwords, vocab, short_list = build_pipeline(_examples(), config)
    return ReaderModel(config, merges, subwords, vocab, short_list, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError, match="integration op"):
        ReaderConfig(integration_op="avg")
    with pytest.raises(ValueError, match="num_layers"):
        ReaderConfig(num_layers=0)
    with pytest.raises(ValueError, match="hidden"):
        ReaderConfig(hidden=0)
    with pytest.raises(ValueError, match="filter ratio"):
        ReaderConfig(gamma=0.0)
    with pytest.raises(ValueError, match="dropout"):
        ReaderConfig(dropout=1.0)
    with pytest.raises(ValueError, match="num_merges"):
        ReaderConfig(num_merges=-1)


def test_config_dims_per_operator():
    concat = ReaderConfig(integration_op="concat", word_dim=6, subword_dim=4)
    assert concat.subword_out_dim == 4
    assert concat.embed_dim == 10
    for op in ("sum", "mul"):
        cfg = ReaderConfig(integration_op=op, word_dim=6, subword_dim=4)
        assert cfg.subword_out_dim == 6
        assert cfg.embed_dim == 6


def test_defaults_match_reference_setup():
    cfg = ReaderConfig()
    assert cfg.num_layers == 3
    assert cfg.hidden == 128
    assert cfg.dropout == 0.5
    assert cfg.num_merges == 1000
    assert cfg.gamma == 0.9


def test_filtered_word_reads_unk_row_but_keeps_spelling():
    model = _model(op="mul", gamma=0.4)
    filtered = [w for w in model.vocab.words if w not in model.short_list]
    assert filtered, "gamma 0.4 should filter some words"
    word = filtered[0]
    with ad.no_grad():
        we_all = augment_words(model, [word])
    # the word branch read the shared unknown row, not a dedicated one
    unk_row = model.word_emb.data[model.short_list.unk_index]
    with ad.no_grad():
        se = subword_encode_batch(model, [word])
    assert np.allclose(we_all.data[0], unk_row * se.data[0], atol=1e-12)
    # the subword indices still come from the word's own spelling
    seg = segment_word(word, model.merges).subwords
    assert index_subwords(word, model.merges, model.subwords) == tuple(
        model.subwords.lookup(u) for u in seg
    )


def test_mul_with_ones_unk_row_passes_subword_branch_through():
    model = _model(op="mul", gamma=0.4)
    model.word_emb.data[model.short_list.unk_index] = 1.0
    word = next(w for w in model.vocab.words if w not in model.short_list)
    with ad.no_grad():
        fused = augment_words(model, [word])
        se = subword_encode_batch(model, [word])
    assert np.array_equal(fused.data[0], se.data[0])


def test_fusion_operators_against_manual_branches():
    for op in ("concat", "sum", "mul"):
        model = _model(op=op)
        words = ["mira", "lamp"]
        with ad.no_grad():
            fused = augment_words(model, words)
            se = subword_encode_batch(model, words)
        idx = [model.short_list.index(w) for w in words]
        we = model.word_emb.data[idx]
        if op == "concat":
            expected = np.concatenate([we, se.data], axis=1)
        elif op == "sum":
            expected = we + se.data
        else:
            expected = we * se.data
        assert np.allclose(fused.data, expected, atol=1e-12)
        assert fused.shape == (2, model.config.embed_dim)


def test_gated_attention_rows_and_gating():
    rng = np.random.default_rng(0)
    h_doc = Tensor(rng.standard_normal((2, 5, 4)))
    h_query = Tensor(rng.standard_normal((2, 3, 4)))
    q_lens = np.array([3, 2])
    gated, alpha = gated_attention_layer(h_doc, h_query, q_lens)
    assert isinstance(alpha, np.ndarray) and alpha.shape == (2, 5, 3)
    assert np.allclose(alpha.sum(axis=2), 1.0, atol=1e-12)
    assert np.array_equal(alpha[1, :, 2], np.zeros(5))
    beta = alpha @ h_query.data
    assert np.allclose(gated.data, h_doc.data * beta, atol=1e-12)
    with pytest.raises(ValueError, match="state dims differ"):
        gated_attention_layer(h_doc, Tensor(rng.standard_normal((2, 3, 5))), q_lens)
    with pytest.raises(ValueError, match="3-D"):
        gated_attention_layer(Tensor(np.zeros((5, 4))), h_query, q_lens)
    with pytest.raises(ValueError, match="batch sizes differ"):
        gated_attention_layer(h_doc, Tensor(rng.standard_normal((1, 3, 4))), q_lens)
    with pytest.raises(ValueError, match="query lengths"):
        gated_attention_layer(h_doc, h_query, np.array([3, 4]))


@st.composite
def _attention_cases(draw):
    t_doc, t_query = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    batch = draw(st.integers(1, 4))
    d_lens = draw(st.lists(st.integers(1, t_doc), min_size=batch, max_size=batch))
    q_lens = draw(st.lists(st.integers(1, t_query), min_size=batch, max_size=batch))
    return (
        np.array(d_lens),
        np.array(q_lens),
        t_doc,
        t_query,
        draw(st.integers(1, 5)),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(deadline=None, max_examples=40)
@given(_attention_cases())
def test_batched_attention_matches_per_example_oracle(case):
    d_lens, q_lens, t_doc, t_query, dim, seed = case
    rng = np.random.default_rng(seed)
    batch = len(d_lens)
    # padded rows and columns hold noise, not zeros
    h_doc = Tensor(rng.standard_normal((batch, t_doc, dim)), requires_grad=True)
    h_query = Tensor(rng.standard_normal((batch, t_query, dim)), requires_grad=True)
    real_doc = np.arange(t_doc)[None, :] < d_lens[:, None]
    real_query = np.arange(t_query)[None, :] < q_lens[:, None]
    w_gated = rng.standard_normal((batch, t_doc, dim)) * real_doc[:, :, None]
    # alpha is an inspection-only array, so only the gated states carry
    # gradient; both inputs still get gradient through alpha's scores
    gated, alpha = gated_attention_layer(h_doc, h_query, q_lens)
    weighted_sum(gated, w_gated).backward()

    padded_query = np.broadcast_to(~real_query[:, None, :], alpha.shape)
    assert not alpha[padded_query].any()
    assert not h_query.grad[~real_query].any()
    for i, (dl, ql) in enumerate(zip(d_lens, q_lens)):
        hd = Tensor(h_doc.data[i, :dl].copy(), requires_grad=True)
        hq = Tensor(h_query.data[i, :ql].copy(), requires_grad=True)
        g_i, a_i = gated_attention_2d(hd, hq)
        weighted_sum(g_i, w_gated[i, :dl]).backward()
        close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
        close(gated.data[i, :dl], g_i.data)
        close(alpha[i, :dl, :ql], a_i.data)
        close(h_doc.grad[i, :dl], hd.grad)
        close(h_query.grad[i, :ql], hq.grad)


@settings(deadline=None, max_examples=40)
@given(_attention_cases(), st.booleans())
def test_fused_gate_equals_the_six_op_chain_bit_for_bit(case, read_first):
    d_lens, q_lens, t_doc, t_query, dim, seed = case
    rng = np.random.default_rng(seed)
    batch = len(d_lens)
    # padded rows and columns hold noise, not zeros
    doc = rng.standard_normal((batch, t_doc, dim))
    query = rng.standard_normal((batch, t_query, dim))
    w = rng.standard_normal(batch * t_doc)
    w_doc, w_query = rng.standard_normal((2, batch * dim))
    # as in the answer pointer, one query row per example is read again
    rows = np.arange(batch) * t_query + rng.integers(0, q_lens)
    doc_rows = np.arange(batch) * t_doc + rng.integers(0, d_lens)
    results = []
    for layer in (gated_attention_layer, gated_attention_chain):
        h_doc = Tensor(doc, requires_grad=True)
        h_query = Tensor(query, requires_grad=True)
        gated, alpha = layer(h_doc, h_query, q_lens)
        q_t = ad.gather_rows(reshape(h_query, (batch * t_query, dim)), rows)
        scores = matmul(gated, reshape(q_t, (batch, dim, 1)))
        objective = weighted_sum(scores, w)
        if read_first:
            # reads of both inputs whose gradients land before the layer's,
            # so the order in which the layer adds its terms shows in the bits
            d_t = ad.gather_rows(reshape(h_doc, (-1, dim)), doc_rows)
            q_again = ad.gather_rows(reshape(h_query, (-1, dim)), rows)
            reads = ad.add(weighted_sum(d_t, w_doc), weighted_sum(q_again, w_query))
            objective = ad.add(reads, objective)
        objective.backward()
        results.append((gated.data, alpha, h_doc.grad, h_query.grad))
    for fused, chain in zip(*results):
        assert np.array_equal(fused, chain)


def test_fused_gate_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    h_doc = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    # the padded query row holds noise, and gets zero gradient
    h_query = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    q_lens = np.array([3, 2])
    w = rng.standard_normal(2 * 4 * 3)

    def objective():
        return weighted_sum(gated_attention_layer(h_doc, h_query, q_lens)[0], w)

    assert grad_check(objective, [h_doc, h_query], eps=1e-6) < 1e-7
    assert not h_query.grad[1, 2].any()


def test_fused_gate_keeps_only_its_output_and_alpha():
    # a layer's graph holds no beta, no scores and no masked scores
    rng = np.random.default_rng(24)
    h_doc = Tensor(rng.standard_normal((16, 40, 64)), requires_grad=True)
    h_query = Tensor(rng.standard_normal((16, 12, 64)), requires_grad=True)
    q_lens = rng.integers(4, 13, size=16)
    (gated, alpha), [(live, _)] = traced_memory(
        lambda: gated_attention_layer(h_doc, h_query, q_lens)
    )
    assert gated.requires_grad
    assert live <= gated.data.nbytes + alpha.nbytes + 4096


@settings(deadline=None, max_examples=40)
@given(_attention_cases())
def test_fused_pointer_equals_the_seven_op_chain_bit_for_bit(case):
    d_lens, _, t_doc, t_query, dim, seed = case
    rng = np.random.default_rng(seed)
    batch = len(d_lens)
    # padded rows hold noise, not zeros, and the placeholder may sit at any
    # query position
    doc = rng.standard_normal((batch, t_doc, dim))
    query = rng.standard_normal((batch, t_query, dim))
    pos = rng.integers(0, t_query, size=batch)
    w = rng.standard_normal(batch * t_doc)
    results = []
    for pointer in (answer_pointer, answer_pointer_chain):
        h_doc = Tensor(doc, requires_grad=True)
        h_query = Tensor(query, requires_grad=True)
        probs = pointer(h_doc, h_query, pos, d_lens)
        weighted_sum(probs, w).backward()
        results.append((probs.data, h_doc.grad, h_query.grad))
    for fused, chain in zip(*results):
        assert np.array_equal(fused, chain)
    # padded positions get no probability and send no gradient, and only
    # each row's placeholder state gets gradient
    probs, d_grad, q_grad = results[0]
    padded = np.arange(t_doc)[None, :] >= d_lens[:, None]
    assert not probs[padded].any() and not d_grad[padded].any()
    placeholder = np.zeros((batch, t_query), dtype=bool)
    placeholder[np.arange(batch), pos] = True
    assert not q_grad[~placeholder].any()


@settings(deadline=None, max_examples=40)
@given(_attention_cases())
def test_last_layer_gate_and_pointer_equal_the_op_chains_bit_for_bit(case):
    # layer K's tail as the reader runs it: the pointer reads the gated
    # states and the same query states the gate read, and its backward
    # runs before the gate's
    d_lens, q_lens, t_doc, t_query, dim, seed = case
    rng = np.random.default_rng(seed)
    batch = len(d_lens)
    doc = rng.standard_normal((batch, t_doc, dim))
    query = rng.standard_normal((batch, t_query, dim))
    pos = rng.integers(0, q_lens)
    w = rng.standard_normal(batch * t_doc)
    results = []
    for layer, pointer in (
        (gated_attention_layer, answer_pointer),
        (gated_attention_chain, answer_pointer_chain),
    ):
        h_doc = Tensor(doc, requires_grad=True)
        h_query = Tensor(query, requires_grad=True)
        gated, alpha = layer(h_doc, h_query, q_lens)
        probs = pointer(gated, h_query, pos, d_lens)
        weighted_sum(probs, w).backward()
        results.append((probs.data, alpha, h_doc.grad, h_query.grad))
    for fused, chain in zip(*results):
        assert np.array_equal(fused, chain)


def test_fused_pointer_gradients_match_finite_differences():
    rng = np.random.default_rng(25)
    # padded document rows and query rows hold noise
    h_doc = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    h_query = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    pos, d_lens = np.array([2, 0]), np.array([4, 2])
    w = rng.standard_normal(2 * 4)

    def objective():
        return weighted_sum(answer_pointer(h_doc, h_query, pos, d_lens), w)

    assert grad_check(objective, [h_doc, h_query], eps=1e-6) < 1e-7
    assert not h_doc.grad[1, 2:].any()
    assert not h_query.grad[0, :2].any() and not h_query.grad[1, 1:].any()


def test_fused_pointer_names_nan_and_bad_inputs():
    rng = np.random.default_rng(26)
    h_doc = rng.standard_normal((2, 4, 3))
    h_query = Tensor(rng.standard_normal((2, 3, 3)))
    pos, d_lens = np.array([2, 0]), np.array([4, 2])
    h_doc[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="answer_pointer: scores contain NaN"):
        answer_pointer(Tensor(h_doc), h_query, pos, d_lens)
    h_doc[1, 1, 0] = 0.0
    with pytest.raises(ValueError, match="do not match"):
        answer_pointer(Tensor(h_doc[:, :, :2]), h_query, pos, d_lens)
    with pytest.raises(ValueError, match="placeholders"):
        answer_pointer(Tensor(h_doc), h_query, np.array([3, 0]), d_lens)
    with pytest.raises(ValueError, match="document lengths"):
        answer_pointer(Tensor(h_doc), h_query, pos, np.array([5, 2]))


def test_fused_pointer_keeps_only_its_output():
    # the pointer's graph holds no gathered states, scores or masked scores
    rng = np.random.default_rng(27)
    h_doc = Tensor(rng.standard_normal((64, 40, 256)), requires_grad=True)
    h_query = Tensor(rng.standard_normal((64, 12, 256)), requires_grad=True)
    pos = rng.integers(0, 12, size=64)
    d_lens = rng.integers(20, 41, size=64)
    probs, [(live, _)] = traced_memory(
        lambda: answer_pointer(h_doc, h_query, pos, d_lens)
    )
    assert probs.requires_grad
    assert live <= probs.data.nbytes + 4096


@functools.lru_cache(maxsize=None)
def _synthetic_reader():
    """A small concat model, its training split, and each example's solo pass."""
    splits = generate_synthetic(
        SyntheticSpec(
            vocab_size=30, entity_pool=8, doc_len_range=(8, 16), num_examples=40, seed=3
        )
    )
    pool = splits["train"]
    config = ReaderConfig(
        integration_op="concat",
        num_layers=2,
        hidden=4,
        word_dim=5,
        subword_dim=4,
        gamma=0.8,
        num_merges=20,
        dropout=0.5,
    )
    model = new_model(pool, config, seed=1)
    with ad.no_grad():
        solo = {ex.id: forward_batch(model, [ex])[0] for ex in pool}
    return model, pool, solo


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_forward_batch_equals_solo_passes(data):
    model, pool, solo = _synthetic_reader()
    # the pool mixes document and query lengths, so every batch pads
    assert len({len(ex.document) for ex in pool}) > 1
    assert len({len(ex.query) for ex in pool}) > 1
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8, unique=True)
    )
    batch = [pool[i] for i in picks]
    with ad.no_grad():
        passes = forward_batch(model, batch)
    for ex, fp in zip(batch, passes):
        alone = solo[ex.id]
        assert fp.example is ex
        np.testing.assert_allclose(
            fp.dist.per_position, alone.dist.per_position, rtol=0, atol=1e-12
        )
        assert answer(fp.dist) == answer(alone.dist)


def test_train_step_tape_does_not_grow_with_the_batch(monkeypatch):
    # the batch stays one graph from embedding to loss: an extra example adds
    # no tape node
    model, pool, _ = _synthetic_reader()
    record, pointer = ad._record, reader.answer_pointer
    calls = 0
    pointer_nodes = []

    def counting(*args):
        nonlocal calls
        calls += 1
        return record(*args)

    def pointer_counting(*args):
        before = calls
        probs = pointer(*args)
        pointer_nodes.append(calls - before)
        return probs

    monkeypatch.setattr(ad, "_record", counting)
    monkeypatch.setattr(reader, "answer_pointer", pointer_counting)
    nodes = {}
    for n in (1, 8):
        calls = 0
        passes = forward_batch(
            model, pool[:n], mode="train", rng=np.random.default_rng(0)
        )
        batch_loss(passes, [ex.answer for ex in pool[:n]])
        nodes[n] = calls
    assert nodes[8] == nodes[1], nodes
    # the answer pointer is one node, as each layer's gate is; the rest are
    # 8 from embedding to the padded batches, each layer's two BiGRUs and
    # its gate, and the loss
    assert pointer_nodes == [1, 1]
    assert nodes[1] == 8 + 3 * model.config.num_layers + 1 + 1


def test_gather_padded_records_one_tape_node(monkeypatch):
    # a padded batch is one N-D gather, with no reshape node after it
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    record = ad._record
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return record(*args)

    monkeypatch.setattr(ad, "_record", counting)
    x3, lengths = reader._gather_padded(table, [[2, 1], [3, 1, 1]])
    assert calls == 1
    assert lengths.tolist() == [2, 3]
    assert np.array_equal(x3.data, table.data[[[2, 1, 0], [3, 1, 1]]])


def test_distribution_aggregates_repeated_words():
    dist = build_distribution(np.array([0.2, 0.3, 0.5]), ("a", "b", "a"))
    assert dist.per_candidate["a"] == pytest.approx(0.7)
    assert dist.per_candidate["b"] == pytest.approx(0.3)
    assert dist.positions == {"a": [0, 2], "b": [1]}
    assert answer(dist) == "a"


def test_answer_tie_breaks_to_earliest_position():
    dist = build_distribution(np.array([0.5, 0.5]), ("b", "a"))
    assert answer(dist) == "b"


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcde"),
            st.one_of(st.sampled_from([0.0, 0.125, 0.25]), st.floats(0.0, 1.0)),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 6),
)
def test_aggregation_sums_per_position_and_ties_go_to_earliest(doc, k):
    # repeated dyadic probabilities make exact ties between words common
    tokens = tuple(w for w, _ in doc)
    p = np.array([q for _, q in doc])
    dist = build_distribution(p, tokens)
    assert abs(sum(dist.per_candidate.values()) - p.sum()) < 1e-12
    for w, ix in dist.positions.items():
        assert all(tokens[i] == w for i in ix)
        assert abs(dist.per_candidate[w] - p[ix].sum()) < 1e-12
    covered = sorted(i for ix in dist.positions.values() for i in ix)
    assert covered == list(range(len(p)))
    ranked = top_candidates(dist, k)
    rank_key = {w: (-c, dist.positions[w][0]) for w, c in dist.per_candidate.items()}
    # best first, ties toward the earliest first position, and no word left
    # out ranks above one kept
    assert len(ranked) == min(k, len(dist.positions))
    assert ranked == sorted(ranked, key=rank_key.get)
    left_out = set(dist.positions) - set(ranked)
    assert all(rank_key[w] > rank_key[ranked[-1]] for w in left_out)
    assert answer(dist) == ranked[0]


def test_forward_matches_forward_batch():
    model = _model(op="concat")
    examples = _examples()
    with ad.no_grad():
        solo = [forward_batch(model, [ex])[0] for ex in examples]
        batch = forward_batch(model, examples)
    for fp_solo, fp_batch in zip(solo, batch):
        assert np.allclose(
            fp_solo.dist.per_position, fp_batch.dist.per_position, atol=1e-12
        )
        assert answer(fp_solo.dist) == answer(fp_batch.dist)


def test_forward_normalization_and_attention_shapes():
    model = _model(op="sum", num_layers=2)
    ex = _examples()[0]
    with ad.no_grad():
        fp = forward_batch(model, [ex], collect_attention=True)[0]
    assert fp.dist.per_position.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(fp.alphas) == 2
    for alpha in fp.alphas:
        assert alpha.shape == (len(ex.document), len(ex.query))
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_forward_validates_examples_and_mode():
    model = _model()
    ex = _examples()[0]
    with pytest.raises(ValueError, match="unknown mode"):
        forward_batch(model, [ex], mode="predict")
    with pytest.raises(ValueError, match="empty batch"):
        forward_batch(model, [])
    no_blank = ClozeExample("b1", ("a", "b"), ("a", "b"), "a")
    with pytest.raises(ValueError, match="no placeholder"):
        forward_batch(model, [no_blank])
    two = ClozeExample("b2", ("a",), ("<blank>", "<blank>"), "a")
    with pytest.raises(ValueError, match="2 placeholders"):
        forward_batch(model, [two])
    with pytest.raises(ValueError, match="needs an rng"):
        forward_batch(model, [ex], mode="train")


def test_dropout_applies_only_past_first_layer():
    # identical rng states diverge only if layer >= 2 consumes draws
    ex = _examples()[0]
    one = _model(num_layers=1)
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    forward_batch(one, [ex], mode="train", rng=rng_a)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    two = _model(num_layers=2)
    forward_batch(two, [ex], mode="train", rng=rng_a)
    assert rng_a.bit_generator.state != rng_b.bit_generator.state


def test_train_mode_dropout_changes_outputs_eval_does_not():
    model = _model(num_layers=2)
    ex = _examples()[0]

    def per_position(**kwargs):
        return forward_batch(model, [ex], **kwargs)[0].dist.per_position

    with ad.no_grad():
        eval_a, eval_b = per_position(), per_position()
        train_a = per_position(mode="train", rng=np.random.default_rng(1))
        train_b = per_position(mode="train", rng=np.random.default_rng(2))
    assert np.array_equal(eval_a, eval_b)
    assert not np.array_equal(train_a, train_b)


def test_end_to_end_loss_gradient_small():
    # floor 1e-5: gradient entries below that are checked absolutely, since
    # central differences cannot resolve 1e-10-scale entries relatively
    model = _model(op="mul", num_layers=1)
    ex = _examples()[0]

    def objective():
        return loss_node(forward_batch(model, [ex])[0], ex.answer)

    assert grad_check(objective, model.params, eps=1e-5, floor=1e-5) < 1e-4


def test_checkpoint_round_trip(tmp_path):
    model = _model(op="concat", num_layers=2)
    examples = _examples()
    with ad.no_grad():
        before = [forward_batch(model, [ex])[0] for ex in examples]
    ckpt = tmp_path / "ckpt"
    save_model(model, ckpt)
    loaded = load_model(ckpt)
    assert loaded.config == model.config
    assert loaded.vocab.words == model.vocab.words
    assert loaded.short_list.kept == model.short_list.kept
    assert loaded.subwords.units == model.subwords.units
    assert [(r.left, r.right) for r in loaded.merges.rules] == [
        (r.left, r.right) for r in model.merges.rules
    ]
    with ad.no_grad():
        after = [forward_batch(loaded, [ex])[0] for ex in examples]
    for name, t in model.params.items():
        assert np.array_equal(loaded.params[name].data, t.data), name
    for fp_a, fp_b in zip(before, after):
        assert np.array_equal(fp_a.dist.per_position, fp_b.dist.per_position)
        assert answer(fp_a.dist) == answer(fp_b.dist)


CKPT_FILES = ("reader.cfg", "merges.txt", "vocab.tsv", "params.bin", "params.manifest")


@pytest.mark.parametrize(
    "interrupt", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()]
)
def test_interrupted_save_leaves_previous_checkpoint(tmp_path, monkeypatch, interrupt):
    first = _model(op="mul", seed=0)
    ckpt = tmp_path / "ckpt"
    save_model(first, ckpt)
    saved = {name: (ckpt / name).read_bytes() for name in CKPT_FILES}

    def torn_save(self, bin_path, manifest_path):
        with open(bin_path, "wb") as fh:
            fh.write(b"\0" * 64)
        raise interrupt

    # reader.cfg differs too, and is written before the parameters
    second = _model(op="sum", seed=1)
    monkeypatch.setattr(reader.ParamStore, "save", torn_save)
    with pytest.raises(type(interrupt)):
        save_model(second, ckpt)
    monkeypatch.undo()

    assert sorted(os.listdir(ckpt)) == sorted(CKPT_FILES)
    for name in CKPT_FILES:
        assert (ckpt / name).read_bytes() == saved[name], name
    loaded = load_model(ckpt)
    examples = _examples()
    with ad.no_grad():
        for fp, fp_loaded in zip(forward_batch(first, examples), forward_batch(loaded, examples)):
            assert np.array_equal(fp.dist.per_position, fp_loaded.dist.per_position)


def test_resave_moves_new_files_into_place_and_keeps_the_rest(tmp_path):
    ckpt, fresh = tmp_path / "ckpt", tmp_path / "fresh"
    save_model(_model(op="mul", seed=0), ckpt)
    (ckpt / "history.csv").write_text("epoch,lr,train_loss,train_acc,valid_acc\n")
    (ckpt / "subwords.tsv").write_text("<sub-unk>\n")
    # a symlinked checkpoint file is replaced, and what it pointed at is kept
    outside = tmp_path / "merges-elsewhere.txt"
    os.replace(ckpt / "merges.txt", outside)
    os.symlink(outside, ckpt / "merges.txt")
    outside_bytes = outside.read_bytes()
    before = {name: os.lstat(ckpt / name) for name in os.listdir(ckpt)}

    model = _model(op="sum", seed=1)
    save_model(model, ckpt)
    save_model(model, fresh)

    assert sorted(os.listdir(ckpt)) == sorted(before)
    for name in CKPT_FILES:
        # each file is new (the old inode was still allocated when it was
        # made), and holds what a save into an empty directory writes
        st = os.lstat(ckpt / name)
        assert st.st_ino != before[name].st_ino, name
        assert not os.path.islink(ckpt / name), name
        assert (ckpt / name).read_bytes() == (fresh / name).read_bytes(), name
    for name in ("history.csv", "subwords.tsv"):
        assert os.lstat(ckpt / name).st_ino == before[name].st_ino, name
    assert (ckpt / "subwords.tsv").read_text() == "<sub-unk>\n"
    assert outside.read_bytes() == outside_bytes


@settings(max_examples=20, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.text(alphabet="abcde", min_size=1, max_size=7), min_size=2, max_size=8),
        min_size=1,
        max_size=4,
    ),
    num_merges=st.integers(0, 80),
    op=st.sampled_from(INTEGRATION_OPS),
)
def test_checkpoint_rebuilds_subword_vocab_from_vocab_and_merges(docs, num_merges, op):
    # checkpoints hold no subword vocabulary; sub_emb row i must still belong
    # to unit i after load_model rebuilds it. The top of the merge range is
    # more than these corpora can use.
    examples = [
        ClozeExample(f"h{i}", tuple(doc), (PLACEHOLDER,) + tuple(doc[1:]), doc[0])
        for i, doc in enumerate(docs)
    ]
    config = ReaderConfig(
        integration_op=op,
        num_layers=1,
        hidden=3,
        word_dim=4,
        subword_dim=3,
        num_merges=num_merges,
    )
    model = new_model(examples, config, seed=1)
    with tempfile.TemporaryDirectory() as ckpt:
        save_model(model, ckpt)
        loaded = load_model(ckpt)
    assert loaded.subwords.units == model.subwords.units
    # letters outside the corpus read the unknown unit
    probe = examples[:3] + [
        ClozeExample("oov", ("zebra", docs[0][0], "zebra"), (PLACEHOLDER,), "zebra")
    ]
    with ad.no_grad():
        for fp, fp_loaded in zip(forward_batch(model, probe), forward_batch(loaded, probe)):
            assert np.array_equal(fp.dist.per_position, fp_loaded.dist.per_position)


def test_checkpoint_refits_short_list_from_vocab(tmp_path):
    model = _model(gamma=0.4)
    ckpt = tmp_path / "ckpt"
    save_model(model, ckpt)
    assert not (ckpt / "shortlist.tsv").exists()
    loaded = load_model(ckpt)
    assert loaded.short_list.kept == model.short_list.kept


def test_load_model_ignores_older_shortlist_file(tmp_path):
    # older checkpoints also hold shortlist.tsv, which repeats vocab.tsv, and
    # subwords.tsv, one unit per line, which vocab.tsv and merges.txt imply
    model = _model(op="sum", gamma=0.4)
    new_ckpt, old_ckpt = tmp_path / "new", tmp_path / "old"
    save_model(model, new_ckpt)
    save_model(model, old_ckpt)
    vocab_lines = (old_ckpt / "vocab.tsv").read_text()
    (old_ckpt / "shortlist.tsv").write_text("#gamma: 0.4\n" + vocab_lines)
    (old_ckpt / "subwords.tsv").write_text("".join(u + "\n" for u in model.subwords.units))
    new, old = load_model(new_ckpt), load_model(old_ckpt)
    assert old.short_list.kept == new.short_list.kept == model.short_list.kept
    assert old.subwords.units == new.subwords.units
    for name, t in new.params.items():
        assert np.array_equal(old.params[name].data, t.data)
    examples = _examples()
    with ad.no_grad():
        for fp_new, fp_old in zip(
            forward_batch(new, examples), forward_batch(old, examples)
        ):
            assert np.array_equal(fp_new.dist.per_position, fp_old.dist.per_position)


def test_load_model_builds_from_shapes_and_draws_nothing(tmp_path, monkeypatch):
    model = _model(op="sum", num_layers=2, seed=4)
    save_model(model, tmp_path / "ckpt")

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew from an rng")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_model(tmp_path / "ckpt")
    assert loaded.params.names() == model.params.names()
    for name, t in model.params.items():
        assert loaded.params[name].data.dtype == np.float64
        assert np.array_equal(loaded.params[name].data, t.data), name


def test_load_model_missing_file(tmp_path):
    model = _model()
    ckpt = tmp_path / "ckpt"
    save_model(model, ckpt)
    os.remove(ckpt / "merges.txt")
    with pytest.raises(FileNotFoundError, match="merges.txt"):
        load_model(ckpt)


def test_load_model_rejects_unknown_config_key(tmp_path):
    model = _model()
    ckpt = tmp_path / "ckpt"
    save_model(model, ckpt)
    with open(ckpt / "reader.cfg", "a", encoding="utf-8") as fh:
        fh.write("mystery_knob = 3\n")
    with pytest.raises(ValueError) as err:
        load_model(ckpt)
    assert str(err.value) == "reader.cfg line 9: unknown config key 'mystery_knob'"
