"""Dataset records, the synthetic generator, and the key = value format."""

import json
import tempfile
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawreader.configio import load_config, save_config
from sawreader.data import (
    PLACEHOLDER,
    ClozeExample,
    DatasetError,
    load_dataset,
    parse_record,
    save_dataset,
)
from sawreader.reader import INTEGRATION_OPS, ReaderConfig
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.training import TrainConfig


# --------------------------------------------------------------- records ---


def _write(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _record(**overrides):
    base = {
        "id": "x1",
        "document": "ana hid the cup .",
        "query": f"{PLACEHOLDER} hid the cup .",
        "answer": "ana",
    }
    base.update(overrides)
    return base


def test_load_round_trip(tmp_path):
    examples = [
        ClozeExample("a", ("w1", "w2"), (PLACEHOLDER, "w2"), "w1"),
        ClozeExample("b", ("x", "y", "x"), ("y", PLACEHOLDER), "x"),
    ]
    path = tmp_path / "out.jsonl"
    save_dataset(path, examples)
    assert load_dataset(path) == examples


# any character a whitespace split keeps inside one token
_TOKENS = st.text(st.characters().filter(lambda c: not c.isspace()), min_size=1, max_size=6)


@st.composite
def _cloze_examples(draw, with_answer):
    document = tuple(draw(st.lists(_TOKENS, min_size=1, max_size=8)))
    query = draw(st.lists(_TOKENS.filter(lambda t: t != PLACEHOLDER), max_size=5))
    query.insert(draw(st.integers(0, len(query))), PLACEHOLDER)
    answer = draw(st.sampled_from(document)) if with_answer else None
    return ClozeExample(draw(st.text(min_size=1)), document, tuple(query), answer)


@settings(deadline=None)
@given(data=st.data(), with_answer=st.booleans())
def test_save_load_dataset_round_trip(data, with_answer):
    examples = data.draw(st.lists(_cloze_examples(with_answer), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.jsonl"
        save_dataset(path, examples)
        assert load_dataset(path, require_answer=with_answer) == examples


def test_save_omits_missing_answer(tmp_path):
    path = tmp_path / "out.jsonl"
    save_dataset(path, [ClozeExample("a", ("w",), (PLACEHOLDER,), None)])
    assert "answer" not in json.loads(path.read_text())
    assert load_dataset(path, require_answer=False)[0].answer is None


def test_invalid_json_reports_line(tmp_path):
    path = _write(tmp_path, [json.dumps(_record()), "{not json"])
    with pytest.raises(DatasetError, match="line 2: invalid json"):
        load_dataset(path)


def test_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, [json.dumps(_record()), "", json.dumps(_record(id="x2"))])
    assert [ex.id for ex in load_dataset(path)] == ["x1", "x2"]


def test_missing_fields(tmp_path):
    rec = _record()
    del rec["document"]
    path = _write(tmp_path, [json.dumps(rec)])
    with pytest.raises(DatasetError, match="line 1: missing field 'document'"):
        load_dataset(path)


def test_placeholder_count_errors():
    with pytest.raises(DatasetError, match="exactly one"):
        parse_record(_record(query="no blank here"), "line 1")
    with pytest.raises(DatasetError, match="found 2"):
        parse_record(
            _record(query=f"{PLACEHOLDER} and {PLACEHOLDER}"), "line 1"
        )


def test_answer_must_be_in_document():
    with pytest.raises(DatasetError, match="'zebra' not in document"):
        parse_record(_record(answer="zebra"), "line 1")
    # without the answer requirement the same record is accepted
    ex = parse_record(_record(answer="zebra"), "line 1", require_answer=False)
    assert ex.answer == "zebra"


def test_missing_answer_requirement():
    rec = _record()
    del rec["answer"]
    with pytest.raises(DatasetError, match="missing field 'answer'"):
        parse_record(rec, "line 3")
    assert parse_record(rec, "line 3", require_answer=False).answer is None


def test_field_type_errors():
    with pytest.raises(DatasetError, match="must be a string"):
        parse_record(_record(document=["a", "b"]), "line 1")
    with pytest.raises(DatasetError, match="is empty"):
        parse_record(_record(document="   "), "line 1")
    with pytest.raises(DatasetError, match="'id' must be a non-empty"):
        parse_record(_record(id=""), "line 1")
    with pytest.raises(DatasetError, match="not a json object"):
        parse_record(["list"], "line 1")
    with pytest.raises(DatasetError, match="'answer' must be a non-empty"):
        parse_record(_record(answer=""), "line 1", require_answer=False)


def test_empty_dataset_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(DatasetError, match="dataset is empty"):
        load_dataset(path)


def test_empty_dataset_error_names_base_name_only(tmp_path):
    folder = tmp_path / "splits-dir"
    folder.mkdir()
    path = folder / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value) == "empty.jsonl: dataset is empty"
    assert "splits-dir" not in str(err.value)


def test_placeholder_position():
    ex = ClozeExample("a", ("w",), ("x", PLACEHOLDER, "y"), "w")
    assert ex.placeholder_position == 1


# ------------------------------------------------------------- generator ---


def test_split_sizes():
    splits = generate_synthetic(SyntheticSpec(num_examples=250, seed=0))
    assert len(splits["train"]) == 200
    assert len(splits["valid"]) == 25
    assert len(splits["test"]) == 25
    tiny = generate_synthetic(SyntheticSpec(num_examples=3, seed=0))
    assert {k: len(v) for k, v in tiny.items()} == {"train": 1, "valid": 1, "test": 1}


def test_generated_examples_are_well_formed():
    spec = SyntheticSpec(num_examples=60, seed=3, doc_len_range=(10, 20))
    splits = generate_synthetic(spec)
    ids = set()
    for split, examples in splits.items():
        for ex in examples:
            ids.add(ex.id)
            assert ex.id.startswith(split)
            assert ex.answer in ex.document
            assert ex.query.count(PLACEHOLDER) == 1
            assert 10 <= len(ex.document) <= 20
            # the query is a document sentence with the answer blanked
            pos = ex.placeholder_position
            restored = list(ex.query)
            restored[pos] = ex.answer
            joined = " ".join(ex.document)
            assert " ".join(restored) in joined
    assert len(ids) == 60


def test_generator_is_deterministic():
    spec = SyntheticSpec(num_examples=30, seed=11)
    assert generate_synthetic(spec) == generate_synthetic(spec)
    other = generate_synthetic(SyntheticSpec(num_examples=30, seed=12))
    assert generate_synthetic(spec) != other


def test_oov_injection_rate_and_isolation():
    spec = SyntheticSpec(
        vocab_size=40,
        entity_pool=12,
        num_examples=10000,
        oov_rate=0.2,
        seed=5,
        doc_len_range=(10, 18),
    )
    splits = generate_synthetic(spec)
    train_words = {w for ex in splits["train"] for w in ex.document}
    for ex in splits["train"]:
        train_words.update(ex.query)
    held_out = splits["valid"] + splits["test"]
    oov = [ex for ex in held_out if ex.answer not in train_words]
    rate = len(oov) / len(held_out)
    assert abs(rate - 0.2) < 0.03
    # an injected answer never leaks into any training document
    for ex in oov:
        assert ex.answer not in train_words


def test_no_oov_by_default():
    splits = generate_synthetic(SyntheticSpec(num_examples=50, seed=2))
    train_words = {w for ex in splits["train"] for w in ex.document}
    for ex in splits["valid"] + splits["test"]:
        assert ex.answer in train_words


def test_spec_validation():
    with pytest.raises(ValueError, match="entity pool too small"):
        SyntheticSpec(entity_pool=1)
    with pytest.raises(ValueError, match="vocab_size"):
        SyntheticSpec(vocab_size=5)
    with pytest.raises(ValueError, match="num_examples"):
        SyntheticSpec(num_examples=2)
    with pytest.raises(ValueError, match="oov_rate"):
        SyntheticSpec(oov_rate=1.5)
    with pytest.raises(ValueError, match="doc_len_range"):
        SyntheticSpec(doc_len_range=(4, 10))
    with pytest.raises(ValueError, match="doc_len_range"):
        SyntheticSpec(doc_len_range=(20, 10))
    with pytest.raises(ValueError, match="seed"):
        SyntheticSpec(seed=-1)
    with pytest.raises(ValueError, match="at most"):
        generate_synthetic(SyntheticSpec(vocab_size=4900, seed=0))


# ----------------------------------------------------------------- config ---


@dataclass
class _Knobs:
    """A config of every value type, for the format's own tests."""

    name: str = ""
    layers: int = 1
    rate: float = 0.5
    flag: bool = False
    off: bool = True
    note: str = ""

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")


def _load_text(tmp_path, text, *classes):
    path = tmp_path / "knobs.cfg"
    path.write_text(text)
    return load_config(path, *classes)


def test_parse_kv_types(tmp_path):
    text = """
    name = "reader"  # trailing comment
    layers = 3
    rate = 0.5
    flag = true
    off = false
    note = "value with # inside"
    """
    (knobs,) = _load_text(tmp_path, text, _Knobs)
    assert knobs == _Knobs("reader", 3, 0.5, True, False, "value with # inside")
    assert type(knobs.layers) is int and type(knobs.rate) is float
    # an int literal is accepted for a float field and converted
    (knobs,) = _load_text(tmp_path, "rate = 2", _Knobs)
    assert knobs.rate == 2.0 and type(knobs.rate) is float
    # fields the file leaves out keep their defaults
    assert _load_text(tmp_path, "# nothing set\n", _Knobs) == (_Knobs(),)


def test_parse_kv_errors(tmp_path):
    cases = [
        ("just words", "line 1: expected key = value"),
        ("layers = 1\nlayers = 2", "line 2: duplicate key 'layers'"),
        ("layers = maybe", "line 1: cannot parse value 'maybe'"),
        ('name = "open', "line 1: unterminated string"),
        ("= 2", "line 1: expected key = value"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            _load_text(tmp_path, text, _Knobs)
        assert str(err.value).startswith(f"knobs.cfg {message}"), text


def test_load_config_checks_keys_types_and_ranges(tmp_path):
    cases = [
        ("\nmystery = 1", "knobs.cfg line 2: unknown config key 'mystery'"),
        ("layers = 1.0", "knobs.cfg line 1: layers must be an integer, got 1.0"),
        ("layers = true", "knobs.cfg line 1: layers must be an integer, got true"),
        ('rate = "0.1"', 'knobs.cfg line 1: rate must be a number, got "0.1"'),
        ("flag = 1", "knobs.cfg line 1: flag must be true or false, got 1"),
        ("note = 3", "knobs.cfg line 1: note must be a quoted string, got 3"),
        ("rate = 1\nlayers = 0", "knobs.cfg line 2: layers must be >= 1, got 0"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            _load_text(tmp_path, text, _Knobs)
        assert str(err.value) == message, text


def test_load_config_splits_keys_between_classes(tmp_path):
    text = 'hidden = 8\nepochs = 2\nintegration_op = "sum"\n'
    reader_cfg, train_cfg = _load_text(tmp_path, text, ReaderConfig, TrainConfig)
    assert reader_cfg == ReaderConfig(hidden=8, integration_op="sum")
    assert train_cfg == TrainConfig(epochs=2)
    with pytest.raises(ValueError, match="^knobs.cfg line 2: unknown config key 'epochs'$"):
        _load_text(tmp_path, text, ReaderConfig)


def _configs(cls):
    """Valid instances of a config dataclass, drawn per field."""
    special = {
        "integration_op": st.sampled_from(INTEGRATION_OPS),
        "gamma": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        "dropout": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        "num_merges": st.integers(min_value=0),
        "seed": st.integers(min_value=0),
    }
    by_type = {
        "int": st.integers(min_value=1),
        "float": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    }
    return st.builds(
        cls,
        **{f.name: special[f.name] if f.name in special else by_type[f.type] for f in fields(cls)},
    )


@settings(deadline=None)
@given(config=st.one_of(_configs(ReaderConfig), _configs(TrainConfig)))
def test_save_config_load_config_rebuilds_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.cfg"
        save_config(config, path)
        (loaded,) = load_config(path, type(config))
    assert loaded == config
    for f in fields(config):
        got, want = getattr(loaded, f.name), getattr(config, f.name)
        assert type(got) is type(want), f.name
        if isinstance(want, float):
            assert got.hex() == want.hex(), f.name


def test_save_config_round_trip(tmp_path):
    knobs = _Knobs(name="text", layers=7, rate=-2.5e-3, flag=True)
    path = tmp_path / "knobs.cfg"
    save_config(knobs, path)
    # every field, in field order
    assert path.read_text() == (
        'name = "text"\nlayers = 7\nrate = -0.0025\nflag = true\noff = true\nnote = ""\n'
    )
    # float repr keeps values exact through the round trip
    assert load_config(path, _Knobs) == (knobs,)
