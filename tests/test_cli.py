"""End-to-end command line runs against temporary directories."""

import csv
import errno
import json
import os

import pytest

from sawreader import harness
from sawreader.cli import _parse_sweep_values, main
from sawreader.data import ClozeExample, load_dataset, save_dataset
from sawreader.training import TrainHistory

TINY_CONFIG = """
integration_op = "mul"
num_layers = 1
hidden = 4
word_dim = 4
subword_dim = 4
gamma = 0.9
num_merges = 20
dropout = 0.0
batch_size = 8
base_lr = 0.01
epochs = 1
seed = 0
"""


@pytest.fixture()
def workspace(tmp_path):
    data_dir = tmp_path / "data"
    rc = main(
        [
            "gen-data",
            "--out",
            str(data_dir),
            "--vocab-size",
            "24",
            "--entity-pool",
            "6",
            "--doc-len",
            "10:16",
            "--num",
            "30",
            "--seed",
            "4",
        ]
    )
    assert rc == 0
    config_path = tmp_path / "reader.cfg"
    config_path.write_text(TINY_CONFIG)
    return tmp_path, data_dir, config_path


def test_gen_data_writes_splits(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = main(
        ["gen-data", "--out", str(data_dir), "--num", "30", "--doc-len", "10:16", "--seed", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "train=24" in out and "valid=3" in out and "test=3" in out
    for split, count in (("train", 24), ("valid", 3), ("test", 3)):
        examples = load_dataset(data_dir / f"{split}.jsonl")
        assert len(examples) == count


def test_gen_data_seed_env_override(tmp_path):
    args = ["gen-data", "--out", None, "--num", "30", "--doc-len", "10:14", "--seed", "0"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    args[2] = str(out_a)
    assert main(args) == 0
    os.environ["SAW_SEED"] = "9"
    try:
        args[2] = str(out_b)
        assert main(args) == 0
    finally:
        del os.environ["SAW_SEED"]
    args = ["gen-data", "--out", str(out_c), "--num", "30", "--doc-len", "10:14", "--seed", "9"]
    assert main(args) == 0
    assert (out_b / "train.jsonl").read_text() == (out_c / "train.jsonl").read_text()
    assert (out_a / "train.jsonl").read_text() != (out_b / "train.jsonl").read_text()


def test_bpe_train_and_segment(tmp_path, capsys):
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text("abab\t4\nab\t2\n")
    table = tmp_path / "merges.txt"
    assert main(["bpe-train", "--input", str(freqs), "--merges", "2", "--out", str(table)]) == 0
    assert "2 merges" in capsys.readouterr().out
    assert main(["segment", "--table", str(table), "--word", "ababab"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.replace(" ", "") == "ababab"


def test_bpe_train_says_when_it_runs_out_of_pairs(tmp_path, capsys):
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text("ab\t3\n")
    table = tmp_path / "merges.txt"
    assert main(["bpe-train", "--input", str(freqs), "--merges", "1000", "--out", str(table)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {table} (1 of 1000 merges: no pair left to merge)\n"
    )
    assert main(["bpe-train", "--input", str(freqs), "--merges", "1", "--out", str(table)]) == 0
    assert capsys.readouterr().out == f"wrote {table} (1 merges)\n"


def test_vocab_command(workspace, capsys):
    tmp_path, data_dir, _ = workspace
    out_dir = tmp_path / "vocab"
    rc = main(
        [
            "vocab",
            "--input",
            str(data_dir / "train.jsonl"),
            "--gamma",
            "0.5",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    assert os.listdir(out_dir) == ["vocab.tsv"]
    assert "kept at gamma=0.5" in capsys.readouterr().out


def test_train_eval_predict_cycle(workspace, capsys):
    tmp_path, data_dir, config_path = workspace
    ckpt = tmp_path / "ckpt"
    rc = main(
        ["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(ckpt)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch 1" in out and "saved checkpoint" in out
    for name in (
        "reader.cfg",
        "merges.txt",
        "vocab.tsv",
        "params.bin",
        "params.manifest",
        "history.csv",
    ):
        assert (ckpt / name).exists(), name
    assert not (ckpt / "shortlist.tsv").exists()
    assert not (ckpt / "subwords.tsv").exists()

    per_example = tmp_path / "eval.csv"
    rc = main(
        [
            "eval",
            "--model",
            str(ckpt),
            "--input",
            str(data_dir / "test.jsonl"),
            "--out",
            str(per_example),
        ]
    )
    assert rc == 0
    summary = capsys.readouterr().out
    assert "examples\t3" in summary
    assert "accuracy\t" in summary
    assert "oov_total\t0" in summary
    assert "oov_accuracy\tn/a" in summary
    rows = per_example.read_text().strip().split("\n")
    assert rows[0] == "id,gold,predicted,correct,oov_answer"
    assert len(rows) == 4

    pred_path = tmp_path / "preds.jsonl"
    rc = main(
        [
            "predict",
            "--model",
            str(ckpt),
            "--input",
            str(data_dir / "test.jsonl"),
            "--out",
            str(pred_path),
        ]
    )
    assert rc == 0
    preds = [json.loads(line) for line in pred_path.read_text().strip().split("\n")]
    assert len(preds) == 3
    for p in preds:
        assert set(p) == {"id", "answer", "top5"}
        assert len(p["top5"]) <= 5
        probs = [v for _, v in p["top5"]]
        assert probs == sorted(probs, reverse=True)
        assert p["answer"] == p["top5"][0][0]

    dump_path = tmp_path / "attn.tsv"
    rc = main(
        [
            "attn-dump",
            "--model",
            str(ckpt),
            "--input",
            str(data_dir / "test.jsonl"),
            "--id",
            preds[0]["id"],
            "--layer",
            "1",
            "--out",
            str(dump_path),
        ]
    )
    assert rc == 0
    dump = dump_path.read_text()
    assert dump.startswith("layer\t1\n")
    alpha_rows = [l for l in dump.split("\n") if l.startswith("alpha\t")]
    for row in alpha_rows:
        values = [float(v) for v in row.split("\t")[3:]]
        assert abs(sum(values) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "interrupt", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()]
)
def test_interrupted_train_leaves_previous_checkpoint_and_history(
    workspace, monkeypatch, interrupt
):
    tmp_path, data_dir, config_path = workspace
    ckpt = tmp_path / "ckpt"
    train = ["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(ckpt)]
    assert main(train) == 0
    saved = {name: (ckpt / name).read_bytes() for name in os.listdir(ckpt)}
    assert "history.csv" in saved and "params.bin" in saved

    def torn_save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,lr")
        raise interrupt

    # another seed trains other parameters and another history
    monkeypatch.setenv("SAW_SEED", "1")
    monkeypatch.setattr(TrainHistory, "save", torn_save)
    if isinstance(interrupt, OSError):
        assert main(train) == 1
    else:
        with pytest.raises(KeyboardInterrupt):
            main(train)
    monkeypatch.undo()

    assert sorted(os.listdir(ckpt)) == sorted(saved)
    for name, data in saved.items():
        assert (ckpt / name).read_bytes() == data, name
    # uninterrupted, the same run replaces both
    monkeypatch.setenv("SAW_SEED", "1")
    assert main(train) == 0
    for name in ("params.bin", "history.csv"):
        assert (ckpt / name).read_bytes() != saved[name], name


def test_sweep_command(workspace, tmp_path):
    _, data_dir, config_path = workspace
    out_csv = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--axis",
            "op",
            "--values",
            "concat,sum,mul",
            "--config",
            str(config_path),
            "--data",
            str(data_dir),
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "axis,value,subword_vocab_size,valid_accuracy,test_accuracy"
    assert [l.split(",")[1] for l in lines[1:]] == ["concat", "sum", "mul"]


def test_sweep_values_take_the_swept_field_type():
    assert _parse_sweep_values("merges", "0, 10") == [0, 10]
    assert _parse_sweep_values("gamma", "1,0.5") == [1.0, 0.5]
    assert [type(v) for v in _parse_sweep_values("gamma", "1")] == [float]
    assert _parse_sweep_values("op", "concat,mul") == ["concat", "mul"]
    with pytest.raises(ValueError):
        _parse_sweep_values("merges", "1.5")
    with pytest.raises(ValueError, match="non-empty"):
        _parse_sweep_values("op", " , ")


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("gamma", "0.9,1.5", "--axis gamma --values entry '1.5': invalid filter ratio: 1.5"),
        (
            "merges",
            "10,abc",
            "--axis merges --values entry 'abc': "
            "invalid literal for int() with base 10: 'abc'",
        ),
    ],
)
def test_sweep_rejects_a_bad_value_before_training(
    workspace, monkeypatch, capsys, axis, values, message
):
    _, data_dir, config_path = workspace
    trained = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(args))
    rc = main(
        ["sweep", "--axis", axis, "--values", values, "--config", str(config_path),
         "--data", str(data_dir)]
    )
    assert rc == 1
    assert trained == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_eval_csv_quotes_commas_and_quotes(workspace, capsys):
    tmp_path, data_dir, config_path = workspace
    ckpt = tmp_path / "ckpt"
    assert main(
        ["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(ckpt)]
    ) == 0
    examples = [
        ClozeExample("q,1", ("a,b", 'say"hi"', "a,b"), ("<blank>", "x"), "a,b"),
        ClozeExample('say "hi"', ('"q"', "c,d,"), ("<blank>",), '"q"'),
    ]
    data = tmp_path / "odd.jsonl"
    save_dataset(data, examples)
    out = tmp_path / "odd.csv"
    assert main(["eval", "--model", str(ckpt), "--input", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "gold", "predicted", "correct", "oov_answer"]
    assert [row[:2] for row in rows[1:]] == [[ex.id, ex.answer] for ex in examples]
    for row, ex in zip(rows[1:], examples):
        assert row[2] in ex.document
        assert row[3] == str(int(row[2] == ex.answer))
        assert row[4] in ("0", "1")


def test_error_paths_exit_one(tmp_path, capsys):
    rc = main(["eval", "--model", str(tmp_path / "nope"), "--input", str(tmp_path / "x.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "document": "x", "query": "no placeholder"}\n')
    rc = main(["vocab", "--input", str(bad), "--out", str(tmp_path / "v")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: bad.jsonl line 1: query must contain exactly one <blank>, found 0\n"

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("hidden = \n")
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path), "--out", str(tmp_path / "c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: bad.cfg line 1: expected key = value, got 'hidden = '\n"

    # a repeated word would silently train on its last count
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text("ab\t5\nab\t1\ncd\t2\n")
    table = tmp_path / "merges.txt"
    rc = main(["bpe-train", "--input", str(freqs), "--merges", "2", "--out", str(table)])
    assert rc == 1
    assert capsys.readouterr().err == "error: freqs.tsv line 2: duplicate word 'ab'\n"
    assert not table.exists()

    for doc_len in ("banana", "a:b", "1.5:20"):
        rc = main(["gen-data", "--out", str(tmp_path / "g"), "--doc-len", doc_len])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: doc-len must look like LO:HI with integer LO and HI,"
            f" got {doc_len!r}\n"
        )
    for doc_len in ("40:20", "0:0", "1:2"):
        rc = main(["gen-data", "--out", str(tmp_path / "g"), "--doc-len", doc_len])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: doc-len must satisfy 8 <= LO <= HI, got {doc_len!r}\n"
        )
    assert not (tmp_path / "g").exists()


def test_per_gate_checkpoint_fails_eval_with_one_error_line(workspace, capsys):
    # checkpoints from before the gates were stacked named each gate
    # (W_r ... b_h); they are not converted, and loading one must say where
    # it went wrong
    tmp_path, data_dir, config_path = workspace
    ckpt = tmp_path / "ckpt"
    rc = main(["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(ckpt)])
    assert rc == 0
    lines = []
    for line in (ckpt / "params.manifest").read_text().splitlines():
        name, dims = line.split("\t")
        if not name.endswith(("fwd/W", "fwd/U", "fwd/b", "bwd/W", "bwd/U", "bwd/b")):
            lines.append(line)
            continue
        rows, *rest = dims.split(",")
        gate_dims = ",".join([str(int(rows) // 3)] + rest)
        lines += [f"{name}_{g}\t{gate_dims}" for g in "rzh"]
    (ckpt / "params.manifest").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["eval", "--model", str(ckpt), "--input", str(data_dir / "test.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: params.manifest line 3:")
    assert "'sub_enc/fwd/W_r'" in err


def test_corrupt_merge_table_fails_eval_with_one_error_line(workspace, capsys):
    tmp_path, data_dir, config_path = workspace
    ckpt = tmp_path / "ckpt"
    rc = main(["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(ckpt)])
    assert rc == 0
    lines = (ckpt / "merges.txt").read_text().splitlines()
    lines[2] = lines[2].replace("\t", " ")
    (ckpt / "merges.txt").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["eval", "--model", str(ckpt), "--input", str(data_dir / "test.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: merges.txt line 3: expected left<TAB>right")


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    _, data_dir, _ = workspace
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_CONFIG + "warp_speed = 9\n")
    rc = main(["train", "--config", str(config), "--data", str(data_dir), "--out", str(tmp_path / "c")])
    assert rc == 1
    lineno = len(TINY_CONFIG.splitlines()) + 1
    assert capsys.readouterr().err == (
        f"error: bad.cfg line {lineno}: unknown config key 'warp_speed'\n"
    )


# (line of TINY_CONFIG, its replacement, the error after "<file> line <n>: ")
BAD_VALUES = [
    ("hidden = 4", "hidden = 1.5", "hidden must be an integer, got 1.5"),
    ("epochs = 1", "epochs = 2.0", "epochs must be an integer, got 2.0"),
    ("num_layers = 1", 'num_layers = "3"', 'num_layers must be an integer, got "3"'),
    ("dropout = 0.0", 'dropout = "0.1"', 'dropout must be a number, got "0.1"'),
    ("batch_size = 8", "batch_size = true", "batch_size must be an integer, got true"),
    ("base_lr = 0.01", "base_lr = nan", "base_lr must be finite and positive, got nan"),
    ("seed = 0", "seed = -1", "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("line, bad, message", BAD_VALUES, ids=[b for _, b, _ in BAD_VALUES])
def test_bad_config_value_fails_train_naming_file_and_line(
    workspace, tmp_path, capsys, line, bad, message
):
    _, data_dir, _ = workspace
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_CONFIG.replace(line, bad))
    capsys.readouterr()
    rc = main(["train", "--config", str(config), "--data", str(data_dir), "--out", str(tmp_path / "c")])
    assert rc == 1
    lineno = TINY_CONFIG.splitlines().index(line) + 1
    assert capsys.readouterr().err == f"error: bad.cfg line {lineno}: {message}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "edit, lineno, message",
    [
        (lambda text: text.replace("hidden = 4", "hidden = 8.0"), 3, "hidden must be an integer, got 8.0"),
        (lambda text: text + "mystery_knob = 3\n", 9, "unknown config key 'mystery_knob'"),
    ],
    ids=["mistyped", "unknown"],
)
def test_bad_checkpoint_config_fails_eval_naming_file_and_line(
    workspace, capsys, edit, lineno, message
):
    tmp_path, data_dir, config_path = workspace
    ckpt = tmp_path / "ckpt"
    rc = main(["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(ckpt)])
    assert rc == 0
    cfg = ckpt / "reader.cfg"
    cfg.write_text(edit(cfg.read_text()))
    capsys.readouterr()
    rc = main(["eval", "--model", str(ckpt), "--input", str(data_dir / "test.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: reader.cfg line {lineno}: {message}\n"


def test_bad_seed_env_is_an_error(workspace, tmp_path, capsys):
    _, data_dir, config_path = workspace
    for raw in ("not-a-number", "-3"):
        os.environ["SAW_SEED"] = raw
        try:
            rc = main(
                ["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(tmp_path / "c")]
            )
        finally:
            del os.environ["SAW_SEED"]
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: SAW_SEED must be a non-negative integer, got {raw!r}\n"
        )


def test_non_finite_learning_rate_fails_train_with_one_error_line(
    workspace, tmp_path, capsys
):
    _, data_dir, _ = workspace
    config = tmp_path / "nan.cfg"
    config.write_text(TINY_CONFIG.replace("base_lr = 0.01", "base_lr = nan"))
    rc = main(["train", "--config", str(config), "--data", str(data_dir), "--out", str(tmp_path / "c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "base_lr" in err
    assert not (tmp_path / "c").exists()
