"""README's config documentation and quoted numbers against the code."""

import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

from sawreader import cli
from sawreader.configio import load_config
from sawreader.data import load_dataset
from sawreader.harness import evaluate, new_model
from sawreader.reader import ReaderConfig
from sawreader.training import TrainConfig, train

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
CONFIG_SECTION = README.split("## Config format\n", 1)[1].split("\n## ", 1)[0]


def _quickstart_configs(tmp_path) -> tuple[ReaderConfig, TrainConfig]:
    match = re.search(r"cat > reader\.cfg <<'EOF'\n(.*?\n)EOF\n", README, re.DOTALL)
    assert match, "README quickstart has no reader.cfg heredoc"
    path = tmp_path / "reader.cfg"
    path.write_text(match.group(1))
    return load_config(path, ReaderConfig, TrainConfig)


def test_readme_quickstart_config_loads(tmp_path):
    reader_cfg, train_cfg = _quickstart_configs(tmp_path)
    assert reader_cfg == ReaderConfig(
        num_layers=2, hidden=16, word_dim=16, subword_dim=16, num_merges=100, dropout=0.0
    )
    assert train_cfg == TrainConfig(batch_size=8, base_lr=0.04, epochs=10, seed=0)


def test_readme_config_format_names_every_field():
    for cls in (ReaderConfig, TrainConfig):
        for f in fields(cls):
            assert f"`{f.name}`" in CONFIG_SECTION, f.name


def _listed_keys(lead: str) -> set[str]:
    """The backticked keys of the sentence that starts with lead, leaving
    out parenthesized notes such as the values a key may take."""
    sentence = re.split(r"\.\s", CONFIG_SECTION.split(lead, 1)[1], maxsplit=1)[0]
    sentence = re.sub(r"\(.*?\)(?=[,.]|$)", "", sentence, flags=re.DOTALL)
    return set(re.findall(r"`([^`]+)`", sentence))


def test_readme_config_format_names_no_rejected_key():
    for lead, cls in (("Model keys:", ReaderConfig), ("Training keys:", TrainConfig)):
        assert _listed_keys(lead) == {f.name for f in fields(cls)}, lead


def test_readme_first_epoch_accuracies_hold(tmp_path, monkeypatch):
    match = re.search(r"saw gen-data (.*?)\n\n", README, re.DOTALL)
    assert match, "README quickstart has no gen-data command"
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-data", *shlex.split(match.group(1).replace("\\\n", " "))]) == 0
    quoted = re.search(
        r"`train_acc` reads ([0-9.]+), and an\s+eval-mode pass over the train split "
        r"reads ([0-9.]+)\.",
        README,
    )
    assert quoted, "README quotes no first-epoch accuracies"
    reader_cfg, train_cfg = _quickstart_configs(tmp_path)
    train_set = load_dataset("data/train.jsonl")
    valid_set = load_dataset("data/valid.jsonl")
    model = new_model(train_set, reader_cfg, seed=train_cfg.seed)
    history = train(model, train_set, valid_set, replace(train_cfg, epochs=1))
    assert history.rows[0].train_acc == float(quoted.group(1))
    assert evaluate(model, train_set).accuracy == float(quoted.group(2))
