"""README's config documentation against the config loader."""

import re
from dataclasses import fields
from pathlib import Path

from sawreader.configio import load_config
from sawreader.reader import ReaderConfig
from sawreader.training import TrainConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_quickstart_config_loads(tmp_path):
    match = re.search(r"cat > reader\.cfg <<'EOF'\n(.*?\n)EOF\n", README, re.DOTALL)
    assert match, "README quickstart has no reader.cfg heredoc"
    path = tmp_path / "reader.cfg"
    path.write_text(match.group(1))
    reader_cfg, train_cfg = load_config(path, ReaderConfig, TrainConfig)
    assert reader_cfg == ReaderConfig(
        num_layers=2, hidden=16, word_dim=16, subword_dim=16, num_merges=100, dropout=0.0
    )
    assert train_cfg == TrainConfig(batch_size=8, base_lr=0.04, epochs=10, seed=0)


def test_readme_config_format_names_every_field():
    section = README.split("## Config format\n", 1)[1].split("\n## ", 1)[0]
    for cls in (ReaderConfig, TrainConfig):
        for f in fields(cls):
            assert f"`{f.name}`" in section, f.name
