"""Command line entry point.

Every command exits 0 on success. Failures print a single
"error: <message>" line to stderr and exit 1. The SAW_SEED environment
variable overrides the seed for gen-data, train, and sweep.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace

from .bpe import MergeTable, segment_word, train_bpe
from .configio import load_config
from .data import DatasetError, load_dataset, save_dataset
from .harness import SWEEP_AXES, dump_attention, evaluate, new_model, sweep, sweep_csv
from .reader import ReaderConfig, load_model, save_model, top_candidates
from .synth import MIN_DOC_LEN, SyntheticSpec, generate_synthetic
from .training import TrainConfig, eval_passes, train
from .vocab import build_short_list, build_vocab, read_word_counts


def _seed_override() -> int | None:
    raw = os.environ.get("SAW_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ValueError(f"SAW_SEED must be a non-negative integer, got {raw!r}")
    return seed


def _write_or_stdout(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_bpe_train(args) -> int:
    counts = {word: count for _, word, count in read_word_counts(args.input)}
    table = train_bpe(counts, args.merges)
    table.save(args.out)
    if table.num_merges < args.merges:
        print(
            f"wrote {args.out} ({table.num_merges} of {args.merges} merges: "
            "no pair left to merge)"
        )
    else:
        print(f"wrote {args.out} ({table.num_merges} merges)")
    return 0


def _cmd_segment(args) -> int:
    table = MergeTable.load(args.table)
    seg = segment_word(args.word, table)
    print(" ".join(seg.subwords))
    return 0


def _cmd_vocab(args) -> int:
    examples = load_dataset(args.input, require_answer=False)
    corpus = (seq for ex in examples for seq in (ex.document, ex.query))
    vocab = build_vocab(corpus)
    short_list = build_short_list(vocab, args.gamma)
    os.makedirs(args.out, exist_ok=True)
    vocab.save(os.path.join(args.out, "vocab.tsv"))
    print(
        f"wrote {args.out}: {vocab.size} words, "
        f"{short_list.kept_count} kept at gamma={args.gamma}"
    )
    return 0


def _parse_len_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(
            f"doc-len must look like LO:HI with integer LO and HI, got {text!r}"
        ) from None
    if lo < MIN_DOC_LEN or hi < lo:
        raise ValueError(f"doc-len must satisfy {MIN_DOC_LEN} <= LO <= HI, got {text!r}")
    return lo, hi


def _cmd_gen_data(args) -> int:
    seed = _seed_override()
    spec = SyntheticSpec(
        vocab_size=args.vocab_size,
        entity_pool=args.entity_pool,
        doc_len_range=_parse_len_range(args.doc_len),
        num_examples=args.num,
        oov_rate=args.oov_rate,
        seed=args.seed if seed is None else seed,
    )
    splits = generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    for split, examples in splits.items():
        save_dataset(os.path.join(args.out, f"{split}.jsonl"), examples)
    counts = ", ".join(f"{k}={len(v)}" for k, v in splits.items())
    print(f"wrote {args.out}: {counts}")
    return 0


def _load_configs(path) -> tuple[ReaderConfig, TrainConfig]:
    """The model and training configs of a config file, with SAW_SEED applied."""
    reader_cfg, train_cfg = load_config(path, ReaderConfig, TrainConfig)
    seed = _seed_override()
    if seed is not None:
        train_cfg = replace(train_cfg, seed=seed)
    return reader_cfg, train_cfg


def _load_split(data_dir: str, split: str):
    return load_dataset(os.path.join(data_dir, f"{split}.jsonl"))


def _cmd_train(args) -> int:
    reader_cfg, train_cfg = _load_configs(args.config)
    train_set = _load_split(args.data, "train")
    valid_set = _load_split(args.data, "valid")
    model = new_model(train_set, reader_cfg, seed=train_cfg.seed)

    def log(row):
        print(
            f"epoch {row.epoch} lr {row.lr:g} loss {row.train_loss:.4f} "
            f"train_acc {row.train_acc:.4f} valid_acc {row.valid_acc:.4f}"
        )

    history = train(model, train_set, valid_set, train_cfg, log=log)
    save_model(model, args.out, history)
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    examples = load_dataset(args.input)
    report = evaluate(model, examples)
    lines = [
        f"examples\t{len(report.results)}",
        f"accuracy\t{report.accuracy!r}",
        f"in_vocab_total\t{report.in_vocab_total}",
        f"in_vocab_accuracy\t{_fmt_opt(report.in_vocab_accuracy)}",
        f"oov_total\t{report.oov_total}",
        f"oov_accuracy\t{_fmt_opt(report.oov_accuracy)}",
    ]
    print("\n".join(lines))
    if args.out:
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("id", "gold", "predicted", "correct", "oov_answer"))
        for r in report.results:
            writer.writerow(
                (r.id, r.gold, r.predicted, int(r.correct), int(r.oov_answer))
            )
        _write_or_stdout(text.getvalue(), args.out)
    return 0


def _fmt_opt(value: float | None) -> str:
    return "n/a" if value is None else repr(value)


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    examples = load_dataset(args.input, require_answer=False)
    lines = []
    for fp in eval_passes(model, examples):
        top5 = top_candidates(fp.dist, 5)
        row = {
            "id": fp.example.id,
            "answer": top5[0],
            "top5": [[w, fp.dist.per_candidate[w]] for w in top5],
        }
        lines.append(json.dumps(row))
    _write_or_stdout("\n".join(lines) + "\n", args.out)
    return 0


def _parse_sweep_values(axis: str, raw: str) -> list:
    """The --values entries as the swept field's type, each checked against
    the field's range checks, so a bad entry fails before any training."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("sweep values must be a non-empty comma-separated list")
    field = SWEEP_AXES[axis]
    defaults = ReaderConfig()
    kind = type(getattr(defaults, field))
    values = []
    for part in parts:
        try:
            value = kind(part)
            replace(defaults, **{field: value})
        except ValueError as err:
            raise ValueError(f"--axis {axis} --values entry {part!r}: {err}") from None
        values.append(value)
    return values


def _cmd_sweep(args) -> int:
    reader_cfg, train_cfg = _load_configs(args.config)
    values = _parse_sweep_values(args.axis, args.values)
    splits = {split: _load_split(args.data, split) for split in ("train", "valid", "test")}

    def log(row):
        print(
            f"{row.axis}={row.value}: subwords {row.subword_vocab_size} "
            f"valid {row.valid_accuracy:.4f} test {row.test_accuracy:.4f}"
        )

    rows = sweep(args.axis, values, splits, reader_cfg, train_cfg, log=log)
    _write_or_stdout(sweep_csv(rows), args.out)
    return 0


def _cmd_attn_dump(args) -> int:
    model = load_model(args.model)
    examples = load_dataset(args.input, require_answer=False)
    matches = [ex for ex in examples if ex.id == args.id]
    if not matches:
        raise ValueError(f"no example with id {args.id!r} in {args.input}")
    dump = dump_attention(model, matches[0], args.layer)
    _write_or_stdout(dump.to_text(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saw",
        description="Subword-augmented cloze reader: tokenization, training, inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bpe-train", help="learn merge rules from a frequency table")
    p.add_argument("--input", required=True, help="word<TAB>count tsv")
    p.add_argument("--merges", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bpe_train)

    p = sub.add_parser("segment", help="segment one word with a merge table")
    p.add_argument("--table", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("vocab", help="build vocabulary and short list from a corpus")
    p.add_argument("--input", required=True, help="dataset jsonl")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_vocab)

    p = sub.add_parser("gen-data", help="generate a synthetic cloze corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vocab-size", type=int, default=80)
    p.add_argument("--entity-pool", type=int, default=20)
    p.add_argument("--doc-len", default="20:40", help="LO:HI token range")
    p.add_argument("--num", type=int, default=250)
    p.add_argument("--oov-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a reader on a data directory")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--data", required=True, help="directory with train/valid jsonl")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--input", required=True, help="dataset jsonl")
    p.add_argument("--out", help="optional per-example csv")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("predict", help="print answers and top-5 candidates")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("sweep", help="retrain along one config axis")
    p.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="csv output (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("attn-dump", help="dump one example's attention matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--id", required=True, help="example id")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_attn_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, DatasetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
