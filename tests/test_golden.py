"""Golden seeded outputs: two seeded training runs against a committed fixture.

Each run trains a fresh model and digests, with SHA-256, the bytes of its
`params.bin`, its `history.csv` and the eval-mode per-position probabilities
of its test split. The bits depend on numpy, on the BLAS kernel and on the
number of BLAS threads (at the default run's shapes, parameters trained with
one OpenBLAS thread differ in the last bits from those trained with two). So
the fixture records numpy's version, OpenBLAS's build and runtime
configuration strings and its thread count:

- where all four match, every digest must match (the bits check);
- elsewhere, the history's numbers and the probabilities must match the
  fixture's to GOLDEN_RTOL and GOLDEN_ATOL (the tolerance check).

The check that ran is printed either way; no environment skips it. A change
that moves seeded outputs on purpose regenerates the fixture with

    PYTHONPATH=src python3 tests/test_golden.py --write

and lists the before and after values in CHANGES.md.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sawreader.harness import new_model
from sawreader.reader import ReaderConfig
from sawreader.synth import SyntheticSpec, generate_synthetic
from sawreader.training import TrainConfig, eval_passes, train

FIXTURE = Path(__file__).with_name("golden.json")
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12

RUNS = {
    # README quickstart corpus and config, 3 of its 10 epochs
    "quickstart": (
        SyntheticSpec(
            vocab_size=80, entity_pool=20, doc_len_range=(12, 24), num_examples=250, seed=5
        ),
        ReaderConfig(
            integration_op="mul", num_layers=2, hidden=16, word_dim=16, subword_dim=16,
            gamma=0.9, num_merges=100, dropout=0.0,
        ),
        TrainConfig(batch_size=8, base_lr=0.04, epochs=3, seed=0),
    ),
    # default config (dropout 0.5) on a corpus whose batches take the
    # two-thread BiGRU path
    "default": (
        SyntheticSpec(num_examples=80, seed=2),
        ReaderConfig(),
        TrainConfig(epochs=2, seed=0),
    ),
}


def _openblas_runtime() -> tuple[str, str]:
    """The running OpenBLAS's configuration (it names the kernel the CPU
    selected, where show_config names the build host's) and its thread
    count, which also moves bits. "?" when this is not numpy's wheel build
    of scipy-openblas."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
            config = lib.scipy_openblas_get_config64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            break
        config.restype = ctypes.c_char_p
        return config().decode(), str(threads())
    return "?", "?"


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime, threads = _openblas_runtime()
    return {
        "numpy": np.__version__,
        "openblas_configuration": blas.get("openblas configuration", "?"),
        "openblas_runtime": runtime,
        "blas_threads": threads,
    }


def run_outputs(name: str, tmp_dir: Path) -> dict:
    """Train run `name` as `saw train` would; digests plus the values the
    tolerance check compares."""
    spec, reader_cfg, train_cfg = RUNS[name]
    splits = generate_synthetic(spec)
    model = new_model(splits["train"], reader_cfg, seed=train_cfg.seed)
    history = train(model, splits["train"], splits["valid"], train_cfg)
    model.params.save(tmp_dir / "params.bin", tmp_dir / "params.manifest")
    probs = [fp.dist.per_position for fp in eval_passes(model, splits["test"])]
    history_csv = history.to_csv()
    sha = lambda data: hashlib.sha256(data).hexdigest()
    return {
        "params_sha256": sha((tmp_dir / "params.bin").read_bytes()),
        "history_sha256": sha(history_csv.encode("utf-8")),
        "per_position_sha256": sha(b"".join(p.tobytes() for p in probs)),
        "history_csv": history_csv,
        "per_position": [p.tolist() for p in probs],
    }


def _history_values(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    return np.array([[float(x) for x in row] for row in rows[1:]])


def tolerance_mismatches(got: dict, want: dict) -> list[str]:
    """What differs beyond GOLDEN_RTOL in the history and the probabilities."""
    bad = []
    h_got, h_want = _history_values(got["history_csv"]), _history_values(want["history_csv"])
    if h_got.shape != h_want.shape or not np.allclose(
        h_got, h_want, rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL
    ):
        bad.append(f"history:\n{got['history_csv']}expected:\n{want['history_csv']}")
    if len(got["per_position"]) != len(want["per_position"]):
        bad.append("per_position: different number of examples")
        return bad
    for i, (p, q) in enumerate(zip(got["per_position"], want["per_position"])):
        p, q = np.asarray(p), np.asarray(q)
        if p.shape != q.shape or not np.allclose(p, q, rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL):
            diff = np.abs(p - q).max() if p.shape == q.shape else "shape"
            bad.append(f"per_position of test example {i}: largest difference {diff}")
    return bad


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_outputs_match_golden_fixture(name, tmp_path, capsys):
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    want = fixture["runs"][name]
    got = run_outputs(name, tmp_path)
    same_env = environment() == fixture["environment"]
    if same_env:
        check = "bits"
        keys = ("params_sha256", "history_sha256", "per_position_sha256")
        bad = [f"{k}: {got[k]} != {want[k]}" for k in keys if got[k] != want[k]]
        if bad:
            bad += tolerance_mismatches(got, want)
    else:
        check = f"tolerance rtol={GOLDEN_RTOL:g} atol={GOLDEN_ATOL:g}"
        bad = tolerance_mismatches(got, want)
    with capsys.disabled():
        print(f"\n[golden {name}] {check} check, {'match' if not bad else 'MISMATCH'}")
    assert not bad, "\n".join(bad)


def write_fixture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_outputs(name, Path(tmp)) for name in sorted(RUNS)}
    # one line per run keeps the file short
    lines = [f"  {json.dumps(name)}: {json.dumps(out)}" for name, out in runs.items()]
    text = (
        f'{{\n "environment": {json.dumps(environment())},\n "runs": {{\n'
        + ",\n".join(lines)
        + "\n }\n}\n"
    )
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    write_fixture()
