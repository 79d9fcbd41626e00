"""Benchmark of the saw-reader program: one workload per run.

    python3 bench/run.py --workload train-default --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory. With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a separate traced run. The exit code is 1 when a correctness check
fails and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# OpenBLAS spin-waits, so at most one thread per core; fixed before numpy loads
BLAS_THREADS = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")

def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def prepare() -> str | None:
    """Fix the BLAS thread count and import the program from the checkout.

    Returns what is wrong when there is no program to measure.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    package = os.path.join(SRC, "sawreader")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return f"no program to measure: {package} is missing"
    sys.path.insert(0, SRC)
    import sawreader

    if os.path.dirname(os.path.abspath(sawreader.__file__)) != package:
        return f"imported sawreader from {sawreader.__file__}, not {package}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = prepare()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print("host " + json.dumps(host_facts()))
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORKDIR)
    for err in out["errors"]:
        print(f"failed operation: {err}")
    for failure in out["failures"]:
        print(f"check failed: {failure}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        measured, shares = out["tracer"].metrics()
        measured["trace.untraced_examples_per_s"] = out["examples_per_s"]
        measured["trace.traced_examples_per_s"] = out["traced_examples_per_s"]
        measured["trace.overhead_ratio"] = out["examples_per_s"] / out["traced_examples_per_s"]
        for function, span in out["tracer"].unmeasured:
            print(f"unmeasured: {span}: {function} no longer exists")
        for name, share in shares.items():
            print(f"share of timed wall time: {name} {share:.4f}")
    else:
        measured = out
    metrics = {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
        for m in declared
        if m["name"] in measured
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
