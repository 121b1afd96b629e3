"""camsched benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload paper-m10 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports camsched from ./src.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a run whose layer functions are wrapped in spans. `--workload all`
runs every workload in turn, each in its own process.

A table goes to stdout and the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The full result document
(host block, sample counts, quality figures, correctness-gate findings) is
written to perfbench/out/. The exit code is 0 only if the gate passed.
"""

from __future__ import annotations

import os

# one thread per process: pin BLAS before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description="camsched benchmark")
    parser.add_argument("--workload", required=True, help="a workload name or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args, names) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    merged: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "camsched" / "__init__.py").is_file():
        print(f"error: no camsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    import bench

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    try:
        doc = bench.run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), work, OUT / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc["host"] = bench.host_block(ROOT)
    doc["workload_why"] = WORKLOADS[args.workload].why
    doc["workload_loads"] = WORKLOADS[args.workload].loads
    doc["correct"] = not doc["gate"]
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    bench.print_table(doc)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": doc["units"][name]}
                    for name, value in doc["metrics"].items()},
    }))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
