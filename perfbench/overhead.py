"""Tracing overhead: each workload's end-to-end metrics untraced and traced.

Usage: ``python3 perfbench/overhead.py --seed N --seconds S [WORKLOAD ...]``
from the repository root.  Runs ``run.py`` with ``--trace 0`` and then
``--trace 1`` on the same seed and prints, per workload, each end-to-end
metric of both runs and the traced run's change in percent.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    workloads = args.workloads or [workload["name"] for workload in declared]
    print(f"{'workload':<14} {'metric':<16} {'untraced':>12} {'traced':>12} {'change':>8}")
    for workload in workloads:
        records = []
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                print(f"{workload}: run with --trace {trace} failed", file=sys.stderr)
                return 1
            saved = ROOT / ".perfbench_out" / f"{workload}-seed{args.seed}-trace{trace}.json"
            records.append(json.loads(saved.read_text())["end_to_end"])
        for name, plain in records[0].items():
            traced = records[1][name]
            change = (traced - plain) / plain * 100 if plain else 0.0
            print(f"{workload:<14} {name:<16} {plain:>12.5g} {traced:>12.5g} {change:>+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
