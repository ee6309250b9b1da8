"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --runs 10 [--first-seed 0] [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per seed for each workload, one run at a time, and
reports per metric the median, the quartiles (``statistics.quantiles`` with
n=4) and their distance as a share of the median, beside the metric's bound
from ``BENCHMARK.json``.  With ``--out`` the per-run values and the summary
are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness


def main() -> int:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    for name in workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        summary = {}
        for metric, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bounds[metric], "values": xs}
            print(f"{name:<11} {metric:<14} median {median:10.4f}  spread {spread:7.4f}  "
                  f"bound {bounds[metric]}  [{' '.join(f'{x:.4g}' for x in xs)}]")
        report[name] = summary
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
