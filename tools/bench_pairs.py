"""Time a parent and a change checkout with ``bench/run.py`` in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload forest_B --workload linear_B --pairs 10 [--out BENCH_<n>.json]

Each pair runs ``python3 <dir>/bench/run.py --workload W --seconds S
--trace 0`` on both checkouts, with S the benchmark's own ``run_seconds``
from ``BENCHMARK.json``, the parent first in odd pairs and the change
first in even ones, so drift in the host's speed falls on both sides.  Make
the parent checkout with ``git archive``; each side times its own sources
with its own benchmark.  A run whose last stdout line does not say
``"correct": true`` stops the script with exit 1.

It prints each pair, then, per end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles (``statistics.quantiles`` with n=4, as
``bench/spread.py`` takes them), the change's wins and ties over the pairs
(by the metric's ``better`` direction) and the change of the medians.  ``--out`` writes that, every run's metrics and
environment stamp and one ``--trace 1`` result per side (layer and cell
metrics) as sorted-key JSON; the checkouts are named by a digest of their
``src/`` trees, never by path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class RunRefused(Exception):
    """A benchmark run that failed, printed no result or was not correct."""


def parse_result(stdout: str) -> dict:
    """A ``bench/run.py`` run's metric values and environment stamp.

    Returns ``{"metrics": {name: value}, "environment": stamp}``.  Raises
    ``RunRefused`` unless the last line is a JSON object whose ``correct``
    is true.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunRefused("no JSON result on the last line") from None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise RunRefused(f"run not correct: {lines[-1]}")
    prefix = "environment: "
    stamps = [json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)]
    return {
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "environment": stamps[-1] if stamps else None,
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and ties.

    ``pairs`` holds ``{"parent": run, "change": run}`` with each run as
    ``parse_result`` returns it; ``end_to_end`` is ``BENCHMARK.json``'s
    list of metrics, each with ``name``, ``unit`` and ``better``.
    """
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        wins = ties = 0
        for old, new in zip(values["parent"], values["change"]):
            ties += new == old
            wins += new < old if lower else new > old
        spread = {side: _spread(values[side]) for side in SIDES}
        before, after = spread["parent"]["median"], spread["change"]["median"]
        summary[name] = {
            **spread,
            "unit": metric["unit"],
            "better": metric["better"],
            "pairs": len(pairs),
            "change_wins": wins,
            "ties": ties,
            "median_change_pct": 100.0 * (after - before) / before if before else None,
            "parent_iqr": spread["parent"]["q3"] - spread["parent"]["q1"],
        }
    return summary


def format_pair(workload: str, index: int, pair: dict, names: list[str]) -> str:
    first = pair["order"][0]
    cells = [f"{name} {pair['parent']['metrics'][name]:.4f} -> "
             f"{pair['change']['metrics'][name]:.4f}" for name in names]
    return f"{workload} pair {index} ({first} first): " + ", ".join(cells)


def format_summary(workload: str, summary: dict) -> list[str]:
    lines = [f"{workload}: median [q1, q3] parent -> change, change wins/ties of pairs"]
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        pct = "n/a" if s["median_change_pct"] is None else f"{s['median_change_pct']:+.2f}%"
        lines.append(
            f"  {name:<14} {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] -> "
            f"{c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}] {s['unit']:<3} {pct:>8}, "
            f"wins {s['change_wins']}/{s['pairs']}, ties {s['ties']}"
        )
    return lines


def source_digest(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of the checkout's ``src/`` files."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_bench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_result(done.stdout)
    except RunRefused as err:
        raise RunRefused(f"{checkout.name}, {workload}, exit {done.returncode}: {err}\n"
                         f"{done.stderr.strip()}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, end_to_end = bench["run_seconds"], bench["end_to_end"]
    names = [metric["name"] for metric in end_to_end]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": "python3 <checkout>/bench/run.py --workload W "
                   f"--seconds {seconds:g} --trace 0",
        "sources": {side: source_digest(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    try:
        for workload in args.workload:
            pairs = []
            for index in range(1, args.pairs + 1):
                order = SIDES if index % 2 else SIDES[::-1]
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = run_bench(checkouts[side], workload, seconds, trace=0)
                pairs.append(pair)
                print(format_pair(workload, index, pair, names), flush=True)
            summary = summarize(pairs, end_to_end)
            print("\n".join(format_summary(workload, summary)), flush=True)
            record["workloads"][workload] = {"pairs": pairs, "summary": summary}
            if args.out:
                record["workloads"][workload]["trace"] = {
                    side: run_bench(checkouts[side], workload, seconds, trace=1)
                    for side in SIDES
                }
    except RunRefused as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
