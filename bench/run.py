"""fedtab grid benchmark: one workload, timed for a fixed number of seconds.

    python3 bench/run.py --workload forest_B --seed 0 --seconds 30 --trace 0

Closed loop: grid runs go one at a time, each in a fresh process that calls
``fedtab.experiment.run_suite`` on the workload's pinned stand-in tables
(set ``seed % SEED_COUNT``), until the time is up (at least three runs).
Every run's report and round log are checked cell by cell against the
committed golden digests in ``golden.json``.

With ``--trace 0`` the result line holds the end-to-end metrics, medians
over the runs; times are scaled to the reference host's speed by a
calibration loop run before each grid run on the same, pinned CPU.  With ``--trace 1`` it holds the per-layer metrics from two
traced runs, whose counts must repeat exactly, beside untraced runs that
give the tracing overhead.  Human-readable lines go first; the last line
of stdout is one JSON object.  Exit 1 when outputs are wrong, 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import BenchError, Workload

MIN_RUNS = 3
# Median calibrate() time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6).  Times are reported at that host's speed.
CALIB_REF_S = 0.055
SCALED = ("wall_s", "cpu_s", "setup_s")
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cell_ok_share": "1",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _warm_imports() -> None:
    """Load the interpreter and fedtab's imports once, untimed, into the page cache."""
    import subprocess

    done = subprocess.run(
        [sys.executable, "-c", "import fedtab.experiment"],
        env=harness.child_env(), stdout=subprocess.DEVNULL, timeout=60,
    )
    if done.returncode != 0:
        raise BenchError("fedtab does not import")


class Session:
    """The runs of one benchmark invocation and their correctness tally."""

    def __init__(self, workload: Workload, seed_index: int, work: Path, golden: dict) -> None:
        self.workload = workload
        self.data_dir = work / "data"
        self.work = work
        self.expected = golden["workloads"][workload.name][str(seed_index)]
        self.attempted = 0
        self.failed = 0
        self.calib_s: list[float] = []  # one calibration just before each grid run
        self._n = 0

    def run(self, trace: bool) -> harness.GridRun:
        self.calib_s.append(harness.calibrate())
        self._n += 1
        out_dir = self.work / f"run{self._n}"
        config = harness.grid_config(self.workload, self.data_dir, out_dir)
        run = harness.run_grid(config, out_dir, trace)
        shutil.rmtree(out_dir, ignore_errors=True)
        bad = harness.failed_cells(run, self.workload, self.expected)
        self.attempted += len(self.workload.cells())
        self.failed += len(bad)
        if bad:
            print(f"run {self._n}: {len(bad)} cell(s) failed: {', '.join(bad[:6])}", file=sys.stderr)
        return run


def measure(session: Session, seconds: float) -> dict[str, dict]:
    deadline = time.monotonic() + seconds
    runs: list[harness.GridRun] = []
    while len(runs) < MIN_RUNS or (
        time.monotonic() + statistics.median(r.process_s for r in runs) <= deadline
    ):
        runs.append(session.run(trace=False))
    good = [r for r in runs if r.ok] or [harness.GridRun(ok=False)]
    # The host's speed drifts over tens of seconds; scaling the medians by the
    # calibration taken between the grid runs reports them at reference speed.
    speed = CALIB_REF_S / statistics.median(session.calib_s)
    values = {}
    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        samples = sorted(getattr(r, name) for r in good)
        raw = statistics.median(samples)
        values[name] = raw * speed if name in SCALED else raw
        print(f"{session.workload.name:<11} {name:<14} {values[name]:10.4f} "
              f"{END_TO_END_UNITS[name]:<3} (raw median {raw:.4f}, n={len(samples)}, "
              f"min {samples[0]:.4f}, max {samples[-1]:.4f})")
    values["cell_ok_share"] = 1.0 - session.failed / session.attempted
    print(f"{session.workload.name:<11} speed factor   {speed:10.4f}    "
          f"(reference calibration {CALIB_REF_S} s / median {statistics.median(session.calib_s):.4f} s)")
    print(f"{session.workload.name:<11} cell_fail_share       "
          f"{session.failed / session.attempted:.4f} ({session.failed}/{session.attempted} cells)")
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def trace_layers(session: Session, seconds: float) -> dict[str, dict]:
    """Two traced runs around untraced ones; counts must repeat exactly."""
    deadline = time.monotonic() + seconds
    first = session.run(trace=True)
    plain = [session.run(trace=False)]
    while time.monotonic() + first.process_s + plain[0].process_s <= deadline:
        plain.append(session.run(trace=False))
    second = session.run(trace=True)
    if not (first.ok and second.ok and all(r.ok for r in plain)):
        raise BenchError("a traced or untraced grid run failed")

    import spans

    try:
        a = spans.layer_metrics(first.spans, harness.grid_cells())
        b = spans.layer_metrics(second.spans, harness.grid_cells())
    except ValueError as err:
        raise BenchError(f"inconsistent trace: {err}") from None
    moved = [k for k in a if spans.is_count(k) and a[k] != b[k]]
    if moved:
        raise BenchError(f"counts differ between the two traced runs: "
                         f"{ {k: (a[k], b[k]) for k in moved} }")
    merged = {k: a[k] if spans.is_count(k) else (a[k] + b[k]) / 2 for k in a}
    merged["trace.overhead_s"] = merged["trace.wall_s"] - statistics.median(r.wall_s for r in plain)
    layer_sum = sum(merged[f"{layer}.self_s"] for layer in spans.LAYERS)
    print(f"{session.workload.name}: traced wall {merged['trace.wall_s']:.4f} s, layer self "
          f"times sum {layer_sum:.4f} s, overhead {merged['trace.overhead_s']:.4f} s "
          f"over {len(plain)} untraced run(s)")
    for name, value in merged.items():
        if value:
            print(f"  {name:<48} {value:.6g}")
    return {k: _metric(v, spans.unit_of(k)) for k, v in merged.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.check_checkout()
        if args.workload not in harness.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(harness.WORKLOADS)}")
        workload = harness.WORKLOADS[args.workload]
        harness.import_fedtab()
        golden = harness.load_golden()
        seed_index = args.seed % harness.SEED_COUNT
        load_before = os.getloadavg()
        harness.WORK_DIR.mkdir(exist_ok=True)
        cpu = harness.pin_to_one_cpu()
        with tempfile.TemporaryDirectory(dir=harness.WORK_DIR) as tmp:
            session = Session(workload, seed_index, Path(tmp), golden)
            harness.prepare_inputs(workload, seed_index, session.data_dir, golden)
            _warm_imports()
            if args.trace:
                metrics = trace_layers(session, args.seconds)
            else:
                metrics = measure(session, args.seconds)
        stamp = harness.environment_stamp(load_before, cpu)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    print(f"environment: {json.dumps(stamp, sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed} (stand-in set {seed_index}), "
          f"{session.attempted} cells attempted, {session.failed} failed")
    correct = session.failed == 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
