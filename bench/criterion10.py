"""Criterion 10 reference: the default single-seed grid at real size, traced.

    python3 bench/criterion10.py

Runs the full default grid (2 tables x 3 models x 4 conditions, 5 round
budgets, seed 0) once on real-size stand-ins (395 and 4424 rows, stand-in
set 0) in traced mode, and writes the total and per-cell seconds against
criterion 10's 600 s budget to ``results/criterion10.json``.  This is not
a gated workload: it takes many minutes, and its figures are informational
and unverified on the real tables, whose timings may differ.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import harness
import spans

BUDGET_S = 600.0
TABLES = {"A": 395, "B": 4424}
RESULT = harness.BENCH_DIR / "results" / "criterion10.json"


def main() -> int:
    harness.check_checkout()
    harness.import_fedtab()
    load_before = os.getloadavg()
    harness.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_DIR) as tmp:
        data_dir, out_dir = Path(tmp) / "data", Path(tmp) / "out"
        inputs = harness.write_standins(TABLES, 0, data_dir)
        config = harness.grid_config(harness.Workload("criterion10", TABLES, {}), data_dir, out_dir)
        run = harness.run_grid(config, out_dir, trace=True, timeout_s=4 * 3600)
    if not run.ok:
        print("criterion 10 grid run failed", file=sys.stderr)
        return 1
    layers = spans.layer_metrics(run.spans, harness.grid_cells())
    result = {
        "status": "informational; unverified on the real tables (stand-ins only)",
        "budget_s": BUDGET_S,
        "traced_wall_s": run.wall_s,
        "within_budget": run.wall_s < BUDGET_S,
        "setup_s": run.setup_s,
        "cpu_s": run.cpu_s,
        "peak_rss_mb": run.peak_rss_mb,
        "inputs": inputs,
        "outputs": {k: v for k, v in harness.output_digests(run.report, run.round_log).items()
                    if k != "cells"},
        "layers": layers,
        "environment": harness.environment_stamp(load_before),
    }
    RESULT.parent.mkdir(exist_ok=True)
    RESULT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"criterion 10 reference: {run.wall_s:.1f} s traced (budget {BUDGET_S:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
