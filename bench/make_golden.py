"""Regenerate ``golden.json``: pinned stand-in digests and golden output digests.

    python3 bench/make_golden.py [--workload NAME ...]

For every workload and stand-in set, writes the stand-in tables, runs the
grid once untraced and records the sha256 and row count of each input, the
sha256 of the delimited report and of the round log, and one digest per
grid cell, with the Python and numpy versions that produced them.  Run it
only for a change that is meant to alter results, and say so in that
change; the benchmark compares every timed run against this file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(harness.WORKLOADS))
    args = parser.parse_args()
    harness.check_checkout()
    harness.import_fedtab()

    golden = harness.load_golden() if harness.GOLDEN_PATH.is_file() else {"workloads": {}}
    golden["versions"] = harness.versions()
    golden["seed_count"] = harness.SEED_COUNT
    harness.WORK_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(harness.WORKLOADS):
        workload = harness.WORKLOADS[name]
        entries = {}
        for index in range(harness.SEED_COUNT):
            with tempfile.TemporaryDirectory(dir=harness.WORK_DIR) as tmp:
                data_dir, out_dir = Path(tmp) / "data", Path(tmp) / "out"
                inputs = harness.write_standins(workload.tables, index, data_dir)
                run = harness.run_grid(harness.grid_config(workload, data_dir, out_dir), out_dir, False)
            if not run.ok:
                print(f"{name} set {index}: grid run failed", file=sys.stderr)
                return 1
            entries[str(index)] = {"inputs": inputs, **harness.output_digests(run.report, run.round_log)}
            print(f"{name} set {index}: {run.wall_s:.2f} s", file=sys.stderr)
        golden["workloads"][name] = entries
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
