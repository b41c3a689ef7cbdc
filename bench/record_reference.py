"""Regenerate ``reference.json``: the outputs the correctness gate expects
for the default workload seeds.

    PYTHONPATH=src python3 bench/record_reference.py

Run it only when a change is meant to alter these outputs, and say so in
that change. It covers every mef seed the workloads run at workload seed
0: the ``noisy`` preset at the simulate-noisy and sweep-seeds seeds, and
``check --dt 2.5e-4`` at seed 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import bench_gate
import bench_workloads

NOISY_SEEDS = sorted({seed for workload in ("simulate-noisy", "sweep-seeds")
                      for unit in bench_workloads.units(workload, 0) for seed in unit.seeds})
CHECK_SEEDS = tuple(unit.seeds[0] for unit in bench_workloads.units("check-fine", 0))


def _stdout(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"mef {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def main() -> int:
    from mef.cli import main as mef_main

    reference = {"noisy": {}, "check_fine": {}}
    with tempfile.TemporaryDirectory() as out:
        for seed in NOISY_SEEDS:
            argv = bench_workloads.Unit("simulate", (seed,)).argv(out)
            run = bench_gate.parse_simulate(_stdout(mef_main, argv))
            del run["csv"]
            reference["noisy"][str(seed)] = run
        for seed in CHECK_SEEDS:
            argv = bench_workloads.Unit("check", (seed,)).argv(out)
            result = bench_gate.parse_check(_stdout(mef_main, argv))
            entry = {"steps": result["steps"]}
            entry.update({name: row[0] for name, row in result["rows"].items()})
            reference["check_fine"][str(seed)] = entry
    with open(bench_gate.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(bench_gate.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
