"""Child process of the benchmark; ``run.py`` starts it, one mode per process.

    python3 bench/bench_worker.py setup  --workload W --seed S --result FILE
    python3 bench/bench_worker.py timed  --workload W --seed S --result FILE \\
        --out DIR --budget SECONDS [--min-units N] [--jobs J] [--first-only]
    python3 bench/bench_worker.py traced ... (same options as timed)

``setup`` times a fresh import of ``mef.cli`` plus building the run
config. ``timed`` and ``traced`` run workload units through the public
entry point ``mef.cli.main`` until ``--budget`` seconds have passed and at
least ``--min-units`` units ran, each unit writing into its own directory
under ``--out``. After each unit they time a calibration loop and pause
until a line arrives on standard input. ``traced`` installs the tracer first and removes it
afterwards; ``timed`` refuses to run while any tracer wrapper is
installed. The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import bench_trace
import bench_workloads

# Line a timed or traced worker prints after each unit before it waits
# for "go" on standard input.
UNIT_DONE = "bench-unit-done"
# About 0.1 s of calibration after each unit (see _calibration_s).
CALIBRATION_ITERATIONS = 8000
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _setup(args) -> dict:
    start = time.perf_counter()
    import mef.cli  # noqa: F401
    imported = time.perf_counter()
    from importlib import resources

    from mef.config import build_run_config, parse_config_text

    raw = {}
    if args.workload != "check-fine":
        text = resources.files("mef").joinpath("configs", "noisy.cfg").read_text()
        raw = parse_config_text(text)
    raw["seed"] = str(bench_workloads.units(args.workload, args.seed)[0].seeds[0])
    build_run_config(raw)
    done = time.perf_counter()
    return {"import_s": imported - start, "setup_s": done - start}


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _execute(call, argv: list[str]) -> dict:
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = call(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crashing unit is a failed run, not a crashed benchmark
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "stdout": buf.getvalue(), "error": error}


def _calibration_s() -> float:
    """Time of a fixed loop of small numpy solves and interpreter work.

    It never touches mef, so a change to the program cannot move it: it
    measures how fast the host runs at the moment."""
    import numpy

    a = numpy.array([[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.5, 0.0],
                     [0.0, 0.5, 2.0, 0.1], [0.0, 0.0, 0.1, 1.0]])
    b = numpy.array([1.0, 2.0, 3.0, 4.0])
    x = b.copy()
    start = time.perf_counter()
    for _ in range(CALIBRATION_ITERATIONS):
        x = numpy.linalg.solve(a, x + b)
        y = a @ x
        x = y / float(numpy.linalg.norm(y))
    return time.perf_counter() - start


def _pause() -> None:
    """Tell run.py that a unit ended and wait until it says to go on."""
    print(UNIT_DONE, flush=True)
    sys.stdin.readline()


def _loop(args, units, call) -> list[dict]:
    """Run units until ``--budget`` seconds of unit time have passed.
    After each unit, time the calibration loop and pause; neither counts
    as unit time."""
    outcomes = []
    spent = 0.0
    k = 0
    while k < args.min_units or spent < args.budget:
        index = 0 if args.first_only else k % len(units)
        argv = units[index].argv(os.path.join(args.out, str(k)), args.jobs)
        start = time.perf_counter()
        gc.collect()
        outcome = _execute(lambda a, k=k: call(k, a), argv)
        spent += time.perf_counter() - start
        outcome["input"] = index
        outcome["calibration_s"] = _calibration_s()
        outcomes.append(outcome)
        _pause()
        k += 1
    return outcomes


def _run(args) -> dict:
    import mef
    import mef.cli
    from mef.simulation import CSV_HEADER

    if not os.path.abspath(mef.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported mef from {mef.__file__}, not from {SRC}")
    units = bench_workloads.units(args.workload, args.seed)
    if args.mode == "timed":
        bench_trace.assert_clean()
    warm = _execute(mef.cli.main, units[0].warmup().argv(os.path.join(args.out, "warmup")))
    result = {"warmup": warm, "csv_header": CSV_HEADER, "env": _environment()}
    if args.mode == "timed":
        result["units"] = _loop(args, units, lambda k, argv: mef.cli.main(argv))
        bench_trace.assert_clean()
    else:
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            result["units"] = _loop(
                args, units, lambda k, argv: tracer.run_unit(k, mef.cli.main, argv))
        finally:
            tracer.uninstall()
        bench_trace.assert_clean()
        result["stats"] = bench_trace.summarize(tracer.spans)
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    # ru_maxrss is in KiB on Linux; children are the sweep's pool workers.
    result["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-units", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=bench_workloads.SWEEP_JOBS)
    parser.add_argument("--first-only", action="store_true")
    args = parser.parse_args()
    result = _setup(args) if args.mode == "setup" else _run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
