"""Benchmark of the mef command line: one workload per invocation.

    python3 bench/run.py --workload simulate-noisy --seed 0 --seconds 45 --trace 0

Run it from the root of a checkout; it uses the sources under ``src/``
and writes only under ``.bench_work/``. Workloads and metrics are
described in ``bench/README.md``.

With ``--trace 0`` it times the workload for ``--seconds`` seconds in a
fresh worker process, runs fresh-process set-up probes in the pauses
between units, and reports the end-to-end metrics rescaled to the
reference host speed. With ``--trace
1`` it runs the workload's first input untraced and then traced, each in
its own process, and reports the per-layer metrics. Every unit run is
checked by the correctness gate in ``bench_gate.py``. Metric lines go to
standard output as ``name: value unit``; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import bench_gate
import bench_worker
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).with_name("bench_worker.py")

SETUP_PROBES = 11
# Time of bench_worker's calibration loop on the reference host in its
# fast state (70-71 ms; see README.md). setup_s and run_s are wall times
# multiplied by CALIBRATION_REF_S / (this run's median calibration time),
# so that they read as seconds on that host at that speed.
CALIBRATION_REF_S = 0.07
# Each invocation must end within 180 s; workers are killed past this.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

# Metrics of the final JSON line, as declared in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "config.build_run_config_ms": "ms",
    "simulation.simulate_truth_ms": "ms",
    "simulation.corrupt_ms": "ms",
    "simulation.epochs": "count",
    "quaternion.build_sample_us": "us",
    "liegroup.adjoint_coords_us": "us",
    "filter.substeps": "count",
    "filter.step_us_per_substep": "us",
    "filter.correction_delta_us": "us",
    "filter.correction_delta_calls": "count",
    "filter.delta_solves_per_substep": "ratio",
    "filter.hessian_rate_us": "us",
    "filter.gradient_rate_us": "us",
    "liegroup.exp_group_us": "us",
    "liegroup.exp_group_calls": "count",
    "liegroup.upsilon_calls": "count",
    "bruteforce.steps": "count",
    "bruteforce.value_calls": "count",
    "trace.overhead_ratio": "ratio",
}
# Per-layer metrics of layers that only some workloads use. They are
# printed ("n/a" where the layer is idle) but kept out of the JSON line,
# which must carry the same metrics on every workload.
PER_LAYER_PRINTED = {
    "cli.sweep_efficiency": "ratio",
    "cli.build_verification_problem_s": "s",
    "simulation.write_csv_ms": "ms",
    "simulation.run_self_us_per_epoch": "us",
    "quaternion.attitude_error_angle_us": "us",
    "filter.value_rate_us": "us",
    "filter.optimality_residual_us": "us",
    "bruteforce.from_substeps_ms": "ms",
    "bruteforce.factor_s": "s",
    "bruteforce.solve_ms": "ms",
    "bruteforce.gradient_hessian_s": "s",
    "bruteforce.critical_point_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _worker(mode: str, args, name: str, deadline: float, *extra: str,
            between=None) -> dict:
    """Run bench_worker.py in its own process group and return its result.

    A timed or traced worker pauses after each unit until it is told to go
    on; ``between()`` runs in that pause, so a set-up probe never shares
    the CPU with a unit."""
    result = WORK / f"{name}.json"
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--result", str(result), *extra]
    with open(WORK / f"{name}.stderr", "w+") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            with proc.stdin, proc.stdout:
                for line in proc.stdout:
                    if line.strip() != bench_worker.UNIT_DONE:
                        continue
                    if between is not None:
                        between()
                    try:
                        proc.stdin.write("go\n")
                        proc.stdin.flush()
                    except BrokenPipeError:
                        pass  # the worker died; its exit code tells why
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        finally:
            proc.wait()
            killer.cancel()
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= deadline:
            raise BenchError(f"{name} worker did not finish before the deadline")
        if proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"{name} worker exited with {proc.returncode}:\n"
                             f"{err.read()[-3000:]}")
    return json.loads(result.read_text())


def _steal_ticks():
    """Host steal ticks from /proc/stat (read-only); None where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(worker_env: dict, steal_before, steal_after) -> dict:
    env = _child_env()
    return {
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "steal_ticks_before": steal_before,
        "steal_ticks_after": steal_after,
    }


class _SetupProbes:
    """Fresh-process set-up probes spread over a worker's run.

    Probe ``i`` is due once ``(i + 0.5) / SETUP_PROBES`` of ``--seconds``
    of unit time has passed and runs in the pause after a unit, so that
    ``setup_s`` samples the same stretch of host time as ``run_s``."""

    def __init__(self, args, deadline: float):
        self.args, self.deadline = args, deadline
        # Fills the bytecode caches; not counted.
        _worker("setup", args, "setup-warm", deadline)
        self.results: list[dict] = []
        self.start = time.monotonic()
        self.paused = 0.0

    def _probe(self) -> None:
        began = time.monotonic()
        name = f"setup{len(self.results)}"
        self.results.append(_worker("setup", self.args, name, self.deadline))
        self.paused += time.monotonic() - began

    def __call__(self) -> None:
        due = (len(self.results) + 0.5) * self.args.seconds / SETUP_PROBES
        unit_time = time.monotonic() - self.start - self.paused
        if len(self.results) < SETUP_PROBES and unit_time >= due:
            self._probe()

    def finish(self) -> list[dict]:
        while len(self.results) < SETUP_PROBES:
            self._probe()
        return self.results


def _gate(units, result: dict, reference: dict, failures: list[str]) -> list[bool]:
    """Gate the warm-up and every unit; return their pass flags, warm-up first."""
    header = result["csv_header"]
    problems = bench_gate.check_unit(units[0].warmup(), result["warmup"], header, reference)
    failures += [f"warmup: {p}" for p in problems]
    passed = [not problems]
    for k, outcome in enumerate(result["units"]):
        problems = bench_gate.check_unit(units[outcome["input"]], outcome, header, reference)
        failures += [f"unit {k}: {p}" for p in problems]
        passed.append(not problems)
    return passed


def _tail(walls: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _host_speed(result: dict, lines: list[str]) -> float:
    """Reference calibration time over this run's median calibration time."""
    calibration = statistics.median(o["calibration_s"] for o in result["units"])
    speed = CALIBRATION_REF_S / calibration
    lines.append(f"calibration_s: {calibration!r} s (median of "
                 f"{len(result['units'])}; reference {CALIBRATION_REF_S} s)")
    lines.append(f"host_speed: {speed!r} ratio")
    return speed


def _timed(args, units, reference, deadline, lines, failures, probes):
    result = _worker("timed", args, "timed", deadline, "--out", str(WORK / "timed"),
                     "--budget", str(args.seconds), "--min-units", "3", between=probes)
    flags = _gate(units, result, reference, failures)
    passed = flags[1:]
    speed = _host_speed(result, lines)
    # A failed unit misses any latency limit: count it as infinitely slow.
    walls = [o["wall_s"] if ok else float("inf") for o, ok in zip(result["units"], passed)]
    run_s = statistics.median(walls)
    if run_s == float("inf"):
        run_s = statistics.median(o["wall_s"] for o in result["units"])
    lines.append(f"run_s_samples: {len(walls)} count")
    lines.append(f"run_s_wall_each: {' '.join(f'{w:.4f}' for w in walls)} s")
    lines.append(f"run_s_wall: {run_s!r} s")
    tail = _tail(walls)
    if tail is None:
        lines.append("run_s_wall_tail: n/a (fewer than 11 samples)")
    else:
        lines.append(f"run_s_wall_p{tail[0]:.0f}: {tail[1]!r} s")
    jobs = bench_workloads.SWEEP_JOBS if units[0].kind == "sweep" else 0
    peak_kb = result["maxrss_self_kb"] + jobs * result["maxrss_children_kb"]
    if units[0].kind == "check":
        for name in bench_gate.CHECK_ROWS:
            values = [bench_gate.parse_check(o["stdout"])["rows"][name][0]
                      for o, ok in zip(result["units"], passed) if ok]
            if values:
                lines.append(f"{name}: {statistics.median(values)!r} (verification row)")
    metrics = {"run_s": run_s * speed, "peak_rss_mb": peak_kb / 1024.0}
    return result, len(flags), flags.count(False), metrics, speed


def _substeps(unit, stdout: str) -> int:
    if unit.kind == "simulate":
        return bench_gate.parse_simulate(stdout)["total_substeps"]
    if unit.kind == "check":
        return bench_gate.parse_check(stdout)["steps"]
    return sum(row["total_substeps"] for row in bench_gate.parse_sweep(stdout))


def _layer_metrics(unit, stats: dict, traced: list[dict], untraced_s: float,
                   import_s: float, sweep_efficiency):
    n = len(traced)
    substeps = _substeps(unit, traced[0]["stdout"])

    def calls(name):
        return stats.get(name, {"calls": 0})["calls"]

    def per_call(name, scale):
        c = calls(name)
        return stats[name]["total_s"] / c * scale if c else None

    epochs = calls("quaternion.build_sample") / n
    value_calls = calls("bruteforce.value_at")
    later_calls = value_calls - calls("bruteforce.value_at.first")
    solve_ms = None
    if later_calls:
        later_s = (stats["bruteforce.value_at"]["total_s"]
                   - stats["bruteforce.value_at.first"]["total_s"])
        solve_ms = later_s / later_calls * 1e3
    run_self = None
    if calls("simulation.run"):
        run_self = stats["simulation.run"]["self_s"] / (epochs * n) * 1e6
    traced_s = statistics.median(o["wall_s"] for o in traced)
    json_metrics = {
        "cli.import_s": import_s,
        "config.build_run_config_ms": per_call("config.build_run_config", 1e3),
        "simulation.simulate_truth_ms": per_call("simulation.simulate_truth", 1e3),
        "simulation.corrupt_ms": per_call("simulation.corrupt", 1e3),
        "simulation.epochs": epochs,
        "quaternion.build_sample_us": per_call("quaternion.build_sample", 1e6),
        "liegroup.adjoint_coords_us": per_call("liegroup.adjoint_coords", 1e6),
        "filter.substeps": substeps,
        "filter.step_us_per_substep": stats["filter.step"]["total_s"] / (substeps * n) * 1e6,
        "filter.correction_delta_us": per_call("filter.correction_delta", 1e6),
        "filter.correction_delta_calls": calls("filter.correction_delta") / n,
        "filter.delta_solves_per_substep": calls("filter.correction_delta") / n / substeps,
        "filter.hessian_rate_us": per_call("filter.hessian_rate", 1e6),
        "filter.gradient_rate_us": per_call("filter.gradient_rate", 1e6),
        "liegroup.exp_group_us": per_call("liegroup.exp_group", 1e6),
        "liegroup.exp_group_calls": calls("liegroup.exp_group") / n,
        "liegroup.upsilon_calls": calls("liegroup.upsilon") / n,
        "bruteforce.steps": substeps if unit.kind == "check" else 0,
        "bruteforce.value_calls": value_calls / n,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    printed = {
        "cli.sweep_efficiency": sweep_efficiency,
        "cli.build_verification_problem_s": per_call("cli.build_verification_problem", 1.0),
        "simulation.write_csv_ms": per_call("simulation.write_csv", 1e3),
        "simulation.run_self_us_per_epoch": run_self,
        "quaternion.attitude_error_angle_us": per_call("quaternion.attitude_error_angle", 1e6),
        "filter.value_rate_us": per_call("filter.value_rate", 1e6),
        "filter.optimality_residual_us": per_call("filter.optimality_residual", 1e6),
        "bruteforce.from_substeps_ms": per_call("bruteforce.from_substeps", 1e3),
        "bruteforce.factor_s": per_call("bruteforce.value_at.first", 1.0),
        "bruteforce.solve_ms": solve_ms,
        "bruteforce.gradient_hessian_s": per_call("bruteforce.gradient_hessian_at", 1.0),
        "bruteforce.critical_point_ms": per_call("bruteforce.check_critical_point", 1e3),
    }
    missing = [name for name, value in json_metrics.items() if value is None]
    if missing:
        raise BenchError(f"traced run never entered: {', '.join(missing)}")
    return json_metrics, printed


def _traced(args, units, reference, deadline, import_s, failures):
    first = units[0]
    sweep = first.kind == "sweep"
    # (process, --jobs, share of --seconds). The traced process runs a
    # sweep serially, so every layer is in one process; its untraced
    # reference is then the serial sweep too.
    plans = [("untraced", 1, 0.5), ("traced", 1, 0.5)]
    if sweep:
        plans = [("untraced_parallel", bench_workloads.SWEEP_JOBS, 0.25),
                 ("untraced", 1, 0.25), ("traced", 1, 0.5)]
    runs = {}
    for name, jobs, share in plans:
        mode = "traced" if name == "traced" else "timed"
        runs[name] = _worker(mode, args, name, deadline, "--out", str(WORK / name),
                             "--first-only", "--jobs", str(jobs),
                             "--budget", str(share * args.seconds),
                             "--min-units", "1" if sweep else "2")
    attempted = failed = 0
    for result in runs.values():
        flags = _gate(units, result, reference, failures)
        attempted += len(flags)
        failed += flags.count(False)

    def median_wall(name):
        return statistics.median(o["wall_s"] for o in runs[name]["units"])

    efficiency = None
    if sweep:
        efficiency = median_wall("untraced") / (
            bench_workloads.SWEEP_JOBS * median_wall("untraced_parallel"))
    try:
        json_metrics, printed = _layer_metrics(
            first, runs["traced"]["stats"], runs["traced"]["units"], median_wall("untraced"),
            import_s, efficiency)
    except (KeyError, ValueError, OSError) as exc:
        raise BenchError(f"traced outputs unreadable: {exc!r}\n" + "\n".join(failures))
    return runs["traced"], attempted, failed, json_metrics, printed


def _number(value):
    return int(value) if isinstance(value, float) and value.is_integer() else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "mef" / "__init__.py").is_file():
        print(f"error: no mef sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    units = bench_workloads.units(args.workload, args.seed)
    reference = bench_gate.load_reference()
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)

    try:
        steal_before = _steal_ticks()
        probes = _SetupProbes(args, deadline)
        lines: list[str] = []
        failures: list[str] = []
        if args.trace:
            setup = probes.finish()
            lines.append(f"setup_s_wall: {statistics.median(p['setup_s'] for p in setup)!r} s")
            import_s = statistics.median(p["import_s"] for p in setup)
            result, attempted, failed, metrics, printed = _traced(
                args, units, reference, deadline, import_s, failures)
            _host_speed(result, lines)
            declared = PER_LAYER
            for name, value in printed.items():
                shown = f"{value!r} {PER_LAYER_PRINTED[name]}" if value is not None else "n/a"
                lines.append(f"{name}: {shown}")
        else:
            result, attempted, failed, metrics, speed = _timed(
                args, units, reference, deadline, lines, failures, probes)
            setup_wall = statistics.median(p["setup_s"] for p in probes.finish())
            lines.append(f"setup_s_wall: {setup_wall!r} s")
            metrics["setup_s"] = setup_wall * speed
            declared = END_TO_END
        steal_after = _steal_ticks()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in failures:
        print(f"gate: {failure}")
    print(f"env: {json.dumps(_environment(result['env'], steal_before, steal_after))}")
    print(f"fail_rate: {failed / attempted!r} ({failed} of {attempted} runs)")
    for line in lines:
        print(line)
    for name, unit in declared.items():
        print(f"{name}: {_number(metrics[name])!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
