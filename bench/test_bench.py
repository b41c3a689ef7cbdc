"""Tests of the benchmark itself: the correctness gate rejects wrong
outputs, the tracer leaves nothing installed, and BENCHMARK.json declares
exactly the metrics the command prints."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_gate
import bench_trace
import bench_worker
import bench_workloads
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = bench_gate.load_reference()
HEADER = "t,qw,qx"


def _simulate_outcome(tmp_path: Path, seed: int, header: str = HEADER, **changes) -> dict:
    ref = dict(REFERENCE["noisy"][str(seed)], **changes)
    csv = tmp_path / f"run{seed}.csv"
    csv.write_text(header + "\n0,1,0\n")
    stdout = (f"csv: {csv}\nepochs: {ref['epochs']}\n"
              f"final_error_rad: {ref['final_error_rad']!r}\n"
              f"max_opt_residual: {ref['max_opt_residual']!r}\n"
              f"total_substeps: {ref['total_substeps']}\nwall_time_s: 1.000\n")
    return {"rc": 0, "stdout": stdout, "error": None}


def _check_outcome(seed: int = 0, overall: str = "PASS", **changes) -> dict:
    ref = dict(REFERENCE["check_fine"][str(seed)], **changes)
    rows = "".join(f"{name}: {ref[name]!r} (threshold 0.0001) PASS\n"
                   for name in bench_gate.CHECK_ROWS)
    stdout = f"steps: {ref['steps']}\ndt: 0.00025\n{rows}overall: {overall}\n"
    return {"rc": 0, "stdout": stdout, "error": None}


def _sweep_outcome(tmp_path: Path, seeds, drop_last: bool = False) -> dict:
    lines = [bench_gate.SWEEP_SUMMARY_HEADER]
    for seed in seeds:
        ref = REFERENCE["noisy"][str(seed)]
        csv = tmp_path / f"sweep{seed}.csv"
        csv.write_text(HEADER + "\n")
        lines.append(f"{seed},{csv},{ref['final_error_rad']!r},"
                     f"{ref['max_opt_residual']!r},{ref['total_substeps']}")
    if drop_last:
        lines.pop()
    summary = tmp_path / "summary.csv"
    summary.write_text("\n".join(lines) + "\n")
    return {"rc": 0, "stdout": f"sweep_summary: {summary}\n", "error": None}


def test_gate_accepts_reference_outputs(tmp_path):
    for unit in bench_workloads.units("simulate-noisy", 0):
        outcome = _simulate_outcome(tmp_path, unit.seeds[0])
        assert bench_gate.check_unit(unit, outcome, HEADER, REFERENCE) == []
    check = bench_workloads.units("check-fine", 0)[0]
    assert bench_gate.check_unit(check, _check_outcome(), HEADER, REFERENCE) == []
    sweep = bench_workloads.units("sweep-seeds", 0)[0]
    outcome = _sweep_outcome(tmp_path, sweep.seeds)
    assert bench_gate.check_unit(sweep, outcome, HEADER, REFERENCE) == []


@pytest.mark.parametrize("change", [
    {"final_error_rad": 0.2994},
    {"total_substeps": 2498},
    {"epochs": 1000},
    {"max_opt_residual": 2e-12},
    {"max_opt_residual": float("nan")},
])
def test_gate_rejects_wrong_simulate_output(tmp_path, change):
    unit = bench_workloads.Unit("simulate", (3,))
    outcome = _simulate_outcome(tmp_path, 3, **change)
    assert bench_gate.check_unit(unit, outcome, HEADER, REFERENCE)


def test_gate_rejects_wrong_header_exit_code_and_exception(tmp_path):
    unit = bench_workloads.Unit("simulate", (3,))
    assert bench_gate.check_unit(unit, _simulate_outcome(tmp_path, 3, header="t,qw"),
                                 HEADER, REFERENCE)
    outcome = dict(_simulate_outcome(tmp_path, 3), rc=3)
    assert bench_gate.check_unit(unit, outcome, HEADER, REFERENCE)
    outcome = dict(_simulate_outcome(tmp_path, 3), error="Traceback\nValueError: boom\n")
    assert bench_gate.check_unit(unit, outcome, HEADER, REFERENCE)
    outcome = dict(_simulate_outcome(tmp_path, 3), stdout="csv: nowhere.csv\n")
    assert bench_gate.check_unit(unit, outcome, HEADER, REFERENCE)


def test_gate_checks_invariants_on_seeds_without_reference(tmp_path):
    unit = bench_workloads.Unit("simulate", (999,))
    good = _simulate_outcome(tmp_path, 3)
    good["stdout"] = good["stdout"].replace("6.684575880788533e-15", "1e-13")
    assert bench_gate.check_unit(unit, good, HEADER, REFERENCE) == []
    bad = dict(good, stdout=good["stdout"].replace("1e-13", "1e-6"))
    assert bench_gate.check_unit(unit, bad, HEADER, REFERENCE)


@pytest.mark.parametrize("outcome", [
    _check_outcome(gradient_agreement_rel=1.3e-5),
    _check_outcome(steps=3999),
    _check_outcome(overall="FAIL"),
    dict(_check_outcome(), rc=1),
])
def test_gate_rejects_wrong_check_output(outcome):
    unit = bench_workloads.units("check-fine", 0)[0]
    assert bench_gate.check_unit(unit, outcome, HEADER, REFERENCE)


def test_gate_rejects_incomplete_or_wrong_sweep(tmp_path):
    sweep = bench_workloads.units("sweep-seeds", 0)[0]
    outcome = _sweep_outcome(tmp_path, sweep.seeds, drop_last=True)
    assert bench_gate.check_unit(sweep, outcome, HEADER, REFERENCE)
    outcome = _sweep_outcome(tmp_path, sweep.seeds)
    summary = Path(outcome["stdout"].split(": ", 1)[1].strip())
    summary.write_text(summary.read_text().replace(",2497\n", ",2496\n"))
    assert bench_gate.check_unit(sweep, outcome, HEADER, REFERENCE)


def test_default_seed_reproduces_repository_defaults():
    assert bench_workloads.units("simulate-noisy", 0)[0].seeds == (3,)
    assert bench_workloads.units("check-fine", 0)[0].seeds == (0,)
    assert bench_workloads.units("sweep-seeds", 0)[0].seeds == tuple(range(10))
    for workload in bench_workloads.WORKLOADS:
        seeds0 = {s for u in bench_workloads.units(workload, 0) for s in u.seeds}
        seeds1 = {s for u in bench_workloads.units(workload, 1) for s in u.seeds}
        assert not seeds0 & seeds1


def test_tracer_uninstall_restores_every_attribute():
    import mef.cli  # noqa: F401

    def snapshot():
        return {(m.__name__, k): id(v) for m in bench_trace._mef_modules()
                for k, v in vars(m).items()}

    before = snapshot()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        installed = bench_trace.find_wrappers()
        for name in ("mef.simulation.step", "mef.filter.correction_delta",
                     "mef.quaternion.build_sample", "mef.bruteforce.value_at",
                     "mef.bruteforce.DiscretizedProblem.from_substeps"):
            assert name in installed
        with pytest.raises(RuntimeError):
            bench_trace.assert_clean()
    finally:
        tracer.uninstall()
    assert bench_trace.find_wrappers() == []
    assert snapshot() == before


def test_timed_worker_refuses_to_run_while_a_wrapper_is_installed(tmp_path):
    args = argparse.Namespace(mode="timed", workload="simulate-noisy", seed=0,
                              out=str(tmp_path), budget=0.0, min_units=1, jobs=1,
                              first_only=True)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="still installed"):
            bench_worker._run(args)
    finally:
        tracer.uninstall()
    assert not list(tmp_path.iterdir())


def test_tracer_records_nested_spans():
    import mef.simulation
    from mef.config import build_run_config

    config = build_run_config({"scenario.duration": "1.0", "noise.inject": "true"})
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        tracer.run_unit(0, lambda: mef.simulation.run(config))
    finally:
        tracer.uninstall()
    stats = bench_trace.summarize(tracer.spans)
    assert stats["unit"]["calls"] == 1
    assert stats["simulation.run"]["calls"] == 1
    assert stats["quaternion.build_sample"]["calls"] == 11
    assert stats["filter.hessian_rate"]["calls"] == stats["liegroup.exp_group"]["calls"] / 2
    for entry in stats.values():
        assert 0.0 <= entry["self_s"] <= entry["total_s"]
    ids = {span[1] for span in tracer.spans}
    assert all(span[2] == 0 or span[2] in ids for span in tracer.spans)


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(bench_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-fine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_rescales_by_the_median_calibration_time():
    result = {"units": [{"calibration_s": c * run.CALIBRATION_REF_S} for c in (2.0, 0.5, 1.6)]}
    lines: list[str] = []
    assert run._host_speed(result, lines) == pytest.approx(1 / 1.6)
    assert any(line.startswith("host_speed: ") for line in lines)
