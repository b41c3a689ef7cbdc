"""Correctness gate applied to every unit the benchmark runs.

Invariants hold for every seed: exit code 0, every CSV starts with the
program's ``CSV_HEADER``, ``max_opt_residual`` stays at round-off level,
and ``check`` passes all of its rows. Where ``reference.json`` holds
values for a mef seed (the default workload seeds), the outputs must also
match them to round-off:

* ``final_error_rad`` to a relative 1e-6. A one-ulp change of the initial
  error moves it by up to 1.3e-9 relative on these seeds, so this admits
  reordered arithmetic and rejects any real change of the estimate.
* ``max_opt_residual`` to an absolute 1e-12; it is itself round-off
  (1e-15 to 2e-13).
* substep, epoch and step counts exactly.
* the three ``check`` rows to an absolute 1e-3 of their threshold. A
  one-ulp change of a check sigma moves them by at most 4.4e-12, but the
  finite-difference rows carry round-off of order eps * value / h^2, which
  a change to the brute-force solver may legitimately reshuffle.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SWEEP_SUMMARY_HEADER = "value,csv,final_error_rad,max_opt_residual,total_substeps"
CHECK_ROWS = ("critical_point_residual", "gradient_agreement_rel", "hessian_agreement_rel")
ROUNDOFF_RESIDUAL = 1e-10
FINAL_ERROR_RTOL = 1e-6
RESIDUAL_ATOL = 1e-12
CHECK_ROW_TOL_SHARE = 1e-3


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def parse_lines(stdout: str) -> dict[str, str]:
    """``key: value`` lines of a mef command's standard output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def parse_simulate(stdout: str) -> dict:
    fields = parse_lines(stdout)
    return {
        "csv": fields["csv"],
        "epochs": int(fields["epochs"]),
        "final_error_rad": float(fields["final_error_rad"]),
        "max_opt_residual": float(fields["max_opt_residual"]),
        "total_substeps": int(fields["total_substeps"]),
    }


def parse_check(stdout: str) -> dict:
    """Steps, overall verdict, and each row as (value, threshold, status)."""
    fields = parse_lines(stdout)
    rows = {}
    for name in CHECK_ROWS:
        value, _, rest = fields[name].partition(" (threshold ")
        threshold, _, status = rest.partition(") ")
        rows[name] = (float(value), float(threshold), status)
    return {"steps": int(fields["steps"]), "overall": fields["overall"], "rows": rows}


def parse_sweep(stdout: str) -> list[dict]:
    """Per-seed rows of the sweep summary CSV named on standard output."""
    path = parse_lines(stdout)["sweep_summary"]
    lines = Path(path).read_text().splitlines()
    if lines[0] != SWEEP_SUMMARY_HEADER:
        raise ValueError(f"sweep summary header is {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        value, csv, final, residual, substeps = line.split(",")
        rows.append({
            "seed": int(value),
            "csv": csv,
            "final_error_rad": float(final),
            "max_opt_residual": float(residual),
            "total_substeps": int(substeps),
        })
    return rows


def _check_run(seed: int, run: dict, csv_header: str, reference: dict) -> list[str]:
    problems = []
    with open(run["csv"]) as fh:
        header = fh.readline().rstrip("\n")
    if header != csv_header:
        problems.append(f"seed {seed}: CSV header {header!r} is not CSV_HEADER")
    residual = run["max_opt_residual"]
    if not (math.isfinite(residual) and residual <= ROUNDOFF_RESIDUAL):
        problems.append(f"seed {seed}: max_opt_residual {residual:.3e} above round-off")
    if not math.isfinite(run["final_error_rad"]):
        problems.append(f"seed {seed}: final_error_rad is not finite")
    ref = reference.get("noisy", {}).get(str(seed))
    if ref is None:
        return problems
    if not math.isclose(run["final_error_rad"], ref["final_error_rad"],
                        rel_tol=FINAL_ERROR_RTOL, abs_tol=0.0):
        problems.append(f"seed {seed}: final_error_rad {run['final_error_rad']!r} "
                        f"differs from reference {ref['final_error_rad']!r}")
    if abs(residual - ref["max_opt_residual"]) > RESIDUAL_ATOL:
        problems.append(f"seed {seed}: max_opt_residual {residual!r} "
                        f"differs from reference {ref['max_opt_residual']!r}")
    for key in ("total_substeps", "epochs"):
        if key in run and run[key] != ref[key]:
            problems.append(f"seed {seed}: {key} {run[key]} differs from reference {ref[key]}")
    return problems


def _check_check(seed: int, result: dict, reference: dict) -> list[str]:
    problems = []
    if result["overall"] != "PASS":
        problems.append(f"seed {seed}: check overall {result['overall']}")
    for name, (value, threshold, status) in result["rows"].items():
        if status != "PASS" or not value <= threshold:
            problems.append(f"seed {seed}: {name} {value!r} fails threshold {threshold!r}")
    ref = reference.get("check_fine", {}).get(str(seed))
    if ref is None:
        return problems
    if result["steps"] != ref["steps"]:
        problems.append(f"seed {seed}: steps {result['steps']} differs from reference {ref['steps']}")
    for name, (value, threshold, _) in result["rows"].items():
        if abs(value - ref[name]) > CHECK_ROW_TOL_SHARE * threshold:
            problems.append(f"seed {seed}: {name} {value!r} differs from reference {ref[name]!r}")
    return problems


def check_unit(unit, outcome: dict, csv_header: str, reference: dict) -> list[str]:
    """Problems found in one unit's outcome; empty when it passes."""
    if outcome.get("error"):
        return [f"exception: {outcome['error'].strip().splitlines()[-1]}"]
    if outcome["rc"] != 0:
        return [f"exit code {outcome['rc']}"]
    try:
        if unit.kind == "simulate":
            run = parse_simulate(outcome["stdout"])
            return _check_run(unit.seeds[0], run, csv_header, reference)
        if unit.kind == "check":
            return _check_check(unit.seeds[0], parse_check(outcome["stdout"]), reference)
        rows = parse_sweep(outcome["stdout"])
        problems = []
        if [row["seed"] for row in rows] != list(unit.seeds):
            problems.append(f"sweep rows cover seeds {[row['seed'] for row in rows]}")
        for row in rows:
            problems += _check_run(row["seed"], row, csv_header, reference)
        return problems
    except (KeyError, ValueError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]
