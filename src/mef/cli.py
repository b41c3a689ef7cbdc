"""Command line for running and verifying attitude-estimation experiments.

Three subcommands: ``simulate`` runs a configured scenario and writes a
CSV log, ``check`` cross-examines the observer against the brute-force
trajectory optimizer, and ``sweep`` repeats simulate over a list of values
for one numeric config key. Exit codes: 0 success, 1 failed verification
or a sweep run that raised another error, 2 configuration error, 3
singular correction solve during a run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Union

import numpy as np

from .bruteforce import DiscretizedProblem, check_critical_point, gradient_hessian_at
from .config import (
    KEYS,
    NUMERIC_KEYS,
    ConfigError,
    apply_overrides,
    build_check_config,
    build_run_config,
    read_config_source,
)
from .filter import SingularPError
from .quaternion import BASIS, XI_ORIGIN
from .simulation import (
    _fmt,
    observe,
    run,
    write_csv,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


def _config_key_help() -> str:
    lines = ["configuration keys (default in parentheses):"]
    for key, (default, meaning) in KEYS.items():
        lines.append(f"  {key} ({default})")
        lines.append(f"      {meaning}")
    lines.append("")
    lines.append(
        "--config accepts a filesystem path or a bundled name "
        "('noiseless', 'noisy')."
    )
    return "\n".join(lines)


def _merged_config(args) -> tuple[dict[str, str], str]:
    raw, stem = read_config_source(args.config)
    raw = apply_overrides(raw, args.set or [])
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    return raw, stem


def cmd_simulate(args) -> int:
    raw, stem = _merged_config(args)
    run_config = build_run_config(raw)
    out_path = os.path.join(args.out, stem + ".csv")
    started = time.perf_counter()
    records, summary = run(run_config)
    write_csv(records, out_path)
    wall = time.perf_counter() - started
    print(f"csv: {out_path}")
    print(f"epochs: {len(records)}")
    print(f"final_error_rad: {_fmt(summary['final_error_rad'])}")
    print(f"max_opt_residual: {_fmt(summary['max_opt_residual'])}")
    print(f"total_substeps: {summary['total_substeps']}")
    print(f"wall_time_s: {wall:.3f}")
    return EXIT_OK


def build_verification_problem(raw: dict[str, str], dt: Optional[float]):
    """Fixed-step observer run for cross-checking, plus its rebuilt
    optimization problem.

    The run is the one ``config.build_check_config`` describes, with dt
    (check.dt when None) as its fixed substep. The problem's initial cost
    uses the H the observer started from. Returns (problem, final_state).
    """
    config = build_check_config(raw, dt)
    trace: list = []
    for epoch in observe(config, trace=True):
        trace += epoch.trace
    problem = DiscretizedProblem.from_substeps(BASIS, trace, trace[0].H, anchor=XI_ORIGIN)
    return problem, epoch.state


CHECK_CRITICAL_TOL = 1e-5
CHECK_AGREEMENT_TOL = 1e-4


def cmd_check(args) -> int:
    raw, _ = _merged_config(args)
    problem, state = build_verification_problem(raw, args.dt)
    # One factorization and one batch of m + 1 solves give every row.
    grad, hess = gradient_hessian_at(problem, XI_ORIGIN)
    critical = check_critical_point(grad, BASIS, XI_ORIGIN)
    grad_rel = float(np.linalg.norm(state.eta - grad)) / max(float(np.linalg.norm(grad)), 1e-300)
    hess_rel = float(np.linalg.norm(state.H - hess)) / max(float(np.linalg.norm(hess)), 1e-300)

    results = [
        ("critical_point_residual", critical, CHECK_CRITICAL_TOL),
        ("gradient_agreement_rel", grad_rel, CHECK_AGREEMENT_TOL),
        ("hessian_agreement_rel", hess_rel, CHECK_AGREEMENT_TOL),
    ]
    all_pass = True
    print(f"steps: {problem.steps}")
    print(f"dt: {_fmt(problem.dt)}")
    for name, value, threshold in results:
        ok = value <= threshold
        all_pass = all_pass and ok
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {_fmt(value)} (threshold {threshold:g}) {status}")
    print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_FAILED


def _sweep_worker(payload: tuple[dict[str, str], str]) -> Union[dict, Exception]:
    """One sweep run; a failure is returned, not raised, so that every
    value still runs."""
    raw, out_path = payload
    try:
        records, summary = run(build_run_config(raw))
    except Exception as exc:
        return exc
    write_csv(records, out_path)
    return {"csv": out_path, **summary}


def cmd_sweep(args) -> int:
    raw, stem = _merged_config(args)
    if args.param not in NUMERIC_KEYS:
        raise ConfigError(f"{args.param!r} is not a sweepable numeric key")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("empty sweep value list")

    key_slug = args.param.replace(".", "_")
    payloads = []
    for value in values:
        raw_i = dict(raw)
        raw_i[args.param] = value
        out_path = os.path.join(args.out, f"{stem}_{key_slug}_{value}.csv")
        payloads.append((raw_i, out_path))

    # The pool forks all its workers up front: never more than there are runs.
    jobs = min(args.jobs, len(payloads))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, payloads))
    else:
        outcomes = [_sweep_worker(p) for p in payloads]

    for value, outcome in zip(values, outcomes):
        if isinstance(outcome, (ConfigError, SingularPError)):
            raise type(outcome)(f"run {args.param}={value} failed: {outcome}") from outcome
        if isinstance(outcome, Exception):
            print(f"run {args.param}={value} failed: {type(outcome).__name__}: {outcome}",
                  file=sys.stderr)
            return EXIT_FAILED

    summary_path = os.path.join(args.out, f"{stem}_{key_slug}_sweep.csv")
    lines = ["value,csv,final_error_rad,max_opt_residual,total_substeps"]
    for value, outcome in zip(values, outcomes):
        lines.append(
            f"{value},{outcome['csv']},{_fmt(outcome['final_error_rad'])},"
            f"{_fmt(outcome['max_opt_residual'])},{outcome['total_substeps']}"
        )
    write_text_atomic(summary_path, "\n".join(lines) + "\n")
    for value, outcome in zip(values, outcomes):
        print(f"{args.param}={value}: final_error_rad={_fmt(outcome['final_error_rad'])}")
    print(f"sweep_summary: {summary_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    with_key_help = dict(
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser = argparse.ArgumentParser(prog="mef", description=__doc__, **with_key_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, **with_key_help)
        p.add_argument("--config", help="config file path or bundled name")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.set_defaults(func=func)
        return p

    command("simulate", cmd_simulate, "run a scenario and write a CSV log")

    p_check = command("check", cmd_check, "verify the observer against the brute-force optimizer")
    p_check.add_argument("--dt", type=float, help="fixed verification step (default: check.dt)")

    p_sweep = command("sweep", cmd_sweep, "repeat simulate over values of one numeric config key")
    p_sweep.add_argument("--param", required=True, help="numeric config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; every config or singular-solve failure, from any
    subcommand, ends here with its message and exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularPError as exc:
        print(f"singular correction solve: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
