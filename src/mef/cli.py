"""Command line for running and verifying attitude-estimation experiments.

Three subcommands: ``simulate`` runs a configured scenario and writes a
CSV log, ``check`` cross-examines the observer against the brute-force
trajectory optimizer, and ``sweep`` repeats simulate over a list of values
for one numeric config key. Exit codes: 0 success, 1 failed verification,
2 configuration error, 3 singular correction solve during a run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .bruteforce import (
    DiscretizedProblem,
    check_critical_point,
    gradient_hessian_at,
    hjb_minimizer_check,
)
from .config import (
    DEFAULTS,
    KEY_DOC,
    NUMERIC_KEYS,
    ConfigError,
    apply_overrides,
    build_run_config,
    get_float,
    merge_with_defaults,
    parse_config_text,
)
from .filter import SingularPError
from .quaternion import BASIS, XI_ORIGIN, NoiseModel
from .simulation import (
    _fmt,
    initial_observer_hessian,
    observe,
    run,
    write_csv,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


def _config_key_help() -> str:
    lines = ["configuration keys (default in parentheses):"]
    for key, default in DEFAULTS.items():
        lines.append(f"  {key} ({default})")
        lines.append(f"      {KEY_DOC[key]}")
    lines.append("")
    lines.append(
        "--config accepts a filesystem path or a bundled name "
        "('noiseless', 'noisy')."
    )
    return "\n".join(lines)


def _read_config_source(source: Optional[str]) -> tuple[dict[str, str], str]:
    """Raw key/value pairs plus a stem used to name output files."""
    if source is None:
        return {}, "run"
    if os.path.exists(source):
        with open(source, "r") as fh:
            return parse_config_text(fh.read()), Path(source).stem
    name = source if source.endswith(".cfg") else source + ".cfg"
    bundled = resources.files("mef").joinpath("configs").joinpath(name)
    if bundled.is_file():
        return parse_config_text(bundled.read_text()), Path(name).stem
    raise ConfigError(f"config {source!r} is neither a file nor a bundled name")


def _merged_config(args) -> tuple[dict[str, str], str]:
    raw, stem = _read_config_source(args.config)
    raw = apply_overrides(raw, args.set or [])
    if getattr(args, "seed", None) is not None:
        raw["seed"] = str(args.seed)
    return raw, stem


def cmd_simulate(args) -> int:
    try:
        raw, stem = _merged_config(args)
        run_config = build_run_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = os.path.join(args.out, stem + ".csv")
    started = time.perf_counter()
    try:
        records, summary = run(run_config)
    except SingularPError as exc:
        print(f"singular correction solve: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    write_csv(records, out_path)
    wall = time.perf_counter() - started
    print(f"csv: {out_path}")
    print(f"epochs: {len(records)}")
    print(f"final_error_rad: {_fmt(summary['final_error_rad'])}")
    print(f"max_opt_residual: {_fmt(summary['max_opt_residual'])}")
    print(f"total_substeps: {summary['total_substeps']}")
    print(f"wall_time_s: {wall:.3f}")
    return EXIT_OK


def build_verification_problem(
    raw: dict[str, str], dt: float, sabotage_delta_sign: bool = False
):
    """Fixed-step observer run for cross-checking, plus its rebuilt
    optimization problem.

    Returns (problem, final_state, last_sample), where last_sample is the
    input held over the last stepped interval. The observer starts at the
    true attitude; process and measurement noise with the check.* sigmas
    are injected so the compared quantities are exercised away from zero.
    """
    cfg = merge_with_defaults(raw)
    duration = get_float(cfg, "check.duration")
    if duration <= 0.0:
        raise ConfigError("check.duration must be positive")
    base = build_run_config(
        dict(raw)
        | {
            "scenario.duration": repr(duration),
            "scenario.sensor_dt": cfg["check.sensor_dt"],
            "observer.initial_error_rad": "0.0",
        }
    )
    config = replace(
        base,
        filter=replace(base.filter, delta_step_cap=1e18, dt_max=dt),
        initial_hessian_scale=get_float(cfg, "check.hessian_scale"),
        noise=NoiseModel(
            gyro_cov=get_float(cfg, "check.gyro_sigma_true") ** 2 * np.eye(3),
            vector_cov=get_float(cfg, "check.vector_sigma_true") ** 2 * np.eye(3),
            seed=int(cfg["seed"]),
        ),
    )
    trace: list = []
    for epoch in observe(config, (lambda d: -d) if sabotage_delta_sign else None):
        trace += epoch.substeps
    H0 = initial_observer_hessian(config.initial_estimate, config.initial_hessian_scale)
    problem = DiscretizedProblem.from_substeps(BASIS, trace, H0, anchor=XI_ORIGIN)
    return problem, epoch.state, trace[-1].sample


CHECK_CRITICAL_TOL = 1e-5
CHECK_AGREEMENT_TOL = 1e-4
CHECK_HJB_TOL = 1e-12


def cmd_check(args) -> int:
    try:
        raw, _ = _merged_config(args)
        cfg = merge_with_defaults(raw)
        dt = args.dt if args.dt is not None else get_float(cfg, "check.dt")
        if dt <= 0.0:
            raise ConfigError("--dt must be positive")
        problem, state, last_sample = build_verification_problem(
            raw, dt, sabotage_delta_sign=args.sabotage_delta_sign
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularPError as exc:
        print(f"singular correction solve: {exc}", file=sys.stderr)
        return EXIT_SINGULAR

    grad, hess = gradient_hessian_at(problem, XI_ORIGIN)
    critical = check_critical_point(problem, BASIS, XI_ORIGIN)
    grad_rel = float(np.linalg.norm(state.eta - grad)) / max(float(np.linalg.norm(grad)), 1e-300)
    hess_rel = float(np.linalg.norm(state.H - hess)) / max(float(np.linalg.norm(hess)), 1e-300)
    hjb = hjb_minimizer_check(state.H, state.eta, last_sample.B, last_sample.Q)

    results = [
        ("critical_point_residual", critical, CHECK_CRITICAL_TOL),
        ("gradient_agreement_rel", grad_rel, CHECK_AGREEMENT_TOL),
        ("hessian_agreement_rel", hess_rel, CHECK_AGREEMENT_TOL),
        ("hjb_minimizer_violation", hjb, CHECK_HJB_TOL),
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
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _sweep_worker(payload: tuple[dict[str, str], str]) -> dict:
    raw, out_path = payload
    try:
        run_config = build_run_config(raw)
        records, summary = run(run_config)
        write_csv(records, out_path)
        return {"ok": True, "csv": out_path, **summary}
    except ConfigError as exc:
        return {"ok": False, "code": EXIT_CONFIG, "error": str(exc)}
    except SingularPError as exc:
        return {"ok": False, "code": EXIT_SINGULAR, "error": str(exc)}


def cmd_sweep(args) -> int:
    try:
        raw, stem = _merged_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.param not in NUMERIC_KEYS:
        print(f"config error: {args.param!r} is not a sweepable numeric key", file=sys.stderr)
        return EXIT_CONFIG
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        print("config error: empty sweep value list", file=sys.stderr)
        return EXIT_CONFIG

    key_slug = args.param.replace(".", "_")
    payloads = []
    for value in values:
        raw_i = dict(raw)
        raw_i[args.param] = value
        out_path = os.path.join(args.out, f"{stem}_{key_slug}_{value}.csv")
        payloads.append((raw_i, out_path))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, payloads))
    else:
        outcomes = [_sweep_worker(p) for p in payloads]

    for value, outcome in zip(values, outcomes):
        if not outcome["ok"]:
            print(f"run {args.param}={value} failed: {outcome['error']}", file=sys.stderr)
            return outcome["code"]

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
    parser = argparse.ArgumentParser(
        prog="mef",
        description=__doc__,
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="config file path or bundled name")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p_sim = sub.add_parser(
        "simulate",
        help="run a scenario and write a CSV log",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser(
        "check",
        help="verify the observer against the brute-force optimizer",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_check)
    p_check.add_argument("--dt", type=float, help="fixed verification step (default: check.dt)")
    p_check.add_argument(
        "--sabotage-delta-sign",
        action="store_true",
        help="negate the correction on purpose; the check must then fail",
    )
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser(
        "sweep",
        help="repeat simulate over values of one numeric config key",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="numeric config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
