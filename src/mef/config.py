"""Plain-text experiment configuration.

Format: one ``key = value`` per line, ``#`` starts a comment, keys are
dotted (scenario.*, observer.*, noise.*, filter.*, check.*). Every key has
a default, so an empty file is a valid configuration. Values are plain
numbers, booleans, comma-separated vectors, or named presets; no
expressions.

The key table ``KEYS`` is the schema: it names every key with its default
and its one-line meaning. ``DEFAULTS``, the sweepable ``NUMERIC_KEYS`` and
the CLI help text are all read off it, and this module alone maps the keys
onto the objects a run is built from (``build_run_config``, and
``build_check_config`` for the verification run).
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .filter import FilterConfig
from .quaternion import XI_ORIGIN, AttitudeScenario, NoiseModel, Quaternion, quat_product
from .simulation import RunConfig, initial_state

__all__ = [
    "ConfigError",
    "KEYS",
    "DEFAULTS",
    "NUMERIC_KEYS",
    "parse_config_text",
    "load_config_file",
    "read_config_source",
    "apply_overrides",
    "merge_with_defaults",
    "build_run_config",
    "build_check_config",
    "get_float",
    "get_int",
    "get_bool",
    "get_vec3",
]


class ConfigError(ValueError):
    """Malformed configuration file, key, or value."""


# key -> (default, meaning). Defaults are stored as strings so file values,
# --set overrides, and defaults all flow through the same parsing path.
KEYS: dict[str, tuple[str, str]] = {
    "seed": ("0", "integer seed; all randomness in a run derives from it"),
    "scenario.omega": ("canonical",
                       "body rate: 'canonical' (0.1cos(0.1t),0,0.2), 'zero', or 'const:x,y,z'"),
    "scenario.reference": ("canonical",
                           "inertial reference vector: 'canonical' (sin t,0,cos t) or unit 'const:x,y,z'"),
    "scenario.q0": ("1,0,0,0", "true initial attitude quaternion 'w,x,y,z' (unit)"),
    "scenario.duration": ("100.0",
                          "run length in seconds; integer multiple of sensor_dt, or 0 for an empty run"),
    "scenario.sensor_dt": ("0.1", "sensor epoch length in seconds"),
    "observer.initial_error_rad": ("0.0", "initial attitude error of the estimate, radians"),
    "observer.initial_error_axis": ("1,0,0", "axis 'x,y,z' the initial error rotates about"),
    "observer.hessian_scale": ("1.0", "scale of the rank-3 initial value-function Hessian"),
    "noise.inject": ("false",
                     "true to corrupt measurements; gains are built from the sigmas either way"),
    "noise.gyro_sigma": ("0.01", "gyro noise standard deviation per axis, rad/s"),
    "noise.vector_sigma": ("1.0",
                           "reference-vector measurement noise standard deviation per axis"),
    "filter.delta_step_cap": ("0.01", "bound on ||correction|| * dt per integrator substep"),
    "filter.dt_max": ("0.1", "largest integrator substep, seconds"),
    "check.duration": ("1.0", "verification horizon, seconds"),
    "check.sensor_dt": ("0.1", "sensor epoch length used by the verification run"),
    "check.dt": ("1e-3", "fixed integration step of the verification run (see --dt)"),
    "check.hessian_scale": ("30.0", "initial Hessian scale of the verification run"),
    "check.gyro_sigma_true": ("0.02", "gyro noise injected in the verification run"),
    "check.vector_sigma_true": ("0.03", "vector noise injected in the verification run"),
}

DEFAULTS: dict[str, str] = {key: default for key, (default, _) in KEYS.items()}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# Keys sweep may vary: the plain scalars (default a number) that simulate
# reads. It reads no check.* key: a sweep over one would repeat one run.
NUMERIC_KEYS = frozenset(key for key, default in DEFAULTS.items()
                         if _is_number(default) and not key.startswith("check."))


def _split_pair(item: str, where: str) -> tuple[str, str]:
    """Key and value of one 'key = value' item; where prefixes errors."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not value:
        raise ConfigError(f"{where}: empty value for {key!r}")
    return key, value


def parse_config_text(text: str) -> dict[str, str]:
    """Key/value pairs from config text. Unknown or repeated keys fail."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _split_pair(line, f"line {lineno}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def read_config_source(source: Optional[str]) -> tuple[dict[str, str], str]:
    """Raw key/value pairs from a file path or a bundled name ('noisy',
    'noiseless.cfg'), plus the stem that names output files ('run' when
    there is no source).

    A bare name (no directory part) that names a bundled preset always
    reads the preset, even when the working directory holds an entry of
    that name; write a path such as './noisy' to read that entry instead.
    """
    if source is None:
        return {}, "run"
    name = source if source.endswith(".cfg") else source + ".cfg"
    bundled = resources.files("mef").joinpath("configs").joinpath(name)
    if os.path.basename(source) == source and bundled.is_file():
        source = str(bundled)
    elif not os.path.exists(source):
        raise ConfigError(f"config {source!r} is neither a file nor a bundled name")
    return load_config_file(source), Path(source).stem


def apply_overrides(cfg: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply repeatable 'key=value' overrides on top of file values."""
    out = dict(cfg)
    for item in overrides:
        key, value = _split_pair(item, "override")
        out[key] = value
    return out


def merge_with_defaults(cfg: dict[str, str]) -> dict[str, str]:
    merged = dict(DEFAULTS)
    merged.update(cfg)
    return merged


def get_float(cfg: dict[str, str], key: str) -> float:
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {cfg[key]!r}")
    return value


def get_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from exc


def get_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {cfg[key]!r}")


def _parse_floats(key: str, value: str, count: int) -> np.ndarray:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != count:
        raise ConfigError(f"{key}: expected {count} comma-separated numbers, got {value!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected numbers, got {value!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
    return vec


def get_vec3(cfg: dict[str, str], key: str) -> np.ndarray:
    return _parse_floats(key, cfg[key], 3)


# Scenario presets. Module-level functions so configurations remain
# picklable for parallel sweeps.


def omega_canonical(t: float) -> np.ndarray:
    return np.array([0.1 * np.cos(0.1 * t), 0.0, 0.2])


def omega_zero(t: float) -> np.ndarray:
    return np.zeros(3)


def reference_canonical(t: float) -> np.ndarray:
    return np.array([np.sin(t), 0.0, np.cos(t)])


def constant_vector(values: tuple, t: float) -> np.ndarray:
    return np.array(values)


def _vector_signal(key: str, value: str) -> Callable[[float], np.ndarray]:
    if value == "canonical":
        return omega_canonical if key == "scenario.omega" else reference_canonical
    if value == "zero" and key == "scenario.omega":
        return omega_zero
    if value.startswith("const:"):
        vec = _parse_floats(key, value[len("const:"):], 3)
        if key == "scenario.reference":
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-12:
                raise ConfigError(f"{key}: constant reference vector must be unit length")
        return partial(constant_vector, tuple(vec))
    raise ConfigError(f"{key}: unknown signal {value!r}")


def _initial_estimate(cfg: dict[str, str], q0: Quaternion) -> Quaternion:
    angle = get_float(cfg, "observer.initial_error_rad")
    if angle == 0.0:
        return q0
    axis = get_vec3(cfg, "observer.initial_error_axis")
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        raise ConfigError("observer.initial_error_axis: axis must be nonzero")
    axis = axis / norm
    offset = Quaternion(np.cos(angle / 2.0), np.sin(angle / 2.0) * axis)
    return quat_product(q0, offset)


def build_run_config(cfg: dict[str, str]) -> RunConfig:
    """Materialize a RunConfig from merged key/value strings.

    Raises ConfigError for any out-of-range or malformed value.
    """
    cfg = merge_with_defaults(cfg)
    seed = get_int(cfg, "seed")
    q0_vec = _parse_floats("scenario.q0", cfg["scenario.q0"], 4)
    try:
        q0 = Quaternion.from_vector(q0_vec)
        scenario = AttitudeScenario(
            omega_fn=_vector_signal("scenario.omega", cfg["scenario.omega"]),
            ref_fn=_vector_signal("scenario.reference", cfg["scenario.reference"]),
            q0=q0,
            duration=get_float(cfg, "scenario.duration"),
            sensor_dt=get_float(cfg, "scenario.sensor_dt"),
        )
        scenario.epochs()
        gyro_sigma = get_float(cfg, "noise.gyro_sigma")
        if not gyro_sigma > 0.0:
            # The velocity gain is the inverse of the gyro covariance.
            raise ConfigError("noise.gyro_sigma must be positive")
        vector_sigma = get_float(cfg, "noise.vector_sigma")
        gains = NoiseModel(
            gyro_cov=gyro_sigma ** 2 * np.eye(3),
            vector_cov=vector_sigma ** 2 * np.eye(3),
            seed=seed,
        )
        filter_cfg = FilterConfig(
            origin_xi=XI_ORIGIN,
            delta_step_cap=get_float(cfg, "filter.delta_step_cap"),
            dt_max=get_float(cfg, "filter.dt_max"),
        )
        initial_estimate = _initial_estimate(cfg, q0)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    hessian_scale = get_float(cfg, "observer.hessian_scale")
    try:  # a scale whose H_0 overflows or fails init is a config error
        initial_state(initial_estimate, hessian_scale)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"hessian scale {hessian_scale:g} gives no valid H_0 "
                          f"({type(exc).__name__}: {exc})") from exc
    return RunConfig(
        scenario=scenario,
        gains=gains,
        filter=filter_cfg,
        initial_estimate=initial_estimate,
        initial_hessian_scale=hessian_scale,
        noise=gains if get_bool(cfg, "noise.inject") else None,
    )


def build_check_config(raw: dict[str, str], dt: Optional[float] = None) -> RunConfig:
    """RunConfig of the fixed-step verification run that ``check`` replays.

    The check.* keys stand in for the scenario and observer keys: the run
    lasts check.duration in epochs of check.sensor_dt, and the observer
    starts at the true attitude with Hessian scale check.hessian_scale. It
    integrates in fixed substeps of dt (check.dt when dt is None) with no
    cap on the correction step. Process and measurement noise with the
    check.* sigmas is injected so the compared quantities are exercised
    away from zero; the gains still come from the noise.* keys.
    """
    cfg = merge_with_defaults(raw)
    if dt is None:
        dt = get_float(cfg, "check.dt")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigError("--dt must be positive and finite")
    if get_float(cfg, "check.duration") <= 0.0:
        raise ConfigError("check.duration must be positive")
    config = build_run_config(
        cfg
        | {
            "scenario.duration": cfg["check.duration"],
            "scenario.sensor_dt": cfg["check.sensor_dt"],
            "observer.initial_error_rad": "0.0",
            "observer.hessian_scale": cfg["check.hessian_scale"],
        }
    )
    return replace(
        config,
        filter=replace(config.filter, delta_step_cap=1e18, dt_max=dt),
        noise=NoiseModel(
            gyro_cov=get_float(cfg, "check.gyro_sigma_true") ** 2 * np.eye(3),
            vector_cov=get_float(cfg, "check.vector_sigma_true") ** 2 * np.eye(3),
            seed=config.gains.seed,
        ),
    )
