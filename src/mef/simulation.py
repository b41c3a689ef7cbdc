"""Deterministic attitude-estimation experiment runner.

Propagates the true attitude on a fixed sensor grid, optionally corrupts
the measurements with seeded Gaussian noise, drives the observer through
the epochs (observe), and logs one record per epoch (run). Identical
configurations produce bitwise-identical logs and CSV files.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import filter as _filter
from .filter import (
    FilterConfig,
    ObserverState,
    SignalSample,
    SingularPError,
    check_invariants,
    init,
    optimality_residual,
    state_estimate,
    step,
    value_rate,
)
from .liegroup import upsilon
from .quaternion import (
    BASIS,
    AttitudeScenario,
    NoiseModel,
    Quaternion,
    attitude_error_angle,
    build_sample,
    group_from_quaternion,
    propagate_quaternion,
    rotate_to_body,
)

__all__ = [
    "TruthEpoch",
    "RunConfig",
    "LogRecord",
    "ObservedEpoch",
    "simulate_truth",
    "corrupt",
    "initial_observer_hessian",
    "initial_state",
    "observe",
    "run",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = (
    "t,qw,qx,qy,qz,qhw,qhx,qhy,qhz,err_rad,delta_norm,"
    "opt_res_1,opt_res_2,opt_res_3,value_rate,substeps"
)


@dataclass(frozen=True)
class TruthEpoch:
    """True state at one sensor epoch.

    omega is the exact body rate at the epoch, kept alongside the
    quaternion so the corruption stage can add gyro noise without
    re-evaluating scenario callables.
    """

    t: float
    q: Quaternion
    z_ref: np.ndarray
    z: np.ndarray
    omega: np.ndarray


@dataclass
class RunConfig:
    """Everything needed for one reproducible run.

    gains supplies the covariances the filter gains are built from; noise,
    when present, is the model actually injected into the measurements.
    The two usually coincide, but noiseless runs still need gains.
    """

    scenario: AttitudeScenario
    gains: NoiseModel
    filter: FilterConfig
    initial_estimate: Quaternion
    initial_hessian_scale: float
    noise: Optional[NoiseModel] = None


@dataclass
class LogRecord:
    t: float
    q_true: np.ndarray
    q_est: np.ndarray
    error_angle: float
    delta_norm: float
    opt_residual: np.ndarray
    value_rate: float
    substeps: int


def simulate_truth(scenario: AttitudeScenario) -> list[TruthEpoch]:
    """True trajectory on the sensor grid via the exact one-step flow.

    The body rate is held at its left-endpoint value over each interval.
    Raises ValueError if the reference vector leaves the unit sphere.
    """
    epochs = scenario.epochs()
    out = []
    q = scenario.q0
    for k in range(epochs):
        t = k * scenario.sensor_dt
        omega = np.asarray(scenario.omega_fn(t), dtype=float).reshape(3)
        z_ref = np.asarray(scenario.ref_fn(t), dtype=float).reshape(3)
        if abs(float(np.linalg.norm(z_ref)) - 1.0) > 1e-12:
            raise ValueError(f"reference vector at t={t} is not unit length")
        z = rotate_to_body(q, z_ref)
        out.append(TruthEpoch(t=t, q=q, z_ref=z_ref, z=z, omega=omega))
        if k + 1 < epochs:
            q = propagate_quaternion(q, omega, scenario.sensor_dt)
    return out


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(cov)
    return V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    # Counter-based generator; separate substreams per sensor so enabling
    # one noise source does not shift the other's draws.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=[int(seed), stream_id]))
    )


def corrupt(
    truth: list[TruthEpoch], noise: NoiseModel
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Measured (t, omega, z) per epoch with additive zero-mean Gaussian
    noise, one draw per epoch per sensor, reproducible per seed."""
    gyro_gen = _stream(noise.seed, 0)
    vector_gen = _stream(noise.seed, 1)
    gyro_sqrt = _psd_sqrt(noise.gyro_cov)
    vector_sqrt = _psd_sqrt(noise.vector_cov)
    out = []
    for epoch in truth:
        omega_meas = epoch.omega + gyro_sqrt.dot(gyro_gen.standard_normal(3))
        z_meas = epoch.z + vector_sqrt.dot(vector_gen.standard_normal(3))
        out.append((epoch.t, omega_meas, z_meas))
    return out


def initial_observer_hessian(q_hat_0: Quaternion, scale: float) -> np.ndarray:
    """Rank-3 prior weight scale^2 X0 (Ups Ups^T) X0^T expressed in the
    observer-frame coordinates, with Ups the tangent-frame matrix at the
    initial estimate and X0 its group lift.

    Ups Ups^T is the projector onto the tangent space at the estimate, so
    the pulled-back matrix annihilates the normal direction at the frame
    origin exactly: H0 @ origin = 0. That keeps the initial value-function
    gradient zero in every direction, not just tangentially.
    """
    X0 = group_from_quaternion(q_hat_0)
    Ups = upsilon(BASIS, q_hat_0.as_vector())
    return scale ** 2 * X0.matrix @ (Ups @ Ups.T) @ X0.matrix.T


def initial_state(q_hat_0: Quaternion, scale: float) -> ObserverState:
    """The state a run starts from: init with X_hat_0 the group lift of
    q_hat_0 and H_0 = initial_observer_hessian(q_hat_0, scale)."""
    return init(BASIS, group_from_quaternion(q_hat_0), initial_observer_hessian(q_hat_0, scale))


@dataclass(frozen=True)
class ObservedEpoch:
    """One sensor epoch as observe yields it: the observer state at the
    epoch, its estimate q_hat, the sample held over the next interval, the
    number of substeps spent on that interval, delta, the correction applied
    by the first of them (solved directly at the last epoch, which is not
    stepped and has no substeps), and the interval's SubstepRecords when
    observe was asked for them (empty otherwise)."""

    truth: TruthEpoch
    state: ObserverState
    q_hat: Quaternion
    sample: SignalSample
    delta: np.ndarray
    substeps: int
    trace: list


def observe(config: RunConfig, trace: bool = False):
    """Drive the observer from the configured estimate through every
    sensor epoch of the scenario, yielding one ObservedEpoch each.

    With ``trace`` each epoch carries the SubstepRecords of its interval.
    The state is checked once per epoch (check_invariants). A SingularPError,
    from that check or from a correction solve, is re-raised with the epoch
    index and time attached.
    """
    truth = simulate_truth(config.scenario)
    if config.noise is not None:
        measured = corrupt(truth, config.noise)
    else:
        measured = [(e.t, e.omega, e.z) for e in truth]

    state = initial_state(config.initial_estimate, config.initial_hessian_scale)
    for k, (epoch, (_, omega_meas, z_meas)) in enumerate(zip(truth, measured)):
        records: list = []
        try:
            check_invariants(state)
            q_hat = Quaternion.from_vector(state_estimate(state, config.filter))
            sample = build_sample(
                epoch.t, q_hat, state.X_hat, omega_meas, z_meas,
                config.scenario, config.gains,
            )
            if k + 1 < len(truth):
                end, substeps, delta = step(
                    state, sample, config.filter, trace=records if trace else None,
                )
            else:
                # Looked up through mef.filter, as step does, so that a
                # patched correction_delta reaches this solve too.
                end, substeps = state, 0
                X_inv, origin = state.X_hat.inverse, config.filter.origin_xi
                pull, damping = _filter.forcing_terms(X_inv, state.H, state.eta, sample, origin)
                delta = _filter.correction_delta(BASIS, state.H, state.eta, upsilon(BASIS, origin),
                                                 pull - damping)
        except SingularPError as exc:
            raise SingularPError(f"epoch {k} (t={epoch.t:g} s): {exc}") from exc
        yield ObservedEpoch(epoch, state, q_hat, sample, delta, substeps, records)
        state = end


def run(config: RunConfig) -> tuple[list[LogRecord], dict]:
    """Execute one experiment; returns per-epoch records and a summary.

    Logs one record per epoch of observe. Record k carries the number of
    substeps spent on the interval ending at t_k (zero for k = 0). The
    summary holds the final error angle, the largest optimality-residual
    component over the run, and the total substep count.
    """
    records: list[LogRecord] = []
    substeps_prev = 0
    for epoch in observe(config):
        records.append(
            LogRecord(
                t=epoch.truth.t,
                q_true=epoch.truth.q.as_vector(),
                q_est=epoch.q_hat.as_vector(),
                error_angle=attitude_error_angle(epoch.truth.q, epoch.q_hat),
                delta_norm=float(np.linalg.norm(epoch.delta)),
                opt_residual=optimality_residual(epoch.state, config.filter),
                value_rate=value_rate(epoch.state, epoch.sample, epoch.delta, config.filter),
                substeps=substeps_prev,
            )
        )
        substeps_prev = epoch.substeps

    summary = {
        "final_error_rad": records[-1].error_angle if records else float("nan"),
        "max_opt_residual": max(
            (float(np.abs(r.opt_residual).max()) for r in records), default=0.0
        ),
        "total_substeps": sum(r.substeps for r in records),
    }
    return records, summary


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# A CSV row: 15 floats as _fmt writes them ("%.17g" % x == f"{x:.17g}").
_CSV_ROW = ",".join(["%.17g"] * 15 + ["%d"])


def write_csv(records: list[LogRecord], path: str) -> None:
    """Write the log to CSV atomically (see write_text_atomic)."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(_CSV_ROW % (r.t, *r.q_true.tolist(), *r.q_est.tolist(), r.error_angle,
                                 r.delta_norm, *r.opt_residual.tolist(), r.value_rate,
                                 int(r.substeps)))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str, payload: str) -> None:
    """Write text through a uniquely named temp file in the target's
    directory, then rename it into place: a failed write never leaves a
    partial file, and concurrent writers never share a temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
