"""Deterministic attitude-estimation experiment runner.

Propagates the true attitude on a fixed sensor grid (simulate_truth),
optionally corrupts the measurements with seeded Gaussian noise (corrupt),
drives the observer through the epochs (observe), and logs one record per
epoch (run). Identical configurations produce bitwise-identical logs and
CSV files.

Everything that does not depend on the observer state is formed once per
run on (N, .) arrays: the truth (a Truth of read-only arrays, the true
attitudes among them as 4-vectors), the measured rates and vectors, the
velocity coordinates U = omega/2 and the implicit-output matrices C. Per
epoch, observe checks the state, forms the estimate and the sample's
state-dependent part (build_sample) and steps; traced, for check, it
hands on the interval's StepTrace of (S, .) arrays. run copies the
epoch's raw arrays into buffers preallocated for the run. Logging happens once per
run: after the last epoch, run forms every column of the log on the truth
and those buffers, through attitude_error_angle, optimality_residual and
value_rate, which take one epoch or a stack and give a stack's rows the
bits of the single-epoch calls.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import filter as _filter
from .filter import (
    FilterConfig,
    ObserverState,
    SignalSample,
    SingularPError,
    StepTrace,
    _dot,
    _origin_action,
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
    UNIT_TOLERANCE,
    AttitudeScenario,
    NoiseModel,
    Quaternion,
    _flow,
    _to_body,
    attitude_error_angle,
    build_sample,
    group_from_quaternion,
    measurement_matrix,
    velocity_coords,
)

__all__ = [
    "Truth",
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


class Truth(NamedTuple):
    """True state at every sensor epoch, one row per epoch, as read-only
    arrays: the times t (N,), the unit quaternions q (N, 4), the inertial
    reference vectors z_ref and their body-frame images z (N, 3), and the
    exact body rates omega (N, 3), kept so that the corruption stage can
    add gyro noise without re-evaluating scenario callables.
    """

    t: np.ndarray
    q: np.ndarray
    z_ref: np.ndarray
    z: np.ndarray
    omega: np.ndarray


@dataclass
class RunConfig:
    """Everything needed for one reproducible run.

    gains supplies the variances the filter gains are built from; noise,
    when present, is the model actually injected into the measurements.
    The two usually coincide, but noiseless runs still need gains.
    """

    scenario: AttitudeScenario
    gains: NoiseModel
    filter: FilterConfig
    initial_estimate: Quaternion
    initial_hessian_scale: float
    noise: Optional[NoiseModel] = None


class LogRecord(NamedTuple):
    t: float
    q_true: np.ndarray
    q_est: np.ndarray
    error_angle: float
    delta_norm: float
    opt_residual: np.ndarray
    value_rate: float
    substeps: int


def simulate_truth(scenario: AttitudeScenario) -> Truth:
    """True trajectory on the sensor grid via the exact one-step flow.

    The body rate is held at its left-endpoint value over each interval.
    Raises ValueError if the reference vector leaves the unit sphere.
    """
    epochs = scenario.epochs()
    times = [k * scenario.sensor_dt for k in range(epochs)]
    omega = _sampled(scenario.omega_fn, times)
    z_ref = _sampled(scenario.ref_fn, times)
    # Written as "not (|norm - 1| <= tol)" so that NaN fails too.
    unit = np.abs(np.linalg.norm(z_ref, axis=1) - 1.0) <= 1e-12
    if not unit.all():
        raise ValueError(f"reference vector at t={times[int(unit.argmin())]} is not unit length")
    # The exact flow (_flow) on raw 4-vectors.
    q = np.empty((epochs, 4))
    q[:1] = scenario.q0.as_vector()
    coords, formed, error = -scenario.sensor_dt * velocity_coords(omega), epochs, None
    try:
        for k in range(epochs - 1):
            q[k + 1] = _flow(q[k], coords[k])
    except ValueError as exc:
        formed, error = k + 1, exc
    # A quaternion that is not unit fails before a later rate the exponential
    # rejects, as when each was checked as it came. A row within half the
    # tolerance is unit however its norm rounds; any other is checked as a
    # Quaternion, which raises for the first bad one.
    unit = np.abs(np.linalg.norm(q[:formed], axis=1) - 1.0) <= UNIT_TOLERANCE / 2
    for row in q[:formed][~unit]:
        Quaternion.from_vector(row)
    if error is not None:
        raise error
    truth = Truth(np.array(times, dtype=float), q, z_ref, _to_body(q, z_ref), omega)
    for array in truth:
        array.flags.writeable = False
    return truth


def _sampled(signal, times: list) -> np.ndarray:
    # (N, 3) rows signal(t), each read as a 3-vector.
    return np.array([np.asarray(signal(t), dtype=float).reshape(3) for t in times]).reshape(-1, 3)


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    # Counter-based generator; separate substreams per sensor so enabling
    # one noise source does not shift the other's draws.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=[int(seed), stream_id]))
    )


def corrupt(truth: Truth, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Measured (omega, z) of every epoch, as the rates and vectors (N, 3)
    of the truth with additive zero-mean Gaussian noise, one draw per epoch
    per sensor, reproducible per seed.

    Each sensor's draws come as one (N, 3) block, which holds the same
    numbers as N draws of 3, scaled by the sensor's sigma, the square root
    of its variance.
    """
    gyro, vector = (math.sqrt(var) * _stream(noise.seed, stream_id).standard_normal(truth.z.shape)
                    for stream_id, var in enumerate((noise.gyro_var, noise.vector_var)))
    return truth.omega + gyro, truth.z + vector


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
    return scale ** 2 * X0 @ (Ups @ Ups.T) @ X0.T


def initial_state(q_hat_0: Quaternion, scale: float) -> ObserverState:
    """The state a run starts from: init with X_hat_0 the group lift of
    q_hat_0 and H_0 = initial_observer_hessian(q_hat_0, scale)."""
    return init(BASIS, group_from_quaternion(q_hat_0), initial_observer_hessian(q_hat_0, scale))


class ObservedEpoch(NamedTuple):
    """One sensor epoch as observe yields it: its time t, its row q_true of
    the true quaternions (read-only), the observer state at the epoch, its
    estimate X_hat^-1 origin_xi as a 4-vector, the sample held
    over the next interval, the number of substeps spent on that interval,
    delta, the correction applied by the first of them (solved directly at
    the last epoch, which is not stepped and has no substeps), and the
    interval's StepTrace, the (S, .) arrays of its substeps, when observe
    was asked for it (None otherwise, and at the last epoch)."""

    t: float
    q_true: np.ndarray
    state: ObserverState
    estimate: np.ndarray
    sample: SignalSample
    delta: np.ndarray
    substeps: int
    trace: Optional[StepTrace]


def observe(config: RunConfig, trace: bool = False):
    """Drive the observer from the configured estimate through every
    sensor epoch of the scenario, yielding one ObservedEpoch each.

    With ``trace`` each stepped epoch carries the StepTrace of its
    interval. The state is checked once per epoch (check_invariants). A
    SingularPError, from that check or from a correction solve, is
    re-raised with the epoch index and time attached.
    """
    yield from _observe(config, *_epoch_inputs(config), trace)


def _epoch_inputs(config: RunConfig) -> tuple[Truth, np.ndarray, np.ndarray]:
    # The truth, and the state-free part of every sample, formed once per
    # run: the velocity coordinates U (N, 3) and the matrices C (N, 4, 4),
    # both read-only.
    truth = simulate_truth(config.scenario)
    omega, z = (truth.omega, truth.z) if config.noise is None else corrupt(truth, config.noise)
    U = velocity_coords(omega)
    C = measurement_matrix(z, truth.z_ref)
    U.flags.writeable = C.flags.writeable = False
    return truth, U, C


def _observe(config: RunConfig, truth: Truth, U: np.ndarray, C: np.ndarray, trace: bool):
    # observe, on the inputs _epoch_inputs formed.
    cfg, gains, hold = config.filter, config.gains, config.scenario.sensor_dt
    Ups = _origin_action(BASIS, cfg.origin_xi)
    last = len(truth.t) - 1

    state = initial_state(config.initial_estimate, config.initial_hessian_scale)
    for k, (t, q_true) in enumerate(zip(truth.t.tolist(), truth.q)):
        traced = [] if trace else None
        try:
            check_invariants(state)
            estimate = state_estimate(state, cfg)
            sample = build_sample(estimate, state.X_hat, U[k], C[k], t + hold, gains)
            if k < last:
                end, substeps, delta = step(state, sample, cfg, trace=traced)
            else:
                # Looked up through mef.filter, as step does, so that a
                # patched correction_delta reaches this solve too.
                end, substeps = state, 0
                pull, damping = _filter.forcing_terms(BASIS.inverse(state.X_hat), state.H,
                                                      state.eta, sample, cfg.origin_xi)
                delta = _filter.correction_delta(BASIS, state.H, state.eta, Ups, pull - damping)
        except SingularPError as exc:
            raise SingularPError(f"epoch {k} (t={t:g} s): {exc}") from exc
        yield ObservedEpoch(t, q_true, state, estimate, sample, delta, substeps,
                            traced[0] if traced else None)
        state = end


def run(config: RunConfig) -> tuple[list[LogRecord], dict]:
    """Execute one experiment; returns per-epoch records and a summary.

    Logs one record per epoch of observe. Record k carries the number of
    substeps spent on the interval ending at t_k (zero for k = 0). The
    summary holds the final error angle, the largest optimality-residual
    component over the run, and the total substep count.

    Per epoch, only the raw arrays the log is formed from are copied into
    buffers preallocated for the run; the error angles, |delta|, the
    optimality residuals and the value rates are then formed once, on the
    truth and the (N, .) buffers, with the bits of the single-epoch calls.
    """
    truth, U, C = _epoch_inputs(config)
    count, cfg = len(truth.t), config.filter
    m, d = BASIS.dim_embedding, BASIS.dim_algebra
    substeps = np.zeros(count + 1, dtype=int)
    q_est, eta, R, B = (np.empty((count,) + shape) for shape in ((m,), (m,), (m, m), (m, d)))
    delta = np.empty((count, d))
    # y (zero, from build_sample) and Q_inv (the gain's memoized inverse)
    # are the same at every epoch of a run, so one of each serves the whole
    # stack; these stand in for a run of no epochs.
    y, Q_inv = np.zeros(m), np.zeros((d, d))
    for k, (_, _, state, estimate, sample, step_delta, steps, _) in enumerate(
            _observe(config, truth, U, C, False)):
        q_est[k], eta[k], delta[k] = estimate, state.eta, step_delta
        B[k], R[k], y, Q_inv = sample.B, sample.R, sample.y, sample.Q_inv
        substeps[k + 1] = steps

    opt_residual = optimality_residual(BASIS, eta, cfg.origin_xi)
    logged_substeps = substeps[:count].tolist()
    records = list(map(
        LogRecord, truth.t.tolist(), truth.q, q_est, attitude_error_angle(truth.q, q_est).tolist(),
        # sqrt(delta . delta) is how np.linalg.norm forms |delta|, bit for bit.
        np.sqrt(_dot(delta, delta)).tolist(), opt_residual,
        value_rate(BASIS, eta, delta, q_est, C, y, B, Q_inv, R, cfg.origin_xi).tolist(),
        logged_substeps,
    ))
    summary = {
        "final_error_rad": records[-1].error_angle if records else float("nan"),
        "max_opt_residual": max(np.abs(opt_residual).max(axis=1).tolist(), default=0.0),
        "total_substeps": sum(logged_substeps),
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
