"""Exact minimum-energy observer for group-linear systems.

The observer integrates three coupled quantities: a group element X_hat
whose inverse action on the origin point gives the state estimate, the
Hessian H of the induced value function at the origin, and its gradient
eta. The correction direction is obtained at every substep by solving a
small d x d linear system; with that choice the tangential part of eta is
invariant under the exact flow, so its drift is a direct measure of
integration error.

All operations are pure: they take an ObserverState and return new values
without mutating their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .liegroup import GeneratorBasis, GroupElement, exp_group, upsilon, upsilon_bar, wedge

__all__ = [
    "ObserverState",
    "SignalSample",
    "FilterConfig",
    "SingularPError",
    "SubstepRecord",
    "init",
    "correction_delta",
    "hessian_rate",
    "gradient_rate",
    "step",
    "state_estimate",
    "optimality_residual",
    "value_rate",
]

# Trailing interval gaps below this many seconds are dropped rather than
# integrated, so accumulated rounding of substep times cannot produce
# spurious near-zero substeps at interval boundaries.
TIME_SNAP = 1e-12


class SingularPError(RuntimeError):
    """The correction solve left a relative residual above tolerance.

    P is effectively rank deficient: the data seen so far does not excite
    every tangent direction, or H has degenerated.
    """


@dataclass(frozen=True)
class ObserverState:
    """Observer triple (X_hat, H, eta) at time t.

    The basis rides along so that rate evaluations need no extra argument;
    it is shared, never copied. H is kept symmetric by construction. The
    tangential part of eta staying near zero is the observer's defining
    property; it is monitored through optimality_residual, not enforced.
    """

    X_hat: GroupElement
    H: np.ndarray
    eta: np.ndarray
    t: float
    basis: GeneratorBasis


@dataclass
class SignalSample:
    """Zero-order-held input data for one sensor interval.

    U_coords: measured velocity in algebra coordinates, shape (d,).
    C, y: output map and target, shapes (n, m) and (n,).
    B, Q: input map (m, l) and its symmetric positive-definite gain (l, l).
    R: symmetric positive-semidefinite output gain (n, n).
    valid_until: end of the hold interval in seconds.
    Q_inv and noise_shape = B Q^-1 B^T, the diffusion-like term of both
    rate equations, are derived once on construction.
    """

    U_coords: np.ndarray
    C: np.ndarray
    y: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    valid_until: float
    Q_inv: np.ndarray = field(init=False, repr=False)
    noise_shape: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.U_coords = np.asarray(self.U_coords, dtype=float).reshape(-1)
        self.C = np.asarray(self.C, dtype=float)
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.B = np.asarray(self.B, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.C.ndim != 2:
            raise ValueError("C must be an n x m matrix")
        n, m = self.C.shape
        if self.y.shape != (n,):
            raise ValueError("y length must match the rows of C")
        if self.B.ndim != 2 or self.B.shape[0] != m:
            raise ValueError("B must be m x l with m matching C")
        ell = self.B.shape[1]
        if self.Q.shape != (ell, ell):
            raise ValueError("Q must be l x l")
        if self.R.shape != (n, n):
            raise ValueError("R must be n x n")
        if not np.allclose(self.Q, self.Q.T, atol=1e-12 * max(1.0, float(np.abs(self.Q).max()))):
            raise ValueError("Q must be symmetric")
        try:
            np.linalg.cholesky(self.Q)
        except np.linalg.LinAlgError:
            raise ValueError("Q must be positive definite") from None
        if not np.allclose(self.R, self.R.T, atol=1e-10 * max(1.0, float(np.abs(self.R).max()))):
            raise ValueError("R must be symmetric")
        if n > 0 and float(np.linalg.eigvalsh(self.R)[0]) < -1e-10 * max(1.0, float(np.abs(self.R).max())):
            raise ValueError("R must be positive semidefinite")
        self.Q_inv = np.linalg.inv(self.Q)
        self.noise_shape = self.B @ self.Q_inv @ self.B.T


@dataclass(frozen=True)
class SubstepRecord:
    """Snapshot of one integrator substep, taken at the substep start.

    Consumed by the brute-force verifier, which rebuilds the discretized
    estimation problem from exactly the quantities the filter used.
    """

    t: float
    dt: float
    delta: np.ndarray
    X_hat: GroupElement
    H: np.ndarray
    eta: np.ndarray
    sample: SignalSample


@dataclass
class FilterConfig:
    """Integration and solve parameters.

    origin_xi is the fixed embedding point the estimate is pulled back to.
    delta_step_cap bounds ||delta|| * dt per substep, dt_max bounds dt,
    p_solve_tolerance bounds the relative residual of the correction solve,
    and hessian_regularization adds eps * I to P before solving.
    """

    origin_xi: np.ndarray
    delta_step_cap: float = 0.01
    dt_max: float = 0.1
    p_solve_tolerance: float = 1e-8
    hessian_regularization: float = 0.0

    def __post_init__(self):
        self.origin_xi = np.asarray(self.origin_xi, dtype=float).reshape(-1)
        # Written as "not (x > 0)" so that NaN fails them too.
        if not self.delta_step_cap > 0.0:
            raise ValueError("delta_step_cap must be positive")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        if not self.p_solve_tolerance > 0.0:
            raise ValueError("p_solve_tolerance must be positive")
        if not self.hessian_regularization >= 0.0:
            raise ValueError("hessian_regularization must be nonnegative")


def init(
    basis: GeneratorBasis,
    origin_xi,
    X_hat_0: GroupElement,
    H_0,
) -> ObserverState:
    """Initial observer state at t = 0.

    The initial estimate is identified with X_hat_0 through
    xi_0 = X_hat_0^-1 origin_xi, which places the value-function minimum at
    the origin and makes the initial gradient exactly zero.
    """
    origin_xi = np.asarray(origin_xi, dtype=float).reshape(-1)
    m = basis.dim_embedding
    if origin_xi.shape != (m,):
        raise ValueError("origin_xi dimension does not match the basis")
    if X_hat_0.matrix.shape != (m, m):
        raise ValueError("X_hat_0 dimension does not match the basis")
    H_0 = np.asarray(H_0, dtype=float)
    if H_0.shape != (m, m):
        raise ValueError("H_0 must be m x m")
    if float(np.abs(H_0 - H_0.T).max()) > 1e-10:
        raise ValueError("H_0 must be symmetric")
    if float(np.linalg.eigvalsh(H_0)[0]) < -1e-10:
        raise ValueError("H_0 must be positive semidefinite")
    H_0 = 0.5 * (H_0 + H_0.T)
    return ObserverState(
        X_hat=X_hat_0,
        H=H_0,
        eta=np.zeros(m),
        t=0.0,
        basis=basis,
    )


def _output_pull(state: ObserverState, sample: SignalSample, origin_xi: np.ndarray) -> np.ndarray:
    # X_hat^-T C^T R (C X_hat^-1 origin - y), the measurement forcing term.
    X_inv = state.X_hat.inverse
    residual = sample.C @ (X_inv @ origin_xi) - sample.y
    return X_inv.T @ (sample.C.T @ (sample.R @ residual))


def correction_delta(
    state: ObserverState, sample: SignalSample, cfg: FilterConfig
) -> np.ndarray:
    """Correction coordinates solving P delta = Upsilon^T (forcing terms).

    P = Upsilon^T H Upsilon + Upsilon^T UpsilonBar(eta) + eps I, with both
    Upsilon factors evaluated at the origin point. The solve is least
    squares; a relative residual above cfg.p_solve_tolerance raises
    SingularPError.
    """
    basis = state.basis
    if basis.dim_algebra == 0:
        return np.zeros(0)
    Ups = upsilon(basis, cfg.origin_xi)
    P = Ups.T @ state.H @ Ups + Ups.T @ upsilon_bar(basis, state.eta)
    if cfg.hessian_regularization > 0.0:
        P = P + cfg.hessian_regularization * np.eye(basis.dim_algebra)
    forcing = _output_pull(state, sample, cfg.origin_xi) - state.H @ (
        sample.noise_shape @ state.eta
    )
    rhs = Ups.T @ forcing
    delta, *_ = np.linalg.lstsq(P, rhs, rcond=None)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm > 0.0:
        rel = float(np.linalg.norm(P @ delta - rhs)) / rhs_norm
        if rel > cfg.p_solve_tolerance:
            raise SingularPError(
                f"correction solve residual {rel:.3e} exceeds "
                f"{cfg.p_solve_tolerance:.3e}"
            )
    return delta


def hessian_rate(state: ObserverState, sample: SignalSample, delta) -> np.ndarray:
    """Riccati-type rate of H; the caller symmetrizes after stepping."""
    Delta = wedge(state.basis, delta)
    X_inv = state.X_hat.inverse
    C_pulled = sample.C @ X_inv
    return (
        -state.H @ Delta
        - Delta.T @ state.H
        - state.H @ sample.noise_shape @ state.H
        + C_pulled.T @ (sample.R @ C_pulled)
    )


def gradient_rate(
    state: ObserverState, sample: SignalSample, delta, cfg: FilterConfig
) -> np.ndarray:
    """Rate of the value-function gradient at the origin point.

    With delta from correction_delta, the tangential projection of this
    rate vanishes identically up to the correction-solve residual.
    """
    Delta = wedge(state.basis, delta)
    return (
        -state.H @ (Delta @ cfg.origin_xi)
        - Delta.T @ state.eta
        - state.H @ (sample.noise_shape @ state.eta)
        + _output_pull(state, sample, cfg.origin_xi)
    )


def step(
    state: ObserverState,
    sample: SignalSample,
    cfg: FilterConfig,
    trace: Optional[list] = None,
    delta_transform=None,
) -> ObserverState:
    """Advance the observer to sample.valid_until in one call.

    The interval is walked in chunks of at most dt_max, each starting where
    the previous one ended; within a chunk, substep sizes satisfy
    dt <= dt_max and ||delta|| * dt <= delta_step_cap. The group update is
    the two-exponential split X_hat <- exp(dt delta) X_hat exp(dt U), so
    X_hat stays in the group regardless of dt. H and eta use explicit Euler
    at the same dt. When ``trace`` is a list, one SubstepRecord is appended
    per substep.

    ``delta_transform`` remaps the correction before it is applied; it
    exists for fault-injection diagnostics and must be None in normal use.
    """
    t_end = sample.valid_until
    if t_end - state.t <= TIME_SNAP:
        raise ValueError("sample is not valid past the current state time")
    basis = state.basis
    X_hat, H, eta, t = state.X_hat, state.H, state.eta, state.t
    t_stop = t
    while t_end - t > TIME_SNAP:
        if t_stop - t <= TIME_SNAP:
            t_stop = min(t_end, t + cfg.dt_max)
        current = ObserverState(X_hat=X_hat, H=H, eta=eta, t=t, basis=basis)
        delta = correction_delta(current, sample, cfg)
        if delta_transform is not None:
            delta = np.asarray(delta_transform(delta), dtype=float)
        delta_norm = float(np.linalg.norm(delta))
        remaining = t_stop - t
        dt = min(cfg.dt_max, remaining)
        if delta_norm > 0.0:
            dt = min(dt, cfg.delta_step_cap / delta_norm)
        H_dot = hessian_rate(current, sample, delta)
        eta_dot = gradient_rate(current, sample, delta, cfg)
        X_hat = exp_group(basis, dt * delta) @ X_hat @ exp_group(basis, dt * sample.U_coords)
        H_new = H + dt * H_dot
        H = 0.5 * (H_new + H_new.T)
        eta = eta + dt * eta_dot
        t = t_stop if dt >= remaining else t + dt
        if trace is not None:
            trace.append(
                SubstepRecord(
                    t=current.t,
                    dt=dt,
                    delta=delta,
                    X_hat=current.X_hat,
                    H=current.H,
                    eta=current.eta,
                    sample=sample,
                )
            )
    return ObserverState(X_hat=X_hat, H=H, eta=eta, t=t, basis=basis)


def state_estimate(state: ObserverState, cfg: FilterConfig) -> np.ndarray:
    """Estimate X_hat^-1 origin_xi; on the manifold by construction."""
    return state.X_hat.apply_inverse(cfg.origin_xi)


def optimality_residual(state: ObserverState, cfg: FilterConfig) -> np.ndarray:
    """Tangential gradient Upsilon^T eta at the origin point.

    Zero in exact arithmetic along closed-loop trajectories; its size is
    the observer's built-in integration diagnostic.
    """
    return upsilon(state.basis, cfg.origin_xi).T @ state.eta


def value_rate(
    state: ObserverState, sample: SignalSample, delta, cfg: FilterConfig
) -> float:
    """Time rate of the value function at the origin point (diagnostic).

    Equals -<eta, Delta origin> - 0.5 |B^T eta|^2_{Q^-1}
    + 0.5 |y - C X_hat^-1 origin|^2_R.
    """
    Delta = wedge(state.basis, delta)
    X_inv = state.X_hat.inverse
    residual = sample.y - sample.C @ (X_inv @ cfg.origin_xi)
    b_eta = sample.B.T @ state.eta
    return float(
        -state.eta @ (Delta @ cfg.origin_xi)
        - 0.5 * b_eta @ sample.Q_inv @ b_eta
        + 0.5 * residual @ sample.R @ residual
    )
