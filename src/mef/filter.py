"""Exact minimum-energy observer for group-linear systems.

The observer integrates three coupled quantities: a group element X_hat
whose inverse action on the origin point gives the state estimate, the
Hessian H of the induced value function at the origin, and its gradient
eta. The correction direction is obtained at every substep by solving a
small d x d linear system by LU; with that choice the tangential part of
eta is invariant under the exact flow, so its drift is a direct measure of
integration error.

step computes each term the substep equations share once and passes it
on: Upsilon at the origin once per interval; per substep, the forcing
terms (output pull and noise damping), wedge(delta), and one product of
the raw group matrices, checked once for finiteness. The correction solve
keeps its residual guard every substep. Every SignalSample checks all of
its inputs; the check and inverse of its velocity gain Q are memoized on
Q's value, so the samples of a run, which share one Q, check and invert it
once. check_invariants guards the state once per epoch.

On the attitude instance every product is of 4 x 4, 4 x 3 or 4-vector
operands, and costs its numpy call, not its flops. 1-D and 2-D products
are therefore written with ndarray.dot: it calls the same BLAS routine as
@ (same bits) at about half the cost of the matmul ufunc's dispatch. They
keep @'s grouping: -A @ B is (-A).dot(B), as -A.dot(B) could flip a zero's
sign. step forms exp(dt U) only when dt changes; U is fixed per interval.

All operations are pure: they take an ObserverState and return new values
without mutating their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .liegroup import GeneratorBasis, GroupElement, _element, exp_group, upsilon, upsilon_bar, wedge

__all__ = [
    "ObserverState",
    "SignalSample",
    "FilterConfig",
    "SingularPError",
    "SubstepRecord",
    "init",
    "check_invariants",
    "forcing_terms",
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
# Largest ||X_hat^T X_hat - I||_F that check_invariants accepts for an
# orthogonal X_hat, whose inverse is taken as its transpose. Rounding adds
# about 1e-16 per substep; 1e5 substeps of one repeated exponential, the
# worst case, reach about 2e-11. A drift of 1e-9 would move the estimate by
# as much, still far below the integration error.
ORTHOGONALITY_TOLERANCE = 1e-9
# Largest relative residual |P delta - rhs| / |rhs| that correction_delta
# accepts from its LU solve; past it, P is treated as singular.
P_SOLVE_TOLERANCE = 1e-8


class SingularPError(RuntimeError):
    """The observer cannot go on from its current state.

    Raised when the correction solve fails or leaves a relative residual
    above tolerance (P is effectively rank deficient: the data seen so far
    does not excite every tangent direction, or H has degenerated), and by
    check_invariants when the state is no longer finite or X_hat has
    drifted off the orthogonal group.
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
    Q_inv, read-only and shared by every sample with an equal Q, and
    noise_shape = B Q^-1 B^T, the diffusion-like term of both rate
    equations, are derived on construction.
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
        self.Q_inv = _velocity_gain_inverse(self.Q.shape, self.Q.tobytes())
        _check_psd(self.R, "R")
        self.noise_shape = self.B.dot(self.Q_inv).dot(self.B.T)


@functools.lru_cache(maxsize=16)
def _velocity_gain_inverse(shape: tuple, data: bytes) -> np.ndarray:
    """Read-only Q^-1 of the velocity gain Q with this shape and these
    float64 bytes. Raises ValueError unless Q is symmetric positive definite
    (symmetric to 1e-12 relative, and Cholesky succeeds). Memoized on Q's
    value, not its identity: a Q edited in place is a new key, and a Q that
    fails is checked again on every use."""
    Q = np.frombuffer(data).reshape(shape)
    if not _symmetric(Q, 1e-12):
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ValueError("Q must be positive definite") from None
    Q_inv = np.linalg.inv(Q)
    Q_inv.flags.writeable = False
    return Q_inv


def _check_psd(A: np.ndarray, name: str) -> None:
    """Raise ValueError unless A is symmetric to 1e-10 relative and its
    smallest eigenvalue is at least -1e-10 max(1, max|A|): the output gain
    R and the prior H_0 pass or fail by the same rule at any scale."""
    if not _symmetric(A, 1e-10):
        raise ValueError(f"{name} must be symmetric")
    if A.shape[0] > 0 and float(np.linalg.eigvalsh(A)[0]) < -1e-10 * max(1.0, float(np.abs(A).max())):
        raise ValueError(f"{name} must be positive semidefinite")


def _symmetric(A: np.ndarray, tol: float) -> bool:
    # np.allclose(A, A.T, atol=tol * max(1, max|A|)) with its default
    # rtol of 1e-5, without its generic broadcasting and infinity handling
    # (an infinite or NaN entry fails).
    magnitude = np.abs(A)
    atol = tol * max(1.0, float(magnitude.max(initial=0.0)))
    return bool((np.abs(A - A.T) <= atol + 1e-5 * magnitude.T).all())


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
    """Integration parameters.

    origin_xi is the fixed embedding point the estimate is pulled back to.
    delta_step_cap bounds ||delta|| * dt per substep, and dt_max bounds dt.
    """

    origin_xi: np.ndarray
    delta_step_cap: float = 0.01
    dt_max: float = 0.1

    def __post_init__(self):
        self.origin_xi = np.asarray(self.origin_xi, dtype=float).reshape(-1)
        # Written as "not (x > 0)" so that NaN fails them too.
        if not self.delta_step_cap > 0.0:
            raise ValueError("delta_step_cap must be positive")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")


def init(basis: GeneratorBasis, X_hat_0: GroupElement, H_0) -> ObserverState:
    """Initial observer state at t = 0.

    The initial estimate is X_hat_0^-1 origin_xi, with the origin_xi of the
    FilterConfig that steps it; the value-function minimum is then at the
    origin and the initial gradient is exactly zero.
    """
    m = basis.dim_embedding
    if X_hat_0.matrix.shape != (m, m):
        raise ValueError("X_hat_0 dimension does not match the basis")
    H_0 = np.asarray(H_0, dtype=float)
    if H_0.shape != (m, m):
        raise ValueError("H_0 must be m x m")
    if not np.isfinite(H_0).all():
        raise ValueError("H_0 must be finite")
    _check_psd(H_0, "H_0")
    H_0 = 0.5 * (H_0 + H_0.T)
    return ObserverState(
        X_hat=X_hat_0,
        H=H_0,
        eta=np.zeros(m),
        t=0.0,
        basis=basis,
    )


def check_invariants(state: ObserverState) -> None:
    """Raise SingularPError unless X_hat, H and eta are finite and, for an
    orthogonal X_hat, ||X_hat^T X_hat - I||_F <= ORTHOGONALITY_TOLERANCE.

    The kernel relies on both: an orthogonal X_hat is inverted by its
    transpose, and a NaN would pass through the rate equations unnoticed.
    Cheap enough to run once per sensor epoch.
    """
    X = state.X_hat.matrix
    if not (np.isfinite(X).all() and np.isfinite(state.H).all()
            and np.isfinite(state.eta).all()):
        raise SingularPError("observer state is not finite")
    if state.X_hat.orthogonal:
        drift = float(np.linalg.norm(X.T.dot(X) - np.eye(X.shape[0])))
        if not drift <= ORTHOGONALITY_TOLERANCE:
            raise SingularPError(
                f"X_hat orthogonality drift {drift:.3e} exceeds "
                f"{ORTHOGONALITY_TOLERANCE:.0e}"
            )


def forcing_terms(state: ObserverState, sample: SignalSample, cfg: FilterConfig):
    """The two forcing terms that the correction solve and the gradient
    rate share at ``state``: the output pull X_hat^-T C^T R (C X_hat^-1
    origin - y) and the noise damping H B Q^-1 B^T eta, as (pull, damping).
    """
    X_inv = state.X_hat.inverse
    residual = sample.C.dot(X_inv.dot(cfg.origin_xi)) - sample.y
    pull = X_inv.T.dot(sample.C.T.dot(sample.R.dot(residual)))
    return pull, state.H.dot(sample.noise_shape.dot(state.eta))


def correction_delta(state: ObserverState, Ups: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Correction coordinates solving P delta = Ups^T forcing.

    Ups = upsilon(basis, origin_xi) and forcing = pull - damping from
    forcing_terms. P = Ups^T H Ups + Ups^T UpsilonBar(eta). The solve is an
    LU factorization (np.linalg.solve). An exactly singular P, or a
    relative residual |P delta - rhs| / |rhs| above P_SOLVE_TOLERANCE,
    raises SingularPError. A zero right-hand side gives delta = 0 for any P.
    """
    basis = state.basis
    P = Ups.T.dot(state.H).dot(Ups) + Ups.T.dot(upsilon_bar(basis, state.eta))
    rhs = Ups.T.dot(forcing)
    rhs_norm = math.sqrt(rhs.dot(rhs))
    if rhs_norm == 0.0:
        return np.zeros(basis.dim_algebra)
    try:
        delta = np.linalg.solve(P, rhs)
    except np.linalg.LinAlgError:
        raise SingularPError(
            f"correction solve residual inf exceeds {P_SOLVE_TOLERANCE:.3e} "
            "(P is singular)"
        ) from None
    residual = P.dot(delta) - rhs
    rel = math.sqrt(residual.dot(residual)) / rhs_norm
    if not rel <= P_SOLVE_TOLERANCE:
        raise SingularPError(
            f"correction solve residual {rel:.3e} exceeds {P_SOLVE_TOLERANCE:.3e}"
        )
    return delta


def hessian_rate(state: ObserverState, sample: SignalSample, Delta: np.ndarray) -> np.ndarray:
    """Riccati-type rate of H for the correction Delta = wedge(delta); the
    caller symmetrizes after stepping."""
    C_pulled = sample.C.dot(state.X_hat.inverse)
    return (
        (-state.H).dot(Delta)
        - Delta.T.dot(state.H)
        - state.H.dot(sample.noise_shape).dot(state.H)
        + C_pulled.T.dot(sample.R.dot(C_pulled))
    )


def gradient_rate(
    state: ObserverState, Delta: np.ndarray, pull: np.ndarray, damping: np.ndarray,
    cfg: FilterConfig,
) -> np.ndarray:
    """Rate of the value-function gradient at the origin point, for the
    correction Delta = wedge(delta) and the forcing_terms at ``state``.

    With delta from correction_delta, the tangential projection of this
    rate vanishes identically up to the correction-solve residual.
    """
    return (-state.H).dot(Delta.dot(cfg.origin_xi)) - Delta.T.dot(state.eta) - damping + pull


def step(
    state: ObserverState,
    sample: SignalSample,
    cfg: FilterConfig,
    trace: Optional[list] = None,
) -> tuple[ObserverState, int, np.ndarray]:
    """Advance the observer to sample.valid_until in one call.

    The interval is walked in chunks of at most dt_max, each starting where
    the previous one ended; within a chunk, substep sizes satisfy
    dt <= dt_max and ||delta|| * dt <= delta_step_cap. The group update is
    the two-exponential split X_hat <- exp(dt delta) X_hat exp(dt U), so
    X_hat stays in the group regardless of dt. H and eta use explicit Euler
    at the same dt. When ``trace`` is a list, one SubstepRecord is appended
    per substep.

    Returns (end_state, substeps, delta): the state at valid_until, the
    number of substeps taken, and the correction applied by the first of
    them, which is the boundary correction at the interval start.

    correction_delta, hessian_rate, gradient_rate and exp_group are looked
    up as module globals on every call, so a test can replace one of them
    to inject a fault.
    """
    t_end = sample.valid_until
    if t_end - state.t <= TIME_SNAP:
        raise ValueError("sample is not valid past the current state time")
    basis = state.basis
    Ups = upsilon(basis, cfg.origin_xi)
    X_hat, H, eta, t = state.X_hat, state.H, state.eta, state.t
    t_stop = t
    substeps = 0
    exp_dt = None
    while t_end - t > TIME_SNAP:
        if t_stop - t <= TIME_SNAP:
            t_stop = min(t_end, t + cfg.dt_max)
        current = ObserverState(X_hat=X_hat, H=H, eta=eta, t=t, basis=basis)
        pull, damping = forcing_terms(current, sample, cfg)
        delta = correction_delta(current, Ups, pull - damping)
        if not substeps:
            first_delta = delta
        substeps += 1
        delta_norm = math.sqrt(delta.dot(delta))
        remaining = t_stop - t
        dt = min(cfg.dt_max, remaining)
        if delta_norm > 0.0:
            dt = min(dt, cfg.delta_step_cap / delta_norm)
        Delta = wedge(basis, delta)
        H_dot = hessian_rate(current, sample, Delta)
        eta_dot = gradient_rate(current, Delta, pull, damping, cfg)
        if dt != exp_dt:
            exp_dt, exp_U = dt, exp_group(basis, dt * sample.U_coords).matrix
        # One product of the raw matrices, checked once for finiteness: a
        # non-finite entry of the inner product makes its whole row of the
        # outer one non-finite (inf * 0 = NaN), so that check still sees it.
        X_hat = _element(
            exp_group(basis, dt * delta).matrix.dot(X_hat.matrix).dot(exp_U),
            basis.orthogonal and X_hat.orthogonal,
        )
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
    end = ObserverState(X_hat=X_hat, H=H, eta=eta, t=t, basis=basis)
    return end, substeps, first_delta


def state_estimate(state: ObserverState, cfg: FilterConfig) -> np.ndarray:
    """Estimate X_hat^-1 origin_xi; on the manifold by construction."""
    return state.X_hat.apply_inverse(cfg.origin_xi)


def optimality_residual(state: ObserverState, cfg: FilterConfig) -> np.ndarray:
    """Tangential gradient Upsilon^T eta at the origin point.

    Zero in exact arithmetic along closed-loop trajectories; its size is
    the observer's built-in integration diagnostic.
    """
    return upsilon(state.basis, cfg.origin_xi).T.dot(state.eta)


def value_rate(
    state: ObserverState, sample: SignalSample, delta, cfg: FilterConfig
) -> float:
    """Time rate of the value function at the origin point (diagnostic).

    Equals -<eta, Delta origin> - 0.5 |B^T eta|^2_{Q^-1}
    + 0.5 |y - C X_hat^-1 origin|^2_R.
    """
    Delta = wedge(state.basis, delta)
    X_inv = state.X_hat.inverse
    residual = sample.y - sample.C.dot(X_inv.dot(cfg.origin_xi))
    b_eta = sample.B.T.dot(state.eta)
    return float(
        (-state.eta).dot(Delta.dot(cfg.origin_xi))
        - (0.5 * b_eta).dot(sample.Q_inv).dot(b_eta)
        + (0.5 * residual).dot(sample.R).dot(residual)
    )
