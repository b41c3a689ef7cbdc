"""Exact minimum-energy observer for group-linear systems.

The observer integrates three coupled quantities: a group element X_hat,
a plain (m, m) matrix whose inverse action on the origin point gives the
state estimate, the Hessian H of the induced value function at the
origin, and its gradient eta. X_hat is inverted by GeneratorBasis.inverse
alone. The correction direction is obtained at every substep by solving a
small d x d linear system by LU; with that choice the tangential part of
eta is invariant under the exact flow, so its drift is a direct measure of
integration error. The solve, and the eigenvalue test of R and H_0, call
the LAPACK gufunc behind np.linalg.solve and np.linalg.eigvalsh directly,
under the error state those wrappers set: the same bits and errors,
without the wrappers' checks and conversions, which take nearly half of
np.linalg.solve's time on a 3 x 3.

step walks an interval on plain arrays: X_hat, its inverse X_inv, H and
eta. At the end of the interval it builds one ObserverState and, traced,
one StepTrace of (S, .) arrays, so no substep's record outlives it. The
rate pieces take arrays: forcing_terms(X_inv, H, eta, sample, origin),
correction_delta(basis, H, eta, Ups, forcing),
hessian_rate(X_inv, H, sample, Delta) and
gradient_rate(H, eta, Delta, pull, damping, origin). step computes each
term they share once and passes it on: Upsilon at the origin, memoized
on the basis and the origin's value, so once per run; per substep, the
forcing terms (output pull and noise damping), wedge(delta), and one
product of group matrices, the kernel's one finiteness test. The
correction solve keeps its residual guard every substep, measured in units
of max|rhs| when |rhs|^2 overflows or underflows, and a step cap that
leaves no step (|delta|^2 overflows) raises.
Every SignalSample checks all of its inputs; the check and inverse of its
velocity gain Q are memoized on Q's value, so the samples of a run, which
share one Q, check and invert it once; one |R| serves both of R's checks,
and an R whose mirror entries have equal bits skips forming R - R^T.
check_invariants guards the state once per epoch, counting finite entries
as step does (_all_finite), against the basis's read-only identity.

The diagnostics optimality_residual and value_rate take one epoch or an
(N, .) stack of epochs, so that a run logs all of its epochs at once. A
stack is formed with stacked products, (N, a, b) @ (N, b, 1) and
(N, 1, b) @ (N, b, 1), which call per epoch the BLAS routine that
ndarray.dot calls on one epoch's operands: each row has the single
epoch's bits. A 2-D (N, b) @ (b, c) product, or einsum, need not.

On the attitude instance every product is of 4 x 4, 4 x 3 or 4-vector
operands, and costs its numpy call, not its flops. 1-D and 2-D products
are therefore written with ndarray.dot: it calls the same BLAS routine as
@ (same bits) at about half the cost of the matmul ufunc's dispatch. They
keep @'s grouping: -A @ B is (-A).dot(B), as -A.dot(B) could flip a zero's
sign. step forms exp(dt U) only when dt changes; U is fixed per interval.

All operations are pure: they return new values without mutating their
inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .liegroup import GeneratorBasis, exp_group, upsilon

__all__ = [
    "ObserverState",
    "SignalSample",
    "FilterConfig",
    "SingularPError",
    "StepTrace",
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
# Largest ||X_hat^T X_hat - I||_F that check_invariants accepts on an
# orthogonal basis, whose elements are inverted by their transpose.
# Rounding adds about 1e-16 per substep; 1e5 substeps of one repeated
# exponential, the worst case, reach about 2e-11. A drift of 1e-9 would
# move the estimate by as much, still far below the integration error.
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

    X_hat is the (m, m) group matrix; basis.inverse inverts it. The basis
    rides along with the state; it is shared, never copied. H is
    kept symmetric by construction. The tangential part of eta staying near
    zero is the observer's defining property; it is monitored through
    optimality_residual, not enforced.
    """

    X_hat: np.ndarray
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
    if _symmetric_scale(Q, 1e-12) is None:
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
    scale = _symmetric_scale(A, 1e-10)
    if scale is None:
        raise ValueError(f"{name} must be symmetric")
    if A.shape[0] > 0 and float(_eigvalsh(A)[0]) < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semidefinite")


# The LAPACK gufuncs behind np.linalg.solve(P, rhs), rhs a vector, and
# np.linalg.eigvalsh(A), called under the error state those wrappers set, so
# the bits and the LinAlgErrors are the same; the wrappers' checks and
# conversions, which square float64 operands do not need, are left out.
def _solve(P: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    with np.errstate(call=_singular_matrix, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.solve1(P, rhs, signature="dd->d")


def _eigvalsh(A: np.ndarray) -> np.ndarray:
    with np.errstate(call=_eigenvalues_did_not_converge, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.eigvalsh_lo(A, signature="d->d")


def _singular_matrix(err, flag):
    raise LinAlgError("Singular matrix")


def _eigenvalues_did_not_converge(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _symmetric_scale(A: np.ndarray, tol: float) -> Optional[float]:
    """The scale max(1, max|A|) if A is symmetric to tol relative to it,
    else None. The test is np.allclose(A, A.T, atol=tol * scale) with its
    default rtol of 1e-5, without its generic broadcasting and infinity
    handling (an infinite or NaN entry fails); the one |A| serves both.
    A finite A whose mirror entries have equal bits passes that test, so
    it returns before forming A - A^T."""
    magnitude = np.abs(A)
    top = float(magnitude.max(initial=0.0))
    scale = max(1.0, top)
    # "top < inf" is false for an infinite or NaN entry.
    if top < math.inf and A.tobytes() == A.T.tobytes():
        return scale
    held = np.abs(A - A.T) <= tol * scale + 1e-5 * magnitude.T
    return scale if np.count_nonzero(held) == held.size else None


class StepTrace(NamedTuple):
    """One step call: its sample and, stacked as (S, .) arrays at the end,
    each substep's dt, delta, and the X_hat, H and eta it started from.

    Consumed by the brute-force verifier, which rebuilds the discretized
    estimation problem from exactly the quantities the filter used.
    """

    sample: SignalSample
    dt: np.ndarray
    delta: np.ndarray
    X_hat: np.ndarray
    H: np.ndarray
    eta: np.ndarray


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
        # step drops a chunk end within TIME_SNAP of t, so a smaller dt_max
        # would never move t.
        if not self.dt_max > TIME_SNAP:
            raise ValueError(f"dt_max must exceed TIME_SNAP = {TIME_SNAP:g} s")


def init(basis: GeneratorBasis, X_hat_0, H_0) -> ObserverState:
    """Initial observer state at t = 0.

    X_hat_0 is an (m, m) group matrix with finite entries. The initial
    estimate is X_hat_0^-1 origin_xi, with the origin_xi of the
    FilterConfig that steps it; the value-function minimum is then at the
    origin and the initial gradient is exactly zero.
    """
    m = basis.dim_embedding
    X_hat_0 = np.asarray(X_hat_0, dtype=float)
    if X_hat_0.shape != (m, m):
        raise ValueError("X_hat_0 dimension does not match the basis")
    if not _all_finite(X_hat_0):
        raise ValueError("X_hat_0 must be finite")
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
    """Raise SingularPError unless X_hat, H and eta are finite and X_hat
    is invertible: on an orthogonal basis ||X_hat^T X_hat - I||_F <=
    ORTHOGONALITY_TOLERANCE, on any other np.linalg.inv succeeds.

    The kernel relies on both: an orthogonal basis inverts X_hat by its
    transpose, and a NaN would pass through the rate equations unnoticed.
    Cheap enough to run once per sensor epoch.
    """
    X = state.X_hat
    if not (_all_finite(X) and _all_finite(state.H) and _all_finite(state.eta)):
        raise SingularPError("observer state is not finite")
    if state.basis.orthogonal:
        # The Frobenius norm as np.linalg.norm forms it, bit for bit.
        drift = (X.T.dot(X) - state.basis._identity).ravel()
        drift = math.sqrt(drift.dot(drift))
        if not drift <= ORTHOGONALITY_TOLERANCE:
            raise SingularPError(
                f"X_hat orthogonality drift {drift:.3e} exceeds "
                f"{ORTHOGONALITY_TOLERANCE:.0e}"
            )
    else:
        try:
            np.linalg.inv(X)
        except np.linalg.LinAlgError:
            raise SingularPError("X_hat is singular") from None


def _all_finite(A: np.ndarray) -> bool:
    # Counting the finite entries costs a third of isfinite(A).all() on a
    # 4 x 4, and step tests one matrix per substep.
    return np.count_nonzero(np.isfinite(A)) == A.size


def _origin_action(basis: GeneratorBasis, origin) -> np.ndarray:
    # upsilon(basis, origin), read-only and memoized on the origin's value,
    # so that step, optimality_residual, build_sample and observe form it
    # once per run, not once per interval.
    return _upsilon_memo(basis, np.asarray(origin, dtype=float).tobytes())


@functools.lru_cache(maxsize=16)
def _upsilon_memo(basis: GeneratorBasis, origin: bytes) -> np.ndarray:
    Ups = upsilon(basis, np.frombuffer(origin))
    Ups.flags.writeable = False
    return Ups


def forcing_terms(X_inv: np.ndarray, H: np.ndarray, eta: np.ndarray,
                  sample: SignalSample, origin: np.ndarray):
    """The two forcing terms that the correction solve and the gradient
    rate share, for X_inv = X_hat^-1: the output pull X_hat^-T C^T R
    (C X_hat^-1 origin - y) and the noise damping H B Q^-1 B^T eta, as
    (pull, damping).
    """
    residual = sample.C.dot(X_inv.dot(origin)) - sample.y
    pull = X_inv.T.dot(sample.C.T.dot(sample.R.dot(residual)))
    return pull, H.dot(sample.noise_shape.dot(eta))


def correction_delta(basis: GeneratorBasis, H: np.ndarray, eta: np.ndarray,
                     Ups: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Correction coordinates solving P delta = Ups^T forcing.

    Ups = upsilon(basis, origin_xi) and forcing = pull - damping from
    forcing_terms. P = Ups^T H Ups + Ups^T UpsilonBar(eta). The solve is an
    LU factorization, np.linalg.solve's LAPACK call without its wrapper
    (_solve). An exactly singular P, or a relative residual
    |P delta - rhs| / |rhs| above P_SOLVE_TOLERANCE, raises SingularPError.
    A zero right-hand side gives delta = 0 for any P.
    """
    Ups_T = Ups.T
    # upsilon_bar(basis, eta)'s product, without its check of the point.
    Ups_bar = eta.dot(basis._bar).reshape(basis.dim_embedding, basis.dim_algebra)
    P = Ups_T.dot(H).dot(Ups) + Ups_T.dot(Ups_bar)
    rhs = Ups_T.dot(forcing)
    rhs_norm = math.sqrt(rhs.dot(rhs))
    if rhs_norm == 0.0 and not rhs.any():
        return np.zeros(basis.dim_algebra)
    try:
        delta = _solve(P, rhs)
    except LinAlgError:
        raise SingularPError(
            f"correction solve residual inf exceeds {P_SOLVE_TOLERANCE:.3e} "
            "(P is singular)"
        ) from None
    residual = P.dot(delta) - rhs
    if rhs_norm == math.inf or rhs_norm == 0.0:
        # rhs . rhs overflowed or underflowed, and |residual| / inf would
        # pass any solve, |residual| / 0 none: measure both in units of
        # max|rhs| instead.
        scale = float(np.abs(rhs).max())
        residual, rhs = residual / scale, rhs / scale
        rhs_norm = math.sqrt(rhs.dot(rhs))
    rel = math.sqrt(residual.dot(residual)) / rhs_norm
    if not rel <= P_SOLVE_TOLERANCE:
        raise SingularPError(
            f"correction solve residual {rel:.3e} exceeds {P_SOLVE_TOLERANCE:.3e}"
        )
    return delta


def hessian_rate(X_inv: np.ndarray, H: np.ndarray, sample: SignalSample,
                 Delta: np.ndarray) -> np.ndarray:
    """Riccati-type rate of H for the correction Delta = wedge(delta), with
    X_inv = X_hat^-1; the caller symmetrizes after stepping."""
    C_pulled = sample.C.dot(X_inv)
    return (
        (-H).dot(Delta)
        - Delta.T.dot(H)
        - H.dot(sample.noise_shape).dot(H)
        + C_pulled.T.dot(sample.R.dot(C_pulled))
    )


def gradient_rate(H: np.ndarray, eta: np.ndarray, Delta: np.ndarray, pull: np.ndarray,
                  damping: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Rate of the value-function gradient at the origin point, for the
    correction Delta = wedge(delta) and the forcing_terms at (H, eta).

    With delta from correction_delta, the tangential projection of this
    rate vanishes identically up to the correction-solve residual.
    """
    return (-H).dot(Delta.dot(origin)) - Delta.T.dot(eta) - damping + pull


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
    at the same dt. When ``trace`` is a list, one StepTrace of the
    interval's substeps is appended to it at the end (none if step raises).

    Returns (end_state, substeps, delta): the state at valid_until, the
    number of substeps taken, and the correction applied by the first of
    them, which is the boundary correction at the interval start.

    forcing_terms, correction_delta, hessian_rate, gradient_rate and
    exp_group are looked up as module globals on every call, so a test can
    replace one of them to inject a fault.
    """
    t_end = sample.valid_until
    if t_end - state.t <= TIME_SNAP:
        raise ValueError("sample is not valid past the current state time")
    basis = state.basis
    origin, dt_max, cap, U = cfg.origin_xi, cfg.dt_max, cfg.delta_step_cap, sample.U_coords
    Ups = _origin_action(basis, origin)
    # wedge(basis, delta) is delta.dot(flat_T) reshaped, as wedge forms it.
    flat_T, m = basis._flat.T, basis.dim_embedding
    inverse = basis.inverse
    X = state.X_hat
    X_inv = inverse(X)
    H, eta, t = state.H, state.eta, state.t
    t_stop = t
    substeps, rows = 0, []
    exp_dt = None
    while t_end - t > TIME_SNAP:
        if t_stop - t <= TIME_SNAP:
            t_stop = min(t_end, t + dt_max)
        pull, damping = forcing_terms(X_inv, H, eta, sample, origin)
        delta = correction_delta(basis, H, eta, Ups, pull - damping)
        if not substeps:
            first_delta = delta
        substeps += 1
        delta_norm = math.sqrt(delta.dot(delta))
        remaining = t_stop - t
        dt = remaining if remaining < dt_max else dt_max
        if delta_norm > 0.0 and cap / delta_norm < dt:
            dt = cap / delta_norm
            # A finite delta whose squared norm overflows gives dt = 0, and t
            # would never advance; a non-finite one fails the product's test
            # below.
            if not dt > 0.0 and _all_finite(delta):
                raise SingularPError(
                    "correction norm overflows (|delta|^2 = inf), so the substep "
                    "would not advance"
                )
        Delta = delta.dot(flat_T).reshape(m, m)
        H_dot = hessian_rate(X_inv, H, sample, Delta)
        eta_dot = gradient_rate(H, eta, Delta, pull, damping, origin)
        if dt != exp_dt:
            exp_dt, exp_U = dt, exp_group(basis, dt * U)
        # The kernel's one finiteness test, on the product: a non-finite
        # entry of either factor, or of the inner product, makes a whole row
        # or column of the outer one non-finite (inf * 0 = NaN).
        X_next = exp_group(basis, dt * delta).dot(X).dot(exp_U)
        if not _all_finite(X_next):
            raise ValueError("group element matrix must be finite")
        if trace is not None:
            rows.append((dt, delta, X, H, eta))
        X = X_next
        X_inv = inverse(X)
        H_new = H + dt * H_dot
        H = H_new + H_new.T
        H *= 0.5
        eta = eta + dt * eta_dot
        t = t_stop if dt >= remaining else t + dt
    if trace is not None:
        dts, *stacks = zip(*rows)
        trace.append(StepTrace(sample, np.array(dts), *map(np.stack, stacks)))
    end = ObserverState(X_hat=X, H=H, eta=eta, t=t, basis=basis)
    return end, substeps, first_delta


def state_estimate(state: ObserverState, cfg: FilterConfig) -> np.ndarray:
    """Estimate X_hat^-1 origin_xi; on the manifold by construction."""
    return state.basis.inverse(state.X_hat).dot(cfg.origin_xi)


def optimality_residual(basis: GeneratorBasis, eta, origin) -> np.ndarray:
    """Tangential gradient Upsilon^T eta at the origin point, of one
    gradient eta (m,) or of each row of an (N, m) stack.

    Zero in exact arithmetic along closed-loop trajectories; its size is
    the observer's built-in integration diagnostic.
    """
    return _matvec(_origin_action(basis, origin).T, np.asarray(eta, dtype=float))


def value_rate(basis: GeneratorBasis, eta, delta, estimate, C, y, B, Q_inv, R, origin):
    """Time rate of the value function at the origin point (diagnostic).

    Equals -<eta, Delta origin> - 0.5 |B^T eta|^2_{Q^-1}
    + 0.5 |y - C X_hat^-1 origin|^2_R, with Delta = wedge(delta) and
    estimate = X_hat^-1 origin, of one epoch's gradient, correction and
    estimate and its sample's C, y, B, Q^-1 and R; a float. Given a leading
    axis of N epochs on every argument, the (N,) array of their rates.
    """
    eta, delta, estimate, C, y, B, Q_inv, R, origin = (
        np.asarray(a, dtype=float) for a in (eta, delta, estimate, C, y, B, Q_inv, R, origin))
    m = basis.dim_embedding
    # wedge(basis, delta) row by row, as wedge forms one.
    Delta = _vecmat(delta, basis._flat.T).reshape(delta.shape[:-1] + (m, m))
    residual = y - _matvec(C, estimate)
    b_eta = _matvec(np.swapaxes(B, -1, -2), eta)
    rate = (
        _dot(-eta, _matvec(Delta, origin))
        - _dot(_vecmat(0.5 * b_eta, Q_inv), b_eta)
        + _dot(_vecmat(0.5 * residual, R), residual)
    )
    return float(rate) if rate.ndim == 0 else rate


# Matrix-vector, vector-matrix and vector-vector products of one epoch's
# operands or of each epoch of a stack, with the bits of ndarray.dot (see
# the module docstring).
def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (A @ x[..., None])[..., 0]


def _vecmat(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ A)[..., 0, :]


def _dot(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ z[..., None])[..., 0, 0]
