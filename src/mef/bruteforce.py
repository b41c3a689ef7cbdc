"""Brute-force verification by direct trajectory optimization.

Rebuilds the finite-horizon estimation problem the observer claims to
solve: over all disturbance sequences and initial errors consistent with
the forward-Euler error dynamics and a fixed terminal error, minimize the
initial cost plus the accumulated disturbance energy. The constraints are
linear and every cost term is quadratic, so the optimum solves the KKT
system of an equality-constrained quadratic program. Each step's
disturbance is fixed by its own stationarity row, mu_k = Q_k^-1 B_k^T lam_k
(Q_k symmetric positive definite), and is eliminated through it. The
remaining unknowns are ordered stage by stage, each step's error and
dynamics multiplier together, as interior-point MPC solvers do, so the
matrix is block tridiagonal in 2m x 2m stage blocks at any horizon. It
does not depend on the terminal error, and neither does its odd-even block
cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970):
about log2 N levels of batched block inverses, in numpy alone, computed
once and applied to every terminal point. The odd-even order keeps the
verifier apart from the observer, whose Riccati recursion is what a
forward block elimination would compute. Every solve takes one step of
iterative refinement and is checked against the unreduced matrix; it
works in place on one buffer of its own. Each sensor interval's data
(B, Q, C, y, R) is held once, as one row that its steps read through an
index.

The value function is therefore exactly quadratic in the terminal error,
and the multiplier of the terminal constraint is minus its gradient. One
solve gives the gradient, and one solve per coordinate, driven by a unit
terminal point alone, gives a Hessian column; all m + 1 solves share the
one reduction. These exact derivatives are then compared against the
observer's propagated quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .liegroup import GeneratorBasis, upsilon, wedge

__all__ = [
    "DiscretizedProblem",
    "InfeasibleTerminalError",
    "value_at",
    "gradient_hessian_at",
    "check_critical_point",
]


class InfeasibleTerminalError(ValueError):
    """The terminal error is unreachable under the discrete dynamics.

    With invertible one-step maps I + dt*Delta_k the free initial error
    alone reaches every terminal point, so this only fires for degenerate
    step matrices (or a numerically broken solve).
    """


@dataclass(frozen=True)
class DiscretizedProblem:
    """Forward-Euler discretization of the error-system optimal control
    problem over N uniform steps of length dt.

    Step k carries the correction matrix Delta_k and the observer element
    X_hat_k that pulls the output back to error coordinates, and reads the
    sensor data of row i = interval[k] of K rows: input map B_i with
    symmetric positive-definite gain Q_i, raw output matrix C_i with gain
    R_i and target y_i. The steps of one sensor interval share one row, so
    that each interval's data is held once; interval defaults to
    arange(N), one row per step. The initial cost is
    0.5 (e0 - anchor)^T H0 (e0 - anchor), with anchor the image of the
    initial state estimate under X_hat_0.

    The reduction of the KKT system is cached on first use, so the problem
    is immutable: the instance is frozen and its arrays are read-only
    copies.
    """

    dt: float
    Delta: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    C: np.ndarray
    X_hat: np.ndarray
    y: np.ndarray
    R: np.ndarray
    H0: np.ndarray
    anchor: np.ndarray
    interval: Optional[np.ndarray] = None
    _C_tilde: np.ndarray = field(init=False, repr=False)
    _kkt: Optional[dict] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.interval is None:
            object.__setattr__(self, "interval", np.arange(len(self.Delta)))
        for name in ("Delta", "B", "Q", "C", "X_hat", "y", "R", "H0", "anchor", "interval"):
            array = np.array(getattr(self, name), dtype=None if name == "interval" else float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "anchor", self.anchor.reshape(-1))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        N, K, m, l, n = self.steps, len(self.B), self.m, self.l, self.n
        if self.Delta.shape != (N, m, m):
            raise ValueError("Delta must have shape (N, m, m)")
        if self.X_hat.shape != (N, m, m):
            raise ValueError("X_hat must have shape (N, m, m)")
        if self.B.shape != (K, m, l):
            raise ValueError("B must have shape (K, m, l)")
        if self.Q.shape != (K, l, l):
            raise ValueError("Q must have shape (K, l, l)")
        if self.C.shape != (K, n, m):
            raise ValueError("C must have shape (K, n, m)")
        if self.y.shape != (K, n):
            raise ValueError("y must have shape (K, n)")
        if self.R.shape != (K, n, n):
            raise ValueError("R must have shape (K, n, n)")
        if self.H0.shape != (m, m):
            raise ValueError("H0 must be m x m")
        if self.anchor.shape != (m,):
            raise ValueError("anchor must be an m-vector")
        if self.interval.shape != (N,) or self.interval.dtype.kind not in "iu":
            raise ValueError("interval must be an integer array of shape (N,)")
        if N and not 0 <= self.interval.min() <= self.interval.max() < K:
            raise ValueError("interval entries must be row indices in [0, K)")
        # The KKT system eliminates each disturbance through Q^-1.
        scale = max(1.0, float(np.abs(self.Q).max(initial=0.0)))
        if not np.allclose(self.Q, np.swapaxes(self.Q, 1, 2), rtol=0.0, atol=1e-12 * scale):
            raise ValueError("Q must be symmetric positive definite")
        try:
            np.linalg.cholesky(self.Q)
        except np.linalg.LinAlgError:
            raise ValueError("Q must be symmetric positive definite") from None
        # The output matrices in error coordinates, C_k X_hat_k^-1.
        try:
            object.__setattr__(self, "_C_tilde",
                               self.C[self.interval] @ np.linalg.inv(self.X_hat))
        except np.linalg.LinAlgError:
            raise ValueError("X_hat must be invertible") from None

    @property
    def steps(self) -> int:
        return int(self.Delta.shape[0])

    @property
    def m(self) -> int:
        return int(self.Delta.shape[1])

    @property
    def l(self) -> int:
        return int(self.B.shape[2])

    @property
    def n(self) -> int:
        return int(self.C.shape[1])

    @classmethod
    def from_substeps(
        cls, basis: GeneratorBasis, traces, H0, anchor
    ) -> "DiscretizedProblem":
        """Build the problem from the observer's StepTraces, one per sensor
        interval in time order: one row of sensor data per interval, and
        its substeps as that interval's steps.

        Requires a uniform substep size (relative spread below 1e-9); run
        the observer with dt_max equal to the intended dt and an
        effectively unbounded delta_step_cap to get one.
        """
        if len(traces) == 0:
            raise ValueError("need at least one substep trace")
        dts = np.concatenate([trace.dt for trace in traces])
        dt = float(dts[0])
        if float(np.abs(dts - dt).max()) > 1e-9 * dt:
            raise ValueError("substep sizes are not uniform")
        rows = {name: np.stack([getattr(trace.sample, name) for trace in traces])
                for name in ("B", "Q", "C", "y", "R")}
        return cls(
            dt=dt, Delta=wedge(basis, np.concatenate([trace.delta for trace in traces])),
            X_hat=np.concatenate([trace.X_hat for trace in traces]),
            H0=H0, anchor=anchor,
            interval=np.repeat(np.arange(len(traces)), [len(trace.dt) for trace in traces]),
            **rows,
        )

    # Unknowns are stacked stage by stage as z = (e_0, lam_0, ..., e_{N-1},
    # lam_{N-1}, e_N, lam_N), lam_k the multiplier of
    # e_{k+1} = (I + dt*Delta_k) e_k + dt*B_k mu_k and lam_N that of e_N = e_T.
    # The disturbance mu_k is eliminated through its own stationarity row,
    # dt*Q_k mu_k = dt*B_k^T lam_k, which leaves -dt*B_k Q_k^-1 B_k^T in the
    # (lam_k, lam_k) block. The matrix is block tridiagonal: stage k's
    # diagonal block, and the identity coupling lam_k to e_{k+1} and its
    # transpose.

    def _kkt_state(self) -> dict:
        if self._kkt is not None:
            return self._kkt
        N, m, row = self.steps, self.m, self.interval
        CtR = np.swapaxes(self._C_tilde, 1, 2) @ self.R[row]
        # Q^-1 B^T and B Q^-1 B^T are formed once per row.
        Q_inv_Bt = np.linalg.solve(self.Q, np.swapaxes(self.B, 1, 2))

        # Stage N holds only the terminal constraint e_N = e_T.
        stage = np.zeros((N + 1, 2 * m, 2 * m))
        stage[:N, :m, :m] = self.dt * CtR @ self._C_tilde
        stage[0, :m, :m] += self.H0
        stage[:N, m:, :m] = -(np.eye(m) + self.dt * self.Delta)
        stage[:N, :m, m:] = np.swapaxes(stage[:N, m:, :m], 1, 2)
        stage[:N, m:, m:] = (-self.dt * self.B @ Q_inv_Bt)[row]
        stage[N, m:, :m] = stage[N, :m, m:] = np.eye(m)
        rhs = np.zeros((N + 1, 2 * m))
        rhs[:N, :m] = self.dt * np.einsum("kij,kj->ki", CtR, self.y[row])
        rhs[0, :m] += self.H0 @ self.anchor
        object.__setattr__(self, "_kkt", {
            "levels": _cyclic_reduction(stage, m), "stage": stage, "rhs": rhs,
            "Q_inv_Bt": Q_inv_Bt,
        })
        return self._kkt

    def _solve(self, terminal: np.ndarray) -> np.ndarray:
        """KKT solutions z, one per column of the m x k array ``terminal``.
        Column 0 is the problem ending at terminal[:, 0]; the others drop
        the linear cost term, leaving the response to their terminal point
        alone."""
        st = self._kkt_state()
        N, m = self.steps, self.m
        # The right-hand side is the linear cost terms in column 0 and the
        # terminal points in stage N; the solve overwrites it in place.
        stages = np.zeros((N + 1, 2 * m, terminal.shape[1]))
        stages[:, :, 0] = st["rhs"]
        stages[N, m:] = terminal
        bound = 1e-6 * (1.0 + _column_norms(stages))
        stages = _cyclic_solve(st["levels"], stages, m)
        # The reduction multiplies by explicit block inverses, and its
        # couplings grow with products of the one-step maps: alone it
        # leaves relative errors of about 1e-12 in the terminal multipliers
        # at N = 4000, and more on stiff problems. One step of iterative
        # refinement brings them to the round-off of the residual.
        stages += _cyclic_solve(st["levels"], self._residual(stages, terminal), m)
        residual = _column_norms(self._residual(stages, terminal))
        if not np.all(residual <= bound):
            raise InfeasibleTerminalError(
                f"optimality system solve failed (residual {residual.max():.3e})"
            )
        return stages.reshape(-1, terminal.shape[1])

    def _residual(self, stages: np.ndarray, terminal: np.ndarray) -> np.ndarray:
        """rhs - K z for z in stage shape (N + 1, 2m, k), formed from the
        unreduced blocks, with rhs the right-hand side of _solve for these
        terminal points."""
        st = self._kkt_state()
        N, m = self.steps, self.m
        r = st["stage"] @ stages
        r[:N, m:] += stages[1:, :m]
        r[1:, :m] += stages[:N, m:]
        np.negative(r, out=r)
        r[:, :, 0] += st["rhs"]
        r[N, m:] += terminal
        return r

    def _cost(self, z: np.ndarray) -> float:
        # The objective from its definition on the solved trajectory: no
        # expanded constant term that could cancel under a stiff prior.
        N, m, row = self.steps, self.m, self.interval
        stages = z.reshape(N + 1, 2 * m)[:N]
        e, lam = stages[:, :m], stages[:, m:]
        mu = np.einsum("kij,kj->ki", self._kkt_state()["Q_inv_Bt"][row], lam)
        d = e[0] - self.anchor
        r = self.y[row] - np.einsum("kij,kj->ki", self._C_tilde, e)
        running = (np.einsum("ki,kij,kj->", mu, self.Q[row], mu)
                   + np.einsum("ki,kij,kj->", r, self.R[row], r))
        return 0.5 * float(d @ self.H0 @ d) + 0.5 * self.dt * float(running)


# Block cyclic reduction (Buzbee, Golub & Nielson 1970) on the stage blocks.
# A level eliminates its odd blocks: each is solved for through its inverse
# G and substituted into its even neighbours, which leaves a block
# tridiagonal system of the even blocks alone. The couplings stay confined
# to the same m x m corners, block (lam_j, e_{j+1}) and its transpose, so a
# level's couplings are an (n - 1, m, m) stack u, and None at level 0, where
# every one is the identity and each product with it is a slice. The
# elimination order is odd-even, so no block is ever a Schur complement of
# a forward sweep, the observer's own Riccati recursion.


def _inverse(blocks: np.ndarray, level: int) -> np.ndarray:
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        raise InfeasibleTerminalError(
            f"singular optimality system: singular block at reduction level {level}"
        ) from None


def _cyclic_reduction(stage: np.ndarray, m: int) -> list:
    """The right-hand-side-free part of the reduction of the (n, 2m, 2m)
    stage blocks: per level, the odd blocks' inverses and the couplings
    u. The last level holds the inverse of the one block left."""
    levels, D, u = [], stage, None
    while len(D) > 1:
        G = _inverse(D[1::2], len(levels))
        even = (len(D) + 1) // 2
        # What an even block sees of its neighbours' inverses: the
        # (lam, lam) corner from its left, the (e, e) corner from its
        # right, and the (e, lam) corner through to the next even block.
        left, right, through = G[: even - 1, m:, m:], G[:, :m, :m], G[: even - 1, :m, m:]
        if u is not None:
            to_right, to_left = u[0::2], u[1::2]
            left = np.swapaxes(to_left, 1, 2) @ left @ to_left
            right = to_right @ right @ np.swapaxes(to_right, 1, 2)
            through = to_right[: even - 1] @ through @ to_left
        levels.append((G, u))
        D = D[0::2].copy()
        D[1:, :m, :m] -= left
        D[: len(G), m:, m:] -= right
        u = -through
    levels.append((_inverse(D, len(levels)), None))
    return levels


def _cyclic_solve(levels: list, x: np.ndarray, m: int) -> np.ndarray:
    """Solve the stage system in place: x (n, 2m, k) holds the stacked
    right-hand sides on entry and the solution, which is returned, on
    exit; the levels are those of _cyclic_reduction.

    Level j's blocks are every 2^j-th of the n, so one array holds every
    level: the forward sweep updates each level's even blocks in place,
    and the backward sweep overwrites its odd blocks with their solution.
    """
    for level, (G, u) in enumerate(levels[:-1]):
        r = x[:: 2 ** level]
        Gr = G @ r[1::2]
        left, right = Gr[: len(r[2::2]), m:], Gr[:, :m]
        if u is not None:
            left = np.swapaxes(u[1::2], 1, 2) @ left
            right = u[0::2] @ right
        r[2::2, :m] -= left
        r[0 : 2 * len(G) : 2, m:] -= right
    x[:1] = levels[-1][0] @ x[:1]
    for level, (G, u) in reversed(list(enumerate(levels[:-1]))):
        # Each odd block from its row, given both even neighbours.
        r = x[:: 2 ** level]
        left, right = r[0 : 2 * len(G) : 2, m:], r[2::2, :m]
        if u is not None:
            left = np.swapaxes(u[0::2], 1, 2) @ left
            right = u[1::2] @ right
        odd = r[1::2]
        odd[:, :m] -= left
        odd[: len(right), m:] -= right
        r[1::2] = G @ odd
    return x


def _column_norms(stages: np.ndarray) -> np.ndarray:
    return np.linalg.norm(stages.reshape(-1, stages.shape[-1]), axis=0)


def _terminal_point(prob: DiscretizedProblem, e) -> np.ndarray:
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.shape != (prob.m,):
        raise ValueError("terminal point dimension mismatch")
    return e


def value_at(prob: DiscretizedProblem, e_T) -> float:
    """Minimal cost over all trajectories ending at e_T.

    Exact (up to linear-algebra round-off) for the discretized problem;
    convex quadratic in e_T.
    """
    e_T = _terminal_point(prob, e_T)
    return prob._cost(prob._solve(e_T[:, None])[:, 0])


def gradient_hessian_at(prob: DiscretizedProblem, e) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the value function at e.

    Both are exact: the gradient is minus the terminal multiplier of the
    solve ending at e, and Hessian column j is minus the terminal
    multiplier of the solve driven by the unit terminal point e_j alone.
    All m + 1 solves share one reduction. The Hessian is symmetrized.
    """
    e = _terminal_point(prob, e)
    grad_hess = -prob._solve(np.column_stack([e, np.eye(prob.m)]))[-prob.m :]
    hess = grad_hess[:, 1:]
    return grad_hess[:, 0], 0.5 * (hess + hess.T)


def check_critical_point(grad, basis: GeneratorBasis, origin_xi) -> float:
    """Largest tangential directional derivative max|Ups^T grad| of the
    value at the origin point, given its gradient there (as returned by
    gradient_hessian_at); near zero when the recorded corrections are
    optimal."""
    grad = np.asarray(grad, dtype=float).reshape(-1)
    return float(np.max(np.abs(upsilon(basis, origin_xi).T @ grad), initial=0.0))
