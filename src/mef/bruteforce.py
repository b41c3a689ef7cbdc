"""Brute-force verification by direct trajectory optimization.

Rebuilds the finite-horizon estimation problem the observer claims to
solve: over all disturbance sequences and initial errors consistent with
the forward-Euler error dynamics and a fixed terminal error, minimize the
initial cost plus the accumulated disturbance energy. The constraints are
linear and every cost term is quadratic, so the optimum solves the sparse
KKT system of an equality-constrained quadratic program. Its matrix does
not depend on the terminal error; it is factored once with SuperLU, after
which each terminal point costs one solve.

The value function is therefore exactly quadratic in the terminal error,
and the multiplier of the terminal constraint is minus its gradient. One
solve gives the gradient, and one solve per coordinate, driven by a unit
terminal point alone, gives a Hessian column. These exact derivatives are
then compared against the observer's propagated quantities.
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


def _block_entries(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # COO triplets of stacked dense blocks: values (K, p, q) placed with
    # their top-left corners at (rows[k], cols[k]).
    out = []
    for values, rows, cols in blocks:
        p, q = values.shape[-2:]
        r = np.asarray(rows)[:, None, None] + np.arange(p)[None, :, None]
        c = np.asarray(cols)[:, None, None] + np.arange(q)[None, None, :]
        r, c, v = np.broadcast_arrays(r, c, values)
        out.append((r.ravel(), c.ravel(), v.ravel()))
    return tuple(np.concatenate(parts) for parts in zip(*out))


@dataclass(frozen=True)
class DiscretizedProblem:
    """Forward-Euler discretization of the error-system optimal control
    problem over N uniform steps of length dt.

    Step k carries the correction matrix Delta_k, input map B_k with gain
    Q_k, raw output matrix C_k with gain R_k and target y_k, and the
    observer element X_hat_k that pulls the output back to error
    coordinates. The initial cost is 0.5 (e0 - anchor)^T H0 (e0 - anchor),
    with anchor the image of the initial state estimate under X_hat_0.

    The KKT factorization is cached on first use, so the problem is
    immutable: the instance is frozen and its arrays are read-only copies.
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
    _kkt: Optional[dict] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("Delta", "B", "Q", "C", "X_hat", "y", "R", "H0", "anchor"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "anchor", self.anchor.reshape(-1))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        N, m, l, n = self.steps, self.m, self.l, self.n
        if self.Delta.shape != (N, m, m):
            raise ValueError("Delta must have shape (N, m, m)")
        if self.B.shape != (N, m, l):
            raise ValueError("B must have shape (N, m, l)")
        if self.Q.shape != (N, l, l):
            raise ValueError("Q must have shape (N, l, l)")
        if self.C.shape != (N, n, m):
            raise ValueError("C must have shape (N, n, m)")
        if self.X_hat.shape != (N, m, m):
            raise ValueError("X_hat must have shape (N, m, m)")
        if self.y.shape != (N, n):
            raise ValueError("y must have shape (N, n)")
        if self.R.shape != (N, n, n):
            raise ValueError("R must have shape (N, n, n)")
        if self.H0.shape != (m, m):
            raise ValueError("H0 must be m x m")
        if self.anchor.shape != (m,):
            raise ValueError("anchor must be an m-vector")

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
        cls, basis: GeneratorBasis, records, H0, anchor
    ) -> "DiscretizedProblem":
        """Build the problem from an observer substep trace.

        Requires a uniform substep size (relative spread below 1e-9); run
        the observer with dt_max equal to the intended dt and an
        effectively unbounded delta_step_cap to get one.
        """
        if len(records) == 0:
            raise ValueError("need at least one substep record")
        dts = np.array([r.dt for r in records])
        dt = float(dts[0])
        if float(np.abs(dts - dt).max()) > 1e-9 * dt:
            raise ValueError("substep sizes are not uniform")
        Delta = wedge(basis, np.stack([r.delta for r in records]))
        B = np.stack([r.sample.B for r in records])
        Q = np.stack([r.sample.Q for r in records])
        C = np.stack([r.sample.C for r in records])
        X_hat = np.stack([r.X_hat.matrix for r in records])
        y = np.stack([r.sample.y for r in records])
        R = np.stack([r.sample.R for r in records])
        return cls(
            dt=dt, Delta=Delta, B=B, Q=Q, C=C, X_hat=X_hat, y=y, R=R,
            H0=H0, anchor=anchor,
        )

    # Unknowns are stacked as z = (e_0, mu_0, e_1, mu_1, ..., e_N); the
    # constraints e_{k+1} = (I + dt*Delta_k) e_k + dt*B_k mu_k, then e_N = e_T.

    def _kkt_state(self) -> dict:
        if self._kkt is not None:
            return self._kkt
        # Imported here: only check needs scipy, and simulate and sweep
        # should not pay for loading it.
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        N, m, l = self.steps, self.m, self.l
        stride = m + l
        nz = (N + 1) * m + N * l
        starts = np.arange(N) * stride
        C_tilde = self.C @ np.linalg.inv(self.X_hat)
        A_step = np.eye(m)[None, :, :] + self.dt * self.Delta
        CtR = np.swapaxes(C_tilde, 1, 2) @ self.R

        cost = [
            (self.H0[None], [0], [0]),
            (self.dt * CtR @ C_tilde, starts, starts),
            (self.dt * self.Q, starts + m, starts + m),
        ]
        con_rows = nz + np.arange(N + 1) * m
        constraints = [
            (-A_step, con_rows[:N], starts),
            (-self.dt * self.B, con_rows[:N], starts + m),
            (np.eye(m)[None], con_rows, np.append(starts + stride, N * stride)),
        ]
        pr, pc, pv = _block_entries(cost)
        er, ec, ev = _block_entries(constraints)
        size = nz + (N + 1) * m
        K = sp.csc_matrix(
            (np.concatenate([pv, ev, ev]),
             (np.concatenate([pr, er, ec]), np.concatenate([pc, ec, er]))),
            shape=(size, size),
        )
        K.eliminate_zeros()  # zero entries would only widen the LU pattern

        c = np.zeros(nz)
        c[starts[:, None] + np.arange(m)] = -self.dt * np.einsum("kij,kj->ki", CtR, self.y)
        c[:m] -= self.H0 @ self.anchor
        try:
            lu = splu(K)
        except RuntimeError as exc:
            raise InfeasibleTerminalError(f"singular optimality system: {exc}") from exc
        object.__setattr__(self, "_kkt", {"lu": lu, "K": K, "c": c, "C_tilde": C_tilde})
        return self._kkt

    def _solve(self, terminal: np.ndarray) -> np.ndarray:
        """KKT solutions (z, multipliers), one per column of the m x k
        array ``terminal``. Column 0 is the problem ending at terminal[:, 0];
        the others drop the linear cost term, leaving the response to their
        terminal point alone."""
        st = self._kkt_state()
        rhs = np.zeros((st["K"].shape[0], terminal.shape[1]))
        rhs[: st["c"].size, 0] = -st["c"]
        rhs[-self.m :] = terminal
        sol = st["lu"].solve(rhs)
        residual = np.linalg.norm(st["K"] @ sol - rhs, axis=0)
        if not np.all(residual <= 1e-6 * (1.0 + np.linalg.norm(rhs, axis=0))):
            raise InfeasibleTerminalError(
                f"optimality system solve failed (residual {residual.max():.3e})"
            )
        return sol

    def _cost(self, z: np.ndarray) -> float:
        # The objective from its definition on the solved trajectory: no
        # expanded constant term that could cancel under a stiff prior.
        N, m = self.steps, self.m
        e_mu = z[: N * (m + self.l)].reshape(N, m + self.l)
        e, mu = e_mu[:, :m], e_mu[:, m:]
        d = e[0] - self.anchor
        r = self.y - np.einsum("kij,kj->ki", self._kkt_state()["C_tilde"], e)
        running = (np.einsum("ki,kij,kj->", mu, self.Q, mu)
                   + np.einsum("ki,kij,kj->", r, self.R, r))
        return 0.5 * float(d @ self.H0 @ d) + 0.5 * self.dt * float(running)


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
    All m + 1 solves share one factorization. The Hessian is symmetrized.
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
