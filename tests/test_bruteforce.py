"""Brute-force verifier: the discretized trajectory optimization must agree
with an unrelated general-purpose optimizer, with closed-form limits, and
with the observer it is meant to audit.

The reference minimum used here is computed by forward simulation plus an
adjoint gradient, with the terminal constraint eliminated through a
null-space parameterization and the reduced problem handed to
scipy.optimize. It shares no code with the shipped KKT solver.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mef import (
    BASIS,
    XI_ORIGIN,
    AttitudeScenario,
    DiscretizedProblem,
    FilterConfig,
    InfeasibleTerminalError,
    NoiseModel,
    ObserverState,
    RunConfig,
    check_critical_point,
    gradient_hessian_at,
    observe,
    value_at,
    wedge,
)
import mef.bruteforce
from mef.cli import build_verification_problem
from mef.config import build_check_config

from conftest import hessian_rate_at, make_rng


# Horizons N whose N + 1 stage blocks take every parity at the reduction's
# levels: N + 1 of 1 to 5, and 2^k - 1, 2^k and 2^k + 1.
REDUCTION_HORIZONS = [0, 1, 2, 3, 4] + [2 ** k + d - 1 for k in (3, 4, 5, 6, 7) for d in (-1, 0, 1)]


def random_problem(rng, N: int = 10, dt: float = 0.01, zero_delta: bool = False,
                   shape: tuple[int, int, int] = (4, 3, 4)) -> DiscretizedProblem:
    """Random well-posed problem with state, input and output dimensions
    shape = (m, l, n); Delta is a wedge matrix when m = 4."""
    m, l, n = shape
    if zero_delta:
        Delta = np.zeros((N, m, m))
    elif m == 4:
        Delta = np.stack([wedge(BASIS, 0.5 * rng.standard_normal(3))
                          for _ in range(N)])
    else:
        Delta = 0.5 * rng.standard_normal((N, m, m))
    B = 0.7 * rng.standard_normal((N, m, l))
    Q = np.stack([
        (lambda M: M @ M.T + 0.5 * np.eye(l))(rng.standard_normal((l, l)))
        for _ in range(N)
    ])
    C = 0.6 * rng.standard_normal((N, n, m))
    X_hat = np.stack([np.eye(m) + 0.1 * rng.standard_normal((m, m))
                      for _ in range(N)])
    y = 0.3 * rng.standard_normal((N, n))
    R = np.stack([
        (lambda K: 0.5 * (K @ K.T))(rng.standard_normal((n, n)))
        for _ in range(N)
    ])
    A0 = rng.standard_normal((m, m))
    H0 = A0 @ A0.T + 0.2 * np.eye(m)
    anchor = 0.3 * rng.standard_normal(m)
    return DiscretizedProblem(dt=dt, Delta=Delta, B=B, Q=Q, C=C, X_hat=X_hat,
                              y=y, R=R, H0=H0, anchor=anchor)


def reference_value(prob: DiscretizedProblem, e_T: np.ndarray) -> float:
    """Second-level oracle: minimize the trajectory cost directly.

    Forward simulation defines the cost, an adjoint sweep its gradient;
    the terminal constraint is removed by restricting to an affine
    null-space slice, and BFGS minimizes the reduced quadratic.
    """
    N, m, l = prob.steps, prob.m, prob.l
    A = np.eye(m)[None] + prob.dt * prob.Delta
    Ct = prob.C @ np.linalg.inv(prob.X_hat)
    dim = m + N * l

    def unpack(z):
        return z[:m], z[m:].reshape(N, l)

    def simulate(e0, mus):
        es = [e0]
        for k in range(N):
            es.append(A[k] @ es[k] + prob.dt * prob.B[k] @ mus[k])
        return es

    def cost_grad(z):
        e0, mus = unpack(z)
        es = simulate(e0, mus)
        V = 0.5 * (e0 - prob.anchor) @ prob.H0 @ (e0 - prob.anchor)
        for k in range(N):
            r = prob.y[k] - Ct[k] @ es[k]
            V += prob.dt * (0.5 * mus[k] @ prob.Q[k] @ mus[k]
                            + 0.5 * r @ prob.R[k] @ r)
        lam = np.zeros(m)
        gmu = np.zeros((N, l))
        for k in reversed(range(N)):
            gmu[k] = prob.dt * (prob.Q[k] @ mus[k] + prob.B[k].T @ lam)
            r = prob.y[k] - Ct[k] @ es[k]
            lam = A[k].T @ lam - prob.dt * Ct[k].T @ (prob.R[k] @ r)
        g0 = prob.H0 @ (e0 - prob.anchor) + lam
        return V, np.concatenate([g0, gmu.reshape(-1)])

    G = np.zeros((m, dim))
    for j in range(dim):
        zj = np.zeros(dim)
        zj[j] = 1.0
        e0, mus = unpack(zj)
        G[:, j] = simulate(e0, mus)[-1]
    z_p, *_ = np.linalg.lstsq(G, np.asarray(e_T, dtype=float), rcond=None)
    Z = scipy.linalg.null_space(G)

    def reduced(w):
        V, g = cost_grad(z_p + Z @ w)
        return V, Z.T @ g

    res = scipy.optimize.minimize(
        reduced, np.zeros(Z.shape[1]), jac=True, method="BFGS",
        options={"gtol": 1e-9, "maxiter": 5000},
    )
    return float(res.fun)


def dense_kkt_solutions(prob: DiscretizedProblem,
                        terminal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The KKT solutions of _solve, from a dense matrix written out from the
    problem's definition, with the disturbances kept as unknowns.

    Dense order: x = (e_0..e_N, mu_0..mu_{N-1}), then the multipliers of
    e_{k+1} - A_k e_k - dt B_k mu_k = 0 (k < N) and of e_N = e_T. Returns
    the errors and multipliers permuted into the solver's stage order,
    (e_k, lam_k) for k = 0..N, and the disturbances, shape (N, l, columns).
    """
    N, m, l = prob.steps, prob.m, prob.l
    A = np.eye(m)[None] + prob.dt * prob.Delta
    Ct = prob.C @ np.linalg.inv(prob.X_hat)
    nx = (N + 1) * m + N * l
    P, c = np.zeros((nx, nx)), np.zeros(nx)
    E = np.zeros(((N + 1) * m, nx))

    def e(k):
        return slice(k * m, (k + 1) * m)

    def mu(k):
        return slice((N + 1) * m + k * l, (N + 1) * m + (k + 1) * l)

    P[e(0), e(0)] = prob.H0
    c[e(0)] = -prob.H0 @ prob.anchor
    for k in range(N):
        P[e(k), e(k)] += prob.dt * Ct[k].T @ prob.R[k] @ Ct[k]
        P[mu(k), mu(k)] = prob.dt * prob.Q[k]
        c[e(k)] -= prob.dt * Ct[k].T @ prob.R[k] @ prob.y[k]
        E[e(k), e(k + 1)] = np.eye(m)
        E[e(k), e(k)] = -A[k]
        E[e(k), mu(k)] = -prob.dt * prob.B[k]
    E[e(N), e(N)] = np.eye(m)
    K = np.block([[P, E.T], [E, np.zeros((E.shape[0], E.shape[0]))]])
    rhs = np.zeros((K.shape[0], terminal.shape[1]))
    rhs[:nx, 0] = -c
    rhs[-m:] = terminal
    dense = np.linalg.solve(K, rhs)
    errors = dense[: (N + 1) * m].reshape(N + 1, m, -1)
    multipliers = dense[nx:].reshape(N + 1, m, -1)
    stage_ordered = np.concatenate([errors, multipliers], axis=1).reshape(-1, terminal.shape[1])
    return stage_ordered, dense[(N + 1) * m : nx].reshape(N, l, terminal.shape[1])


def trajectory_cost(prob: DiscretizedProblem, e: np.ndarray, mu: np.ndarray) -> float:
    """The objective of errors e (N + 1, m) and disturbances mu (N, l),
    written out term by term."""
    Ct = prob.C @ np.linalg.inv(prob.X_hat)
    d = e[0] - prob.anchor
    V = 0.5 * d @ prob.H0 @ d
    for k in range(prob.steps):
        r = prob.y[k] - Ct[k] @ e[k]
        V += 0.5 * prob.dt * (mu[k] @ prob.Q[k] @ mu[k] + r @ prob.R[k] @ r)
    return float(V)


def fixed_step_trace(dt: float, duration: float = 0.1,
                     initial_error: float = 0.3):
    """Uniform-substep observer run on the canonical scenario: its
    StepTraces, one per sensor interval."""
    scenario = AttitudeScenario(
        omega_fn=lambda t: np.array([0.1 * np.cos(0.1 * t), 0.0, 0.2]),
        ref_fn=lambda t: np.array([np.sin(t), 0.0, np.cos(t)]),
        q0=XI_ORIGIN, duration=duration, sensor_dt=0.1,
    )
    gains = NoiseModel(gyro_var=0.01 ** 2, vector_var=1.0)
    q_hat = np.array([np.cos(initial_error / 2.0), np.sin(initial_error / 2.0), 0.0, 0.0])
    cfg = FilterConfig(origin_xi=XI_ORIGIN, dt_max=dt, delta_step_cap=1e18)
    config = RunConfig(scenario=scenario, gains=gains, filter=cfg,
                       initial_estimate=q_hat, initial_hessian_scale=1.0)
    return [epoch.trace for epoch in observe(config, trace=True) if epoch.trace is not None], cfg


def first_substeps(trace, k: int):
    """The StepTrace of the first k substeps of an interval."""
    return trace._replace(**{name: getattr(trace, name)[:k]
                             for name in ("dt", "delta", "X_hat", "H", "eta")})


class TestValueAt:
    def test_consistent_trajectory_costs_nothing(self):
        rng = make_rng(500)
        prob = random_problem(rng)
        # Replace the targets so the unforced evolution from the anchor
        # fits the data exactly; the minimum is then zero.
        A = np.eye(4)[None] + prob.dt * prob.Delta
        Ct = prob.C @ np.linalg.inv(prob.X_hat)
        e = prob.anchor.copy()
        y = np.empty_like(prob.y)
        for k in range(prob.steps):
            y[k] = Ct[k] @ e
            e = A[k] @ e
        prob = dataclasses.replace(prob, y=y)
        assert value_at(prob, e) <= 1e-15
        assert value_at(prob, e + np.array([0.2, 0.0, 0.0, 0.0])) > 1e-4

    def test_single_forced_step_with_pinned_start(self):
        rng = make_rng(501)
        dt = 0.01
        Delta = np.stack([wedge(BASIS, rng.standard_normal(3))])
        B = np.eye(4)[None]
        Q = np.eye(4)[None]
        C = 0.6 * rng.standard_normal((1, 4, 4))
        X_hat = np.eye(4)[None]
        y = 0.3 * rng.standard_normal((1, 4))
        R = np.eye(4)[None]
        anchor = 0.3 * rng.standard_normal(4)
        prob = DiscretizedProblem(
            dt=dt, Delta=Delta, B=B, Q=Q, C=C, X_hat=X_hat, y=y, R=R,
            H0=1e10 * np.eye(4), anchor=anchor,
        )
        # The stiff prior pins e0 at the anchor; the full-rank input map
        # must supply the remaining move in a single step.
        mu = rng.standard_normal(4)
        e_T = (np.eye(4) + dt * Delta[0]) @ anchor + dt * mu
        residual = y[0] - C[0] @ anchor
        expected = dt * (0.5 * mu @ mu + 0.5 * residual @ residual)
        assert value_at(prob, e_T) == pytest.approx(expected, rel=1e-6)

    def test_matches_independent_optimizer(self):
        rng = make_rng(502)
        for N in (10, 10, 10, 50):
            prob = random_problem(rng, N=N)
            for _ in range(2):
                e_T = 0.5 * rng.standard_normal(4)
                v = value_at(prob, e_T)
                ref = reference_value(prob, e_T)
                assert v == pytest.approx(ref, rel=1e-6, abs=1e-9)

    def test_midpoint_convexity(self):
        rng = make_rng(503)
        prob = random_problem(rng)
        for _ in range(10):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            lhs = value_at(prob, 0.5 * (a + b))
            rhs = 0.5 * (value_at(prob, a) + value_at(prob, b))
            assert lhs <= rhs + 1e-10

    def test_unreachable_terminal_point_raises(self):
        rng = make_rng(504)
        dt = 0.01
        # One-step map I + dt*Delta = 0 and no input authority: only the
        # zero terminal point is reachable.
        prob = DiscretizedProblem(
            dt=dt,
            Delta=(-np.eye(4) / dt)[None],
            B=np.zeros((1, 4, 3)),
            Q=np.eye(3)[None],
            C=np.zeros((1, 4, 4)),
            X_hat=np.eye(4)[None],
            y=np.zeros((1, 4)),
            R=np.eye(4)[None],
            H0=np.eye(4),
            anchor=np.zeros(4),
        )
        with pytest.raises(InfeasibleTerminalError):
            value_at(prob, rng.standard_normal(4))

    def test_rejects_dimension_mismatch(self):
        prob = random_problem(make_rng(505), N=2)
        with pytest.raises(ValueError, match="dimension"):
            value_at(prob, np.zeros(3))


class TestBandSolve:
    """The stage system is banded, block tridiagonal in 2m x 2m blocks; it
    is solved by block cyclic reduction and one refinement step."""

    @pytest.mark.parametrize("shape, N", [((4, 3, 4), 12), ((3, 1, 2), 9), ((2, 3, 1), 1)])
    def test_columns_match_a_dense_solve(self, shape, N):
        rng = make_rng(520)
        prob = random_problem(rng, N=N, shape=shape)
        terminal = np.column_stack([rng.standard_normal(shape[0]), np.eye(shape[0])])
        got = prob._solve(terminal)
        expected, _ = dense_kkt_solutions(prob, terminal)
        error = np.linalg.norm(got - expected, axis=0)
        assert np.all(error <= 1e-10 * np.linalg.norm(expected, axis=0))

    @given(m=st.integers(1, 4), l=st.integers(1, 4), n=st.integers(1, 4),
           N=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_eliminated_system_matches_the_full_dense_kkt(self, m, l, n, N, seed):
        # The stage system holds (e_k, lam_k) only: its solution and the
        # disturbances recovered from lam_k must match the dense KKT, which
        # keeps mu_k as unknowns, and so must the optimal cost.
        rng = make_rng(seed)
        prob = random_problem(rng, N=N, shape=(m, l, n))
        terminal = np.column_stack([rng.standard_normal(m), np.eye(m)])
        got = prob._solve(terminal)
        expected, mu_expected = dense_kkt_solutions(prob, terminal)
        stages = got.reshape(N + 1, 2 * m, -1)
        mu = prob._kkt_state()["Q_inv_Bt"] @ stages[:N, m:]
        for column in range(m + 1):
            for a, b in ((got, expected), (mu, mu_expected)):
                a, b = a[..., column], b[..., column]
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
        dense_value = trajectory_cost(prob, expected[:, 0].reshape(N + 1, 2 * m)[:, :m],
                                      mu_expected[..., 0])
        assert value_at(prob, terminal[:, 0]) == pytest.approx(dense_value, rel=1e-10,
                                                               abs=1e-14)

    @given(m=st.integers(1, 4), l=st.integers(1, 4), n=st.integers(1, 4),
           N=st.one_of(st.sampled_from(REDUCTION_HORIZONS), st.integers(1, 300)),
           log_dt=st.floats(-4.0, 0.0), stiff=st.sampled_from([None, "H0", "R"]),
           log_scale=st.floats(-8.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_reduction_matches_the_dense_kkt_at_every_parity_and_scale(
            self, m, l, n, N, log_dt, stiff, log_scale, seed):
        # Cyclic reduction halves the block count per level, so every parity
        # of N + 1 at every level must agree with the dense KKT: N + 1 of
        # 1 to 5 and 2^k - 1, 2^k, 2^k + 1, and random horizons, with H0 or
        # R scaled by up to 10^8 either way.
        rng = make_rng(seed)
        prob = random_problem(rng, N=max(N, 1), dt=10.0 ** log_dt, shape=(m, l, n))
        prob = dataclasses.replace(prob, **{name: getattr(prob, name)[:N] for name in
                                            ("Delta", "B", "Q", "C", "X_hat", "y", "R",
                                             "interval")})
        if stiff is not None:
            prob = dataclasses.replace(prob, **{stiff: getattr(prob, stiff) * 10.0 ** log_scale})
        terminal = np.column_stack([rng.standard_normal(m), np.eye(m)])
        got = prob._solve(terminal)
        expected, _ = dense_kkt_solutions(prob, terminal)
        error = np.linalg.norm(got - expected, axis=0)
        assert np.all(error <= 1e-7 * np.linalg.norm(expected, axis=0))

    def test_gains_shared_by_runs_of_steps_match_a_dense_solve(self):
        # As in a sensor interval, runs of steps share B and Q, here copied
        # into one row per step; test_shared_rows_give_the_bits_of_per_step_rows
        # holds each once, read through the interval index.
        rng = make_rng(523)
        prob = random_problem(rng, N=11)
        shared = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 1, 1])
        prob = dataclasses.replace(prob, B=prob.B[shared], Q=prob.Q[shared])
        terminal = np.column_stack([rng.standard_normal(4), np.eye(4)])
        got = prob._solve(terminal)
        expected, _ = dense_kkt_solutions(prob, terminal)
        error = np.linalg.norm(got - expected, axis=0)
        assert np.all(error <= 1e-10 * np.linalg.norm(expected, axis=0))

    def test_a_stiff_problem_is_solved_after_refinement(self):
        # R scaled by 9.5e7 leaves unit-terminal residuals of about 3e-6
        # after the reduction, past the guard's 2e-6; one refinement step
        # brings them to 1e-10.
        prob = random_problem(make_rng(298865460), N=14, dt=0.01129666422566898,
                              shape=(3, 1, 2))
        prob = dataclasses.replace(prob, R=prob.R * 94829235.73475687)
        terminal = np.column_stack([np.ones(3), np.eye(3)])
        got = prob._solve(terminal)
        expected, _ = dense_kkt_solutions(prob, terminal)
        error = np.linalg.norm(got - expected, axis=0)
        assert np.all(error <= 1e-9 * np.linalg.norm(expected, axis=0))

    def test_singular_block_raises_infeasible(self):
        # A zero one-step map with no input or output makes every step's
        # block exactly singular: the reduction reports the first it
        # meets, stage 1's, with no bare LinAlgError.
        prob = dataclasses.replace(random_problem(make_rng(522), N=3),
                                   Delta=np.stack([-np.eye(4) / 0.01] * 3),
                                   B=np.zeros((3, 4, 3)), C=np.zeros((3, 4, 4)))
        with pytest.raises(InfeasibleTerminalError, match="singular optimality system"):
            value_at(prob, np.zeros(4))

    @pytest.mark.parametrize("fault", ["factor", "solve"])
    def test_residual_guard_catches_a_corrupted_solve(self, fault, monkeypatch):
        # Each fault is large enough that the refinement step, which runs
        # on the same faulty reduction, cannot repair it.
        prob = random_problem(make_rng(521))
        e = np.full(4, 0.3)
        value_at(prob, e)
        if fault == "factor":
            inverses, _ = prob._kkt_state()["levels"][0]
            inverses[0] *= 2.0  # stage 1's block inverse
        else:
            real = mef.bruteforce._cyclic_solve
            monkeypatch.setattr(mef.bruteforce, "_cyclic_solve",
                                lambda *args: 2.0 * real(*args))
        with pytest.raises(InfeasibleTerminalError, match="solve failed"):
            value_at(prob, e)


class TestGradientHessian:
    def test_hessian_is_point_independent(self):
        rng = make_rng(509)
        prob = random_problem(rng, N=5)
        _, h_a = gradient_hessian_at(prob, rng.standard_normal(4))
        _, h_b = gradient_hessian_at(prob, rng.standard_normal(4))
        assert float(np.abs(h_a - h_b).max()) <= 1e-8

    def test_matches_central_differences_of_the_value(self):
        # The value is exactly quadratic, so a wide central stencil has no
        # truncation error. Agreement pins the sign convention that turns
        # the terminal multiplier into the gradient.
        rng = make_rng(514)
        prob = random_problem(rng)
        e = rng.standard_normal(4)
        h = 1e-2
        shift = h * np.eye(4)

        def v(x):
            return value_at(prob, x)

        grad_fd = np.array([(v(e + shift[i]) - v(e - shift[i])) / (2.0 * h)
                            for i in range(4)])
        hess_fd = np.array([
            [(v(e + shift[i] + shift[j]) - v(e + shift[i] - shift[j])
              - v(e - shift[i] + shift[j]) + v(e - shift[i] - shift[j]))
             / (4.0 * h ** 2) for j in range(4)]
            for i in range(4)
        ])
        grad, hess = gradient_hessian_at(prob, e)
        np.testing.assert_allclose(grad, grad_fd, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(hess, hess_fd, rtol=1e-6, atol=1e-8)

    def test_short_horizon_limit_recovers_prior(self):
        rng = make_rng(510)
        A0 = rng.standard_normal((4, 4))
        H0 = A0 @ A0.T + 0.2 * np.eye(4)
        anchor = 0.3 * rng.standard_normal(4)
        prob = DiscretizedProblem(
            dt=1e-9,
            Delta=np.zeros((1, 4, 4)),
            B=np.eye(4)[None],
            Q=np.eye(4)[None],
            C=0.6 * rng.standard_normal((1, 4, 4)),
            X_hat=np.eye(4)[None],
            y=0.3 * rng.standard_normal((1, 4)),
            R=np.eye(4)[None],
            H0=H0,
            anchor=anchor,
        )
        e = 0.5 * rng.standard_normal(4)
        grad, hess = gradient_hessian_at(prob, e)
        np.testing.assert_allclose(grad, H0 @ (e - anchor), atol=1e-6)
        np.testing.assert_allclose(hess, H0, atol=1e-6)

    def test_agrees_with_observer_on_short_noisy_horizon(self):
        prob, state = build_verification_problem({"check.duration": "0.2"}, 1e-3)
        grad, hess = gradient_hessian_at(prob, XI_ORIGIN)
        grad_rel = np.linalg.norm(grad - state.eta) / np.linalg.norm(state.eta)
        hess_rel = np.linalg.norm(hess - state.H) / np.linalg.norm(state.H)
        assert grad_rel <= 1e-4
        assert hess_rel <= 1e-4

    def test_discrete_hessian_difference_matches_rate(self):
        # (H_{k+1} - H_k)/dt of the oracle trajectory reproduces the
        # closed-form rate to first order; the error halves with dt.
        errors = {}
        for dt in (2e-3, 1e-3):
            (trace,), _ = fixed_step_trace(dt)
            H0 = trace.H[0]
            k = len(trace.dt) // 2
            before = DiscretizedProblem.from_substeps(
                BASIS, [first_substeps(trace, k)], H0, XI_ORIGIN
            )
            after = DiscretizedProblem.from_substeps(
                BASIS, [first_substeps(trace, k + 1)], H0, XI_ORIGIN
            )
            _, h_before = gradient_hessian_at(before, XI_ORIGIN)
            _, h_after = gradient_hessian_at(after, XI_ORIGIN)
            fd = (h_after - h_before) / dt
            state = ObserverState(X_hat=trace.X_hat[k], H=trace.H[k], eta=trace.eta[k],
                                  t=0.0, basis=BASIS)
            rate = hessian_rate_at(state, trace.sample, trace.delta[k],
                                   FilterConfig(origin_xi=XI_ORIGIN))
            rate = 0.5 * (rate + rate.T)
            errors[dt] = float(np.abs(fd - rate).max())
        assert errors[2e-3] <= 1e-2
        assert errors[1e-3] <= 0.65 * errors[2e-3]


def critical_residual(prob):
    grad, _ = gradient_hessian_at(prob, XI_ORIGIN)
    return check_critical_point(grad, BASIS, XI_ORIGIN)


class TestCheckCriticalPoint:
    def test_open_loop_corrections_are_suboptimal(self):
        rng = make_rng(511)
        prob = dataclasses.replace(
            random_problem(rng, N=20, zero_delta=True),
            X_hat=np.stack([np.eye(4)] * 20), anchor=XI_ORIGIN,
        )
        assert critical_residual(prob) > 1e-3

    def test_filter_corrections_noiseless(self):
        prob, _ = build_verification_problem(
            {
                "check.duration": "0.3",
                "check.gyro_sigma_true": "0",
                "check.vector_sigma_true": "0",
            },
            1e-3,
        )
        assert critical_residual(prob) <= 1e-6

    def test_filter_corrections_noisy(self):
        prob, _ = build_verification_problem({"check.duration": "0.3"}, 1e-3)
        assert prob.steps == 300
        assert critical_residual(prob) <= 1e-5

    def test_residual_scales_linearly_with_dt(self):
        residuals = {}
        for dt in (2e-3, 1e-3):
            prob, _ = build_verification_problem(
                {"check.duration": "0.2"}, dt
            )
            residuals[dt] = critical_residual(prob)
        ratio = residuals[2e-3] / residuals[1e-3]
        assert 1.5 <= ratio <= 2.5


class TestProblemConstruction:
    def test_from_substeps_roundtrip(self):
        traces, _ = fixed_step_trace(1e-3, duration=0.1)
        prob = DiscretizedProblem.from_substeps(
            BASIS, traces, traces[0].H[0], XI_ORIGIN
        )
        assert prob.steps == sum(len(trace.dt) for trace in traces)
        assert prob.dt == pytest.approx(1e-3, abs=1e-15)
        assert prob.steps * prob.dt == pytest.approx(0.1, abs=1e-9)
        np.testing.assert_array_equal(prob.Delta[3],
                                      wedge(BASIS, traces[0].delta[3]))

    @pytest.mark.parametrize("traces", [
        lambda: fixed_step_trace(1e-3, duration=0.3)[0],
        lambda: [epoch.trace for epoch in observe(build_check_config({"check.duration": "0.3"},
                                                                     1e-3), trace=True)
                 if epoch.trace is not None],
    ], ids=["fixed-step", "noisy-check"])
    def test_from_substeps_stacks_the_records_bit_for_bit(self, traces):
        # Each interval's sample is held once, as one row; read through the
        # interval index, the rows must equal a substep-by-substep stack
        # byte for byte.
        traces = traces()
        prob = DiscretizedProblem.from_substeps(BASIS, traces, traces[0].H[0], XI_ORIGIN)
        substeps = [(trace.sample, delta, X_hat) for trace in traces
                    for delta, X_hat in zip(trace.delta, trace.X_hat)]
        assert len(prob.B) == len(traces) == 3 < len(substeps) == prob.steps
        for name in ("B", "Q", "C", "y", "R"):
            stacked = np.stack([getattr(sample, name) for sample, _, _ in substeps])
            assert getattr(prob, name)[prob.interval].tobytes() == stacked.tobytes(), name
        deltas = np.stack([delta for _, delta, _ in substeps])
        assert prob.Delta.tobytes() == wedge(BASIS, deltas).tobytes()
        assert prob.X_hat.tobytes() == np.stack([X for _, _, X in substeps]).tobytes()

    def test_from_substeps_rejects_nonuniform_steps(self):
        (trace,), _ = fixed_step_trace(1e-3, duration=0.1)
        dt = trace.dt.copy()
        dt[5] = 2e-3
        with pytest.raises(ValueError, match="uniform"):
            DiscretizedProblem.from_substeps(
                BASIS, [first_substeps(trace._replace(dt=dt), 6)], trace.H[0], XI_ORIGIN
            )

    def test_data_is_frozen_against_later_edits(self):
        # The KKT system is factored and cached on first use, so a later
        # edit would mix stale and new data: it must raise instead, and
        # editing the caller's arrays must not reach the problem.
        y = np.array(random_problem(make_rng(514)).y)
        prob = dataclasses.replace(random_problem(make_rng(514)), y=y)
        e = 0.5 * make_rng(515).standard_normal(4)
        before = value_at(prob, e)
        y += 1.0
        assert value_at(prob, e) == before
        with pytest.raises(ValueError, match="read-only"):
            prob.y[0] += 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.y = y

    def test_from_substeps_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="at least one"):
            DiscretizedProblem.from_substeps(BASIS, [], np.eye(4), XI_ORIGIN)

    def test_shape_validation(self):
        rng = make_rng(513)
        prob_kwargs = dict(
            dt=0.01,
            Delta=np.zeros((2, 4, 4)),
            B=np.zeros((2, 4, 3)),
            Q=np.stack([np.eye(3)] * 2),
            C=np.zeros((2, 4, 4)),
            X_hat=np.stack([np.eye(4)] * 2),
            y=np.zeros((2, 4)),
            R=np.stack([np.eye(4)] * 2),
            H0=np.eye(4),
            anchor=np.zeros(4),
        )
        DiscretizedProblem(**prob_kwargs)
        bad = dict(prob_kwargs)
        bad["B"] = np.zeros((2, 3, 3))
        with pytest.raises(ValueError, match="B must"):
            DiscretizedProblem(**bad)
        bad = dict(prob_kwargs)
        bad["dt"] = 0.0
        with pytest.raises(ValueError, match="dt must"):
            DiscretizedProblem(**bad)
        bad = dict(prob_kwargs)
        bad["anchor"] = np.zeros(3)
        with pytest.raises(ValueError, match="anchor"):
            DiscretizedProblem(**bad)

    @pytest.mark.parametrize("interval", [
        np.array([0, 1, 1]), np.array([[0], [1]]), np.array([0, -1]), np.array([0, 2]),
        np.array([0.0, 1.0]),
    ], ids=["too-long", "two-dimensional", "negative", "past-the-rows", "float"])
    def test_rejects_a_bad_interval_index(self, interval):
        good = random_problem(make_rng(518), N=2)
        with pytest.raises(ValueError, match="interval"):
            dataclasses.replace(good, interval=interval)

    @given(rows=st.lists(st.integers(0, 3), min_size=1, max_size=30),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_shared_rows_give_the_bits_of_per_step_rows(self, rows, seed):
        # K = 4 rows of sensor data read through an interval index, and the
        # same problem with each step's row copied out (K = N): the value,
        # gradient and Hessian must agree bit for bit.
        rng = make_rng(seed)
        N = len(rows)
        per_row = random_problem(rng, N=4)
        steps = random_problem(rng, N=N)
        shared = dataclasses.replace(
            steps, interval=np.array(rows),
            **{name: getattr(per_row, name) for name in ("B", "Q", "C", "y", "R")})
        expanded = dataclasses.replace(
            steps, **{name: getattr(per_row, name)[rows] for name in ("B", "Q", "C", "y", "R")})
        assert len(shared.B) == 4 and len(expanded.B) == N
        e = 0.5 * rng.standard_normal(4)
        assert value_at(shared, e) == value_at(expanded, e)
        for a, b in zip(gradient_hessian_at(shared, e), gradient_hessian_at(expanded, e)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("Q", [
        np.diag([1.0, -0.5, 2.0]),
        np.diag([1.0, 0.0, 2.0]),
        np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ], ids=["indefinite", "singular", "asymmetric"])
    def test_rejects_a_gain_that_is_not_positive_definite(self, Q):
        # Eliminating each disturbance divides by Q_k, so a Q that is not
        # symmetric positive definite must be refused, alone or in a run of
        # equal ones.
        good = random_problem(make_rng(516), N=4)
        for bad in (slice(1, 2), slice(3, 4), slice(1, 4)):
            Qs = np.array(good.Q)
            Qs[bad] = Q
            with pytest.raises(ValueError, match="Q must be symmetric positive definite"):
                dataclasses.replace(good, Q=Qs)

    def test_rejects_a_singular_X_hat(self):
        # The output pull-back C_k X_hat_k^-1 needs every X_hat invertible.
        good = random_problem(make_rng(517), N=3)
        X_hat = np.array(good.X_hat)
        X_hat[1] = np.diag([0.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="X_hat must be invertible"):
            dataclasses.replace(good, X_hat=X_hat)
