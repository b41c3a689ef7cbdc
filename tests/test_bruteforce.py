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

from mef import (
    BASIS,
    XI_ORIGIN,
    AttitudeScenario,
    DiscretizedProblem,
    FilterConfig,
    InfeasibleTerminalError,
    NoiseModel,
    Quaternion,
    RunConfig,
    check_critical_point,
    gradient_hessian_at,
    observe,
    value_at,
    wedge,
)
from mef.cli import build_verification_problem
from mef.filter import ObserverState, hessian_rate

from conftest import make_rng


def random_problem(rng, N: int = 10, dt: float = 0.01,
                   zero_delta: bool = False) -> DiscretizedProblem:
    m, l, n = 4, 3, 4
    if zero_delta:
        Delta = np.zeros((N, m, m))
    else:
        Delta = np.stack([wedge(BASIS, 0.5 * rng.standard_normal(3))
                          for _ in range(N)])
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


def fixed_step_trace(dt: float, duration: float = 0.1,
                     initial_error: float = 0.3):
    """Uniform-substep observer run on the canonical scenario."""
    scenario = AttitudeScenario(
        omega_fn=lambda t: np.array([0.1 * np.cos(0.1 * t), 0.0, 0.2]),
        ref_fn=lambda t: np.array([np.sin(t), 0.0, np.cos(t)]),
        q0=Quaternion.identity(), duration=duration, sensor_dt=0.1,
    )
    gains = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3),
                       vector_cov=1.0 * np.eye(3))
    q_hat = Quaternion(np.cos(initial_error / 2.0),
                       np.array([np.sin(initial_error / 2.0), 0.0, 0.0]))
    cfg = FilterConfig(origin_xi=XI_ORIGIN, dt_max=dt, delta_step_cap=1e18)
    config = RunConfig(scenario=scenario, gains=gains, filter=cfg,
                       initial_estimate=q_hat, initial_hessian_scale=1.0)
    return [rec for epoch in observe(config, trace=True) for rec in epoch.trace], cfg


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
            trace, _ = fixed_step_trace(dt)
            H0 = trace[0].H
            k = len(trace) // 2
            before = DiscretizedProblem.from_substeps(
                BASIS, trace[:k], H0, XI_ORIGIN
            )
            after = DiscretizedProblem.from_substeps(
                BASIS, trace[:k + 1], H0, XI_ORIGIN
            )
            _, h_before = gradient_hessian_at(before, XI_ORIGIN)
            _, h_after = gradient_hessian_at(after, XI_ORIGIN)
            fd = (h_after - h_before) / dt
            rec = trace[k]
            state = ObserverState(X_hat=rec.X_hat, H=rec.H, eta=rec.eta,
                                  t=rec.t, basis=BASIS)
            rate = hessian_rate(state, rec.sample, wedge(state.basis, rec.delta))
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
        trace, _ = fixed_step_trace(1e-3, duration=0.1)
        prob = DiscretizedProblem.from_substeps(
            BASIS, trace, trace[0].H, XI_ORIGIN
        )
        assert prob.steps == len(trace)
        assert prob.dt == pytest.approx(1e-3, abs=1e-15)
        assert prob.steps * prob.dt == pytest.approx(0.1, abs=1e-9)
        np.testing.assert_array_equal(prob.Delta[3],
                                      wedge(BASIS, trace[3].delta))

    def test_from_substeps_rejects_nonuniform_steps(self):
        trace, _ = fixed_step_trace(1e-3, duration=0.1)
        record = trace[5]
        slowed = type(record)(
            t=record.t, dt=2e-3, delta=record.delta, X_hat=record.X_hat,
            H=record.H, eta=record.eta, sample=record.sample,
        )
        with pytest.raises(ValueError, match="uniform"):
            DiscretizedProblem.from_substeps(
                BASIS, trace[:5] + [slowed], trace[0].H, XI_ORIGIN
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
