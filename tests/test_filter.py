"""Observer core: correction solve, rate equations, and the adaptive step.

The load-bearing check is the critical-point identity: the correction
returned by correction_delta must zero the tangential projection of
gradient_rate for arbitrary well-posed inputs. Everything else here pins
down the individual terms and the step() contract.
"""

import dataclasses

import numpy as np
import pytest

import mef.filter
import mef.simulation
from mef import (
    BASIS,
    XI_ORIGIN,
    AttitudeScenario,
    FilterConfig,
    GeneratorBasis,
    GroupElement,
    NoiseModel,
    ObserverState,
    Quaternion,
    RunConfig,
    SignalSample,
    SingularPError,
    attitude_error_angle,
    build_sample,
    exp_group,
    group_from_quaternion,
    hessian_rate,
    init,
    initial_observer_hessian,
    observe,
    optimality_residual,
    quat_product,
    rotate_to_body,
    state_estimate,
    step,
    upsilon,
    value_rate,
    velocity_coords,
    wedge,
)
from mef.cli import EXIT_SINGULAR, main
from mef.filter import ORTHOGONALITY_TOLERANCE, check_invariants

from conftest import (
    correction_at,
    gradient_rate_at,
    make_rng,
    random_filter_instance,
    random_group_element,
    random_unit_quaternion,
    random_unit_vector,
)

CFG = FilterConfig(origin_xi=XI_ORIGIN)

# Scalar Riccati reference instance: hdot = -(b^2/q) h^2 + c^2 r.
SCALAR_B = 1.0
SCALAR_Q = 10.0
SCALAR_C = 0.2
SCALAR_R = 0.5
SCALAR_H0 = 0.1


def scalar_riccati_solution(t: float) -> float:
    alpha = SCALAR_B ** 2 / SCALAR_Q
    beta = SCALAR_C ** 2 * SCALAR_R
    h_inf = np.sqrt(beta / alpha)
    th = np.tanh(alpha * h_inf * t)
    return h_inf * (SCALAR_H0 + h_inf * th) / (h_inf + SCALAR_H0 * th)


def scalar_setup(valid_until: float = 2.0):
    basis = GeneratorBasis(np.zeros((0, 1, 1)))
    state = ObserverState(
        X_hat=GroupElement.identity(1),
        H=np.array([[SCALAR_H0]]),
        eta=np.zeros(1),
        t=0.0,
        basis=basis,
    )
    sample = SignalSample(
        U_coords=np.zeros(0),
        C=np.array([[SCALAR_C]]),
        y=np.array([0.0]),
        B=np.array([[SCALAR_B]]),
        Q=np.array([[SCALAR_Q]]),
        R=np.array([[SCALAR_R]]),
        valid_until=valid_until,
    )
    cfg = FilterConfig(origin_xi=np.array([1.0]), dt_max=1e-4)
    return state, sample, cfg


def consistent_sample(q: Quaternion, omega, t: float = 0.0) -> SignalSample:
    """Sample whose measured direction matches the attitude exactly."""
    scenario = AttitudeScenario(
        omega_fn=lambda _t: np.asarray(omega, dtype=float),
        ref_fn=lambda _t: np.array([0.0, 0.0, 1.0]),
        q0=Quaternion(1.0, np.zeros(3)),
        duration=1.0,
        sensor_dt=0.1,
    )
    gains = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3), vector_cov=np.eye(3))
    z = np.array(
        [
            2 * (q.q_v[0] * q.q_v[2] - q.q_r * q.q_v[1]),
            2 * (q.q_v[1] * q.q_v[2] + q.q_r * q.q_v[0]),
            1 - 2 * (q.q_v[0] ** 2 + q.q_v[1] ** 2),
        ]
    )
    return build_sample(
        t, q, group_from_quaternion(q), np.asarray(omega, dtype=float), z,
        scenario, gains,
    )


def offset_quaternion(angle: float, axis) -> Quaternion:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return Quaternion(np.cos(angle / 2.0), np.sin(angle / 2.0) * axis)


class TestInit:
    def test_identity_start_zero_gradient(self):
        rng = make_rng(300)
        A = rng.standard_normal((4, 4))
        H0 = A @ A.T
        state = init(BASIS, GroupElement.identity(4), H0)
        np.testing.assert_array_equal(state.eta, np.zeros(4))
        assert state.t == 0.0
        np.testing.assert_allclose(state.H, H0, atol=1e-14)

    def test_accepts_rank_deficient_prior(self):
        q_hat = offset_quaternion(0.99 * np.pi, [1.0, 0.0, 0.0])
        H0 = initial_observer_hessian(q_hat, 0.1)
        assert np.linalg.matrix_rank(H0, tol=1e-12) == 3
        state = init(BASIS, group_from_quaternion(q_hat), H0)
        # The prior must not pull along the normal direction at the start.
        np.testing.assert_allclose(state.H @ XI_ORIGIN, np.zeros(4), atol=1e-14)

    def test_rejects_asymmetric_prior(self):
        H0 = np.eye(4)
        H0[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            init(BASIS, GroupElement.identity(4), H0)

    def test_rejects_indefinite_prior(self):
        H0 = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="positive semidefinite"):
            init(BASIS, GroupElement.identity(4), H0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_prior(self, bad):
        # Rejected by name, before the eigenvalue solve could fail on it or
        # the symmetry test could warn about inf - inf.
        H0 = np.eye(4)
        H0[1, 2] = H0[2, 1] = bad
        with pytest.raises(ValueError, match="H_0 must be finite"):
            init(BASIS, GroupElement.identity(4), H0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="X_hat_0"):
            init(BASIS, GroupElement.identity(3), np.eye(4))
        with pytest.raises(ValueError, match="m x m"):
            init(BASIS, GroupElement.identity(4), np.eye(3))


class TestCorrectionDelta:
    def test_zero_residual_zero_gradient_gives_zero(self):
        rng = make_rng(301)
        q = random_unit_quaternion(rng)
        sample = consistent_sample(q, [0.1, -0.2, 0.05])
        state = init(BASIS, group_from_quaternion(q), initial_observer_hessian(q, 1.0))
        delta = correction_at(state, sample, CFG)
        np.testing.assert_allclose(delta, np.zeros(3), atol=1e-12)

    def test_identity_weight_reduces_to_projected_forcing(self):
        rng = make_rng(302)
        Ups = upsilon(BASIS, XI_ORIGIN)
        X = random_group_element(rng)
        K = rng.standard_normal((4, 4))
        R = K @ K.T
        C = rng.standard_normal((4, 4))
        y = rng.standard_normal(4)
        state = ObserverState(
            X_hat=X, H=Ups @ Ups.T, eta=np.zeros(4), t=0.0, basis=BASIS
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=C, y=y, B=Ups, Q=np.eye(3), R=R,
            valid_until=1.0,
        )
        # With H = Ups Ups^T and eta = 0 the solve matrix is the identity.
        X_inv = np.linalg.inv(X.matrix)
        residual = C @ (X_inv @ XI_ORIGIN) - y
        expected = Ups.T @ (X_inv.T @ (C.T @ (R @ residual)))
        delta = correction_at(state, sample, CFG)
        np.testing.assert_allclose(delta, expected, atol=1e-10)

    def test_randomized_corrections_zero_tangential_gradient_rate(self):
        rng = make_rng(303)
        worst = 0.0
        for _ in range(100):
            state, sample = random_filter_instance(rng)
            delta = correction_at(state, sample, CFG)
            rate = gradient_rate_at(state, sample, delta, CFG)
            res = float(np.linalg.norm(upsilon(BASIS, XI_ORIGIN).T @ rate))
            worst = max(worst, res)
        assert worst <= 1e-9

    def test_rank_deficient_weight_raises(self):
        rng = make_rng(304)
        state = ObserverState(
            X_hat=GroupElement.identity(4), H=np.zeros((4, 4)),
            eta=np.zeros(4), t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3),
            C=rng.standard_normal((4, 4)),
            y=rng.standard_normal(4),
            B=upsilon(BASIS, XI_ORIGIN),
            Q=np.eye(3),
            R=np.eye(4),
            valid_until=1.0,
        )
        with pytest.raises(SingularPError,
                           match=r"residual inf exceeds 1\.000e-08 \(P is singular\)"):
            correction_at(state, sample, CFG)

    def test_residual_above_the_module_tolerance_raises(self, monkeypatch):
        state, sample = random_filter_instance(make_rng(305))
        correction_at(state, sample, CFG)
        monkeypatch.setattr(mef.filter, "P_SOLVE_TOLERANCE", 1e-30)
        with pytest.raises(SingularPError, match=r"correction solve residual \S+ exceeds 1\.000e-30$"):
            correction_at(state, sample, CFG)

    def test_trivial_algebra_returns_empty_correction(self):
        state, sample, cfg = scalar_setup()
        delta = correction_at(state, sample, cfg)
        assert delta.shape == (0,)


class TestHessianRate:
    def test_pure_output_term(self):
        rng = make_rng(306)
        X = random_group_element(rng)
        C = rng.standard_normal((4, 4))
        K = rng.standard_normal((4, 4))
        R = K @ K.T
        state = ObserverState(
            X_hat=X, H=rng.standard_normal((4, 4)) * 0.0 + np.eye(4),
            eta=np.zeros(4), t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=C, y=np.zeros(4),
            B=np.zeros((4, 3)), Q=np.eye(3), R=R, valid_until=1.0,
        )
        X_inv = np.linalg.inv(X.matrix)
        expected = X_inv.T @ C.T @ R @ C @ X_inv
        got = hessian_rate(state, sample, wedge(state.basis, np.zeros(3)))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_zero_weight_zero_output_gives_zero(self):
        state = ObserverState(
            X_hat=GroupElement.identity(4), H=np.zeros((4, 4)),
            eta=np.zeros(4), t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=np.zeros((4, 4)), y=np.zeros(4),
            B=upsilon(BASIS, XI_ORIGIN), Q=np.eye(3), R=np.eye(4),
            valid_until=1.0,
        )
        got = hessian_rate(state, sample, wedge(state.basis, np.array([0.3, -0.1, 0.7])))
        np.testing.assert_array_equal(got, np.zeros((4, 4)))

    def test_transport_terms_cancel_for_identity_weight(self):
        # wedge matrices are antisymmetric, so -H Delta - Delta^T H vanishes
        # identically when H = I.
        rng = make_rng(307)
        state = ObserverState(
            X_hat=GroupElement.identity(4), H=np.eye(4),
            eta=np.zeros(4), t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=np.zeros((4, 4)), y=np.zeros(4),
            B=np.zeros((4, 3)), Q=np.eye(3), R=np.eye(4), valid_until=1.0,
        )
        got = hessian_rate(state, sample, wedge(state.basis, rng.standard_normal(3)))
        np.testing.assert_array_equal(got, np.zeros((4, 4)))

    def test_scalar_rate_value(self):
        state, sample, _ = scalar_setup()
        got = hessian_rate(state, sample, wedge(state.basis, np.zeros(0)))
        expected = -(SCALAR_B ** 2 / SCALAR_Q) * SCALAR_H0 ** 2 \
            + SCALAR_C ** 2 * SCALAR_R
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_scalar_euler_tracks_analytic_solution(self):
        state, sample, cfg = scalar_setup(valid_until=0.1)
        state, _, _ = step(state, sample, cfg)
        assert abs(state.t - 0.1) < 1e-9
        assert abs(state.H[0, 0] - scalar_riccati_solution(state.t)) < 1e-7


class TestGradientRate:
    def test_zero_everything_stays_zero(self):
        rng = make_rng(308)
        q = random_unit_quaternion(rng)
        sample = consistent_sample(q, [0.0, 0.0, 0.0])
        state = init(BASIS, group_from_quaternion(q), initial_observer_hessian(q, 1.0))
        got = gradient_rate_at(state, sample, np.zeros(3), CFG)
        np.testing.assert_allclose(got, np.zeros(4), atol=1e-13)

    def test_pure_output_forcing(self):
        rng = make_rng(309)
        X = random_group_element(rng)
        C = rng.standard_normal((4, 4))
        K = rng.standard_normal((4, 4))
        R = K @ K.T
        y = rng.standard_normal(4)
        state = ObserverState(
            X_hat=X, H=np.zeros((4, 4)), eta=rng.standard_normal(4),
            t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=C, y=y, B=upsilon(BASIS, XI_ORIGIN),
            Q=np.eye(3), R=R, valid_until=1.0,
        )
        X_inv = np.linalg.inv(X.matrix)
        expected = X_inv.T @ (C.T @ (R @ (C @ (X_inv @ XI_ORIGIN) - y)))
        got = gradient_rate_at(state, sample, np.zeros(3), CFG)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_transport_term_uses_transposed_wedge(self):
        rng = make_rng(310)
        eta = rng.standard_normal(4)
        state = ObserverState(
            X_hat=GroupElement.identity(4), H=np.zeros((4, 4)),
            eta=eta, t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=np.zeros((4, 4)), y=np.zeros(4),
            B=np.zeros((4, 3)), Q=np.eye(3), R=np.eye(4), valid_until=1.0,
        )
        delta = np.array([0.0, 1.0, 0.0])
        got = gradient_rate_at(state, sample, delta, CFG)
        np.testing.assert_allclose(got, wedge(BASIS, delta) @ eta, atol=1e-14)

    def test_correction_zeroes_tangential_projection(self):
        rng = make_rng(311)
        state, sample = random_filter_instance(rng)
        delta = correction_at(state, sample, CFG)
        rate = gradient_rate_at(state, sample, delta, CFG)
        assert np.linalg.norm(upsilon(BASIS, XI_ORIGIN).T @ rate) <= 1e-10


class TestStep:
    def equilibrium_state(self, rng):
        X = random_group_element(rng)
        state = ObserverState(
            X_hat=X, H=np.zeros((4, 4)), eta=np.zeros(4), t=0.0, basis=BASIS
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=np.zeros((4, 4)), y=np.zeros(4),
            B=upsilon(BASIS, XI_ORIGIN), Q=np.eye(3), R=np.eye(4),
            valid_until=0.1,
        )
        return state, sample

    def test_equilibrium_leaves_state_unchanged(self):
        rng = make_rng(312)
        state, sample = self.equilibrium_state(rng)
        out, _, delta = step(state, sample, CFG)
        np.testing.assert_array_equal(delta, np.zeros(3))
        np.testing.assert_array_equal(out.X_hat.matrix, state.X_hat.matrix)
        np.testing.assert_array_equal(out.H, state.H)
        np.testing.assert_array_equal(out.eta, state.eta)
        assert out.t == 0.1

    def test_rejects_origin_of_wrong_length(self):
        state, sample = self.equilibrium_state(make_rng(312))
        with pytest.raises(ValueError, match="point dimension does not match the basis"):
            step(state, sample, FilterConfig(origin_xi=np.ones(3)))

    def test_zero_residual_step_is_pure_velocity_transport(self):
        rng = make_rng(313)
        q = random_unit_quaternion(rng)
        omega = np.array([0.1, -0.2, 0.05])
        sample = consistent_sample(q, omega)
        state = init(BASIS, group_from_quaternion(q), initial_observer_hessian(q, 1.0))
        out, _, _ = step(state, sample, CFG)
        expected = state.X_hat @ exp_group(BASIS, 0.1 * velocity_coords(omega))
        np.testing.assert_allclose(out.X_hat.matrix, expected.matrix, atol=1e-12)
        assert out.t == 0.1

    def test_one_call_reaches_interval_end_in_dt_max_substeps(self):
        rng = make_rng(314)
        state, sample = self.equilibrium_state(rng)
        cfg = FilterConfig(origin_xi=XI_ORIGIN, dt_max=0.03)
        trace = []
        state, substeps, _ = step(state, sample, cfg, trace=trace)
        assert state.t == 0.1
        assert substeps == len(trace) == 4
        assert all(rec.dt <= 0.03 for rec in trace)
        assert trace[1].t == pytest.approx(0.03, abs=1e-15)

    def test_rejects_expired_sample(self):
        rng = make_rng(315)
        state, sample = self.equilibrium_state(rng)
        state, _, _ = step(state, sample, CFG)
        with pytest.raises(ValueError, match="not valid"):
            step(state, sample, CFG)

    def test_trace_records_substep_start(self):
        rng = make_rng(316)
        q = random_unit_quaternion(rng)
        sample = consistent_sample(q, [0.3, 0.0, -0.1])
        state = init(BASIS, group_from_quaternion(q), initial_observer_hessian(q, 1.0))
        trace = []
        out, substeps, delta = step(state, sample, CFG, trace=trace)
        assert substeps == len(trace) == 1
        rec = trace[0]
        assert rec.t == state.t
        assert rec.sample is sample
        np.testing.assert_array_equal(rec.X_hat.matrix, state.X_hat.matrix)
        np.testing.assert_array_equal(rec.eta, state.eta)
        assert rec.dt == pytest.approx(out.t - state.t, abs=1e-15)
        assert rec.delta is delta

    def test_patched_correction_replaces_the_solve(self, monkeypatch):
        rng = make_rng(317)
        q = random_unit_quaternion(rng)
        q_far = quat_product(q, offset_quaternion(0.5, [0.0, 0.0, 1.0]))
        omega = np.array([0.05, 0.02, -0.04])
        sample = consistent_sample(q, omega)
        state = init(BASIS, group_from_quaternion(q_far), initial_observer_hessian(q_far, 1.0))
        monkeypatch.setattr(mef.filter, "correction_delta", lambda *args: np.zeros(3))
        out, _, _ = step(state, sample, CFG)
        expected = state.X_hat @ exp_group(BASIS, 0.1 * velocity_coords(omega))
        np.testing.assert_allclose(out.X_hat.matrix, expected.matrix, atol=1e-12)


class TestInvariantGuard:
    def test_accepts_a_fresh_state(self):
        q = offset_quaternion(2.0, [0.0, 1.0, 0.0])
        check_invariants(init(BASIS, group_from_quaternion(q), initial_observer_hessian(q, 1.0)))

    @pytest.mark.parametrize("field", ["H", "eta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_state(self, field, bad):
        state = init(BASIS, GroupElement.identity(4), np.eye(4))
        value = getattr(state, field).copy()
        value[1] = bad
        with pytest.raises(SingularPError, match="not finite"):
            check_invariants(dataclasses.replace(state, **{field: value}))

    def test_rejects_orthogonality_drift_past_the_bound(self):
        M = exp_group(BASIS, [0.3, -1.2, 0.7]).matrix
        for scale, ok in ((1.0 + 0.1 * ORTHOGONALITY_TOLERANCE, True),
                          (1.0 + ORTHOGONALITY_TOLERANCE, False)):
            drifted = GroupElement(M * scale)
            drifted.orthogonal = True  # as exp_group and products set it
            state = init(BASIS, drifted, np.eye(4))
            if ok:
                check_invariants(state)
            else:
                with pytest.raises(SingularPError, match="orthogonality drift"):
                    check_invariants(state)
        # An element not known to be orthogonal is inverted with inv: no bound.
        check_invariants(init(BASIS, GroupElement(2.0 * M), np.eye(4)))

    def test_violation_is_tagged_with_its_epoch_and_exits_3(self, monkeypatch, tmp_path, capsys):
        real_step = mef.simulation.step

        def corrupting_step(state, *args, **kwargs):
            end, substeps, delta = real_step(state, *args, **kwargs)
            if end.t > 0.25:
                end = dataclasses.replace(end, eta=np.full(4, np.nan))
            return end, substeps, delta

        monkeypatch.setattr(mef.simulation, "step", corrupting_step)
        code = main(["simulate", "--config", "noisy", "--out", str(tmp_path),
                     "--set", "scenario.duration=1"])
        assert code == EXIT_SINGULAR
        assert "epoch 3 (t=0.3 s): observer state is not finite" in capsys.readouterr().err


class TestLongHorizon:
    def test_transpose_stays_the_inverse_over_1e5_substeps(self):
        """2000 sensor intervals of 50 equal substeps each under a constant
        body rate, so the same exponential exp(dt U) repeats 1e5 times: the
        worst case for rounding drift, which then adds up linearly."""
        q = offset_quaternion(0.4, [0.0, 0.0, 1.0])
        q_hat = offset_quaternion(2.5, [1.0, 0.0, 0.0])
        z_ref = np.array([0.0, 0.6, 0.8])
        omega = np.array([0.3, -0.2, 0.5])
        scenario = AttitudeScenario(omega_fn=lambda t: omega, ref_fn=lambda t: z_ref,
                                    q0=q, duration=20.0, sensor_dt=0.01)
        gains = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3), vector_cov=np.eye(3))
        cfg = FilterConfig(origin_xi=XI_ORIGIN, dt_max=0.01 / 50, delta_step_cap=1e18)
        state = init(BASIS, group_from_quaternion(q_hat), initial_observer_hessian(q_hat, 1.0))
        z = rotate_to_body(q, z_ref)
        total = 0
        for k in range(2000):
            check_invariants(state)
            estimate = Quaternion.from_vector(state_estimate(state, cfg))
            sample = build_sample(state.t, estimate, state.X_hat, omega, z, scenario, gains)
            state, substeps, _ = step(state, sample, cfg)
            total += substeps
        assert total >= 100_000
        X = state.X_hat.matrix
        drift = float(np.linalg.norm(X.T @ X - np.eye(4)))
        assert drift <= 0.1 * ORTHOGONALITY_TOLERANCE
        # With X^T X = I + E, the transpose differs from the inverse by
        # (I - (I + E)^-1) X^T, about E X^T, and the estimate X^T origin has
        # norm 1 + O(||E||) / 2: both are bounded by the drift itself.
        np.testing.assert_allclose(state.X_hat.inverse, np.linalg.inv(X), rtol=0, atol=drift)
        assert abs(np.linalg.norm(state_estimate(state, cfg)) - 1.0) <= drift


@pytest.fixture(scope="module")
def trajectory():
    """Twenty sensor epochs of the standard attitude scenario, driven from
    a large initial error; shared by the structural-invariant tests."""
    scenario = AttitudeScenario(
        omega_fn=lambda t: np.array([0.1 * np.cos(0.1 * t), 0.0, 0.2]),
        ref_fn=lambda t: np.array([np.sin(t), 0.0, np.cos(t)]),
        q0=Quaternion(1.0, np.zeros(3)),
        duration=2.0,
        sensor_dt=0.1,
    )
    gains = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3),
                       vector_cov=1.0 * np.eye(3))
    q_hat = offset_quaternion(0.99 * np.pi, [1.0, 0.0, 0.0])
    config = RunConfig(scenario=scenario, gains=gains, filter=CFG,
                       initial_estimate=q_hat, initial_hessian_scale=1.0)
    epochs = list(observe(config, trace=True))
    trace = [rec for epoch in epochs for rec in epoch.trace]
    return [e.truth for e in epochs], [e.state for e in epochs], trace


class TestCanonicalTrajectory:
    """Structural invariants checked epoch by epoch on the shared run."""

    def test_estimate_stays_on_unit_sphere(self, trajectory):
        _, states, _ = trajectory
        for state in states:
            q_est = state_estimate(state, CFG)
            assert abs(np.linalg.norm(q_est) - 1.0) <= 1e-12

    def test_weight_matrix_stays_symmetric_psd(self, trajectory):
        _, states, _ = trajectory
        for state in states:
            assert float(np.abs(state.H - state.H.T).max()) == 0.0
            assert float(np.linalg.eigvalsh(state.H)[0]) >= -1e-8

    def test_tangential_gradient_stays_pinned(self, trajectory):
        _, states, _ = trajectory
        for state in states:
            res = optimality_residual(state, CFG)
            assert float(np.linalg.norm(res)) <= 1e-12

    def test_substeps_respect_size_contract(self, trajectory):
        _, _, trace = trajectory
        assert len(trace) >= 20
        for rec in trace:
            assert rec.dt <= CFG.dt_max + 1e-15
            move = float(np.linalg.norm(rec.delta)) * rec.dt
            assert move <= CFG.delta_step_cap + 1e-12

    def test_error_decreases_from_initial_transient(self, trajectory):
        truth, states, _ = trajectory
        q_first = Quaternion.from_vector(state_estimate(states[0], CFG))
        q_last = Quaternion.from_vector(state_estimate(states[-1], CFG))
        first = attitude_error_angle(truth[0].q, q_first)
        last = attitude_error_angle(truth[-1].q, q_last)
        assert first == pytest.approx(0.99 * np.pi, abs=1e-12)
        assert last < first


class TestStateEstimate:
    def test_identity_returns_origin(self):
        state = init(BASIS, GroupElement.identity(4), np.zeros((4, 4)))
        np.testing.assert_array_equal(state_estimate(state, CFG), XI_ORIGIN)

    def test_exponential_gives_cosine_sine_coordinates(self):
        rng = make_rng(318)
        for _ in range(10):
            axis = random_unit_vector(rng)
            theta = rng.uniform(0.0, np.pi)
            X = exp_group(BASIS, theta * axis)
            state = ObserverState(X_hat=X, H=np.zeros((4, 4)),
                                  eta=np.zeros(4), t=0.0, basis=BASIS)
            expected = np.concatenate(([np.cos(theta)], np.sin(theta) * axis))
            np.testing.assert_allclose(
                state_estimate(state, CFG), expected, atol=1e-12
            )

    def test_large_initial_misalignment_roundtrip(self):
        q_hat = offset_quaternion(0.99 * np.pi, [1.0, 0.0, 0.0])
        state = init(BASIS, group_from_quaternion(q_hat), np.zeros((4, 4)))
        est = Quaternion.from_vector(state_estimate(state, CFG))
        assert attitude_error_angle(Quaternion(1.0, np.zeros(3)), est) == pytest.approx(
            0.99 * np.pi, abs=1e-12
        )


class TestDiagnostics:
    def test_fresh_state_has_zero_residual(self):
        state = init(BASIS, GroupElement.identity(4), np.eye(4))
        np.testing.assert_array_equal(optimality_residual(state, CFG), np.zeros(3))

    def test_value_rate_zero_at_rest(self):
        rng = make_rng(319)
        q = random_unit_quaternion(rng)
        sample = consistent_sample(q, [0.0, 0.0, 0.0])
        state = init(BASIS, group_from_quaternion(q), initial_observer_hessian(q, 1.0))
        assert abs(value_rate(state, sample, np.zeros(3), CFG)) < 1e-16

    def test_value_rate_is_weighted_residual_energy(self):
        v = np.array([0.2, -0.1, 0.4, 0.05])
        R = np.diag([1.0, 2.0, 3.0, 4.0])
        state = ObserverState(
            X_hat=GroupElement.identity(4), H=np.zeros((4, 4)),
            eta=np.zeros(4), t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=np.eye(4), y=XI_ORIGIN + v,
            B=np.zeros((4, 3)), Q=np.eye(3), R=R, valid_until=1.0,
        )
        got = value_rate(state, sample, np.zeros(3), CFG)
        assert got == pytest.approx(0.5 * v @ R @ v, rel=1e-12)
        assert got >= 0.0

    def test_value_rate_transport_coupling(self):
        rng = make_rng(320)
        eta = rng.standard_normal(4)
        delta = rng.standard_normal(3)
        state = ObserverState(
            X_hat=GroupElement.identity(4), H=np.zeros((4, 4)),
            eta=eta, t=0.0, basis=BASIS,
        )
        sample = SignalSample(
            U_coords=np.zeros(3), C=np.zeros((4, 4)), y=np.zeros(4),
            B=np.zeros((4, 3)), Q=np.eye(3), R=np.eye(4), valid_until=1.0,
        )
        expected = -eta @ (wedge(BASIS, delta) @ XI_ORIGIN)
        assert value_rate(state, sample, delta, CFG) == pytest.approx(
            expected, rel=1e-12
        )


class TestSignalSampleValidation:
    def good_kwargs(self):
        return dict(
            U_coords=np.zeros(3), C=np.eye(4), y=np.zeros(4),
            B=upsilon(BASIS, XI_ORIGIN), Q=np.eye(3), R=np.eye(4),
            valid_until=1.0,
        )

    def test_rejects_asymmetric_velocity_gain(self):
        kw = self.good_kwargs()
        kw["Q"] = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SignalSample(**kw)

    def test_rejects_singular_velocity_gain(self):
        kw = self.good_kwargs()
        kw["Q"] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="positive definite"):
            SignalSample(**kw)

    def test_rejects_indefinite_output_gain(self):
        kw = self.good_kwargs()
        kw["R"] = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(ValueError, match="positive semidefinite"):
            SignalSample(**kw)

    def test_rejects_shape_mismatches(self):
        kw = self.good_kwargs()
        kw["y"] = np.zeros(3)
        with pytest.raises(ValueError, match="y length"):
            SignalSample(**kw)
        kw = self.good_kwargs()
        kw["B"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="B must be"):
            SignalSample(**kw)
        kw = self.good_kwargs()
        kw["Q"] = np.eye(2)
        with pytest.raises(ValueError, match="Q must be"):
            SignalSample(**kw)
        kw = self.good_kwargs()
        kw["R"] = np.eye(3)
        with pytest.raises(ValueError, match="R must be"):
            SignalSample(**kw)

    def test_caches_velocity_gain_inverse(self):
        kw = self.good_kwargs()
        kw["Q"] = np.diag([2.0, 4.0, 8.0])
        sample = SignalSample(**kw)
        np.testing.assert_allclose(sample.Q_inv, np.diag([0.5, 0.25, 0.125]))
        assert not sample.Q_inv.flags.writeable
        expected = kw["B"] @ sample.Q_inv @ kw["B"].T
        np.testing.assert_allclose(sample.noise_shape, expected)

    def test_a_gain_edited_in_place_is_checked_again(self):
        """The velocity-gain check is memoized on Q's value, not on the
        array: a Q made asymmetric after one sample fails the next."""
        kw = self.good_kwargs()
        kw["Q"] = np.diag([2.0, 4.0, 8.0])
        SignalSample(**kw)
        kw["Q"][0, 1] = 0.5
        with pytest.raises(ValueError, match="Q must be symmetric"):
            SignalSample(**kw)

    def test_empty_input_map_is_a_noise_free_sample(self):
        # No velocity noise at all (l = 0): Q is 0 x 0 and the weight only
        # gathers output information, hdot = c^2 r, which Euler integrates
        # exactly.
        state, sample, cfg = scalar_setup(valid_until=0.5)
        sample = dataclasses.replace(sample, B=np.zeros((1, 0)), Q=np.zeros((0, 0)))
        assert sample.Q_inv.shape == (0, 0)
        np.testing.assert_array_equal(sample.noise_shape, np.zeros((1, 1)))
        end, substeps, _ = step(state, sample, cfg)
        assert substeps == 5000
        np.testing.assert_allclose(
            end.H, [[SCALAR_H0 + SCALAR_C ** 2 * SCALAR_R * 0.5]], rtol=1e-12
        )


class TestFilterConfigValidation:
    def test_rejects_nonpositive_step_cap(self):
        with pytest.raises(ValueError, match="delta_step_cap"):
            FilterConfig(origin_xi=XI_ORIGIN, delta_step_cap=0.0)

    def test_rejects_nonpositive_dt_max(self):
        with pytest.raises(ValueError, match="dt_max"):
            FilterConfig(origin_xi=XI_ORIGIN, dt_max=-0.1)

    @pytest.mark.parametrize("field", ["delta_step_cap", "dt_max"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            FilterConfig(origin_xi=XI_ORIGIN, **{field: float("nan")})
