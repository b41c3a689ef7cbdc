"""Attitude kinematics, implicit measurement, and gain construction."""

import numpy as np
import pytest

from conftest import (make_rng, random_unit_quaternion, random_unit_vector,
                      sample_from_measurements)
from mef import (
    BASIS,
    XI_ORIGIN,
    AttitudeScenario,
    NoiseModel,
    Quaternion,
    adjoint_coords,
    attitude_error_angle,
    group_from_quaternion,
    measurement_matrix,
    quat_product,
    simulate_truth,
    upsilon,
    upsilon_bar,
    velocity_coords,
    wedge,
)
from mef.liegroup import _exp_series


def simulated(q0: Quaternion, omega, dt: float, steps: int = 1, z_ref=(0.0, 0.0, 1.0)):
    """simulate_truth over `steps` intervals of dt from q0, under the
    constant body rate omega and the constant unit reference z_ref."""
    scenario = AttitudeScenario(omega_fn=lambda t: np.asarray(omega, dtype=float),
                                ref_fn=lambda t: np.asarray(z_ref, dtype=float),
                                q0=q0, duration=steps * dt, sensor_dt=dt)
    return simulate_truth(scenario)


def body_vector(q: Quaternion, z_ref) -> np.ndarray:
    """Body-frame image of the unit inertial vector z_ref under q, as
    simulate_truth forms its z."""
    return simulated(q, np.zeros(3), 1.0, z_ref=z_ref).z[0]


def quat_to_rot(q: Quaternion) -> np.ndarray:
    """Independent body-to-inertial rotation matrix, used as a cross-check
    oracle for the quaternion arithmetic."""
    w, (x, y, z) = q.q_r, q.q_v
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def scenario_stub(sensor_dt: float = 0.1) -> AttitudeScenario:
    return AttitudeScenario(
        omega_fn=lambda t: np.zeros(3),
        ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
        q0=Quaternion(1.0, np.zeros(3)),
        duration=1.0,
        sensor_dt=sensor_dt,
    )


class TestQuaternionType:
    def test_unit_invariant_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            Quaternion(1.0, [0.5, 0.0, 0.0])

    @pytest.mark.parametrize("q_r,q_v", [
        (float("nan"), [0.0, 0.0, 0.0]),
        (1.0, [float("nan"), 0.0, 0.0]),
        (float("inf"), [0.0, 0.0, 0.0]),
    ])
    def test_non_finite_components_rejected(self, q_r, q_v):
        with pytest.raises(ValueError, match="norm"):
            Quaternion(q_r, q_v)

    def test_from_vector_roundtrip(self):
        q = Quaternion.from_vector([0.5, 0.5, 0.5, 0.5])
        np.testing.assert_array_equal(q.as_vector(), [0.5, 0.5, 0.5, 0.5])

    def test_conjugate_inverts_rotation(self):
        rng = make_rng(200)
        q = random_unit_quaternion(rng)
        np.testing.assert_allclose(
            quat_to_rot(Quaternion(q.q_r, -q.q_v)), quat_to_rot(q).T, atol=1e-12
        )


class TestQuatProduct:
    def test_identity_element(self):
        rng = make_rng(201)
        q = random_unit_quaternion(rng)
        out = quat_product(q, Quaternion(1.0, np.zeros(3)))
        np.testing.assert_allclose(out.as_vector(), q.as_vector(), atol=1e-15)

    def test_conjugate_is_inverse(self):
        rng = make_rng(202)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            out = quat_product(q, Quaternion(q.q_r, -q.q_v))
            np.testing.assert_allclose(out.as_vector(), [1, 0, 0, 0], atol=1e-14)

    def test_half_angle_squares_to_full_angle(self):
        c = np.cos(np.pi / 4.0)
        q = Quaternion(c, [0.0, 0.0, c])
        sq = quat_product(q, q)
        np.testing.assert_allclose(sq.as_vector(), [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_product_matches_rotation_composition(self):
        rng = make_rng(203)
        for _ in range(20):
            a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
            np.testing.assert_allclose(
                quat_to_rot(quat_product(a, b)),
                quat_to_rot(a) @ quat_to_rot(b),
                atol=1e-12,
            )


class TestVelocityCoords:
    def test_zero(self):
        np.testing.assert_array_equal(velocity_coords(np.zeros(3)), np.zeros(3))

    def test_halving(self):
        np.testing.assert_array_equal(velocity_coords([0.0, 0.0, 2.0]), [0.0, 0.0, 1.0])

    def test_kinematics_sign(self):
        # qdot = -wedge(omega/2) q: compare against a finite difference of
        # the exact propagation.
        rng = make_rng(204)
        q = random_unit_quaternion(rng)
        omega = rng.standard_normal(3)
        h = 1e-7
        qdot_fd = (simulated(q, omega, h).q[1] - q.as_vector()) / h
        qdot = -wedge(BASIS, velocity_coords(omega)) @ q.as_vector()
        np.testing.assert_allclose(qdot_fd, qdot, atol=1e-6)


class TestRotateToBody:
    def test_identity_attitude(self):
        z_ref = np.array([0.48, -0.64, 0.6])
        np.testing.assert_allclose(body_vector(Quaternion(1.0, np.zeros(3)), z_ref), z_ref)

    def test_quarter_turn_about_e3(self):
        q = Quaternion(np.cos(np.pi / 4.0), [0.0, 0.0, np.sin(np.pi / 4.0)])
        z = body_vector(q, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(z, [0.0, -1.0, 0.0], atol=1e-15)

    def test_matches_transposed_rotation_matrix(self):
        rng = make_rng(205)
        for _ in range(30):
            q = random_unit_quaternion(rng)
            z_ref = random_unit_vector(rng)
            np.testing.assert_allclose(
                body_vector(q, z_ref), quat_to_rot(q).T @ z_ref, atol=1e-12
            )

    def test_preserves_norm(self):
        rng = make_rng(206)
        for _ in range(30):
            q = random_unit_quaternion(rng)
            z_ref = random_unit_vector(rng)
            assert abs(
                np.linalg.norm(body_vector(q, z_ref)) - np.linalg.norm(z_ref)
            ) <= 1e-12


class TestPropagation:
    def test_zero_rate_is_identity(self):
        rng = make_rng(207)
        q = random_unit_quaternion(rng)
        out = simulated(q, np.zeros(3), 0.1).q[1]
        np.testing.assert_allclose(out, q.as_vector(), atol=1e-15)

    def test_matches_generic_series_exponential(self):
        rng = make_rng(208)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            omega = rng.standard_normal(3)
            dt = 0.1
            mat = _exp_series(wedge(BASIS, -dt * velocity_coords(omega)))
            np.testing.assert_allclose(
                simulated(q, omega, dt).q[1],
                mat @ q.as_vector(),
                atol=1e-10,
            )

    def test_rotation_accumulates_about_fixed_axis(self):
        # Constant rate 2pi/10 about e3 for 10 s is a full revolution; the
        # quaternion returns to plus or minus itself.
        q = Quaternion(1.0, np.zeros(3))
        omega = np.array([0.0, 0.0, 2.0 * np.pi / 10.0])
        q = Quaternion.from_vector(simulated(q, omega, 0.1, steps=100).q[-1])
        assert abs(abs(q.q_r) - 1.0) <= 1e-9
        assert attitude_error_angle(q, Quaternion(1.0, np.zeros(3))) <= 1e-6


class TestMeasurementMatrix:
    def test_consistent_measurement_annihilates_truth(self):
        rng = make_rng(209)
        for _ in range(50):
            q = random_unit_quaternion(rng)
            z_ref = random_unit_vector(rng)
            C = measurement_matrix(body_vector(q, z_ref), z_ref)
            assert np.linalg.norm(C @ q.as_vector()) <= 1e-12

    def test_equal_vectors_block_form(self):
        z = np.array([0.0, 0.6, 0.8])
        C = measurement_matrix(z, z)
        assert np.all(C[0] == 0.0) and np.all(C[:, 0] == 0.0)
        np.testing.assert_allclose(C[1:, 1:], -2.0 * np.array(
            [[0.0, -z[2], z[1]], [z[2], 0.0, -z[0]], [-z[1], z[0], 0.0]]
        ))
        np.testing.assert_array_equal(C @ [1.0, 0.0, 0.0, 0.0], np.zeros(4))

    def test_noise_enters_through_output_jacobian(self):
        # C is affine in the measured vector, so the perturbation of C q is
        # exactly the output Jacobian at q applied to the noise.
        rng = make_rng(210)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            z_ref = random_unit_vector(rng)
            z = body_vector(q, z_ref)
            nu = rng.standard_normal(3)
            lhs = measurement_matrix(z + nu, z_ref) @ q.as_vector()
            np.testing.assert_allclose(lhs, upsilon_bar(BASIS, q.as_vector()) @ nu, atol=1e-12)


class TestOutputJacobian:
    def test_identity_estimate(self):
        J = upsilon_bar(BASIS, XI_ORIGIN)
        np.testing.assert_array_equal(J, np.vstack([np.zeros(3), np.eye(3)]))


class TestBuildSample:
    def test_velocity_gain_inverse_quarters_covariance(self):
        noise = NoiseModel(gyro_var=0.01 ** 2, vector_var=1.0)
        sample = sample_from_measurements(
            0.0, Quaternion(1.0, np.zeros(3)), np.eye(4),
            np.zeros(3), [0.0, 0.0, 1.0], scenario_stub(), noise,
        )
        np.testing.assert_allclose(
            np.linalg.inv(sample.Q), 0.25 * 0.0001 * np.eye(3), atol=1e-18
        )

    def test_output_gain_at_identity_estimate(self):
        sigma = 0.7
        noise = NoiseModel(gyro_var=1.0, vector_var=sigma ** 2)
        sample = sample_from_measurements(
            0.0, Quaternion(1.0, np.zeros(3)), np.eye(4),
            np.zeros(3), [0.0, 0.0, 1.0], scenario_stub(), noise,
        )
        expected = np.diag([0.0, sigma ** -2, sigma ** -2, sigma ** -2])
        np.testing.assert_allclose(sample.R, expected, atol=1e-12)

    def test_identity_observer_input_map(self):
        noise = NoiseModel(gyro_var=1.0, vector_var=1.0)
        sample = sample_from_measurements(
            0.0, Quaternion(1.0, np.zeros(3)), np.eye(4),
            np.zeros(3), [0.0, 0.0, 1.0], scenario_stub(), noise,
        )
        np.testing.assert_allclose(sample.B, upsilon(BASIS, XI_ORIGIN), atol=1e-14)

    def test_input_map_rank_three_for_random_observer(self):
        rng = make_rng(213)
        noise = NoiseModel(gyro_var=1.0, vector_var=1.0)
        for _ in range(20):
            X = group_from_quaternion(random_unit_quaternion(rng))
            q_hat = Quaternion.from_vector(BASIS.inverse(X) @ XI_ORIGIN)
            sample = sample_from_measurements(
                0.0, q_hat, X, np.zeros(3), [0.0, 0.0, 1.0], scenario_stub(), noise,
            )
            assert np.linalg.matrix_rank(sample.B, tol=1e-10) == 3
            np.testing.assert_allclose(
                sample.B, upsilon(BASIS, XI_ORIGIN) @ adjoint_coords(BASIS, X),
                atol=1e-12,
            )

    def test_output_gain_pseudoinverse_identities(self):
        rng = make_rng(214)
        noise = NoiseModel(gyro_var=1.0, vector_var=0.3)
        q_hat = random_unit_quaternion(rng)
        sample = sample_from_measurements(
            0.0, q_hat, group_from_quaternion(q_hat),
            np.zeros(3), [0.0, 0.0, 1.0], scenario_stub(), noise,
        )
        J = upsilon_bar(BASIS, q_hat.as_vector())
        R_inv = J @ (noise.vector_var * np.eye(3)) @ J.T
        np.testing.assert_allclose(sample.R @ R_inv @ sample.R, sample.R, atol=1e-10)
        np.testing.assert_allclose(R_inv @ sample.R @ R_inv, R_inv, atol=1e-10)

    def test_measurement_target_is_zero(self):
        noise = NoiseModel(gyro_var=1.0, vector_var=1.0)
        sample = sample_from_measurements(
            0.0, Quaternion(1.0, np.zeros(3)), np.eye(4),
            np.zeros(3), [0.0, 0.0, 1.0], scenario_stub(), noise,
        )
        np.testing.assert_array_equal(sample.y, np.zeros(4))
        assert sample.valid_until == 0.1


class TestGroupFromQuaternion:
    def test_identity(self):
        X = group_from_quaternion(Quaternion(1.0, np.zeros(3)))
        np.testing.assert_allclose(X, np.eye(4), atol=1e-15)

    def test_negative_identity(self):
        X = group_from_quaternion(Quaternion(-1.0, np.zeros(3)))
        np.testing.assert_allclose(X, -np.eye(4), atol=1e-12)

    def test_large_angle_initialization(self):
        theta = 0.99 * np.pi / 2.0
        q = Quaternion(np.cos(theta), [np.sin(theta), 0.0, 0.0])
        X = group_from_quaternion(q)
        expected = np.cos(theta) * np.eye(4) + np.sin(theta) * wedge(BASIS, [1, 0, 0])
        np.testing.assert_allclose(X, expected, atol=1e-13)

    def test_inverse_action_recovers_quaternion(self):
        rng = make_rng(215)
        for _ in range(50):
            q = random_unit_quaternion(rng)
            X = group_from_quaternion(q)
            np.testing.assert_allclose(BASIS.inverse(X) @ XI_ORIGIN, q.as_vector(), atol=1e-12)
            np.testing.assert_allclose(X @ q.as_vector(), XI_ORIGIN, atol=1e-12)


class TestAttitudeErrorAngle:
    def test_identical(self):
        rng = make_rng(216)
        q = random_unit_quaternion(rng)
        assert attitude_error_angle(q, q) == 0.0

    def test_double_cover(self):
        rng = make_rng(217)
        q = random_unit_quaternion(rng)
        q_neg = Quaternion.from_vector(-q.as_vector())
        assert attitude_error_angle(q, q_neg) == 0.0

    def test_initial_misalignment_angle(self):
        angle = 0.99 * np.pi
        offset = Quaternion(np.cos(angle / 2.0), [np.sin(angle / 2.0), 0.0, 0.0])
        q = Quaternion(1.0, np.zeros(3))
        assert abs(attitude_error_angle(q, quat_product(q, offset)) - angle) <= 1e-12

    def test_range_and_symmetry(self):
        rng = make_rng(218)
        for _ in range(30):
            a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
            angle = attitude_error_angle(a, b)
            assert 0.0 <= angle <= np.pi
            assert abs(angle - attitude_error_angle(b, a)) <= 1e-12


class TestScenarioAndNoiseTypes:
    def test_epoch_count(self):
        assert scenario_stub().epochs() == 11

    def test_zero_duration_means_empty(self):
        s = scenario_stub()
        s.duration = 0.0
        assert s.epochs() == 0

    def test_non_multiple_duration_rejected(self):
        s = scenario_stub()
        s.duration = 1.05
        with pytest.raises(ValueError, match="integer"):
            s.epochs()

    def test_nonpositive_sensor_dt_rejected(self):
        with pytest.raises(ValueError):
            scenario_stub(sensor_dt=0.0)

    @pytest.mark.parametrize("field", ["duration", "sensor_dt"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_times_rejected_at_construction(self, field, value):
        times = {"duration": 1.0, "sensor_dt": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            AttitudeScenario(omega_fn=lambda t: np.zeros(3), ref_fn=lambda t: np.zeros(3),
                             q0=Quaternion(1.0, np.zeros(3)), **times)

    @pytest.mark.parametrize("field", ["gyro_var", "vector_var"])
    @pytest.mark.parametrize("value", [-0.1, float("inf"), float("nan")])
    def test_noise_model_rejects_a_bad_variance(self, field, value):
        variances = {"gyro_var": 1.0, "vector_var": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be nonnegative and finite"):
            NoiseModel(**variances)