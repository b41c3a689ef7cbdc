"""Experiment runner: truth propagation, seeded corruption, end-to-end
runs, and the CSV log format."""

import os

import numpy as np
import pytest

from mef import (
    BASIS,
    CSV_HEADER,
    XI_ORIGIN,
    AttitudeScenario,
    FilterConfig,
    LogRecord,
    NoiseModel,
    Quaternion,
    RunConfig,
    SingularPError,
    attitude_error_angle,
    corrupt,
    initial_observer_hessian,
    observe,
    quat_product,
    rotate_to_body,
    run,
    simulate_truth,
    upsilon,
    write_csv,
)
from mef.simulation import TruthEpoch, _fmt

from conftest import correction_at, make_rng, random_unit_quaternion


def canonical_scenario(duration: float = 100.0) -> AttitudeScenario:
    return AttitudeScenario(
        omega_fn=lambda t: np.array([0.1 * np.cos(0.1 * t), 0.0, 0.2]),
        ref_fn=lambda t: np.array([np.sin(t), 0.0, np.cos(t)]),
        q0=Quaternion.identity(),
        duration=duration,
        sensor_dt=0.1,
    )


def canonical_gains(seed: int = 0) -> NoiseModel:
    return NoiseModel(
        gyro_cov=0.01 ** 2 * np.eye(3), vector_cov=1.0 * np.eye(3), seed=seed
    )


def misaligned_estimate(angle: float = 0.99 * np.pi) -> Quaternion:
    return Quaternion(np.cos(angle / 2.0), np.array([np.sin(angle / 2.0), 0.0, 0.0]))


def make_config(duration: float, *, initial_estimate=None, noise=None,
                seed: int = 0, scale: float = 1.0) -> RunConfig:
    if initial_estimate is None:
        initial_estimate = misaligned_estimate()
    return RunConfig(
        scenario=canonical_scenario(duration),
        gains=canonical_gains(seed),
        filter=FilterConfig(origin_xi=XI_ORIGIN),
        initial_estimate=initial_estimate,
        initial_hessian_scale=scale,
        noise=canonical_gains(seed) if noise else None,
    )


@pytest.fixture(scope="module")
def noiseless_100s():
    return run(make_config(100.0))


class TestSimulateTruth:
    def test_zero_rate_holds_attitude(self):
        rng = make_rng(400)
        q0 = random_unit_quaternion(rng)
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.zeros(3),
            ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
            q0=q0, duration=2.0, sensor_dt=0.1,
        )
        truth = simulate_truth(scenario)
        assert len(truth) == 21
        for epoch in truth:
            np.testing.assert_array_equal(epoch.q.as_vector(), q0.as_vector())

    def test_canonical_trajectory_stays_unit(self):
        truth = simulate_truth(canonical_scenario())
        assert len(truth) == 1001
        for k, epoch in enumerate(truth):
            assert epoch.t == pytest.approx(0.1 * k, abs=1e-9)
            assert abs(np.linalg.norm(epoch.q.as_vector()) - 1.0) <= 1e-9
            np.testing.assert_allclose(
                epoch.z, rotate_to_body(epoch.q, epoch.z_ref), atol=1e-12
            )

    def test_full_revolution_returns_to_start(self):
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.array([0.0, 0.0, 2.0 * np.pi / 10.0]),
            ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
            q0=Quaternion.identity(), duration=10.0, sensor_dt=0.1,
        )
        truth = simulate_truth(scenario)
        assert attitude_error_angle(truth[0].q, truth[-1].q) <= 1e-6

    def test_rejects_non_unit_reference(self):
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.zeros(3),
            ref_fn=lambda t: np.array([0.0, 0.0, 1.1]),
            q0=Quaternion.identity(), duration=1.0, sensor_dt=0.1,
        )
        with pytest.raises(ValueError, match="unit length"):
            simulate_truth(scenario)


class TestCorrupt:
    def fabricated_truth(self, count: int) -> list:
        epoch = TruthEpoch(
            t=0.0, q=Quaternion.identity(),
            z_ref=np.array([0.0, 0.0, 1.0]), z=np.array([0.0, 0.0, 1.0]),
            omega=np.zeros(3),
        )
        return [epoch] * count

    def test_zero_covariance_passes_truth_through(self):
        truth = simulate_truth(canonical_scenario(duration=1.0))
        noise = NoiseModel(gyro_cov=np.zeros((3, 3)),
                           vector_cov=np.zeros((3, 3)), seed=5)
        for (t, omega, z), epoch in zip(corrupt(truth, noise), truth):
            assert t == epoch.t
            np.testing.assert_array_equal(omega, epoch.omega)
            np.testing.assert_array_equal(z, epoch.z)

    def test_same_seed_reproduces_stream(self):
        truth = simulate_truth(canonical_scenario(duration=1.0))
        noise = canonical_gains(seed=9)
        first = corrupt(truth, noise)
        second = corrupt(truth, noise)
        for (_, om_a, z_a), (_, om_b, z_b) in zip(first, second):
            np.testing.assert_array_equal(om_a, om_b)
            np.testing.assert_array_equal(z_a, z_b)

    def test_different_seeds_differ(self):
        truth = simulate_truth(canonical_scenario(duration=1.0))
        first = corrupt(truth, canonical_gains(seed=1))
        second = corrupt(truth, canonical_gains(seed=2))
        assert any(
            not np.array_equal(a[1], b[1]) for a, b in zip(first, second)
        )

    def test_vector_noise_does_not_shift_gyro_stream(self):
        # Separate substreams per sensor: toggling one covariance must not
        # change the other sensor's draws.
        truth = self.fabricated_truth(50)
        quiet = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3),
                           vector_cov=np.zeros((3, 3)), seed=4)
        loud = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3),
                          vector_cov=np.eye(3), seed=4)
        for (_, om_a, _), (_, om_b, _) in zip(corrupt(truth, quiet),
                                              corrupt(truth, loud)):
            np.testing.assert_array_equal(om_a, om_b)

    def test_gyro_noise_variance_matches_covariance(self):
        truth = self.fabricated_truth(100_000)
        sigma2 = 0.01 ** 2
        noise = NoiseModel(gyro_cov=sigma2 * np.eye(3),
                           vector_cov=np.zeros((3, 3)), seed=12)
        draws = np.array([om for _, om, _ in corrupt(truth, noise)])
        for axis in range(3):
            var = float(np.var(draws[:, axis]))
            assert abs(var - sigma2) <= 0.05 * sigma2


class TestInitialObserverHessian:
    def test_annihilates_frame_origin(self):
        rng = make_rng(401)
        for _ in range(10):
            q_hat = random_unit_quaternion(rng)
            H0 = initial_observer_hessian(q_hat, 1.3)
            np.testing.assert_allclose(H0 @ XI_ORIGIN, np.zeros(4), atol=1e-14)

    def test_eigenvalues_are_scale_squared_on_tangent(self):
        rng = make_rng(402)
        scale = 0.7
        q_hat = random_unit_quaternion(rng)
        H0 = initial_observer_hessian(q_hat, scale)
        expected = np.array([0.0, scale ** 2, scale ** 2, scale ** 2])
        np.testing.assert_allclose(np.linalg.eigvalsh(H0), expected, atol=1e-12)

    def test_zero_scale_gives_zero_prior(self):
        H0 = initial_observer_hessian(misaligned_estimate(), 0.0)
        np.testing.assert_array_equal(H0, np.zeros((4, 4)))


class TestRun:
    def test_zero_initial_error_stays_at_truth(self):
        records, summary = run(
            make_config(1.0, initial_estimate=Quaternion.identity())
        )
        assert len(records) == 11
        for rec in records:
            assert rec.error_angle <= 1e-9
            assert abs(np.linalg.norm(rec.q_est) - 1.0) <= 1e-12
        assert summary["final_error_rad"] <= 1e-9

    def test_substep_bookkeeping(self):
        records, summary = run(make_config(2.0))
        assert records[0].substeps == 0
        assert sum(r.substeps for r in records) == summary["total_substeps"]
        assert summary["total_substeps"] >= len(records) - 1

    def test_noiseless_run_converges_hundredfold(self, noiseless_100s):
        records, summary = noiseless_100s
        assert records[0].error_angle == pytest.approx(0.99 * np.pi, abs=1e-12)
        assert summary["final_error_rad"] * 100.0 < records[0].error_angle
        assert summary["max_opt_residual"] <= 1e-6

    def test_every_record_is_finite_and_in_range(self, noiseless_100s):
        records, _ = noiseless_100s
        for rec in records:
            assert 0.0 <= rec.error_angle <= np.pi
            assert abs(np.linalg.norm(rec.q_est) - 1.0) <= 1e-9
            values = np.concatenate(
                [rec.q_true, rec.q_est, rec.opt_residual,
                 [rec.t, rec.error_angle, rec.delta_norm, rec.value_rate]]
            )
            assert np.all(np.isfinite(values))

    def test_noisy_runs_are_deterministic_per_seed(self):
        first, _ = run(make_config(5.0, noise=True, seed=3))
        second, _ = run(make_config(5.0, noise=True, seed=3))
        other, _ = run(make_config(5.0, noise=True, seed=4))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.q_est, b.q_est)
            np.testing.assert_array_equal(a.opt_residual, b.opt_residual)
            assert a.error_angle == b.error_angle
            assert a.value_rate == b.value_rate
        assert any(
            not np.array_equal(a.q_est, b.q_est) for a, b in zip(first, other)
        )

    def test_logged_delta_norm_is_the_boundary_correction(self):
        config = make_config(5.0, noise=True, seed=3)
        records, _ = run(config)
        epochs = list(observe(config))
        assert len(records) == len(epochs) == 51
        for rec, epoch in zip(records, epochs):
            delta = correction_at(epoch.state, epoch.sample, config.filter)
            assert rec.delta_norm == float(np.linalg.norm(delta))
            assert rec.t == epoch.truth.t

    def test_degenerate_solve_reports_epoch(self):
        # A zero prior makes P zero while the misaligned estimate pulls.
        with pytest.raises(SingularPError, match=r"epoch 0 \(t=0 s\): .*\(P is singular\)"):
            run(make_config(1.0, scale=0.0))


class TestWriteCsv:
    def sample_records(self) -> list:
        return [
            LogRecord(
                t=0.1, q_true=np.array([1.0, 0.0, 0.0, 0.0]),
                q_est=np.array([1.0 / 3.0, 0.0, 0.0, 0.0]),
                error_angle=0.25, delta_norm=0.5,
                opt_residual=np.array([1e-16, 0.0, -2e-16]),
                value_rate=-0.125, substeps=3,
            )
        ]

    def test_header_and_field_count(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(self.sample_records(), path)
        lines = open(path).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 16

    def test_seventeen_significant_digits(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(self.sample_records(), path)
        line = open(path).read().splitlines()[1]
        fields = line.split(",")
        # 17 significant digits reproduce the double exactly on read-back.
        assert fields[0] == "0.10000000000000001"
        assert float(fields[0]) == 0.1
        assert fields[5] == "0.33333333333333331"
        assert float(fields[5]) == 1.0 / 3.0
        assert fields[15] == "3"

    def test_special_values_are_written_as_fmt_writes_them(self, tmp_path):
        record = LogRecord(
            t=-0.0, q_true=np.array([np.nan, np.inf, -np.inf, 5e-324]),
            q_est=np.array([1e300, -1e-300, 1.0 / 3.0, -0.0]),
            error_angle=np.float64(0.1), delta_norm=float("nan"),
            opt_residual=np.array([-5e-324, 2.0 ** 53 + 2.0, -7.0]),
            value_rate=-np.inf, substeps=np.int64(12),
        )
        path = str(tmp_path / "out.csv")
        write_csv([record], path)
        expected = ",".join(
            [_fmt(record.t)] + [_fmt(v) for v in record.q_true] + [_fmt(v) for v in record.q_est]
            + [_fmt(record.error_angle), _fmt(record.delta_norm)]
            + [_fmt(v) for v in record.opt_residual] + [_fmt(record.value_rate), "12"]
        )
        assert open(path).read().splitlines()[1] == expected

    def test_empty_log_writes_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_csv([], path)
        assert open(path).read() == CSV_HEADER + "\n"

    def test_no_temporary_files_left_behind(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(self.sample_records(), path)
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
