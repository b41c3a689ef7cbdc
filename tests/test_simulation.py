"""Experiment runner: truth propagation, seeded corruption, end-to-end
runs, and the CSV log format; the run-wide arrays of the epoch pipeline
against a transcription of the per-epoch construction they replace; and
the log run forms once per run against the single-epoch calls."""

import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mef import (
    BASIS,
    CSV_HEADER,
    XI_ORIGIN,
    AttitudeScenario,
    FilterConfig,
    LogRecord,
    NoiseModel,
    RunConfig,
    SingularPError,
    Truth,
    attitude_error_angle,
    corrupt,
    initial_observer_hessian,
    measurement_matrix,
    observe,
    optimality_residual,
    quat_product,
    run,
    simulate_truth,
    unit_quaternion,
    upsilon,
    upsilon_bar,
    value_rate,
    wedge,
    write_csv,
)
import mef.filter
from mef.config import build_run_config, read_config_source
from mef.simulation import _fmt, _stream, initial_state

from conftest import correction_at, make_rng, psd_sqrt, random_unit_quaternion


def canonical_scenario(duration: float = 100.0) -> AttitudeScenario:
    return AttitudeScenario(
        omega_fn=lambda t: np.array([0.1 * np.cos(0.1 * t), 0.0, 0.2]),
        ref_fn=lambda t: np.array([np.sin(t), 0.0, np.cos(t)]),
        q0=XI_ORIGIN,
        duration=duration,
        sensor_dt=0.1,
    )


def canonical_gains(seed: int = 0) -> NoiseModel:
    return NoiseModel(gyro_var=0.01 ** 2, vector_var=1.0, seed=seed)


def misaligned_estimate(angle: float = 0.99 * np.pi) -> np.ndarray:
    return np.array([np.cos(angle / 2.0), np.sin(angle / 2.0), 0.0, 0.0])


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
        assert len(truth.t) == 21
        for q in truth.q:
            np.testing.assert_array_equal(q, q0)

    def test_canonical_trajectory_stays_unit(self):
        truth = simulate_truth(canonical_scenario())
        assert len(truth.t) == 1001
        for k, (t, q, z_ref, z) in enumerate(zip(truth.t, truth.q, truth.z_ref, truth.z)):
            assert t == pytest.approx(0.1 * k, abs=1e-9)
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-9
            r1, v1 = per_epoch_product(q[0], -q[1:], 0.0, z_ref)
            np.testing.assert_allclose(z, per_epoch_product(r1, v1, q[0], q[1:])[1], atol=1e-12)

    def test_rows_near_the_unit_tolerance_pass_as_quaternions_do(self):
        # |q| - 1 = 7.5e-10: past the vectorized screen's half tolerance,
        # within the 1e-9 unit_quaternion accepts.
        q0 = np.array([1.0 + 7.5e-10, 0.0, 0.0, 0.0])
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.zeros(3), ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
            q0=q0, duration=0.3, sensor_dt=0.1,
        )
        np.testing.assert_array_equal(simulate_truth(scenario).q, np.tile(q0, (4, 1)))

    @pytest.mark.parametrize("duration, count", [(0.0, 0), (0.1, 2)])
    def test_truth_is_read_only_arrays_of_one_row_per_epoch(self, duration, count):
        truth = simulate_truth(canonical_scenario(duration))
        assert [a.shape for a in truth] == [(count,), (count, 4), (count, 3), (count, 3),
                                            (count, 3)]
        for array in truth:
            assert array.dtype == float and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_full_revolution_returns_to_start(self):
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.array([0.0, 0.0, 2.0 * np.pi / 10.0]),
            ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
            q0=XI_ORIGIN, duration=10.0, sensor_dt=0.1,
        )
        truth = simulate_truth(scenario)
        assert attitude_error_angle(truth.q[0], truth.q[-1]) <= 1e-6

    def test_rejects_non_unit_reference(self):
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.zeros(3),
            ref_fn=lambda t: np.array([0.0, 0.0, 1.1]),
            q0=XI_ORIGIN, duration=1.0, sensor_dt=0.1,
        )
        with pytest.raises(ValueError, match="unit length"):
            simulate_truth(scenario)


    def test_rejects_nan_reference_at_its_epoch(self):
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.zeros(3),
            ref_fn=lambda t: np.array([np.nan if t >= 0.5 else 0.0, 0.0, 1.0]),
            q0=XI_ORIGIN, duration=1.0, sensor_dt=0.1,
        )
        with pytest.raises(ValueError, match=r"reference vector at t=0\.5 is not unit length"):
            simulate_truth(scenario)

    @pytest.mark.parametrize("rates, message", [
        ({0.2: np.nan, 0.4: np.inf}, "quaternion norm nan is not 1"),
        ({0.4: np.inf}, "math domain error"),
    ], ids=["nan_then_inf", "inf"])
    def test_fails_at_the_first_bad_rate(self, rates, message):
        """A NaN rate makes the next quaternion NaN; an infinite one fails
        in the exponential. Whichever comes first is reported, as when each
        quaternion was checked as it was propagated: one error, chained to
        no other."""
        scenario = AttitudeScenario(
            omega_fn=lambda t: np.full(3, rates.get(round(t, 9), 0.1)),
            ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
            q0=XI_ORIGIN, duration=1.0, sensor_dt=0.1,
        )
        with pytest.raises(ValueError, match=message) as raised:
            simulate_truth(scenario)
        assert raised.value.__context__ is None


class TestCorrupt:
    def fabricated_truth(self, count: int) -> Truth:
        still = np.tile([0.0, 0.0, 1.0], (count, 1))
        return Truth(t=np.zeros(count), q=np.tile([1.0, 0.0, 0.0, 0.0], (count, 1)),
                     z_ref=still, z=still, omega=np.zeros((count, 3)))

    def test_zero_covariance_passes_truth_through(self):
        truth = simulate_truth(canonical_scenario(duration=1.0))
        noise = NoiseModel(gyro_var=0.0, vector_var=0.0, seed=5)
        omega, z = corrupt(truth, noise)
        assert omega.shape == z.shape == (11, 3)
        np.testing.assert_array_equal(omega, truth.omega)
        np.testing.assert_array_equal(z, truth.z)

    def test_same_seed_reproduces_stream(self):
        truth = simulate_truth(canonical_scenario(duration=1.0))
        noise = canonical_gains(seed=9)
        first = corrupt(truth, noise)
        second = corrupt(truth, noise)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        truth = simulate_truth(canonical_scenario(duration=1.0))
        first = corrupt(truth, canonical_gains(seed=1))
        second = corrupt(truth, canonical_gains(seed=2))
        assert any(
            not np.array_equal(a, b) for a, b in zip(first[0], second[0])
        )

    def test_vector_noise_does_not_shift_gyro_stream(self):
        # Separate substreams per sensor: toggling one variance must not
        # change the other sensor's draws.
        truth = self.fabricated_truth(50)
        quiet = NoiseModel(gyro_var=0.01 ** 2, vector_var=0.0, seed=4)
        loud = NoiseModel(gyro_var=0.01 ** 2, vector_var=1.0, seed=4)
        for om_a, om_b in zip(corrupt(truth, quiet)[0], corrupt(truth, loud)[0]):
            np.testing.assert_array_equal(om_a, om_b)

    def test_gyro_noise_variance_matches_covariance(self):
        truth = self.fabricated_truth(100_000)
        sigma2 = 0.01 ** 2
        noise = NoiseModel(gyro_var=sigma2, vector_var=0.0, seed=12)
        draws = corrupt(truth, noise)[0]
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

    @pytest.mark.parametrize("q_hat", [[1.0, 0.5, 0.0, 0.0], [0.0] * 4,
                                       [1.0, float("nan"), 0.0, 0.0]])
    def test_a_non_unit_initial_estimate_is_rejected(self, q_hat):
        # RunConfig holds any 4-vector; the run starts from initial_state.
        message = r"^quaternion norm \S+ is not 1 within 1e-09$"
        with pytest.raises(ValueError, match=message):
            initial_state(np.array(q_hat), 1.0)
        with pytest.raises(ValueError, match=message):
            run(make_config(1.0, initial_estimate=np.array(q_hat)))


class TestRun:
    def test_zero_initial_error_stays_at_truth(self):
        records, summary = run(
            make_config(1.0, initial_estimate=XI_ORIGIN)
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
            assert rec.t == epoch.t

    def test_patched_correction_reaches_the_last_epoch(self, monkeypatch):
        """Every correction a run logs, the last epoch's included, comes
        from mef.filter.correction_delta, the fault-injection seam."""
        monkeypatch.setattr(mef.filter, "correction_delta", lambda *args: np.zeros(3))
        records, _ = run(make_config(1.0, noise=True, seed=3))
        assert [rec.delta_norm for rec in records] == [0.0] * 11

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


def per_epoch_product(a_r, a_v, b_r, b_v):
    # The scalar Hamilton product the per-epoch pipeline used.
    a1, a2, a3 = a_v.tolist()
    b1, b2, b3 = b_v.tolist()
    r = a_r * b_r - (a1 * b1 + a2 * b2 + a3 * b3)
    return r, np.array([a_r * b1 + b_r * a1 + (a2 * b3 - a3 * b2),
                        a_r * b2 + b_r * a2 + (a3 * b1 - a1 * b3),
                        a_r * b3 + b_r * a3 + (a1 * b2 - a2 * b1)])


def per_epoch_measurement_matrix(z, z_ref):
    C = np.zeros((4, 4))
    C[0, 1:] = z_ref - z
    C[1:, 0] = z - z_ref
    v = z + z_ref
    C[1:, 1:] = -np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return C


def per_epoch_measurements(scenario, noise):
    """(t, q, omega_meas, z_meas, z_ref) of every epoch, formed epoch by
    epoch with one draw of 3 per sensor, as corrupt and simulate_truth
    formed them before they worked on whole runs."""
    gyro_gen, vector_gen = _stream(noise.seed, 0), _stream(noise.seed, 1)
    gyro_sqrt, vector_sqrt = (psd_sqrt(var * np.eye(3))
                              for var in (noise.gyro_var, noise.vector_var))
    q, out = scenario.q0, []
    for k in range(scenario.epochs()):
        t = k * scenario.sensor_dt
        omega = np.asarray(scenario.omega_fn(t), dtype=float).reshape(3)
        z_ref = np.asarray(scenario.ref_fn(t), dtype=float).reshape(3)
        r1, v1 = per_epoch_product(q[0], -q[1:], 0.0, z_ref)
        z = per_epoch_product(r1, v1, q[0], q[1:])[1]
        out.append((t, q, omega + gyro_sqrt.dot(gyro_gen.standard_normal(3)),
                    z + vector_sqrt.dot(vector_gen.standard_normal(3)), z_ref))
        mat = BASIS.closed_form_exp(-scenario.sensor_dt * (omega / 2.0))
        q = unit_quaternion(mat.dot(q))
    return out


def per_epoch_value_rate(state, sample, delta, cfg) -> float:
    # The value rate as the per-epoch pipeline formed it.
    Delta = wedge(state.basis, delta)
    residual = sample.y - sample.C.dot(state.basis.inverse(state.X_hat).dot(cfg.origin_xi))
    b_eta = sample.B.T.dot(state.eta)
    return float(
        (-state.eta).dot(Delta.dot(cfg.origin_xi))
        - (0.5 * b_eta).dot(sample.Q_inv).dot(b_eta)
        + (0.5 * residual).dot(sample.R).dot(residual)
    )


def per_epoch_log_row(t, q, epoch, substeps, cfg) -> np.ndarray:
    q_hat = unit_quaternion(epoch.estimate)
    r, v = per_epoch_product(q[0], -q[1:], q_hat[0], q_hat[1:])
    error = float(2.0 * np.arctan2(float(np.linalg.norm(v)), abs(r)))
    opt = upsilon(BASIS, cfg.origin_xi).T.dot(epoch.state.eta)
    rate = per_epoch_value_rate(epoch.state, epoch.sample, epoch.delta, cfg)
    return np.array([t, *q, *q_hat, error,
                     float(np.linalg.norm(epoch.delta)), *opt, rate, substeps])


class TestEpochTranscription:
    """The pipeline forms the measurements, U and C once per run on (N, .)
    arrays, draws each sensor's noise as one block, and builds each log row
    from shared terms. Every sample and log row must keep the bits of the
    per-epoch construction it replaced, transcribed above."""

    @pytest.fixture(scope="class")
    def noisy_run(self):
        raw, _ = read_config_source("noisy")
        config = build_run_config(raw | {"seed": "3", "scenario.duration": "6.0"})
        return config, list(observe(config)), run(config)[0]

    def test_samples_are_bit_identical(self, noisy_run):
        config, epochs, _ = noisy_run
        expected = per_epoch_measurements(config.scenario, config.noise)
        assert len(epochs) == len(expected) == 61
        Ups_origin = upsilon(BASIS, XI_ORIGIN)
        pinv = np.linalg.pinv(config.gains.vector_var * np.eye(3), rcond=1e-12, hermitian=True)
        for epoch, (t, q, omega, z, z_ref) in zip(epochs, expected):
            X = epoch.state.X_hat
            coords = BASIS._flat_pinv @ (X @ BASIS.generators @ BASIS.inverse(X)).reshape(3, 16).T
            q_hat = unit_quaternion(epoch.estimate)
            J = upsilon_bar(BASIS, q_hat)
            norm2 = q_hat[0] ** 2 + float(q_hat[1:].dot(q_hat[1:]))
            sample = epoch.sample
            assert epoch.t == t and sample.valid_until == t + config.scenario.sensor_dt
            assert epoch.q_true.tobytes() == q.tobytes()
            assert sample.U_coords.tobytes() == (omega / 2.0).tobytes()
            assert sample.C.tobytes() == per_epoch_measurement_matrix(z, z_ref).tobytes()
            assert sample.B.tobytes() == Ups_origin.dot(coords).tobytes()
            assert sample.R.tobytes() == (J.dot(pinv).dot(J.T) / (norm2 * norm2)).tobytes()

    def test_log_rows_are_bit_identical(self, noisy_run):
        config, epochs, records = noisy_run
        substeps = [0] + [epoch.substeps for epoch in epochs[:-1]]
        for record, epoch, (t, q, *_), n in zip(
                records, epochs, per_epoch_measurements(config.scenario, config.noise), substeps):
            row = np.array([record.t, *record.q_true, *record.q_est, record.error_angle,
                            record.delta_norm, *record.opt_residual, record.value_rate,
                            record.substeps])
            assert row.tobytes() == per_epoch_log_row(t, q, epoch, n, config.filter).tobytes()

    @given(arrays(float, (5, 2, 3),
                  elements=st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0)))
    def test_stacked_output_matrices_are_the_single_ones(self, pairs):
        """measurement_matrix of (N, 3) stacks is, row by row, the matrix of
        each pair, and both have the bits of the per-epoch construction
        (the -0.0 diagonal of -skew included)."""
        z, z_ref = pairs[:, 0], pairs[:, 1]
        stacked = measurement_matrix(z, z_ref)
        assert stacked.shape == (5, 4, 4)
        for C, z_k, z_ref_k in zip(stacked, z, z_ref):
            assert C.tobytes() == measurement_matrix(z_k, z_ref_k).tobytes()
            assert C.tobytes() == per_epoch_measurement_matrix(z_k, z_ref_k).tobytes()

    @pytest.mark.parametrize("stream_id", [0, 1])
    def test_a_block_draw_is_the_per_epoch_draws(self, stream_id):
        block = _stream(11, stream_id).standard_normal((1001, 3))
        generator = _stream(11, stream_id)
        rows = np.array([generator.standard_normal(3) for _ in range(1001)])
        assert block.tobytes() == rows.tobytes()


def int_bits(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float)).view(np.int64)


class TestWholeRunLog:
    """run forms the columns of its log once, on (N, .) buffers of every
    epoch's raw arrays. Each field of every record must have the bits of
    the single-epoch call on what observe yields for that epoch, and a
    one-element stack the bits of the single call."""

    @pytest.fixture(scope="class", params=[3, 7], ids=["seed3", "seed7"])
    def noisy_run(self, request):
        raw, _ = read_config_source("noisy")
        config = build_run_config(raw | {"seed": str(request.param)})
        return config, list(observe(config)), run(config)[0]

    @staticmethod
    def single_epoch_calls(epoch, cfg):
        state, sample, delta = epoch.state, epoch.sample, epoch.delta
        return {
            "q_est": epoch.estimate,
            "error_angle": attitude_error_angle(unit_quaternion(epoch.q_true),
                                                unit_quaternion(epoch.estimate)),
            "delta_norm": math.sqrt(delta.dot(delta)),
            "opt_residual": optimality_residual(BASIS, state.eta, cfg.origin_xi),
            "value_rate": value_rate(BASIS, state.eta, delta, epoch.estimate, sample.C, sample.y,
                                     sample.B, sample.Q_inv, sample.R, cfg.origin_xi),
        }

    def test_every_field_is_the_single_epoch_call(self, noisy_run):
        config, epochs, records = noisy_run
        assert len(records) == len(epochs) == 1001
        substeps = [0] + [epoch.substeps for epoch in epochs[:-1]]
        for record, epoch, n in zip(records, epochs, substeps):
            expected = self.single_epoch_calls(epoch, config.filter)
            expected.update(t=epoch.t, q_true=epoch.q_true, substeps=n)
            for name in LogRecord._fields:
                assert np.array_equal(int_bits(getattr(record, name)), int_bits(expected[name]))
            assert type(record.error_angle) is type(record.value_rate) is float

    def test_a_one_element_stack_is_the_single_call(self, noisy_run):
        config, epochs, _ = noisy_run
        origin = config.filter.origin_xi
        for epoch in epochs[::100]:
            state, sample, q_hat = epoch.state, epoch.sample, epoch.estimate
            single = self.single_epoch_calls(epoch, config.filter)
            stacked = {
                "error_angle": attitude_error_angle(epoch.q_true[None], q_hat[None]),
                "opt_residual": optimality_residual(BASIS, state.eta[None], origin),
                "value_rate": value_rate(BASIS, *(a[None] for a in (
                    state.eta, epoch.delta, q_hat, sample.C, sample.y, sample.B, sample.Q_inv,
                    sample.R)), origin),
            }
            for name, value in stacked.items():
                assert value.shape[0] == 1
                assert np.array_equal(int_bits(value[0]), int_bits(single[name]))
