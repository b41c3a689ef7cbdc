"""The substep kernel against a plain transcription of its arithmetic, and
fault injection for each guard whose place in the pipeline is not obvious:
the one finiteness check on a substep's product of group matrices, the
exponential of the velocity that step forms once per step size, the
velocity-gain checks made once per noise model, and the output-gain checks
made on every sample that build_sample assembles. Last, the one assumption
that lets the kernel write its products with ndarray.dot: it gives the bits
of @ on every operand form the kernel uses."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mef import (
    BASIS,
    XI_ORIGIN,
    AttitudeScenario,
    FilterConfig,
    GeneratorBasis,
    NoiseModel,
    ObserverState,
    Quaternion,
    SignalSample,
    build_sample,
    exp_group,
    group_from_quaternion,
    observe,
    step,
)
import mef.filter
from mef.config import build_check_config, build_run_config, read_config_source
from mef.filter import TIME_SNAP

from conftest import make_rng, random_filter_instance


def transcribed_step(state, sample, cfg):
    """The substeps of step written out on raw arrays, each term computed
    where the rate equations use it (the output pull twice, Upsilon and
    wedge(delta) per use), in the floating-point order of the library.
    Returns the per-substep (delta, dt, X_hat, H, eta) and the end state."""
    gens, origin, N = state.basis.generators, cfg.origin_xi, sample.noise_shape
    X, H, eta, t = state.X_hat.matrix, state.H, state.eta, state.t
    t_stop, records = t, []
    while sample.valid_until - t > TIME_SNAP:
        if t_stop - t <= TIME_SNAP:
            t_stop = min(sample.valid_until, t + cfg.dt_max)
        Ups = (gens @ origin).T
        P = Ups.T @ H @ Ups + Ups.T @ (eta @ gens).T
        X_inv = X.T
        pull = X_inv.T @ (sample.C.T @ (sample.R @ (sample.C @ (X_inv @ origin) - sample.y)))
        rhs = Ups.T @ (pull - H @ (N @ eta))
        delta = np.linalg.solve(P, rhs)
        remaining = t_stop - t
        dt = min(cfg.dt_max, remaining)
        if math.sqrt(delta @ delta) > 0.0:
            dt = min(dt, cfg.delta_step_cap / math.sqrt(delta @ delta))
        Delta = (delta @ gens.reshape(3, -1)).reshape(4, 4)
        C_pulled = sample.C @ X_inv
        H_dot = -H @ Delta - Delta.T @ H - H @ N @ H + C_pulled.T @ (sample.R @ C_pulled)
        Delta = (delta @ gens.reshape(3, -1)).reshape(4, 4)
        pull = X_inv.T @ (sample.C.T @ (sample.R @ (sample.C @ (X_inv @ origin) - sample.y)))
        eta_dot = -H @ (Delta @ origin) - Delta.T @ eta - H @ (N @ eta) + pull
        records.append((delta, dt, X, H, eta))
        X = (exp_group(BASIS, dt * delta).matrix @ X) @ exp_group(BASIS, dt * sample.U_coords).matrix
        H_new = H + dt * H_dot
        H = 0.5 * (H_new + H_new.T)
        eta = eta + dt * eta_dot
        t = t_stop if dt >= remaining else t + dt
    return records, (X, H, eta, t)


@pytest.fixture(scope="module")
def noisy_interval():
    """A sensor interval of the noisy preset whose substeps hit both caps:
    the observer state at its start, its sample, and the observed records
    and end state."""
    raw, _ = read_config_source("noisy")
    config = build_run_config(raw | {"scenario.duration": "2.0"})
    epochs = list(observe(config, trace=True))
    k = max(range(len(epochs) - 1), key=lambda i: epochs[i].substeps)
    assert epochs[k].substeps >= 5
    return config.filter, epochs[k], epochs[k + 1].state


@pytest.fixture(scope="module")
def check_interval():
    """The second sensor interval of the fixed-step run that check replays
    at dt = 2.5e-4 (400 substeps): the observer state at its start, its
    sample, and the observed records and end state."""
    config = build_check_config({}, 2.5e-4)
    epochs = list(itertools.islice(observe(config, trace=True), 3))
    return config.filter, epochs[1], epochs[2].state


def assert_step_matches_transcription(state, sample, cfg, trace, end):
    records, (X, H, eta, t) = transcribed_step(state, sample, cfg)
    assert len(records) == len(trace) >= 5
    for (delta, dt, X_k, H_k, eta_k), record in zip(records, trace):
        assert dt == record.dt
        for ours, theirs in ((delta, record.delta), (X_k, record.X_hat.matrix),
                             (H_k, record.H), (eta_k, record.eta)):
            assert np.array_equal(ours, theirs)
    assert t == end.t
    for ours, theirs in ((X, end.X_hat.matrix), (H, end.H), (eta, end.eta)):
        assert np.array_equal(ours, theirs)


class TestTranscription:
    def test_a_noisy_interval_is_bit_identical(self, noisy_interval):
        cfg, epoch, end = noisy_interval
        assert_step_matches_transcription(epoch.state, epoch.sample, cfg, epoch.trace, end)

    def test_a_generic_interval_is_bit_identical(self):
        # In the attitude runs eta is almost normal to the sphere, so the
        # noise damping H N eta is ~1e-22 and vanishes in rounding; generic
        # data exercises every term.
        state, sample = random_filter_instance(make_rng(612))
        sample.valid_until = 0.05
        cfg = FilterConfig(origin_xi=XI_ORIGIN, dt_max=0.01)
        trace: list = []
        end, _, _ = step(state, sample, cfg, trace=trace)
        assert_step_matches_transcription(state, sample, cfg, trace, end)

    def test_a_fixed_step_interval_is_bit_identical(self, check_interval):
        # Here step reuses exp(dt U) across substeps of equal dt; the
        # transcription forms it on every substep.
        cfg, epoch, end = check_interval
        assert_step_matches_transcription(epoch.state, epoch.sample, cfg, epoch.trace, end)


class TestVelocityExponential:
    @pytest.mark.parametrize("interval", ["check_interval", "noisy_interval"])
    def test_formed_once_per_step_size(self, request, monkeypatch, interval):
        """One exp(dt delta) per substep, plus one exp(dt U) for each
        substep whose dt differs from the previous substep's, the first
        included."""
        cfg, epoch, _ = request.getfixturevalue(interval)
        calls = []

        def counting_exp_group(basis, u):
            calls.append(u)
            return exp_group(basis, u)

        monkeypatch.setattr(mef.filter, "exp_group", counting_exp_group)
        trace: list = []
        step(epoch.state, epoch.sample, cfg, trace=trace)
        dts = [record.dt for record in trace]
        new_sizes = sum(dt != previous for previous, dt in zip([None] + dts, dts))
        assert len(calls) == len(dts) + new_sizes
        if interval == "check_interval":
            assert new_sizes < len(dts) // 10

    def test_a_non_finite_velocity_raises_at_the_first_substep(self, noisy_interval,
                                                               monkeypatch):
        cfg, epoch, _ = noisy_interval
        sample = dataclasses.replace(epoch.sample, U_coords=np.array([0.1, np.nan, 0.0]))
        calls = []
        real = mef.filter.correction_delta
        monkeypatch.setattr(mef.filter, "correction_delta",
                            lambda *args: calls.append(args) or real(*args))
        trace: list = []
        with pytest.raises(ValueError, match="group element matrix must be finite"):
            step(epoch.state, sample, cfg, trace=trace)
        assert len(calls) == 1
        assert trace == []


class TestNonFiniteCorrection:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [1, 3])
    def test_raises_at_the_substep_it_enters(self, noisy_interval, bad, at, monkeypatch):
        # An infinite delta gives dt = cap / inf = 0: the substep would not
        # advance t, so the loop would spin if nothing raised.
        cfg, epoch, _ = noisy_interval
        calls = []
        real = mef.filter.correction_delta

        def corrupt(*args):
            calls.append(args)
            assert len(calls) <= at, "step went on past a non-finite correction"
            return np.full(3, bad) if len(calls) == at else real(*args)

        monkeypatch.setattr(mef.filter, "correction_delta", corrupt)
        trace: list = []
        with pytest.raises(ValueError, match="group element matrix must be finite"):
            step(epoch.state, epoch.sample, cfg, trace=trace)
        assert len(calls) == at
        assert len(trace) == at - 1


class TestProductFiniteness:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_inside_the_product_is_caught(self, monkeypatch):
        """X_hat near the largest double on a scaling group: exp(dt delta)
        X_hat overflows in its first row, which the outer product turns into
        inf and NaN (inf * 0) across that row, so the one check raises."""
        basis = GeneratorBasis(np.diag([1.0, 0.0, 0.0, 0.0])[None])
        X_hat = exp_group(basis, [709.7])
        assert np.isfinite(X_hat.matrix).all()
        state = ObserverState(X_hat=X_hat, H=np.eye(4), eta=np.zeros(4), t=0.0, basis=basis)
        sample = SignalSample(U_coords=[0.0], C=np.zeros((4, 4)), y=np.zeros(4),
                              B=np.zeros((4, 1)), Q=[[1.0]], R=np.eye(4), valid_until=1.0)
        cfg = FilterConfig(origin_xi=[1.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(mef.filter, "correction_delta", lambda *args: np.ones(1))
        with pytest.raises(ValueError, match="group element matrix must be finite"):
            step(state, sample, cfg)


SCENARIO = AttitudeScenario(omega_fn=lambda t: np.zeros(3), ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
                            q0=Quaternion.identity(), duration=1.0, sensor_dt=0.1)


def sample_for(noise: NoiseModel, q_hat: Quaternion = Quaternion.identity()) -> SignalSample:
    return build_sample(0.0, q_hat, group_from_quaternion(q_hat), np.array([0.1, -0.2, 0.3]),
                        np.array([0.0, 0.1, 0.99]), SCENARIO, noise)


class TestVelocityGainChecks:
    def test_a_gain_that_is_not_positive_definite_raises(self):
        # gyro_cov passes its own PSD check (eigenvalues >= -1e-12), but its
        # inverse has an eigenvalue of -4e13.
        noise = NoiseModel(gyro_cov=np.diag([1.0, 1.0, -1e-13]), vector_cov=np.eye(3))
        with pytest.raises(ValueError, match="Q must be positive definite"):
            sample_for(noise)

    def test_an_asymmetric_gain_raises(self):
        # The covariance is symmetric to 1e-12 absolute; its inverse, of
        # order 4e6, is not symmetric to 1e-12 relative.
        gyro = 1e-6 * (np.eye(3) + 5e-7 * np.eye(3, k=1))
        noise = NoiseModel(gyro_cov=gyro, vector_cov=np.eye(3))
        with pytest.raises(ValueError, match="Q must be symmetric"):
            sample_for(noise)


def psd(eigenvalues, A):
    basis_vectors, _ = np.linalg.qr(A + 4.0 * np.eye(3))
    V = basis_vectors @ np.diag(eigenvalues) @ basis_vectors.T
    return 0.5 * (V + V.T)


eigenvalue = st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 1.0, 30.0])
eigenvalues = st.lists(eigenvalue, min_size=3, max_size=3)
entries = arrays(float, (3, 3), elements=st.floats(-1.0, 1.0))


class TestTrustedSamples:
    @given(arrays(float, 4, elements=st.floats(-1.0, 1.0)), st.floats(-5e-10, 5e-10),
           eigenvalues, entries, st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3), entries)
    def test_every_built_sample_passes_the_public_checks(self, q, stretch, v_eigs, A, g_eigs, G):
        norm = float(np.linalg.norm(q))
        q = q / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0, 0.0])
        q_hat = Quaternion.from_vector(q * (1.0 + stretch))
        noise = NoiseModel(gyro_cov=psd(g_eigs, G), vector_cov=psd(v_eigs, A))
        sample = sample_for(noise, q_hat)
        public = SignalSample(U_coords=sample.U_coords, C=sample.C, y=sample.y, B=sample.B,
                              Q=sample.Q, R=sample.R, valid_until=sample.valid_until)
        assert np.array_equal(public.Q_inv, sample.Q_inv)
        assert np.array_equal(public.noise_shape, sample.noise_shape)


magnitude = st.floats(1e-8, 1e8)
dot_entry = st.one_of(magnitude, magnitude.map(lambda x: -x), st.sampled_from([0.0, -0.0]))
# The operand shapes of the kernel's products, as chains: A @ B or A @ B @ C.
PRODUCT_FORMS = [
    ((4, 4), (4, 4)),
    ((4, 4), (4,)),
    ((3, 4), (4, 4), (4, 3)),
    ((4,), (4,)),
    ((3, 4), (4, 3)),
    ((4,), (4, 4)),
    ((3,), (3, 3), (3,)),
    ((3,), (3, 16)),
]


@st.composite
def product_chain(draw):
    """Operands of one PRODUCT_FORMS chain; a 2-D operand is drawn either
    as a plain array or as the transposed view of one."""
    operands = []
    for shape in draw(st.sampled_from(PRODUCT_FORMS)):
        if len(shape) == 2 and draw(st.booleans()):
            operands.append(draw(arrays(float, shape[::-1], elements=dot_entry)).T)
        else:
            operands.append(draw(arrays(float, shape, elements=dot_entry)))
    return operands


class TestDotIsMatmul:
    @given(product_chain())
    def test_dot_gives_the_bits_of_matmul(self, operands):
        """The kernel writes its 1-D and 2-D products with ndarray.dot, which
        is only output-neutral if it gives the same bits as @."""
        by_matmul, by_dot = operands[0], operands[0]
        for operand in operands[1:]:
            by_matmul = by_matmul @ operand
            by_dot = by_dot.dot(operand)
        assert np.shape(by_dot) == np.shape(by_matmul)
        assert np.asarray(by_dot).tobytes() == np.asarray(by_matmul).tobytes()
