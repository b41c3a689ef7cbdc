"""The substep kernel against a plain transcription of its arithmetic, and
fault injection for each guard whose place in the pipeline is not obvious:
the one finiteness check on a substep's product of group matrices, the
exponential of the velocity that step forms once per step size, the
checks of the one sample constructor, which every sample build_sample
assembles passes through: the velocity-gain checks, memoized on the gain's
value so that a run makes them once, and the output-gain checks, whose
symmetry test returns early on exact symmetry; and the correction solve's
residual guard when |rhs|^2 overflows or underflows. Last, the
two assumptions that let the kernel skip numpy's wrappers: ndarray.dot gives
the bits of @ on every operand form the kernel uses, and the LAPACK calls
behind np.linalg.solve and np.linalg.eigvalsh, made directly, give their
bits and their errors."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mef import (
    XI_ORIGIN,
    AttitudeScenario,
    FilterConfig,
    GeneratorBasis,
    NoiseModel,
    ObserverState,
    Quaternion,
    SignalSample,
    exp_group,
    group_from_quaternion,
    observe,
    quaternion_basis,
    run,
    step,
    upsilon,
)
import mef.filter
from mef.config import build_check_config, build_run_config, read_config_source
from mef.filter import (
    TIME_SNAP,
    SingularPError,
    _check_psd,
    _eigvalsh,
    _solve,
    _symmetric_scale,
    correction_delta,
)

from conftest import make_rng, random_filter_instance, sample_from_measurements


def transcribed_step(state, sample, cfg):
    """The substeps of step written out on raw arrays, each term computed
    where the rate equations use it (the output pull twice, Upsilon and
    wedge(delta) per use), in the floating-point order of the library. On
    an orthogonal basis X_hat is inverted by its transpose, on any other by
    inv.
    Returns the per-substep (delta, dt, X_hat, H, eta) and the end state."""
    basis, origin, N = state.basis, cfg.origin_xi, sample.noise_shape
    gens, orthogonal = basis.generators, basis.orthogonal
    flat = gens.reshape(len(gens), -1)
    X, H, eta, t = state.X_hat, state.H, state.eta, state.t
    t_stop, records = t, []
    while sample.valid_until - t > TIME_SNAP:
        if t_stop - t <= TIME_SNAP:
            t_stop = min(sample.valid_until, t + cfg.dt_max)
        Ups = (gens @ origin).T
        P = Ups.T @ H @ Ups + Ups.T @ (eta @ gens).T
        X_inv = X.T if orthogonal else np.linalg.inv(X)
        pull = X_inv.T @ (sample.C.T @ (sample.R @ (sample.C @ (X_inv @ origin) - sample.y)))
        rhs = Ups.T @ (pull - H @ (N @ eta))
        delta = np.linalg.solve(P, rhs)
        remaining = t_stop - t
        dt = min(cfg.dt_max, remaining)
        if math.sqrt(delta @ delta) > 0.0:
            dt = min(dt, cfg.delta_step_cap / math.sqrt(delta @ delta))
        Delta = (delta @ flat).reshape(X.shape)
        C_pulled = sample.C @ X_inv
        H_dot = -H @ Delta - Delta.T @ H - H @ N @ H + C_pulled.T @ (sample.R @ C_pulled)
        Delta = (delta @ flat).reshape(X.shape)
        pull = X_inv.T @ (sample.C.T @ (sample.R @ (sample.C @ (X_inv @ origin) - sample.y)))
        eta_dot = -H @ (Delta @ origin) - Delta.T @ eta - H @ (N @ eta) + pull
        records.append((delta, dt, X, H, eta))
        X = (exp_group(basis, dt * delta) @ X) @ exp_group(basis, dt * sample.U_coords)
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
    """trace is step's StepTrace of the interval, one row per substep."""
    records, (X, H, eta, t) = transcribed_step(state, sample, cfg)
    assert trace.sample is sample
    assert len(records) == len(trace.dt) >= 5
    rows = zip(trace.dt.tolist(), trace.delta, trace.X_hat, trace.H, trace.eta)
    for (delta, dt, X_k, H_k, eta_k), (dt_k, *theirs) in zip(records, rows):
        assert dt == dt_k
        for ours, their in zip((delta, X_k, H_k, eta_k), theirs):
            assert np.array_equal(ours, their)
    assert t == end.t
    for ours, theirs in ((X, end.X_hat), (H, end.H), (eta, end.eta)):
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
        (interval,) = trace
        assert_step_matches_transcription(state, sample, cfg, interval, end)

    def test_a_fixed_step_interval_is_bit_identical(self, check_interval):
        # Here step reuses exp(dt U) across substeps of equal dt; the
        # transcription forms it on every substep.
        cfg, epoch, end = check_interval
        assert_step_matches_transcription(epoch.state, epoch.sample, cfg, epoch.trace, end)

    @pytest.mark.parametrize("group", ["scaling", "sheared"])
    def test_a_non_orthogonal_interval_is_bit_identical(self, group):
        # Groups with no closed-form exponential and no orthogonal elements:
        # step inverts each X_hat with inv and exponentiates by the series.
        # The scaling group's elements are diagonal; the sheared copy of the
        # quaternion group, T E_i T^-1, has dense ones.
        rng = make_rng(613)
        A, C, K, S = (rng.standard_normal((4, 4)) for _ in range(4))
        if group == "scaling":
            basis = GeneratorBasis(np.stack([np.diag([1.0, 0.0, 0.0, 0.0]),
                                             np.diag([0.0, 1.0, -1.0, 0.0])]))
        else:
            T = np.eye(4) + 0.2 * S
            basis = GeneratorBasis(T @ quaternion_basis().generators @ np.linalg.inv(T))
        assert not basis.orthogonal and basis.closed_form_exp is None
        d = basis.dim_algebra
        state = ObserverState(X_hat=exp_group(basis, np.linspace(0.3, -0.2, d)), H=A.T @ A,
                              eta=0.3 * rng.standard_normal(4), t=0.0, basis=basis)
        sample = SignalSample(U_coords=np.linspace(0.5, -0.4, d), C=C,
                              y=0.3 * rng.standard_normal(4), B=rng.standard_normal((4, d)),
                              Q=np.eye(d) + 0.3 * np.eye(d, k=1) + 0.3 * np.eye(d, k=-1),
                              R=0.5 * (K @ K.T), valid_until=0.05)
        cfg = FilterConfig(origin_xi=[0.6, 0.8, 0.5, 0.1], dt_max=0.01)
        trace: list = []
        end, _, _ = step(state, sample, cfg, trace=trace)
        assert not np.allclose(end.X_hat.T @ end.X_hat, np.eye(4))
        (interval,) = trace
        assert_step_matches_transcription(state, sample, cfg, interval, end)


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
        (traced,) = trace
        dts = traced.dt.tolist()
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
        # The substeps before the bad one ran, and a step that raises
        # leaves no trace.
        assert len(calls) == at
        assert trace == []


class TestProductFiniteness:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_inside_the_product_is_caught(self, monkeypatch):
        """X_hat near the largest double on a scaling group: exp(dt delta)
        X_hat overflows in its first row, which the outer product turns into
        inf and NaN (inf * 0) across that row, so the one check raises."""
        basis = GeneratorBasis(np.diag([1.0, 0.0, 0.0, 0.0])[None])
        X_hat = exp_group(basis, [709.7])
        assert np.isfinite(X_hat).all()
        state = ObserverState(X_hat=X_hat, H=np.eye(4), eta=np.zeros(4), t=0.0, basis=basis)
        sample = SignalSample(U_coords=[0.0], C=np.zeros((4, 4)), y=np.zeros(4),
                              B=np.zeros((4, 1)), Q=[[1.0]], R=np.eye(4), valid_until=1.0)
        cfg = FilterConfig(origin_xi=[1.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(mef.filter, "correction_delta", lambda *args: np.ones(1))
        with pytest.raises(ValueError, match="group element matrix must be finite"):
            step(state, sample, cfg)


SCENARIO = AttitudeScenario(omega_fn=lambda t: np.zeros(3), ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
                            q0=Quaternion(1.0, np.zeros(3)), duration=1.0, sensor_dt=0.1)


def sample_for(noise: NoiseModel, q_hat: Quaternion = SCENARIO.q0) -> SignalSample:
    return sample_from_measurements(0.0, q_hat, group_from_quaternion(q_hat),
                                    np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.1, 0.99]),
                                    SCENARIO, noise)


class TestVelocityGainChecks:
    """A NoiseModel's velocity gain is always symmetric positive definite;
    these gains, inverses of covariances that are not, reach the sample's
    checks in its place."""

    def test_a_gain_that_is_not_positive_definite_raises(self):
        # The covariance's eigenvalues are >= -1e-12, but its inverse has an
        # eigenvalue of -4e13.
        Q = np.linalg.inv(0.25 * np.diag([1.0, 1.0, -1e-13]))
        with pytest.raises(ValueError, match="Q must be positive definite"):
            dataclasses.replace(sample_for(NoiseModel(gyro_var=1.0, vector_var=1.0)), Q=Q)

    def test_an_asymmetric_gain_raises(self):
        # The covariance is symmetric to 1e-12 absolute; its inverse, of
        # order 4e6, is not symmetric to 1e-12 relative.
        Q = np.linalg.inv(0.25 * (1e-6 * (np.eye(3) + 5e-7 * np.eye(3, k=1))))
        with pytest.raises(ValueError, match="Q must be symmetric"):
            dataclasses.replace(sample_for(NoiseModel(gyro_var=1.0, vector_var=1.0)), Q=Q)


def symmetric_scale_by_the_full_rule(A, tol):
    """_symmetric_scale without its early return for exact symmetry."""
    magnitude = np.abs(A)
    scale = max(1.0, float(magnitude.max(initial=0.0)))
    with np.errstate(invalid="ignore"):
        held = np.abs(A - A.T) <= tol * scale + 1e-5 * magnitude.T
    return scale if held.all() else None


SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])


@st.composite
def near_symmetric(draw):
    """A symmetric matrix, then one change: none, an asymmetry inside or
    outside the tolerance, mirror entries 0.0 and -0.0, or a special value
    on or off the diagonal, mirrored or not."""
    n = draw(st.sampled_from([3, 4]))
    A = draw(arrays(float, (n, n), elements=st.floats(-1e3, 1e3)))
    A = np.triu(A) + np.triu(A, 1).T
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    tol = draw(st.sampled_from([1e-10, 1e-12]))
    bound = tol * max(1.0, float(np.abs(A).max())) + 1e-5 * abs(A[j, i])
    change = draw(st.sampled_from(["none", "inside", "outside", "zeros", "special"]))
    if change == "inside":
        A[i, j] += 0.5 * bound
    elif change == "outside":
        A[i, j] += 4.0 * bound
    elif change == "zeros":
        A[i, j], A[j, i] = 0.0, -0.0
    elif change == "special":
        A[i, j] = draw(SPECIAL)
        if draw(st.booleans()):
            A[j, i] = A[i, j]
    return A, tol


class TestSymmetricScale:
    @given(near_symmetric())
    def test_the_early_return_keeps_the_full_rules_verdict(self, case):
        """The early return for a finite A whose mirror entries have equal
        bits gives the verdict and scale of the full rule, which it skips."""
        A, tol = case
        with np.errstate(invalid="ignore"):
            assert _symmetric_scale(A, tol) == symmetric_scale_by_the_full_rule(A, tol)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_an_infinite_diagonal_is_not_symmetric(self, entry):
        R = np.diag([entry, 1.0, 1.0, 1.0])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="R must be symmetric"):
            _check_psd(R, "R")


NEAR_SINGULAR = [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-12, 0.0], [0.0, 0.0, 1.0]]


class TestResidualGuardOnOverflow:
    """correction_delta with eta = 0, so that P = Ups^T H Ups = H[1:, 1:],
    and forcing s (0, g). Past s = 1e154, rhs . rhs overflows, and the
    relative residual |P delta - rhs| / |rhs| would read 0 for any solve.
    Below s = 1e-162 it underflows to 0, and a nonzero rhs must not be
    taken for a zero one, whose correction is 0."""

    @staticmethod
    def solve(block, s):
        H = np.zeros((4, 4))
        H[1:, 1:] = block
        g = np.random.default_rng(1).standard_normal(3)
        basis = quaternion_basis()
        with np.errstate(over="ignore"):
            assert math.isinf((s * g).dot(s * g)) == (s > 1e154)
            assert ((s * g).dot(s * g) == 0.0) == (s < 1e-162)
            return correction_delta(basis, H, np.zeros(4), upsilon(basis, XI_ORIGIN),
                                    s * np.concatenate(([0.0], g)))

    @pytest.mark.parametrize("s", [1.0, 1e155])
    def test_a_near_singular_solve_fails_at_any_scale(self, s):
        with pytest.raises(SingularPError, match=r"correction solve residual 2\.\d+e-05 exceeds"):
            self.solve(NEAR_SINGULAR, s)

    def test_a_near_singular_solve_fails_when_the_square_underflows(self):
        # s (0, g) rounds unlike (0, g), and P's condition number of about
        # 4e12 amplifies that: the residual is not the one at s = 1.
        with pytest.raises(SingularPError, match=r"correction solve residual \d\.\d+e-05 exceeds"):
            self.solve(NEAR_SINGULAR, 1e-170)

    def test_a_well_conditioned_solve_passes_at_any_scale(self):
        np.testing.assert_allclose(self.solve(np.eye(3), 1e155),
                                   1e155 * self.solve(np.eye(3), 1.0), rtol=1e-15)

    @pytest.mark.parametrize("s", [1e-150, 1e-170])
    def test_a_tiny_rhs_is_solved_whether_or_not_its_square_underflows(self, s):
        H, basis = np.zeros((4, 4)), quaternion_basis()
        H[1:, 1:] = np.eye(3)
        delta = correction_delta(basis, H, np.zeros(4), upsilon(basis, XI_ORIGIN),
                                 s * np.array([0.0, 1.0, -2.0, 0.5]))
        np.testing.assert_allclose(delta, -s * np.array([1.0, -2.0, 0.5]), rtol=1e-15, atol=0)


variance = st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 1.0, 30.0])


class TestOneSampleConstructor:
    @given(arrays(float, 4, elements=st.floats(-1.0, 1.0)), st.floats(-5e-10, 5e-10),
           variance, st.floats(0.01, 10.0))
    def test_every_built_sample_holds_the_inverse_of_its_gain(self, q, stretch, v_var, g_var):
        """Every check passes on the samples build_sample makes from valid
        variances, and the memoized Q_inv is np.linalg.inv(Q) bit for bit."""
        norm = float(np.linalg.norm(q))
        q = q / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0, 0.0])
        q_hat = Quaternion.from_vector(q * (1.0 + stretch))
        noise = NoiseModel(gyro_var=g_var, vector_var=v_var)
        sample = sample_for(noise, q_hat)
        Q_inv = np.linalg.inv(sample.Q)
        assert sample.Q_inv.tobytes() == Q_inv.tobytes()
        assert sample.noise_shape.tobytes() == sample.B.dot(Q_inv).dot(sample.B.T).tobytes()

    def test_a_run_checks_its_gain_once(self, monkeypatch):
        """The 21 samples of a short noisy run share one Q: one Cholesky
        check (and one inverse) for the whole run."""
        cholesky = np.linalg.cholesky
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda A: calls.append(A) or cholesky(A))
        mef.filter._velocity_gain_inverse.cache_clear()
        raw, _ = read_config_source("noisy")
        records, _ = run(build_run_config(raw | {"scenario.duration": "2.0"}))
        assert len(records) == 21
        assert len(calls) == 1


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


well_conditioned = arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)).map(
    lambda A: A + 4.0 * np.eye(3))
symmetric = arrays(float, (4, 4), elements=st.floats(-1e3, 1e3)).map(lambda A: A + A.T)


def outcome(func, *args):
    """The result's bytes, or the type and message of what func raised;
    a warning raises too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return func(*args).tobytes()
        except Exception as exc:
            return type(exc), str(exc)


class TestDirectLapack:
    @given(well_conditioned, arrays(float, 3, elements=st.floats(-1e3, 1e3)))
    def test_solve_gives_the_bits_of_np_linalg_solve(self, P, rhs):
        assert _solve(P, rhs).tobytes() == np.linalg.solve(P, rhs).tobytes()

    @given(symmetric, arrays(float, (4, 4), elements=st.floats(-1e-9, 1e-9)))
    def test_eigvalsh_gives_the_bits_of_np_linalg_eigvalsh(self, A, skew):
        # An upper triangle off by less than R's symmetry tolerance: only the
        # lower one is read, as np.linalg.eigvalsh reads it.
        A = A + np.triu(skew, 1)
        assert _eigvalsh(A).tobytes() == np.linalg.eigvalsh(A).tobytes()

    @pytest.mark.parametrize("P", [np.zeros((3, 3)), np.diag([np.inf, 1.0, 1.0]),
                                   np.full((3, 3), np.inf), np.diag([np.nan, 1.0, 1.0])],
                             ids=["zero", "inf_entry", "all_inf", "nan_entry"])
    def test_solve_fails_as_np_linalg_solve_fails(self, P):
        rhs = np.array([1.0, -2.0, 0.5])
        assert outcome(_solve, P, rhs) == outcome(np.linalg.solve, P, rhs)

    @pytest.mark.parametrize("A", [np.zeros((4, 4)), np.diag([np.inf, 1.0, 1.0, 1.0]),
                                   np.diag([np.nan, 1.0, 1.0, 1.0]), np.full((4, 4), np.nan)],
                             ids=["zero", "inf_entry", "nan_entry", "all_nan"])
    def test_eigvalsh_fails_as_np_linalg_eigvalsh_fails(self, A):
        assert outcome(_eigvalsh, A) == outcome(np.linalg.eigvalsh, A)

    @pytest.mark.parametrize("H, message", [
        (np.zeros((4, 4)), "correction solve residual inf exceeds 1.000e-08 (P is singular)"),
        (np.full((4, 4), np.nan), "correction solve residual nan exceeds 1.000e-08"),
    ], ids=["zero_P", "nan_P"])
    def test_a_failed_correction_solve_keeps_its_message(self, H, message):
        """correction_delta with eta = 0, so P = Ups^T H Ups: a zero P is
        singular, a NaN P leaves a NaN residual, and neither warns. An
        infinite P is covered at the solve only: the products that form P
        warn on an infinite operand first."""
        forcing = np.array([0.0, 1.0, -2.0, 0.5])
        assert outcome(correction_delta, quaternion_basis(), H, np.zeros(4),
                       upsilon(quaternion_basis(), XI_ORIGIN), forcing) == (SingularPError, message)
