"""Each closed form on the observer's hot path against the generic code it
replaces: the transpose against np.linalg.inv, the one-matmul adjoint
against per-column vee, the isotropic gains and noise scale against
pseudo-inverses, inverses and square roots of general covariances,
the scalar Hamilton product against the np.cross form, the cosine/sine
exponential against the scaled series, the LU correction solve against
least squares, and the symmetry test against np.allclose."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mef import (
    BASIS,
    XI_ORIGIN,
    FilterConfig,
    GeneratorBasis,
    NoiseModel,
    NotInAlgebraError,
    ObserverState,
    Quaternion,
    SignalSample,
    SingularPError,
    Truth,
    adjoint_coords,
    build_sample,
    corrupt,
    exp_group,
    quaternion_wedge,
    upsilon,
    upsilon_bar,
    vee,
)
from mef.cli import EXIT_SINGULAR, main
from mef.filter import _matvec, _symmetric_scale
from mef.liegroup import _exp_series, _quaternion_exp
from mef.quaternion import _mul
from mef.simulation import _stream

from conftest import correction_at, psd_sqrt

coord = st.floats(-6.0, 6.0, allow_nan=False)
vec3 = arrays(float, 3, elements=coord)
vec4 = arrays(float, 4, elements=coord)
mat4 = arrays(float, (4, 4), elements=coord)


def unit_quaternion(v: np.ndarray) -> Quaternion:
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-3)
    return Quaternion.from_vector(v / norm)


def scaling_basis() -> GeneratorBasis:
    gens = np.zeros((1, 2, 2))
    gens[0, 0, 0] = 1.0  # the scaling group: not orthogonal
    return GeneratorBasis(gens)


class TestOrthogonalInverse:
    @given(st.lists(vec3, min_size=1, max_size=8))
    def test_transpose_matches_inv(self, coords):
        X = np.eye(4)
        for u in coords:
            X = exp_group(BASIS, u) @ X
        assert BASIS.orthogonal
        np.testing.assert_allclose(BASIS.inverse(X), np.linalg.inv(X), rtol=0, atol=1e-12)

    def test_orthogonality_follows_from_the_generators(self):
        assert BASIS.orthogonal
        assert not scaling_basis().orthogonal

    @given(st.floats(-3.0, 3.0))
    def test_non_orthogonal_group_inverts_with_inv(self, s):
        basis = scaling_basis()
        X = exp_group(basis, [s])
        assert not basis.orthogonal
        np.testing.assert_array_equal(basis.inverse(X), np.linalg.inv(X))
        np.testing.assert_array_equal(basis.inverse(X @ np.eye(2)), np.linalg.inv(X))


class TestAdjointCoords:
    @given(vec3)
    def test_matches_per_column_vee(self, u):
        X = exp_group(BASIS, u)
        Xinv = np.linalg.inv(X)
        expected = np.column_stack([vee(BASIS, X @ E @ Xinv) for E in BASIS.generators])
        np.testing.assert_allclose(adjoint_coords(BASIS, X), expected, rtol=0, atol=1e-12)

    @given(mat4)
    def test_raises_exactly_when_a_column_leaves_the_algebra(self, M):
        assume(np.linalg.svd(M, compute_uv=False)[-1] > 1e-2)
        X = M
        Xinv = BASIS.inverse(M)
        try:
            expected = np.column_stack([vee(BASIS, M @ E @ Xinv) for E in BASIS.generators])
        except NotInAlgebraError:
            with pytest.raises(NotInAlgebraError):
                adjoint_coords(BASIS, X)
        else:
            np.testing.assert_allclose(adjoint_coords(BASIS, X), expected, atol=1e-10)

    def test_non_group_matrix_raises(self):
        with pytest.raises(NotInAlgebraError):
            adjoint_coords(BASIS, np.diag([1.0, 2.0, 1.0, 1.0]))


sigma = st.floats(1e-3, 1e3)


class TestOutputGain:
    """The isotropic gains and noise scale against the general-covariance
    constructions they stand for, with V = sigma^2 I: inv(0.25 V) for the
    velocity gain, pinv(V) with relative cutoff 1e-12 for the output
    weight and in R = J pinv(V) J^T / |q|^4, and V's square root through
    its eigendecomposition for the injected noise."""

    @given(vec4, st.floats(0.5, 2.0), sigma)
    def test_closed_form_matches_pinv(self, q_vec, stretch, s):
        """R = J J^T / (sigma^2 |q|^4) holds the values of J pinv(V) J^T /
        |q|^4, is null along q, and is pinv(J V J^T) to round-off, at a
        non-unit |q| too."""
        q_hat = stretch * unit_quaternion(q_vec).as_vector()
        V = s ** 2 * np.eye(3)
        noise = NoiseModel(gyro_var=1.0, vector_var=s ** 2)
        R = build_sample(q_hat, np.eye(4), np.zeros(3), np.zeros((4, 4)), 1.0,
                         noise).R
        J = upsilon_bar(BASIS, q_hat)
        norm2 = float(q_hat[0]) ** 2 + float(q_hat[1:].dot(q_hat[1:]))
        pinv_V = np.linalg.pinv(V, rcond=1e-12, hermitian=True)
        assert np.array_equal(R, J.dot(pinv_V).dot(J.T) / (norm2 * norm2))
        scale = float(np.abs(R).max())
        np.testing.assert_allclose(R @ q_hat, np.zeros(4), rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(R, np.linalg.pinv(J @ V @ J.T, rcond=1e-12), rtol=0,
                                   atol=1e-12 * scale)

    @given(sigma, st.integers(0, 2 ** 32 - 1))
    def test_gains_and_noise_hold_the_values_of_the_matrix_forms(self, s, seed):
        V = s ** 2 * np.eye(3)
        noise = NoiseModel(gyro_var=s ** 2, vector_var=s ** 2, seed=seed)
        assert np.array_equal(noise.velocity_gain, np.linalg.inv(0.25 * V))
        assert np.array_equal(noise.output_weight * np.eye(3),
                              np.linalg.pinv(V, rcond=1e-12, hermitian=True))
        still = Truth(np.zeros(4), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)), *np.zeros((3, 4, 3)))
        omega, z = corrupt(still, noise)
        for stream_id, measured in enumerate((omega, z)):
            block = _stream(seed, stream_id).standard_normal((4, 3))
            assert np.array_equal(measured, _matvec(psd_sqrt(V), block))

    def test_gains_are_computed_once_and_read_only(self):
        noise = NoiseModel(gyro_var=0.01 ** 2, vector_var=1.0)
        assert noise.velocity_gain is noise.velocity_gain
        with pytest.raises(ValueError, match="read-only"):
            noise.velocity_gain[0, 0] = 1.0
        with pytest.raises(AttributeError):
            noise.gyro_var = 1.0


class TestHamiltonProduct:
    @given(vec4, vec4)
    def test_matches_cross_product_form(self, a, b):
        r, v = _mul(a[0], a[1:], b[0], b[1:])
        r_ref = a[0] * b[0] - a[1:] @ b[1:]
        v_ref = a[0] * b[1:] + b[0] * a[1:] + np.cross(a[1:], b[1:])
        tol = 1e-14 * (1.0 + float(np.abs(a).max() * np.abs(b).max()))
        assert abs(r - r_ref) <= tol
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=tol)


class TestQuaternionExp:
    @given(arrays(float, 3, elements=st.floats(-20.0, 20.0)))
    def test_matches_scaled_series(self, u):
        np.testing.assert_allclose(
            _quaternion_exp(u), _exp_series(quaternion_wedge(u)), rtol=0, atol=1e-12
        )

    def test_zero_is_exact_identity_and_large_input_stays_finite(self):
        np.testing.assert_array_equal(_quaternion_exp(np.zeros(3)), np.eye(4))
        big = _quaternion_exp(np.array([1e200, -3e199, 0.0]))
        np.testing.assert_allclose(big.T @ big, np.eye(4), atol=1e-12)


def _forced_state(H, eta):
    X = exp_group(BASIS, [0.4, -0.1, 0.9])
    state = ObserverState(X_hat=X, H=H, eta=eta, t=0.0, basis=BASIS)
    rng = np.random.default_rng(7)
    sample = SignalSample(U_coords=np.zeros(3), C=rng.standard_normal((4, 4)),
                          y=rng.standard_normal(4), B=upsilon(BASIS, XI_ORIGIN),
                          Q=np.eye(3), R=np.eye(4), valid_until=1.0)
    return state, sample


class TestCorrectionSolve:
    @given(arrays(float, (4, 4), elements=coord), arrays(float, 4, elements=st.floats(-0.3, 0.3)))
    def test_matches_least_squares_on_a_regular_P(self, A, eta):
        H = A.T @ A
        state, sample = _forced_state(H, eta)
        cfg = FilterConfig(origin_xi=XI_ORIGIN)
        Ups = upsilon(BASIS, XI_ORIGIN)
        P = Ups.T @ H @ Ups + Ups.T @ upsilon_bar(BASIS, eta)
        # A regular P: well conditioned and of normal floating-point scale.
        assume(np.abs(P).max() > 1e-3 and np.linalg.cond(P) < 1e6)
        delta = correction_at(state, sample, cfg)
        forcing = (np.linalg.inv(state.X_hat).T @ sample.C.T
                   @ (sample.C @ np.linalg.inv(state.X_hat) @ XI_ORIGIN - sample.y)
                   - H @ (sample.noise_shape @ eta))
        expected, *_ = np.linalg.lstsq(P, Ups.T @ forcing, rcond=None)
        np.testing.assert_allclose(delta, expected, rtol=1e-8,
                                   atol=1e-8 * float(np.abs(expected).max()))

    def test_singular_P_raises(self):
        # H = Ups e1 e1^T Ups^T makes P = e1 e1^T, rank 1: LU meets a zero pivot.
        e1 = upsilon(BASIS, XI_ORIGIN)[:, 0]
        state, sample = _forced_state(np.outer(e1, e1), np.zeros(4))
        with pytest.raises(SingularPError, match="P is singular"):
            correction_at(state, sample, FilterConfig(origin_xi=XI_ORIGIN))

    def test_an_overflowing_solve_raises_instead_of_returning_inf(self):
        # H = 0 and a subnormal eta leave P of order 1e-324: LU succeeds, but
        # delta overflows and the residual is NaN, which the guard rejects.
        state, sample = _forced_state(np.zeros((4, 4)), np.full(4, 5e-324))
        with pytest.raises(SingularPError, match="residual nan"):
            correction_at(state, sample, FilterConfig(origin_xi=XI_ORIGIN))

    def test_zero_hessian_scale_exits_3(self, tmp_path, capsys):
        code = main(["simulate", "--config", "noisy", "--out", str(tmp_path),
                     "--set", "observer.hessian_scale=0"])
        assert code == EXIT_SINGULAR
        assert "epoch 0 (t=0 s)" in capsys.readouterr().err


class TestSymmetryCheck:
    @given(arrays(float, (4, 4), elements=coord),
           st.floats(0.0, 1e-4), st.sampled_from([1e-12, 1e-10]))
    def test_matches_allclose(self, A, skew_scale, tol):
        S = A + A.T
        S[0, 1] += skew_scale * S[0, 1] + skew_scale * 1e-6
        atol = tol * max(1.0, float(np.abs(S).max()))
        assert (_symmetric_scale(S, tol) is not None) == np.allclose(S, S.T, atol=atol)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_entries_fail(self):
        for bad in (np.nan, np.inf):
            S = np.eye(3)
            S[1, 1] = bad
            assert _symmetric_scale(S, 1e-12) is None
