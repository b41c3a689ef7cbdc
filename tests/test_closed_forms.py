"""Each closed form on the observer's hot path against the generic code it
replaces: the transpose against np.linalg.inv, the one-matmul adjoint
against per-column vee, the closed-form output gain against a pseudo-inverse,
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
    GroupElement,
    NoiseModel,
    NotInAlgebraError,
    ObserverState,
    Quaternion,
    SignalSample,
    SingularPError,
    adjoint_coords,
    build_sample,
    exp_group,
    group_from_quaternion,
    quaternion_wedge,
    upsilon,
    upsilon_bar,
    vee,
)
from mef.cli import EXIT_SINGULAR, main
from mef.filter import _symmetric
from mef.liegroup import _exp_series, _quaternion_exp
from mef.quaternion import R_PINV_CUTOFF, AttitudeScenario, _mul

from conftest import correction_at

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
        X = GroupElement.identity(4)
        for u in coords:
            X = exp_group(BASIS, u) @ X
        assert X.orthogonal
        np.testing.assert_allclose(X.inverse, np.linalg.inv(X.matrix), rtol=0, atol=1e-12)

    def test_orthogonality_follows_from_the_generators(self):
        assert BASIS.orthogonal
        assert not scaling_basis().orthogonal

    @given(st.floats(-3.0, 3.0))
    def test_non_orthogonal_group_inverts_with_inv(self, s):
        X = exp_group(scaling_basis(), [s])
        assert not X.orthogonal
        assert not (X @ GroupElement.identity(2)).orthogonal
        np.testing.assert_array_equal(X.inverse, np.linalg.inv(X.matrix))

    @given(vec3)
    def test_a_bare_matrix_inverts_with_inv(self, u):
        X = GroupElement(exp_group(BASIS, u).matrix)
        assert not X.orthogonal
        np.testing.assert_array_equal(X.inverse, np.linalg.inv(X.matrix))


class TestAdjointCoords:
    @given(vec3)
    def test_matches_per_column_vee(self, u):
        X = exp_group(BASIS, u)
        Xinv = np.linalg.inv(X.matrix)
        expected = np.column_stack([vee(BASIS, X.matrix @ E @ Xinv) for E in BASIS.generators])
        np.testing.assert_allclose(adjoint_coords(BASIS, X), expected, rtol=0, atol=1e-12)

    @given(mat4)
    def test_raises_exactly_when_a_column_leaves_the_algebra(self, M):
        assume(np.linalg.svd(M, compute_uv=False)[-1] > 1e-2)
        X = GroupElement(M)
        Xinv = np.linalg.inv(M)
        try:
            expected = np.column_stack([vee(BASIS, M @ E @ Xinv) for E in BASIS.generators])
        except NotInAlgebraError:
            with pytest.raises(NotInAlgebraError):
                adjoint_coords(BASIS, X)
        else:
            np.testing.assert_allclose(adjoint_coords(BASIS, X), expected, atol=1e-10)

    def test_non_group_matrix_raises(self):
        with pytest.raises(NotInAlgebraError):
            adjoint_coords(BASIS, GroupElement(np.diag([1.0, 2.0, 1.0, 1.0])))


class TestOutputGain:
    @given(vec4, arrays(float, (3, 3), elements=coord),
           st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]), min_size=3, max_size=3))
    def test_closed_form_matches_pinv(self, q_vec, A, eigenvalues):
        """R = J pinv(V) J^T / |q|^4 against pinv(J V J^T), singular V included."""
        q_hat = unit_quaternion(q_vec)
        assume(np.linalg.svd(A, compute_uv=False)[-1] > 1e-2)
        basis_vectors, _ = np.linalg.qr(A)
        V = basis_vectors @ np.diag(eigenvalues) @ basis_vectors.T
        V = 0.5 * (V + V.T)
        noise = NoiseModel(gyro_cov=np.eye(3), vector_cov=V)
        scenario = AttitudeScenario(omega_fn=None, ref_fn=lambda t: np.array([0.0, 0.0, 1.0]),
                                    q0=Quaternion(1.0, np.zeros(3)), duration=1.0, sensor_dt=0.1)
        sample = build_sample(0.0, q_hat, group_from_quaternion(q_hat), np.zeros(3),
                              [0.0, 0.0, 1.0], scenario, noise)
        J = upsilon_bar(BASIS, q_hat.as_vector())
        expected = np.linalg.pinv(J @ V @ J.T, rcond=R_PINV_CUTOFF)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(sample.R, expected, rtol=0, atol=1e-10 * scale)

    def test_gains_are_computed_once_and_read_only(self):
        noise = NoiseModel(gyro_cov=0.01 ** 2 * np.eye(3), vector_cov=np.eye(3))
        assert noise.velocity_gain is noise.velocity_gain
        for mat in (noise.gyro_cov, noise.velocity_gain, noise.vector_cov_pinv):
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1.0
        with pytest.raises(AttributeError):
            noise.gyro_cov = np.eye(3)


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
        forcing = (np.linalg.inv(state.X_hat.matrix).T @ sample.C.T
                   @ (sample.C @ np.linalg.inv(state.X_hat.matrix) @ XI_ORIGIN - sample.y)
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
        assert _symmetric(S, tol) == np.allclose(S, S.T, atol=atol)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_entries_fail(self):
        for bad in (np.nan, np.inf):
            S = np.eye(3)
            S[1, 1] = bad
            assert not _symmetric(S, 1e-12)
