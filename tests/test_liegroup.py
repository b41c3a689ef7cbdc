"""Generator basis, wedge/vee, exponential, adjoint, action matrices."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_rng, random_group_element, random_unit_vector
from mef import (
    BASIS,
    GeneratorBasis,
    NotInAlgebraError,
    adjoint_coords,
    exp_group,
    init,
    quaternion_basis,
    quaternion_wedge,
    upsilon,
    upsilon_bar,
    vee,
    wedge,
)
from mef.liegroup import VEE_TOLERANCE, _exp_series


def skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]], dtype=float)


class TestBasisConstruction:
    def test_quaternion_basis_dimensions(self):
        assert BASIS.dim_embedding == 4
        assert BASIS.dim_algebra == 3

    def test_generators_match_wedge_of_unit_vectors(self):
        eye = np.eye(3)
        for i in range(3):
            np.testing.assert_array_equal(BASIS.generators[i], quaternion_wedge(eye[i]))

    def test_linearly_dependent_generators_rejected(self):
        gens = np.stack([quaternion_wedge([1, 0, 0]), quaternion_wedge([2, 0, 0])])
        with pytest.raises(ValueError, match="linearly dependent"):
            GeneratorBasis(gens)

    def test_non_closed_span_rejected(self):
        # Two rotation generators alone do not close: [E1, E2] needs E3.
        gens = BASIS.generators[:2]
        with pytest.raises(ValueError, match="not closed"):
            GeneratorBasis(gens)

    def test_trivial_algebra_accepted(self):
        basis = GeneratorBasis(np.zeros((0, 2, 2)))
        assert basis.dim_algebra == 0
        np.testing.assert_array_equal(wedge(basis, np.zeros(0)), np.zeros((2, 2)))

    def test_trivial_algebra_gives_empty_shapes(self):
        basis = GeneratorBasis(np.zeros((0, 2, 2)))
        assert vee(basis, np.zeros((2, 2))).shape == (0,)
        assert vee(basis, np.zeros((5, 2, 2))).shape == (5, 0)
        assert adjoint_coords(basis, np.diag([2.0, 1.0])).shape == (0, 0)
        assert upsilon(basis, [1.0, 2.0]).shape == (2, 0)
        assert upsilon_bar(basis, [1.0, 2.0]).shape == (2, 0)
        # The span of no generators holds only the zero matrix.
        with pytest.raises(NotInAlgebraError):
            vee(basis, np.eye(2))

    def test_commutator_closure_of_quaternion_basis(self):
        for i in range(3):
            for j in range(3):
                Ei, Ej = BASIS.generators[i], BASIS.generators[j]
                comm = Ei @ Ej - Ej @ Ei
                coords = vee(BASIS, comm)
                np.testing.assert_allclose(wedge(BASIS, coords), comm, atol=1e-12)


class TestWedgeVee:
    def test_wedge_of_e1_matches_block_form(self):
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(wedge(BASIS, [1.0, 0.0, 0.0]), expected)

    def test_wedge_block_structure(self):
        # [[0, d^T], [-d, skew(d)]] for a generic coordinate vector.
        d = np.array([0.3, -1.2, 0.7])
        W = wedge(BASIS, d)
        np.testing.assert_allclose(W[0, 1:], d)
        np.testing.assert_allclose(W[1:, 0], -d)
        np.testing.assert_allclose(W[1:, 1:], skew(d))

    def test_wedge_zero(self):
        np.testing.assert_array_equal(wedge(BASIS, np.zeros(3)), np.zeros((4, 4)))

    def test_wedge_linearity(self):
        np.testing.assert_allclose(
            wedge(BASIS, [0.0, 0.0, 2.0]), 2.0 * wedge(BASIS, [0.0, 0.0, 1.0])
        )

    def test_wedge_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(BASIS, [1.0, 2.0])

    def test_wedge_of_a_stack_is_the_stack_of_wedges(self):
        # On this basis each entry of wedge(u) is one signed coordinate or a
        # sum of zero products, so the one product over the stack is exact
        # and gives the row-by-row bits, signed zeros included.
        rows = make_rng(102).normal(size=(60, 3)) * np.logspace(-8, 8, 60)[:, None]
        rows[:2] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]
        stacked = wedge(BASIS, rows)
        assert stacked.shape == (60, 4, 4)
        assert stacked.tobytes() == np.stack([wedge(BASIS, u) for u in rows]).tobytes()
        with pytest.raises(ValueError):
            wedge(BASIS, np.zeros((2, 2)))

    def test_wedge_squared_is_minus_norm_identity(self):
        rng = make_rng(101)
        for _ in range(50):
            d = rng.standard_normal(3)
            W = wedge(BASIS, d)
            np.testing.assert_allclose(W @ W, -(d @ d) * np.eye(4), atol=1e-12)

    def test_commutator_identity(self):
        # [wedge(a), wedge(b)] = wedge(2 a x b) for this basis.
        rng = make_rng(102)
        for _ in range(50):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            Wa, Wb = wedge(BASIS, a), wedge(BASIS, b)
            np.testing.assert_allclose(
                Wa @ Wb - Wb @ Wa, wedge(BASIS, 2.0 * np.cross(a, b)), atol=1e-12
            )

    def test_vee_roundtrip_exact(self):
        rng = make_rng(103)
        for _ in range(100):
            u = rng.standard_normal(3)
            np.testing.assert_allclose(vee(BASIS, wedge(BASIS, u)), u, atol=1e-12)

    def test_vee_zero_matrix(self):
        np.testing.assert_array_equal(vee(BASIS, np.zeros((4, 4))), np.zeros(3))

    def test_vee_rejects_nonzero_diagonal(self):
        A = wedge(BASIS, [1.0, 2.0, 3.0])
        A[1, 1] = 0.5
        with pytest.raises(NotInAlgebraError):
            vee(BASIS, A)

    def test_vee_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vee(BASIS, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            vee(BASIS, np.zeros((2, 2, 4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vee_rejects_non_finite_entries(self, bad):
        # The rejection is silent: an infinite entry must not warn on its
        # way to NaN (inf * 0) inside the projection.
        A = wedge(BASIS, [1.0, 2.0, 3.0])
        A[0, 1] = A[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInAlgebraError):
                vee(BASIS, A)
            with pytest.raises(NotInAlgebraError):
                vee(BASIS, np.stack([np.zeros((4, 4)), A]))

    def test_vee_tolerance_is_per_matrix_and_relative_to_its_norm(self):
        """Each matrix passes when its residual is within VEE_TOLERANCE of
        max(1, ||A||): the projection's quick pass on the summed residual
        of a stack must neither refuse a stack whose matrices each pass
        nor accept one whose matrix does not."""
        # I / 2 has unit norm and is orthogonal to the skew generators.
        off = 0.5 * np.eye(4)
        W = wedge(BASIS, [0.3, -0.2, 0.6])
        near = np.stack([W + 0.8 * VEE_TOLERANCE * off] * 2)
        np.testing.assert_array_equal(vee(BASIS, near), np.stack([vee(BASIS, A) for A in near]))
        large = 1e6 * W / np.linalg.norm(W)
        vee(BASIS, large + 0.5e6 * VEE_TOLERANCE * off)
        with pytest.raises(NotInAlgebraError, match=r"residual 2\.000e-02"):
            vee(BASIS, np.stack([large, large + 2e6 * VEE_TOLERANCE * off]))
        with pytest.raises(NotInAlgebraError):
            vee(BASIS, W + 1.5 * VEE_TOLERANCE * off)

    def test_vee_of_a_stack_is_the_stack_of_vees(self):
        rng = make_rng(119)
        stack = wedge(BASIS, rng.standard_normal((20, 3)) * np.logspace(-6, 6, 20)[:, None])
        stacked = vee(BASIS, stack)
        assert stacked.shape == (20, 3)
        np.testing.assert_array_equal(stacked, np.stack([vee(BASIS, A) for A in stack]))
        assert vee(BASIS, np.zeros((0, 4, 4))).shape == (0, 3)
        A = stack[5].copy()
        A[2, 2] = 1.0
        with pytest.raises(NotInAlgebraError):
            vee(BASIS, np.concatenate([stack, A[None]]))


class TestActionMatrices:
    def test_upsilon_at_origin(self):
        # Column i is E_i applied to (1,0,0,0): the first column of each
        # generator, which is (0, -e_i) for this wedge convention.
        expected = np.vstack([np.zeros(3), -np.eye(3)])
        np.testing.assert_allclose(upsilon(BASIS, [1.0, 0.0, 0.0, 0.0]), expected)

    def test_upsilon_zero_point(self):
        np.testing.assert_array_equal(upsilon(BASIS, np.zeros(4)), np.zeros((4, 3)))

    def test_upsilon_defining_identity(self):
        rng = make_rng(104)
        for _ in range(100):
            xi, u = rng.standard_normal(4), rng.standard_normal(3)
            np.testing.assert_allclose(
                upsilon(BASIS, xi) @ u, wedge(BASIS, u) @ xi, atol=1e-12
            )

    def test_upsilon_bar_defining_identity(self):
        rng = make_rng(105)
        for _ in range(100):
            xi, u = rng.standard_normal(4), rng.standard_normal(3)
            np.testing.assert_allclose(
                upsilon_bar(BASIS, xi) @ u, wedge(BASIS, u).T @ xi, atol=1e-12
            )

    def test_upsilon_bar_zero_point(self):
        np.testing.assert_array_equal(upsilon_bar(BASIS, np.zeros(4)), np.zeros((4, 3)))

    def test_upsilon_bar_is_minus_upsilon_here(self):
        # Skew generators make the transposed action the negated action.
        rng = make_rng(106)
        for _ in range(20):
            xi = rng.standard_normal(4)
            np.testing.assert_allclose(
                upsilon_bar(BASIS, xi), -upsilon(BASIS, xi), atol=1e-14
            )

    @pytest.mark.parametrize("action", [upsilon, upsilon_bar], ids=lambda f: f.__name__)
    def test_columns_orthonormal_at_unit_points(self, action):
        # For upsilon_bar this is the attitude output's noise Jacobian.
        rng = make_rng(107)
        for _ in range(50):
            q = random_unit_vector(rng, 4)
            J = action(BASIS, q)
            np.testing.assert_allclose(J.T @ J, np.eye(3), atol=1e-12)


class TestExponential:
    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(exp_group(BASIS, np.zeros(3)), np.eye(4), atol=1e-15)

    def test_closed_form_cos_sin(self):
        rng = make_rng(108)
        for _ in range(50):
            axis = random_unit_vector(rng)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            X = exp_group(BASIS, theta * axis)
            expected = np.cos(theta) * np.eye(4) + np.sin(theta) * wedge(BASIS, axis)
            np.testing.assert_allclose(X, expected, atol=1e-13)

    def test_exp_inverse_property(self):
        rng = make_rng(109)
        for _ in range(50):
            u = rng.standard_normal(3)
            X, Y = exp_group(BASIS, u), exp_group(BASIS, -u)
            np.testing.assert_allclose(X @ Y, np.eye(4), atol=1e-12)

    def test_closed_form_matches_generic_series(self):
        rng = make_rng(110)
        for _ in range(50):
            u = 3.0 * rng.standard_normal(3)
            np.testing.assert_allclose(
                exp_group(BASIS, u), _exp_series(wedge(BASIS, u)), atol=1e-13
            )

    def test_generic_series_used_without_closed_form(self):
        plain = GeneratorBasis(BASIS.generators)
        rng = make_rng(111)
        for _ in range(20):
            u = rng.standard_normal(3)
            np.testing.assert_allclose(
                exp_group(plain, u), exp_group(BASIS, u), atol=1e-13
            )

    def test_local_homomorphism(self):
        rng = make_rng(112)
        for _ in range(30):
            u = rng.standard_normal(3)
            s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
            lhs = exp_group(BASIS, (s + t) * u)
            rhs = exp_group(BASIS, s * u) @ exp_group(BASIS, t * u)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_group_action_is_isometry_on_r4(self):
        rng = make_rng(113)
        for _ in range(50):
            u = rng.standard_normal(3)
            xi = rng.standard_normal(4)
            np.testing.assert_allclose(
                np.linalg.norm(exp_group(BASIS, u) @ xi),
                np.linalg.norm(xi),
                atol=1e-12,
            )


class TestAdjoint:
    def test_identity_element(self):
        np.testing.assert_allclose(
            adjoint_coords(BASIS, np.eye(4)), np.eye(3), atol=1e-14
        )

    def test_homomorphism(self):
        rng = make_rng(114)
        for _ in range(30):
            X, Y = random_group_element(rng), random_group_element(rng)
            np.testing.assert_allclose(
                adjoint_coords(BASIS, X @ Y),
                adjoint_coords(BASIS, X) @ adjoint_coords(BASIS, Y),
                atol=1e-10,
            )

    def test_defining_conjugation_identity(self):
        X = exp_group(BASIS, [0.0, 0.0, np.pi / 2.0])
        Ad = adjoint_coords(BASIS, X)
        rng = make_rng(115)
        for _ in range(30):
            u = rng.standard_normal(3)
            np.testing.assert_allclose(
                wedge(BASIS, Ad @ u), X @ wedge(BASIS, u) @ BASIS.inverse(X), atol=1e-12
            )

    def test_adjoint_is_rotation_by_double_angle(self):
        # Conjugating by exp(theta * axis) rotates coordinates by 2 theta.
        rng = make_rng(116)
        for _ in range(30):
            axis = random_unit_vector(rng)
            theta = rng.uniform(0.0, np.pi)
            Ad = adjoint_coords(BASIS, exp_group(BASIS, theta * axis))
            expected = _exp_series(2.0 * theta * skew(axis))
            np.testing.assert_allclose(Ad, expected, atol=1e-10)


class TestGroupElement:
    def test_identity(self):
        np.testing.assert_array_equal(init(BASIS, np.eye(4), np.eye(4)).X_hat, np.eye(4))

    def test_inverse_cached_and_correct(self):
        rng = make_rng(117)
        X = random_group_element(rng)
        np.testing.assert_allclose(X @ BASIS.inverse(X), np.eye(4), atol=1e-13)

    def test_apply_and_apply_inverse(self):
        rng = make_rng(118)
        X = random_group_element(rng)
        xi = rng.standard_normal(4)
        np.testing.assert_allclose(BASIS.inverse(X) @ (X @ xi), xi, atol=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            init(BASIS, np.zeros((3, 4)), np.eye(4))

    def test_nonfinite_rejected(self):
        mat = np.eye(4)
        mat[0, 0] = np.nan
        with pytest.raises(ValueError):
            init(BASIS, mat, np.eye(4))

    def test_quaternion_basis_factory_is_fresh(self):
        b1, b2 = quaternion_basis(), quaternion_basis()
        assert b1 is not b2
        np.testing.assert_array_equal(b1.generators, b2.generators)


# ---------------------------------------------------------------------------
# Properties on random bases. Skew generators (the quaternion basis, with or
# without its closed form, and rotated copies of it) give an orthogonal
# group, inverted by the transpose; conjugating by a sheared matrix, or a
# diagonal (scaling) basis, gives a non-orthogonal one, inverted with inv.
# ---------------------------------------------------------------------------

unit_interval = st.floats(-1.0, 1.0)


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(["quaternion", "series", "rotated", "sheared", "scaling"]))
    if kind == "quaternion":
        return BASIS
    if kind == "scaling":
        d = draw(st.integers(1, 3))
        diagonals = draw(arrays(float, (d, 3), elements=unit_interval))
        assume(np.linalg.svd(diagonals, compute_uv=False)[-1] > 0.1)
        return GeneratorBasis(np.stack([np.diag(row) for row in diagonals]))
    if kind == "series":
        return GeneratorBasis(BASIS.generators)
    A = draw(arrays(float, (4, 4), elements=unit_interval))
    if kind == "rotated":
        assume(np.linalg.svd(A, compute_uv=False)[-1] > 0.1)
        T, _ = np.linalg.qr(A)
    else:
        T = np.eye(4) + 0.5 * A
        assume(np.linalg.cond(T) < 10.0)
    return GeneratorBasis(T @ BASIS.generators @ np.linalg.inv(T))


def coords(basis, draw_array):
    return draw_array(arrays(float, basis.dim_algebra, elements=unit_interval))


class TestProperties:
    @given(bases(), st.data())
    def test_wedge_vee_round_trips(self, basis, data):
        u = coords(basis, data.draw)
        A = wedge(basis, u)
        np.testing.assert_allclose(vee(basis, A), u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(wedge(basis, vee(basis, A)), A, rtol=0, atol=1e-12)

    @given(bases(), st.data(), arrays(float, 4, elements=unit_interval))
    def test_action_matrices_act_like_wedge(self, basis, data, x):
        if basis.dim_embedding != 4:
            x = x[:basis.dim_embedding]
        u = coords(basis, data.draw)
        np.testing.assert_allclose(upsilon(basis, x) @ u, wedge(basis, u) @ x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(upsilon_bar(basis, x) @ u, wedge(basis, u).T @ x,
                                   rtol=0, atol=1e-13)

    @given(bases(), st.data())
    def test_exp_group_matches_the_series_and_inverts(self, basis, data):
        u = coords(basis, data.draw)
        X = exp_group(basis, u)
        np.testing.assert_allclose(X, _exp_series(wedge(basis, u)), rtol=0, atol=1e-12)
        assert basis.orthogonal == (not np.any(basis.generators + basis.generators.swapaxes(1, 2)))
        np.testing.assert_allclose(basis.inverse(X), np.linalg.inv(X), rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.inverse(X), exp_group(basis, -u), rtol=0, atol=1e-12)

    @given(bases(), st.data())
    def test_adjoint_coords_is_a_homomorphism(self, basis, data):
        X = exp_group(basis, coords(basis, data.draw))
        Y = exp_group(basis, coords(basis, data.draw))
        u = coords(basis, data.draw)
        Ad_X = adjoint_coords(basis, X)
        np.testing.assert_allclose(adjoint_coords(basis, X @ Y),
                                   Ad_X @ adjoint_coords(basis, Y), rtol=0, atol=1e-10)
        np.testing.assert_allclose(wedge(basis, Ad_X @ u),
                                   X @ wedge(basis, u) @ basis.inverse(X), rtol=0, atol=1e-10)


class TestRegroupedTransposedAction:
    """upsilon_bar is one product against the generators regrouped as an
    (m, m*d) matrix; it must give what the stacked product (xi @ E).T gave."""

    @given(arrays(float, 4, elements=st.floats(-1e8, 1e8)))
    def test_gives_the_bits_of_the_stacked_product_on_the_quaternion_basis(self, xi):
        # Each entry has one nonzero term, so no summation order can move it.
        stacked = (xi @ BASIS.generators).T
        assert upsilon_bar(BASIS, xi).shape == stacked.shape
        assert upsilon_bar(BASIS, xi).tobytes() == stacked.tobytes()

    @given(bases(), arrays(float, 4, elements=st.floats(-1e3, 1e3)))
    def test_agrees_with_the_stacked_product_on_any_basis(self, basis, x):
        # To 1e-15 relative to the sum of the absolute terms of each entry:
        # the two products may only add the same terms in another order.
        x = x[:basis.dim_embedding]
        stacked = (x @ basis.generators).T
        scale = (np.abs(x) @ np.abs(basis.generators)).T
        assert (np.abs(upsilon_bar(basis, x) - stacked) <= 1e-15 * scale).all()
