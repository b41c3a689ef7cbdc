"""Matrix Lie group machinery: generator bases, wedge/vee, exponentials,
adjoint coordinates, and the tangent action matrices.

A symmetry group is described here by a :class:`GeneratorBasis`, an ordered
set of m x m matrices E_1..E_d spanning the Lie algebra. Coordinate vectors
u in R^d correspond to algebra elements sum_i u_i E_i (the wedge map). A
group element is its m x m float matrix, built by exponentiating algebra
elements or multiplying existing elements, so membership is maintained
structurally; GeneratorBasis.inverse inverts one.

One least-squares projection onto the generator span answers every
membership question: vee, of a matrix or a stack; adjoint_coords, vee of
the conjugated generators; and the basis's closure check. The trivial
algebra (d = 0) needs no special case: numpy's empty shapes answer it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GeneratorBasis",
    "NotInAlgebraError",
    "wedge",
    "vee",
    "upsilon",
    "upsilon_bar",
    "exp_group",
    "adjoint_coords",
    "quaternion_basis",
    "quaternion_wedge",
]

# Residual threshold for the least-squares projection used by vee().
VEE_TOLERANCE = 1e-8
# Tolerance for the Lie-subalgebra closure check at basis construction.
CLOSURE_TOLERANCE = 1e-10
_FLOAT = np.dtype(float)


class NotInAlgebraError(ValueError):
    """Raised when a matrix does not lie in the span of the generators."""


class GeneratorBasis:
    """Ordered generator set of a matrix Lie algebra.

    Parameters
    ----------
    generators : array_like, shape (d, m, m)
        Basis matrices E_1..E_d. Must be linearly independent (as flattened
        m^2-vectors) and closed under the matrix commutator. A zero-length
        list of generators (d = 0) is accepted and describes the trivial
        algebra of an m x m identity-only group.
    closed_form_exp : callable, optional
        Map from coordinate vectors (d,) to float (m, m) ndarrays. When
        present, :func:`exp_group` uses it instead of the generic series.

    Attributes
    ----------
    orthogonal : bool
        Whether every generator is skew-symmetric. Each exponential, and so
        each product of them, is then orthogonal, and :meth:`inverse` takes
        the transpose.
    """

    def __init__(
        self,
        generators,
        closed_form_exp: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        gens = np.asarray(generators, dtype=float)
        if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
            raise ValueError("generators must have shape (d, m, m)")
        if not np.all(np.isfinite(gens)):
            raise ValueError("generators must be finite")
        self.generators = gens
        self.dim_algebra = int(gens.shape[0])
        self.dim_embedding = int(gens.shape[1])
        self.closed_form_exp = closed_form_exp
        self.orthogonal = not bool(np.any(gens + np.swapaxes(gens, 1, 2)))

        # Flattened generators as columns of an (m^2, d) matrix; _project
        # maps matrices onto their span by least squares.
        self._flat = gens.reshape(self.dim_algebra, self.dim_embedding ** 2).T
        if np.linalg.matrix_rank(self._flat) < self.dim_algebra:
            raise ValueError("generators are linearly dependent")
        self._flat_pinv = np.linalg.pinv(self._flat)
        # Generators regrouped as an (m, m*d) matrix whose column k*d + i is
        # row k of E_i^T: upsilon_bar is one product against it.
        self._bar = np.ascontiguousarray(gens.transpose(1, 2, 0)).reshape(
            self.dim_embedding, self.dim_embedding * self.dim_algebra)
        # The m x m identity, read-only, for the state check of every epoch.
        self._identity = np.eye(self.dim_embedding)
        self._identity.flags.writeable = False
        # Every commutator [E_i, E_j], i < j, must lie in the span.
        i, j = np.triu_indices(self.dim_algebra, 1)
        outside = _project(self, gens[i] @ gens[j] - gens[j] @ gens[i], CLOSURE_TOLERANCE)[1]
        if outside is not None:
            k, residual = outside
            raise ValueError("generator span is not closed under the commutator "
                             f"(pair {i[k]},{j[k]}: residual {residual:.3e})")

    def inverse(self, X: np.ndarray) -> np.ndarray:
        """Inverse of the group element X: its transpose for an orthogonal
        basis, np.linalg.inv otherwise."""
        return X.T if self.orthogonal else np.linalg.inv(X)


def _project(basis: GeneratorBasis, stack: np.ndarray, tol: float):
    """Least-squares coordinates (d, N) of an (N, m, m) stack in the span, and
    (index, residual) of its first matrix A whose residual ||A - wedge(coords)||
    exceeds tol * max(1, ||A||) (a NaN or inf entry does), or None."""
    flat = stack.reshape(len(stack), basis.dim_embedding ** 2)
    if np.count_nonzero(np.isfinite(flat)) == flat.size:
        coords = basis._flat_pinv @ flat.T
        residual = (flat - (basis._flat @ coords).T).ravel()
        # Every bound is at least tol^2: a stack whose summed squared residual
        # stays below half of it passes, and any other takes the test below.
        if residual.dot(residual) <= 0.5 * tol * tol:
            return coords, None
    # An infinite entry turns into NaNs here (inf * 0, inf - inf), which the
    # residual test rejects without a warning.
    with np.errstate(invalid="ignore"):
        coords = basis._flat_pinv @ flat.T
        residual = flat - (basis._flat @ coords).T
    res2 = (residual * residual).sum(axis=1)
    held = res2 <= tol ** 2 * np.maximum(1.0, (flat * flat).sum(axis=1))
    if held.all():
        return coords, None
    k = int(held.argmin())
    return coords, (k, math.sqrt(res2[k]))


def _coords(basis: GeneratorBasis, u) -> np.ndarray:
    # The kernel's own coordinate vectors pass as they are.
    if type(u) is np.ndarray and u.dtype is _FLOAT and u.shape == (basis.dim_algebra,):
        return u
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != basis.dim_algebra:
        raise ValueError(
            f"coordinate vector has length {u.shape[0]}, "
            f"expected {basis.dim_algebra}"
        )
    return u


def wedge(basis: GeneratorBasis, u) -> np.ndarray:
    """Algebra matrix sum_i u_i E_i of the coordinate vector u, or for an
    (N, d) stack of coordinate rows the (N, m, m) stack of their matrices."""
    u = np.asarray(u, dtype=float)
    u = u if u.ndim == 2 and u.shape[1] == basis.dim_algebra else _coords(basis, u)
    m = basis.dim_embedding
    return u.dot(basis._flat.T).reshape(u.shape[:-1] + (m, m))


def vee(basis: GeneratorBasis, A) -> np.ndarray:
    """Coordinates of the algebra matrix A in the generator basis, or for an
    (N, m, m) stack of matrices the (N, d) stack of their coordinate rows.

    The projection is least squares, so vee also accepts matrices that are
    only numerically in the span. Raises :class:`NotInAlgebraError` when a
    projection residual exceeds VEE_TOLERANCE relative to max(1, ||A||), or
    when A has a NaN or infinite entry.
    """
    A = np.asarray(A, dtype=float)
    m = basis.dim_embedding
    if A.ndim not in (2, 3) or A.shape[-2:] != (m, m):
        raise ValueError("matrix dimension does not match the basis")
    coords = _span_coords(basis, A.reshape(-1, m, m))
    return coords.T if A.ndim == 3 else coords[:, 0]


def _span_coords(basis: GeneratorBasis, stack: np.ndarray) -> np.ndarray:
    # _project's coordinates (d, N) of an (N, m, m) stack, under vee's tolerance.
    coords, outside = _project(basis, stack, VEE_TOLERANCE)
    if outside is not None:
        raise NotInAlgebraError(f"matrix is not in the algebra span (residual {outside[1]:.3e})")
    return coords


def upsilon(basis: GeneratorBasis, xi) -> np.ndarray:
    """m x d matrix with column i = E_i xi.

    Satisfies upsilon(xi) @ u = wedge(u) @ xi for every u, turning algebra
    coordinates into the action of the corresponding algebra element on xi.
    """
    return (basis.generators @ _point(basis, xi)).T


def upsilon_bar(basis: GeneratorBasis, xi) -> np.ndarray:
    """m x d matrix with column i = E_i^T xi (transposed action)."""
    return _point(basis, xi).dot(basis._bar).reshape(basis.dim_embedding, basis.dim_algebra)


def _point(basis: GeneratorBasis, xi) -> np.ndarray:
    if type(xi) is np.ndarray and xi.dtype is _FLOAT and xi.shape == (basis.dim_embedding,):
        return xi
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape[0] != basis.dim_embedding:
        raise ValueError("point dimension does not match the basis")
    return xi


def _exp_series(A: np.ndarray) -> np.ndarray:
    # Scaling and squaring on the truncated Taylor series. After scaling to
    # ||A|| <= 0.5 the 18-term remainder is below 1e-16 relative.
    norm = float(np.linalg.norm(A))
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    B = A / (2.0 ** squarings)
    m = A.shape[0]
    result = np.eye(m)
    term = np.eye(m)
    for k in range(1, 18):
        term = term @ B / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def exp_group(basis: GeneratorBasis, u) -> np.ndarray:
    """Group element exp(wedge(u)) as its (m, m) matrix.

    Uses the basis closed form when one is registered, otherwise the scaled
    truncated series. Total on finite input; the matrix is not tested for
    finiteness (step tests the product it enters).
    """
    u = _coords(basis, u)
    if basis.closed_form_exp is not None:
        return basis.closed_form_exp(u)
    return _exp_series(wedge(basis, u))


def adjoint_coords(basis: GeneratorBasis, X: np.ndarray) -> np.ndarray:
    """d x d matrix of the conjugation map u -> vee(X wedge(u) X^-1).

    Column i is vee(X E_i X^-1): the stack of conjugated generators goes
    through one projection, without vee's checks of its argument. Raises
    :class:`NotInAlgebraError` when a conjugated generator leaves the
    algebra span, which signals a basis/group inconsistency.
    """
    return _span_coords(basis, X @ basis.generators @ basis.inverse(X))


# ---------------------------------------------------------------------------
# Unit-quaternion instantiation: S^3 in R^4 acted on by the group generated
# by exponentials of the wedge matrices below. Scalar-first ordering.
# ---------------------------------------------------------------------------


def quaternion_wedge(delta) -> np.ndarray:
    """4x4 algebra matrix [[0, d^T], [-d, skew(d)]] of a 3-vector d."""
    d1, d2, d3 = np.asarray(delta, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, d1, d2, d3],
            [-d1, 0.0, -d3, d2],
            [-d2, d3, 0.0, -d1],
            [-d3, -d2, d1, 0.0],
        ]
    )


def _quaternion_exp(coords: np.ndarray) -> np.ndarray:
    # wedge(delta)^2 = -|delta|^2 I, so the series closes into
    # cos(theta) I + (sin(theta) / theta) wedge(delta), theta = |delta|.
    d1, d2, d3 = coords.tolist()
    theta = math.hypot(d1, d2, d3)
    c = math.cos(theta)
    s = math.sin(theta) / theta if theta > 0.0 else 1.0
    s1, s2, s3 = s * d1, s * d2, s * d3
    return np.array((c, s1, s2, s3, -s1, c, -s3, s2,
                     -s2, s3, c, -s1, -s3, -s2, s1, c)).reshape(4, 4)


def quaternion_basis() -> GeneratorBasis:
    """Generator basis E_i = wedge(e_i) for the quaternion group, with the
    exact cosine/sine exponential registered as the closed form. Each E_i
    is skew-symmetric, so the basis is orthogonal."""
    eye3 = np.eye(3)
    gens = np.stack([quaternion_wedge(eye3[i]) for i in range(3)])
    return GeneratorBasis(gens, closed_form_exp=_quaternion_exp)
