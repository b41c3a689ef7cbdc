"""
A tour of the matrix algebra layer
==================================

Everything the filter does geometrically reduces to a handful of maps on
a generator basis: wedge/vee between coordinate vectors and algebra
matrices, the exponential into the group, the adjoint, and the two action
matrices that turn algebra coordinates into velocities of a point. This
script walks through each one on the built-in unit-quaternion basis.
"""

import numpy as np

from mef import (
    BASIS,
    XI_ORIGIN,
    Quaternion,
    adjoint_coords,
    exp_group,
    quat_product,
    upsilon,
    upsilon_bar,
    vee,
    wedge,
)

np.set_printoptions(precision=4, suppress=True)


def as_quaternion(X) -> Quaternion:
    # The group is built so that X^-1 applied to the origin recovers the
    # quaternion X was constructed from. The basis inverts its elements:
    # by the transpose, as its generators are skew-symmetric.
    return Quaternion.from_vector(BASIS.inverse(X) @ XI_ORIGIN)

# ---------------------------------------------------------------------------
# wedge and vee: coordinates <-> 4x4 algebra matrices
# ---------------------------------------------------------------------------
u = np.array([0.3, -0.1, 0.2])
A = wedge(BASIS, u)
print("wedge(u) =")
print(A)
print("vee(wedge(u)) =", vee(BASIS, A))

# The square of any algebra element is -|u|^2 times the identity; this is
# what makes the closed-form exponential a plain cosine/sine pair.
print("A @ A + |u|^2 I =")
print(A @ A + np.dot(u, u) * np.eye(4))

# ---------------------------------------------------------------------------
# exponential: group elements (plain 4x4 matrices) from coordinates
# ---------------------------------------------------------------------------
X = exp_group(BASIS, u)
theta = np.linalg.norm(u)
print("||exp(u) - (cos|u| I + sin|u|/|u| wedge(u))|| =",
      np.linalg.norm(X - (np.cos(theta) * np.eye(4)
                                 + np.sin(theta) / theta * A)))

# Group elements act on embedded points by plain matrix-vector products.
# The orbit of the origin is the whole unit sphere in R^4.
xi = X @ XI_ORIGIN
print("X @ origin =", xi, " norm =", np.linalg.norm(xi))

# The same element, read back as a unit quaternion (angle |u|, axis u/|u|).
q = as_quaternion(X)
print("as quaternion:", q.as_vector())

# ---------------------------------------------------------------------------
# the two action matrices
# ---------------------------------------------------------------------------
# upsilon(xi) converts algebra coordinates into the velocity of xi, and
# upsilon_bar does the same for the transposed action. Both identities
# hold for every point and every coordinate vector.
x = np.array([0.5, -0.2, 0.1, 0.7])
print("upsilon(x) u - wedge(u) x      =", upsilon(BASIS, x) @ u - A @ x)
print("upsilon_bar(x) u - wedge(u)T x =", upsilon_bar(BASIS, x) @ u - A.T @ x)

# ---------------------------------------------------------------------------
# adjoint: how conjugation moves coordinates
# ---------------------------------------------------------------------------
# Conjugating the algebra by exp(theta * axis) rotates coordinate vectors
# about that axis by twice the angle. The factor of two is the usual
# double cover of rotations by unit quaternions.
axis = np.array([0.0, 0.0, 1.0])
theta = 0.4
Ad = adjoint_coords(BASIS, exp_group(BASIS, theta * axis))
print("adjoint of exp(0.4 e3) =")
print(Ad)
print("rotation angle recovered:", np.arctan2(Ad[1, 0], Ad[0, 0]), "= 2 theta")

# The adjoint is a homomorphism: conjugating by a product is the product
# of the conjugations.
v = np.array([-0.2, 0.5, 0.1])
Y = exp_group(BASIS, v)
lhs = adjoint_coords(BASIS, X @ Y)
rhs = adjoint_coords(BASIS, X) @ adjoint_coords(BASIS, Y)
print("homomorphism defect:", np.linalg.norm(lhs - rhs))

# Quaternion product and group product agree.
p = as_quaternion(X @ Y)
print("quaternion of X@Y:      ", p.as_vector())
print("product of quaternions: ",
      quat_product(q, as_quaternion(Y)).as_vector())
