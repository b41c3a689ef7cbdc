"""Unit-quaternion attitude instantiation.

Attitude kinematics on the 3-sphere, the implicit linear measurement built
from a known time-varying reference vector, and the gain construction that
feeds the filter. Conventions: a quaternion is a float (4,) array, scalar
first, and unit_quaternion is the one check that it is unit; q maps body to
inertial, so body-frame observations of an inertial vector use the inverse
rotation; the embedding origin is (1, 0, 0, 0).

The measurement-side maps (velocity_coords, measurement_matrix) take one
measurement or an (N, 3) stack of them, so that a run forms them for all
its epochs at once; build_sample adds the part of a sample that depends on
the observer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .filter import SignalSample, _dot, _origin_action
from .liegroup import adjoint_coords, quaternion_basis, quaternion_wedge, upsilon_bar

__all__ = [
    "unit_quaternion",
    "AttitudeScenario",
    "NoiseModel",
    "XI_ORIGIN",
    "BASIS",
    "quat_product",
    "velocity_coords",
    "measurement_matrix",
    "build_sample",
    "group_from_quaternion",
    "attitude_error_angle",
]

UNIT_TOLERANCE = 1e-9

# Embedding origin: the identity quaternion as a 4-vector.
XI_ORIGIN = np.array([1.0, 0.0, 0.0, 0.0])

# Shared generator basis of the quaternion group.
BASIS = quaternion_basis()


def unit_quaternion(v) -> np.ndarray:
    """v as a quaternion: a new float (4,) array, scalar first. Raises
    ValueError unless its norm is 1 within UNIT_TOLERANCE."""
    q = np.array(v, dtype=float).reshape(4)
    norm = float(np.sqrt(q[0] ** 2 + q[1:].dot(q[1:])))
    if not abs(norm - 1.0) <= UNIT_TOLERANCE:  # written so that NaN fails too
        raise ValueError(f"quaternion norm {norm} is not 1 within {UNIT_TOLERANCE}")
    return q


def _hamilton(a_r, a1, a2, a3, b_r, b1, b2, b3):
    # Raw Hamilton product, no unit assumption: r = a_r b_r - a_v . b_v,
    # v = a_r b_v + b_r a_v + a_v x b_v, written out on scalars. Given
    # arrays, it forms every product elementwise by the same operations in
    # the same order, so each one has the bits of the scalar product.
    return (a_r * b_r - (a1 * b1 + a2 * b2 + a3 * b3),
            a_r * b1 + b_r * a1 + (a2 * b3 - a3 * b2),
            a_r * b2 + b_r * a2 + (a3 * b1 - a1 * b3),
            a_r * b3 + b_r * a3 + (a1 * b2 - a2 * b1))


def quat_product(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Hamilton product of two unit quaternions, renormalized if the result
    drifts from unit norm by more than 1e-12, and checked unit
    (unit_quaternion)."""
    p = np.array(_hamilton(*q, *h))
    norm = float(np.sqrt(p[0] * p[0] + p[1:].dot(p[1:])))
    if abs(norm - 1.0) > 1e-12:
        p /= norm
    return unit_quaternion(p)


def velocity_coords(omega) -> np.ndarray:
    """Algebra coordinates of the velocity input: omega/2, of one rate or
    of each row of an (N, 3) stack of rates."""
    omega = np.asarray(omega, dtype=float)
    return (omega.reshape(-1, 3) if omega.ndim == 2 else omega.reshape(3)) / 2.0


def _to_body(q: np.ndarray, z_ref: np.ndarray) -> np.ndarray:
    # Body-frame components z of an inertial vector z_ref, from
    # (0, z) = q^-1 (0, z_ref) q, for a quaternion 4-vector, or row by row of
    # (N, 4) quaternion and (N, 3) vector stacks, with the same bits either way.
    q_r, q1, q2, q3 = q.T
    r, v1, v2, v3 = _hamilton(q_r, -q1, -q2, -q3, 0.0, *z_ref.T)
    _, z1, z2, z3 = _hamilton(r, v1, v2, v3, q_r, q1, q2, q3)
    return np.stack((z1, z2, z3), axis=-1)


def _flow(q: np.ndarray, coords: np.ndarray) -> np.ndarray:
    # Exact flow of the kinematics qdot = -wedge(omega/2) q over dt with
    # omega held constant: one step exp(wedge(coords)) q of a quaternion
    # 4-vector, with coords = -dt omega/2 (simulate_truth, epoch by epoch).
    return BASIS.closed_form_exp(coords).dot(q)


def measurement_matrix(z, z_ref) -> np.ndarray:
    """4x4 implicit-output matrix C with C q = 0 whenever z is the exact
    body-frame image of z_ref under q; for (N, 3) stacks of z and z_ref,
    the (N, 4, 4) stack of their matrices.

    C = [[0, (z_ref - z)^T], [z - z_ref, -skew(z + z_ref)]], with -0.0 on
    the diagonal of -skew. C is affine in z, which makes the output
    exactly linear in the measurement noise.
    """
    z = np.asarray(z, dtype=float)
    z_ref = np.asarray(z_ref, dtype=float)
    single = z.ndim < 2
    z, z_ref = z.reshape(-1, 3), z_ref.reshape(-1, 3)
    s1, s2, s3 = (z + z_ref).T
    C = np.zeros((len(z), 4, 4))
    C[:, 0, 1:] = z_ref - z
    C[:, 1:, 0] = z - z_ref
    C[:, (1, 2, 3), (1, 2, 3)] = -0.0
    C[:, 1, 2], C[:, 1, 3] = s3, -s2
    C[:, 2, 1], C[:, 2, 3] = -s3, s1
    C[:, 3, 1], C[:, 3, 2] = s2, -s1
    return C[0] if single else C


@dataclass
class AttitudeScenario:
    """Truth-side description of one attitude run."""

    omega_fn: Callable[[float], np.ndarray]
    ref_fn: Callable[[float], np.ndarray]
    q0: np.ndarray
    duration: float
    sensor_dt: float

    def __post_init__(self):
        self.q0 = unit_quaternion(self.q0)
        # Written as "not (a <= x < inf)" so that NaN fails them too.
        if not 0.0 < self.sensor_dt < math.inf:
            raise ValueError("sensor_dt must be positive and finite")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError("duration must be nonnegative and finite")

    def epochs(self) -> int:
        """Number of sensor epochs including t = 0.

        A zero duration means an empty run (no epochs at all), so that a
        degenerate configuration still produces a well-formed empty log.
        """
        if self.duration == 0.0:
            return 0
        count = self.duration / self.sensor_dt
        rounded = round(count)
        if abs(count - rounded) > 1e-9:
            raise ValueError("duration must be an integer number of sensor_dt")
        return int(rounded) + 1


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic measurement noise, sigma^2 I per sensor, as its two
    variances, and the seed it is drawn with.

    The same variances double as the gain parameters of the filter: the
    velocity gain inverts the propagated gyro covariance, and the output
    weight inverts the vector variance (see build_sample). The model is
    frozen, so its gains are computed once, on first use.
    """

    gyro_var: float
    vector_var: float
    seed: int = 0

    def __post_init__(self):
        for name in ("gyro_var", "vector_var"):
            if not 0.0 <= getattr(self, name) < math.inf:  # written so that NaN fails too
                raise ValueError(f"{name} must be nonnegative and finite")
        object.__setattr__(self, "seed", int(self.seed))

    @cached_property
    def velocity_gain(self) -> np.ndarray:
        """The velocity gain Q = (0.25 gyro_var I)^-1 (see build_sample),
        shared read-only by every sample; SignalSample checks it."""
        gain = np.eye(3) / (0.25 * self.gyro_var)
        gain.flags.writeable = False
        return gain

    @cached_property
    def output_weight(self) -> float:
        """The output weight 1 / vector_var; 0 for a zero variance, as the
        pseudo-inverse of a zero covariance is 0."""
        return 1.0 / self.vector_var if self.vector_var else 0.0


def build_sample(
    q_hat: np.ndarray,
    X_hat: np.ndarray,
    U_coords: np.ndarray,
    C: np.ndarray,
    valid_until: float,
    noise_model: NoiseModel,
) -> SignalSample:
    """Assemble one sensor epoch into the filter's input structure.

    q_hat is the estimate as a 4-vector and X_hat the observer's group
    matrix. U_coords = velocity_coords(omega_meas) and
    C = measurement_matrix(z_meas, z_ref) depend on no observer state, so a
    run forms them for all its epochs at once (see simulation.observe).
    The sample holds until valid_until.

    The velocity gain Q is noise_model.velocity_gain, the inverse of
    0.25 gyro_var I (halving the rate halves the noise, quartering its
    variance). C is affine in z, and the noise nu moves C q_hat by exactly
    J nu, with J = upsilon_bar(q_hat) the output Jacobian. J's columns are
    orthogonal with norm |q_hat|, so the output gain pinv(J sigma^2 I J^T)
    is R = J J^T / (sigma^2 |q_hat|^4), sigma^2 = vector_var: rank 3, and
    null along the estimate, which carries no information.
    """
    B = _origin_action(BASIS, XI_ORIGIN).dot(adjoint_coords(BASIS, X_hat))
    J = upsilon_bar(BASIS, q_hat)
    q_v = q_hat[1:]
    norm2 = float(q_hat[0]) ** 2 + float(q_v.dot(q_v))
    R = (J * noise_model.output_weight).dot(J.T) / (norm2 * norm2)
    return SignalSample(U_coords=U_coords, C=C, y=np.zeros(4), B=B, Q=noise_model.velocity_gain,
                        R=R, valid_until=valid_until)


def group_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Group element X = exp(theta * wedge(axis)) with q = (cos theta,
    sin theta * axis) and theta in [0, pi], so that X^-1 (1, 0, 0, 0)
    recovers q. For a zero vector part this is +I or -I by the sign of the
    scalar part."""
    sin_theta = float(np.linalg.norm(q[1:]))
    theta = float(np.arctan2(sin_theta, q[0]))
    if sin_theta > 0.0:
        axis = q[1:] / sin_theta
    else:
        axis = np.array([1.0, 0.0, 0.0])
    return np.cos(theta) * np.eye(4) + np.sin(theta) * quaternion_wedge(axis)


def attitude_error_angle(q, q_hat):
    """Rotation angle between two attitudes in [0, pi], identical for q
    and -q (double cover): a float for two quaternions, and for (N, 4)
    stacks of them the (N,) angles of their rows.

    Computed as 2 atan2(|vec|, |scalar|) of the relative quaternion rather
    than through arccos of the dot product; the two agree exactly but the
    arccos form cannot resolve angles below about 1e-8.
    """
    q_r, q1, q2, q3 = np.asarray(q, dtype=float).T
    r, *v = _hamilton(q_r, -q1, -q2, -q3, *np.asarray(q_hat, dtype=float).T)
    v = np.stack(v, axis=-1)
    # sqrt(v . v) is how np.linalg.norm forms |v|, bit for bit.
    angle = 2.0 * np.arctan2(np.sqrt(_dot(v, v)), np.abs(r))
    return float(angle) if angle.ndim == 0 else angle

