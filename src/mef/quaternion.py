"""Unit-quaternion attitude instantiation.

Attitude kinematics on the 3-sphere, the implicit linear measurement built
from a known time-varying reference vector, and the gain construction that
feeds the filter. Conventions: scalar-first quaternions; q maps body to
inertial, so body-frame observations of an inertial vector use the inverse
rotation; the embedding origin is (1, 0, 0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .filter import SignalSample
from .liegroup import (
    GroupElement,
    _element,
    adjoint_coords,
    quaternion_basis,
    quaternion_wedge,
    upsilon,
)

__all__ = [
    "Quaternion",
    "AttitudeScenario",
    "NoiseModel",
    "XI_ORIGIN",
    "BASIS",
    "quat_product",
    "velocity_coords",
    "rotate_to_body",
    "propagate_quaternion",
    "measurement_matrix",
    "output_jacobian",
    "build_sample",
    "group_from_quaternion",
    "attitude_error_angle",
]

UNIT_TOLERANCE = 1e-9
# Relative singular-value cutoff for the pseudo-inverse defining R.
R_PINV_CUTOFF = 1e-12

# Embedding origin: the identity quaternion as a 4-vector.
XI_ORIGIN = np.array([1.0, 0.0, 0.0, 0.0])

# Shared generator basis of the quaternion group.
BASIS = quaternion_basis()

# upsilon(BASIS, XI_ORIGIN), the left factor of every sample's input map B.
_UPSILON_ORIGIN = upsilon(BASIS, XI_ORIGIN)
_UPSILON_ORIGIN.flags.writeable = False


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


class Quaternion:
    """Unit quaternion with scalar part ``q_r`` and vector part ``q_v``."""

    __slots__ = ("q_r", "q_v")

    def __init__(self, q_r: float, q_v):
        self.q_r = float(q_r)
        self.q_v = np.asarray(q_v, dtype=float).reshape(3)
        norm = float(np.sqrt(self.q_r ** 2 + self.q_v.dot(self.q_v)))
        if not abs(norm - 1.0) <= UNIT_TOLERANCE:  # written so that NaN fails too
            raise ValueError(f"quaternion norm {norm} is not 1 within {UNIT_TOLERANCE}")

    @classmethod
    def from_vector(cls, v) -> "Quaternion":
        v = np.asarray(v, dtype=float).reshape(4)
        return cls(v[0], v[1:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.q_r], self.q_v))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Quaternion({self.q_r}, {self.q_v})"


def _mul(a_r: float, a_v: np.ndarray, b_r: float, b_v: np.ndarray):
    # Raw Hamilton product, no unit assumption: r = a_r b_r - a_v . b_v,
    # v = a_r b_v + b_r a_v + a_v x b_v, written out on scalars.
    a1, a2, a3 = a_v.tolist()
    b1, b2, b3 = b_v.tolist()
    r = a_r * b_r - (a1 * b1 + a2 * b2 + a3 * b3)
    v = np.array([
        a_r * b1 + b_r * a1 + (a2 * b3 - a3 * b2),
        a_r * b2 + b_r * a2 + (a3 * b1 - a1 * b3),
        a_r * b3 + b_r * a3 + (a1 * b2 - a2 * b1),
    ])
    return r, v


def quat_product(q: Quaternion, h: Quaternion) -> Quaternion:
    """Hamilton product of two unit quaternions, renormalized if the result
    drifts from unit norm by more than 1e-12."""
    r, v = _mul(q.q_r, q.q_v, h.q_r, h.q_v)
    norm = float(np.sqrt(r * r + v.dot(v)))
    if abs(norm - 1.0) > 1e-12:
        r, v = r / norm, v / norm
    return Quaternion(r, v)


def velocity_coords(omega) -> np.ndarray:
    """Algebra coordinates of the velocity input: omega/2."""
    return np.asarray(omega, dtype=float).reshape(3) / 2.0


def rotate_to_body(q: Quaternion, z_ref) -> np.ndarray:
    """Body-frame components z of an inertial vector z_ref, from
    (0, z) = q^-1 (0, z_ref) q."""
    z_ref = np.asarray(z_ref, dtype=float).reshape(3)
    r1, v1 = _mul(q.q_r, -q.q_v, 0.0, z_ref)
    _, z = _mul(r1, v1, q.q_r, q.q_v)
    return z


def propagate_quaternion(q: Quaternion, omega, dt: float) -> Quaternion:
    """Exact flow of the kinematics over dt with omega held constant.

    The state satisfies qdot = -wedge(omega/2) q, so one step is the group
    exponential exp(-dt wedge(omega/2)) applied to q.
    """
    mat = BASIS.closed_form_exp(-dt * velocity_coords(omega))
    return Quaternion.from_vector(mat.dot(q.as_vector()))


def measurement_matrix(z, z_ref) -> np.ndarray:
    """4x4 implicit-output matrix C with C q = 0 whenever z is the exact
    body-frame image of z_ref under q.

    C is affine in z, which makes the output exactly linear in the
    measurement noise.
    """
    z = np.asarray(z, dtype=float).reshape(3)
    z_ref = np.asarray(z_ref, dtype=float).reshape(3)
    C = np.zeros((4, 4))
    C[0, 1:] = z_ref - z
    C[1:, 0] = z - z_ref
    C[1:, 1:] = -_skew(z + z_ref)
    return C


def output_jacobian(q_hat: Quaternion) -> np.ndarray:
    """4x3 derivative of the implicit output with respect to the measured
    vector, evaluated at the estimate: [-q_v^T; q_r I + skew(q_v)]."""
    J = np.zeros((4, 3))
    J[0, :] = -q_hat.q_v
    J[1:, :] = q_hat.q_r * np.eye(3) + _skew(q_hat.q_v)
    return J


@dataclass
class AttitudeScenario:
    """Truth-side description of one attitude run."""

    omega_fn: Callable[[float], np.ndarray]
    ref_fn: Callable[[float], np.ndarray]
    q0: Quaternion
    duration: float
    sensor_dt: float

    def __post_init__(self):
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


def _check_covariance(mat, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    if float(np.linalg.eigvalsh(mat)[0]) < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")
    return mat


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat = np.array(mat, dtype=float)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise covariances and the seed they are drawn with.

    The same covariances double as the gain parameters of the filter: the
    velocity gain is the inverse of the propagated gyro covariance and the
    output gain comes from the vector covariance through the output
    Jacobian. The model is frozen and its arrays read-only, so the gain
    matrices derived from them are computed once, on first use.
    """

    gyro_cov: np.ndarray
    vector_cov: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name in ("gyro_cov", "vector_cov"):
            object.__setattr__(self, name, _read_only(_check_covariance(getattr(self, name), name)))
        object.__setattr__(self, "seed", int(self.seed))

    @cached_property
    def velocity_gain(self) -> np.ndarray:
        """The velocity gain Q = (0.25 gyro_cov)^-1 (see build_sample),
        shared read-only by every sample; SignalSample checks it."""
        return _read_only(np.linalg.inv(0.25 * self.gyro_cov))

    @cached_property
    def vector_cov_pinv(self) -> np.ndarray:
        """pinv(vector_cov) with the relative cutoff R_PINV_CUTOFF."""
        return _read_only(np.linalg.pinv(self.vector_cov, rcond=R_PINV_CUTOFF, hermitian=True))


def build_sample(
    t: float,
    q_hat: Quaternion,
    X_hat: GroupElement,
    omega_meas,
    z_meas,
    scenario: AttitudeScenario,
    noise_model: NoiseModel,
) -> SignalSample:
    """Assemble one sensor epoch into the filter's input structure.

    The velocity gain Q is noise_model.velocity_gain, the inverse of
    0.25 * gyro_cov (halving the rate halves the noise, quartering its
    covariance). The output gain R is the pseudo-inverse of J V J^T, with
    J the output Jacobian and V = vector_cov; it has rank 3, and the null
    direction lies along the estimate and carries no information.

    R is built in closed form. The columns of J are orthogonal with norm
    |q_hat|, so J^T J = |q_hat|^2 I and J = |q_hat| W with W^T W = I.
    Then J V J^T = |q_hat|^2 W V W^T, and because W has orthonormal
    columns, pinv(W V W^T) = W pinv(V) W^T. Hence
    pinv(J V J^T) = J pinv(V) J^T / |q_hat|^4. Both pseudo-inverses use
    the same relative cutoff R_PINV_CUTOFF, which the uniform scaling by
    |q_hat|^2 leaves unchanged, and pinv(V) is computed once per model.
    """
    z_ref = np.asarray(scenario.ref_fn(t), dtype=float).reshape(3)
    U_coords = velocity_coords(omega_meas)
    C = measurement_matrix(z_meas, z_ref)
    y = np.zeros(4)
    B = _UPSILON_ORIGIN.dot(adjoint_coords(BASIS, X_hat))
    J = output_jacobian(q_hat)
    norm2 = q_hat.q_r ** 2 + float(q_hat.q_v.dot(q_hat.q_v))
    R = J.dot(noise_model.vector_cov_pinv).dot(J.T) / (norm2 * norm2)
    return SignalSample(U_coords=U_coords, C=C, y=y, B=B, Q=noise_model.velocity_gain, R=R,
                        valid_until=t + scenario.sensor_dt)


def group_from_quaternion(q: Quaternion) -> GroupElement:
    """Group element X = exp(theta * wedge(axis)) with q = (cos theta,
    sin theta * axis) and theta in [0, pi], so that X^-1 (1, 0, 0, 0)
    recovers q. For q_v = 0 this is +I or -I by the sign of q_r."""
    sin_theta = float(np.linalg.norm(q.q_v))
    theta = float(np.arctan2(sin_theta, q.q_r))
    if sin_theta > 0.0:
        axis = q.q_v / sin_theta
    else:
        axis = np.array([1.0, 0.0, 0.0])
    mat = np.cos(theta) * np.eye(4) + np.sin(theta) * quaternion_wedge(axis)
    return _element(mat, BASIS.orthogonal)


def attitude_error_angle(q: Quaternion, q_hat: Quaternion) -> float:
    """Rotation angle between two attitudes in [0, pi], identical for q
    and -q (double cover).

    Computed as 2 atan2(|vec|, |scalar|) of the relative quaternion rather
    than through arccos of the dot product; the two agree exactly but the
    arccos form cannot resolve angles below about 1e-8.
    """
    r, v = _mul(q.q_r, -q.q_v, q_hat.q_r, q_hat.q_v)
    return float(2.0 * np.arctan2(float(np.linalg.norm(v)), abs(r)))
