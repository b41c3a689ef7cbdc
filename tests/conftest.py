"""Shared helpers for the test suite: seeded generators and random
quaternion-system objects used across modules."""

import numpy as np
from hypothesis import settings

from mef import (
    BASIS,
    XI_ORIGIN,
    ObserverState,
    Quaternion,
    SignalSample,
    adjoint_coords,
    correction_delta,
    exp_group,
    forcing_terms,
    gradient_rate,
    upsilon,
    wedge,
)

# Config builders under a loaded host must not trip hypothesis's
# per-example deadline.
settings.register_profile("mef", deadline=None)
settings.load_profile("mef")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed])))


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion.from_vector(v)


def random_unit_vector(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_group_element(rng: np.random.Generator, scale: float = np.pi):
    # Uniform-direction algebra coordinates with angle up to `scale`.
    coords = scale * rng.uniform() * random_unit_vector(rng)
    return exp_group(BASIS, coords)


def random_filter_instance(rng: np.random.Generator):
    """Randomized observer state and signal sample on the quaternion system.

    H is full-rank PSD, eta is moderate (so the correction solve is well
    posed), B carries the real input-map structure, and C, y, Q, R are
    generic. Used by the randomized critical-point identity checks.
    """
    X = random_group_element(rng)
    A = rng.standard_normal((4, 4))
    H = A.T @ A
    eta = 0.3 * rng.standard_normal(4)
    C = rng.standard_normal((4, 4))
    y = 0.3 * rng.standard_normal(4)
    B = upsilon(BASIS, XI_ORIGIN) @ adjoint_coords(BASIS, X)
    M = rng.standard_normal((3, 3))
    Q = M @ M.T + 0.5 * np.eye(3)
    K = rng.standard_normal((4, 4))
    R = 0.5 * (K @ K.T)
    state = ObserverState(X_hat=X, H=H, eta=eta, t=0.0, basis=BASIS)
    sample = SignalSample(
        U_coords=rng.standard_normal(3), C=C, y=y, B=B, Q=Q, R=R, valid_until=1.0
    )
    return state, sample


def correction_at(state, sample, cfg):
    """correction_delta at ``state``, with its arguments formed as step
    forms them."""
    pull, damping = forcing_terms(state, sample, cfg)
    return correction_delta(state, upsilon(state.basis, cfg.origin_xi), pull - damping)


def gradient_rate_at(state, sample, delta, cfg):
    """gradient_rate at ``state`` for the correction coordinates delta."""
    pull, damping = forcing_terms(state, sample, cfg)
    return gradient_rate(state, wedge(state.basis, delta), pull, damping, cfg)
