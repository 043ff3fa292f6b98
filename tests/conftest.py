import numpy as np
import pytest

from rummage.geometry import Box, Cylinder, ParticleSet, Pose, Sphere, mug_shape


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def mug():
    return mug_shape()


PRIMITIVES = [
    Sphere(0.05),
    Box((0.1, 0.07, 0.04)),
    Cylinder(0.06, 0.05),
]


def rodrigues(axis, angle) -> np.ndarray:
    """Rotation matrix ``(3, 3)`` about ``axis`` by ``angle`` (Rodrigues'
    formula): the general 3-D rotations the package never builds, for tests
    of :func:`~rummage.geometry.rigid_transform` itself."""
    kx, ky, kz = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def weighted_set(poses, weights) -> ParticleSet:
    """``ParticleSet(translations, yaws, weights)`` of a list of poses."""
    return ParticleSet(np.stack([T.translation for T in poses]), np.array([T.yaw for T in poses]), weights)


def random_pose(rng, planar=False, trans_scale=0.3):
    """A uniform yaw and a translation; ``planar`` places the object's
    origin on the table (z = 0), otherwise the translation has a z offset."""
    t = rng.uniform(-trans_scale, trans_scale, 3)
    if planar:
        t[2] = 0.0
        return Pose.from_placement(t, rng.uniform(-np.pi, np.pi))
    return Pose(t, rng.uniform(-np.pi, np.pi))
