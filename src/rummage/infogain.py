"""Expected-information and reachability fields over a workspace.

The information value of querying a position is a reverse-KL surrogate:
the expected discrepancy a new observation there would add, averaged over
both the semantics the sensor could report and the pose particles.  (The
dropped log-normalizer ratio of the underlying posterior update has no
known error bound; the surrogate is used as-is.)  Positions where the
particles disagree about the signed distance score high; positions they
agree on score near zero.

Fields are evaluated at workspace grid nodes only and cached; downstream
consumers interpolate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import ParticleSet
from .discrepancy import DiscrepancyParams
from .geometry import ScalarField, Shape, Workspace, blockwise
from .semantics import SensorModel


@dataclass
class InfoFields:
    """Cached per-step planning fields.

    Outside the workspace, ``info`` reads 0 and the class probabilities
    read free-with-certainty.
    """

    info: ScalarField
    p_free: ScalarField
    p_occ: ScalarField
    p_surf: ScalarField

    def class_probabilities(self, points):
        """Interpolated (free, occupied, surface) probabilities, renormalized."""
        pf = self.p_free.query(points)
        po = self.p_occ.query(points)
        ps = self.p_surf.query(points)
        pf = np.maximum(pf, 0.0)
        po = np.maximum(po, 0.0)
        ps = np.maximum(ps, 0.0)
        total = pf + po + ps
        total = np.where(total <= 0, 1.0, total)
        return pf / total, po / total, ps / total


def _accumulate(particles: ParticleSet, shape: Shape, points: np.ndarray, sensor: SensorModel, disc: DiscrepancyParams):
    """Weighted sensor probabilities and expected class costs over particles.

    Evaluates the distances of every particle's transformed points in one
    batch (memory scales with particles x points)."""
    w = particles.weights
    R = particles.rotations()        # (N, 3, 3)
    t = particles.translations()     # (N, 3)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    obj = np.empty((len(w), len(points), 3))
    # component form matches Pose.transform bit for bit
    obj[..., 0] = R[:, 0, 0, None] * x + R[:, 0, 1, None] * y + R[:, 0, 2, None] * z + t[:, 0, None]
    obj[..., 1] = R[:, 1, 0, None] * x + R[:, 1, 1, None] * y + R[:, 1, 2, None] * z + t[:, 1, None]
    obj[..., 2] = R[:, 2, 0, None] * x + R[:, 2, 1, None] * y + R[:, 2, 2, None] * z + t[:, 2, None]
    v = blockwise(shape.sdf, obj.reshape(-1, 3)).reshape(len(w), len(points))
    f, o, s = sensor.probabilities(v)
    pf = w @ f
    po = w @ o
    ps = w @ s
    ec_free = w @ (disc.sigma_f * np.maximum(0.0, disc.epsilon - v))
    ec_occ = w @ (disc.sigma_f * np.maximum(0.0, disc.epsilon + v))
    ec_surf = w @ np.abs(v)
    return pf, po, ps, ec_free, ec_occ, ec_surf


def semantics_probability(
    particles: ParticleSet, shape: Shape, x, sensor: SensorModel = SensorModel()
):
    """Belief-averaged class probabilities at one position (or a batch)."""
    pts = np.asarray(x, dtype=np.float64)
    single = pts.shape == (3,)
    pts = pts.reshape(-1, 3)
    pf, po, ps, *_ = _accumulate(particles, shape, pts, sensor, DiscrepancyParams())
    if single:
        return float(pf[0]), float(po[0]), float(ps[0])
    return pf, po, ps


def info_gain(
    particles: ParticleSet,
    shape: Shape,
    x,
    gamma: float = 2.0,
    sensor: SensorModel = SensorModel(),
    disc: DiscrepancyParams = DiscrepancyParams(),
):
    """Expected discrepancy added by observing the semantics at ``x``."""
    pts = np.asarray(x, dtype=np.float64)
    single = pts.shape == (3,)
    pts = pts.reshape(-1, 3)
    pf, po, ps, ef, eo, es = _accumulate(particles, shape, pts, sensor, disc)
    val = gamma * (pf * ef + po * eo + ps * es)
    return float(val[0]) if single else val


def build_info_fields(
    particles: ParticleSet,
    shape: Shape,
    workspace: Workspace,
    gamma: float = 2.0,
    sensor: SensorModel = SensorModel(),
    disc: DiscrepancyParams = DiscrepancyParams(),
) -> InfoFields:
    """Evaluate the information and class-probability fields at every
    workspace node.  Deterministic in its inputs."""
    pts = workspace.grid_points()
    pf, po, ps, ef, eo, es = _accumulate(particles, shape, pts, sensor, disc)
    info = gamma * (pf * ef + po * eo + ps * es)
    return InfoFields(
        info=workspace.make_field(info, outside_value=0.0),
        p_free=workspace.make_field(pf, outside_value=1.0),
        p_occ=workspace.make_field(po, outside_value=0.0),
        p_surf=workspace.make_field(ps, outside_value=0.0),
    )


@dataclass(frozen=True)
class ReachabilityModel:
    """Synthetic stand-in for arm reachability with the usual ring structure.

    The reach error at a point grows with its distance outside an annular
    band around the base; the score ramps linearly from 1 (no error) to 0
    at error ``psi``.
    """

    base: tuple[float, float, float] = (0.0, 0.0, 0.0)
    r_mid: float = 0.4
    r_half: float = 0.15
    slope: float = 2.0
    psi: float = 0.4

    def error(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        d = np.sqrt(np.sum((p - np.asarray(self.base)) ** 2, axis=-1))
        return np.maximum(0.0, np.abs(d - self.r_mid) - self.r_half) * self.slope

    def score(self, points) -> np.ndarray:
        return np.maximum(0.0, self.psi - self.error(points)) / self.psi


def build_reachability(workspace: Workspace, model: ReachabilityModel) -> ScalarField:
    """Precompute the reachability score on the workspace grid (done once
    per robot/workspace pair)."""
    pts = workspace.grid_points()
    return workspace.make_field(model.score(pts), outside_value=0.0)
