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

import math
from dataclasses import dataclass, field

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
    _floors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def free_floor(self, radius: float) -> "FreeFloor":
        """The :class:`FreeFloor` for points within ``radius`` of a query,
        built once per radius and kept with the fields."""
        floor = self._floors.get(radius)
        if floor is None:
            floor = self._floors[radius] = FreeFloor(self, radius)
        return floor

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


def _free_ratio(pf, po, ps):
    """Renormalized free probability of node values; 0 where a value is
    negative or not finite, or the total is not positive."""
    total = pf + po + ps
    ok = (pf >= 0) & (po >= 0) & (ps >= 0) & (total > 0) & np.isfinite(total)
    return np.where(ok, pf / np.where(ok, total, 1.0), 0.0)


class FreeFloor:
    """Lower bound of the free probability near a planar position.

    ``at(xy)`` is at most the free probability that
    :meth:`InfoFields.class_probabilities` reads at any point within
    ``radius`` of ``(x, y)``, at any height.  An interpolated ratio
    ``sum w pf / sum w (pf + po + ps)`` of non-negative corner values is at
    least the smallest corner ratio (the mediant inequality), so the floor
    at a node is the smallest node ratio over a square window that holds the
    interpolation corners of every point within ``radius`` of any position
    rounding to that node, over all z layers, less a margin for rounding.
    Queries clip to the grid (the window of a boundary node covers the
    clipped corners of points beyond it) and points outside the fields read
    the outside values, which bound the floor too.
    """

    MARGIN = 1e-9

    def __init__(self, fields: InfoFields, radius: float):
        grid = fields.p_free
        ratio = _free_ratio(grid.values, fields.p_occ.values, fields.p_surf.values).min(axis=2)
        outside = _free_ratio(grid.outside_value, fields.p_occ.outside_value, fields.p_surf.outside_value)
        # a point's interpolation corners lie within 1 node of its clipped
        # grid position, that within radius/res of the query's clipped
        # position (clipping shortens no distance), and that within 0.5 of
        # the node it rounds to
        h = math.ceil(radius / grid.resolution + 1.5)
        window = 2 * h + 1
        padded = np.pad(ratio, h, constant_values=np.inf)
        low = np.lib.stride_tricks.sliding_window_view(padded, window, axis=0).min(axis=-1)
        low = np.lib.stride_tricks.sliding_window_view(low, window, axis=1).min(axis=-1)
        self.values = np.minimum(low, outside) - self.MARGIN
        self.origin = grid.origin[:2]
        self.resolution = grid.resolution

    def at(self, xy: np.ndarray) -> np.ndarray:
        """Floor at planar positions ``(n, 2)`` -> ``(n,)``."""
        u = (np.asarray(xy, dtype=np.float64) - self.origin) / self.resolution
        nx, ny = self.values.shape
        ix = np.rint(np.clip(u[:, 0], 0, nx - 1)).astype(np.intp)
        iy = np.rint(np.clip(u[:, 1], 0, ny - 1)).astype(np.intp)
        return self.values[ix, iy]


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
