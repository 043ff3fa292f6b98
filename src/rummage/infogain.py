"""Expected-information and reachability fields over a workspace.

The information value of querying a position is a reverse-KL surrogate:
the expected discrepancy a new observation there would add, averaged over
both the semantics the sensor could report and the pose particles.  (The
dropped log-normalizer ratio of the underlying posterior update has no
known error bound; the surrogate is used as-is.)  Positions where the
particles disagree about the signed distance score high; positions they
agree on score near zero.

Fields are evaluated at workspace grid nodes only and cached; downstream
consumers interpolate.  Every sum over particles is the sequential loop
``acc += w_i * value_i`` in particle order from 0.0, with no BLAS call
(:meth:`~rummage.geometry.ParticleSet.weighted_sum`), and the nodes are
taken a block of about :data:`~rummage.geometry.PAIR_BUDGET` (distinct
pose, node) pairs at a time, so a build holds, apart from its outputs, one
block's arrays whatever the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import DiscrepancyParams, _class_costs
from .geometry import PAIR_BUDGET, ParticleSet, ScalarField, Shape, Workspace, rigid_transform
from .semantics import Semantics, SensorModel


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

    def free_probability(self, p_free, points):
        """Renormalized free probability at points, given the raw ``p_free``
        field value there (the planner's contact search has just read it):
        each class value clipped at 0 and divided by the total of the three,
        a total of at most 0 taken as 1."""
        pf = np.maximum(p_free, 0.0)
        po = np.maximum(self.p_occ.query(points), 0.0)
        ps = np.maximum(self.p_surf.query(points), 0.0)
        total = pf + po + ps
        total = np.where(total <= 0, 1.0, total)
        return pf / total


def _free_ratio(pf, po, ps):
    """Renormalized free probability of node values; 0 where a value is
    negative or not finite, or the total is not positive."""
    total = pf + po + ps
    ok = (pf >= 0) & (po >= 0) & (ps >= 0) & (total > 0) & np.isfinite(total)
    return np.where(ok, pf / np.where(ok, total, 1.0), 0.0)


class FreeFloor:
    """Lower bound of the free probability near a planar position.

    ``at(xy)`` is at most the free probability that
    :meth:`InfoFields.free_probability` reads at any point within
    ``radius`` of ``(x, y)``, at any height.  An interpolated ratio
    ``sum w pf / sum w (pf + po + ps)`` of non-negative corner values is at
    least the smallest corner ratio (the mediant inequality), so the floor
    at a node is the smallest node ratio over a square window that holds the
    interpolation corners with positive weight (a corner of weight 0 adds
    nothing to finite fields) of every point within ``radius`` of any
    position rounding to that node, over all z layers, less a margin for
    rounding.
    Queries clip to the grid (the window of a boundary node covers the
    clipped corners of points beyond it) and points outside the fields read
    the outside values, which bound the floor too.
    """

    MARGIN = 1e-9
    SLACK = 1e-6

    def __init__(self, fields: InfoFields, radius: float):
        grid = fields.p_free
        ratio = _free_ratio(grid.values, fields.p_occ.values, fields.p_surf.values).min(axis=2)
        outside = _free_ratio(grid.outside_value, fields.p_occ.outside_value, fields.p_surf.outside_value)
        # Window half-width, in grid units per axis: a corner with positive
        # interpolation weight lies less than 1 node from its point's
        # clipped grid position, that at most rho = radius/res from the
        # query's clipped position (clipping shortens no distance), and that
        # at most 0.5 from the node it rounds to.  So a corner is fewer than
        # rho + 1.5 nodes off, at most ceil(rho + 0.5) whole nodes.
        # floor(rho + 0.5) + 1 equals that, and is one node more where
        # rho + 0.5 is an integer, where the strict bound would rest on exact
        # arithmetic; SLACK widens it also where rho + 0.5 falls just short
        # of an integer, far beyond the rounding of the grid coordinates.
        h = math.floor(radius / grid.resolution + 0.5 + self.SLACK) + 1
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


def _accumulate(
    particles: ParticleSet, shape: Shape, points: np.ndarray, sensor: SensorModel, disc: DiscrepancyParams
) -> np.ndarray:
    """Weighted sensor probabilities and expected class costs over particles:
    ``(6, M)`` rows ``p_free, p_occ, p_surf`` and the expected free,
    occupied and surface costs at the ``M`` points.

    The points are taken a block at a time, each block about
    :data:`~rummage.geometry.PAIR_BUDGET` (distinct pose, point) pairs:
    every distinct particle pose (:attr:`~rummage.geometry.ParticleSet.first`)
    is evaluated on the block in one call, and the six values are added over
    all particles by :meth:`~rummage.geometry.ParticleSet.weighted_sum`,
    sequentially in particle order (no BLAS call).  Apart from the output,
    memory is bounded by one block, whatever the number of points."""
    poses = particles.distinct()
    out = np.empty((6, len(points)))
    block = max(1, PAIR_BUDGET // len(particles.first))
    for lo in range(0, len(points), block):
        v = shape.sdf(rigid_transform(*poses, points[lo:lo + block]))
        rows = np.empty((len(v), 6, v.shape[1]))
        rows[:, 0], rows[:, 1], rows[:, 2] = sensor.probabilities(v)
        for sem in Semantics:
            rows[:, 3 + sem] = _class_costs(disc, v, int(sem))
        out[:, lo:lo + block] = particles.weighted_sum(rows)
    return out


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

    def __post_init__(self):
        if not self.psi > 0:
            raise ValueError(f"reachability psi must be positive, got {self.psi!r}")

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
