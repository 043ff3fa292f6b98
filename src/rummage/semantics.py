"""Semantic point clouds, the probabilistic contact sensor model, voxel
downsampling, and merging of observations across steps."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import ParticleSet, Pose, Shape, object_origins, pairs_within, pose_groups, rigid_transform, support_radius

R_FREE = 0.010  # downsampling cell of free space, meters
R_SURF = 0.002  # downsampling cell of surface and occupied points, meters


class Semantics(enum.IntEnum):
    FREE = 0
    OCCUPIED = 1
    SURFACE = 2


_CLASS_ORDER = (Semantics.FREE, Semantics.OCCUPIED, Semantics.SURFACE)


@dataclass
class SemanticCloud:
    """Labeled world-frame points, partitioned by semantics.

    Storage preserves insertion order across the whole cloud; the per-class
    accessors are disjoint, exhaustive views of it.  Treat instances as
    immutable snapshots: every operation returns a new cloud.
    """

    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.int8).reshape(-1)
        if len(self.positions) != len(self.labels):
            raise ValueError("positions and labels length mismatch")

    @staticmethod
    def from_parts(free=None, occupied=None, surface=None) -> "SemanticCloud":
        chunks, labs = [], []
        for pts, sem in ((free, Semantics.FREE), (occupied, Semantics.OCCUPIED), (surface, Semantics.SURFACE)):
            if pts is not None and len(pts):
                a = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
                chunks.append(a)
                labs.append(np.full(len(a), int(sem), dtype=np.int8))
        if not chunks:
            return SemanticCloud()
        return SemanticCloud(np.concatenate(chunks), np.concatenate(labs))

    def __len__(self) -> int:
        return len(self.positions)

    def class_positions(self, sem: Semantics) -> np.ndarray:
        return self.positions[self.labels == int(sem)]

    @property
    def free(self) -> np.ndarray:
        return self.class_positions(Semantics.FREE)

    @property
    def occupied(self) -> np.ndarray:
        return self.class_positions(Semantics.OCCUPIED)

    @property
    def surface(self) -> np.ndarray:
        return self.class_positions(Semantics.SURFACE)

    def extend(self, other: "SemanticCloud") -> "SemanticCloud":
        """Union preserving insertion order: self's points first, then other's."""
        if len(other) == 0:
            return SemanticCloud(self.positions.copy(), self.labels.copy())
        if len(self) == 0:
            return SemanticCloud(other.positions.copy(), other.labels.copy())
        return SemanticCloud(
            np.concatenate([self.positions, other.positions]),
            np.concatenate([self.labels, other.labels]),
        )


@dataclass(frozen=True)
class SensorModel:
    """Probability of observing each semantics class given a signed distance.

    ``zeta`` is a contact-bias tolerance (meters): distances within it are
    treated as on-surface.  ``alpha`` controls how fast free/occupied
    certainty grows with distance (1/meters).  The three class
    probabilities sum to one for every input by construction.
    """

    alpha: float = 100.0
    zeta: float = 0.003

    def __post_init__(self):
        # a negative alpha would read surface probabilities above 1
        if not self.alpha >= 0:
            raise ValueError(f"sensor alpha must be at least 0, got {self.alpha!r}")

    def probabilities(self, v):
        """Return (p_free, p_occupied, p_surface) for sdf value(s) ``v``."""
        v = np.asarray(v, dtype=np.float64)
        # one exponential: e = exp(-alpha * max(0, |v| - zeta)) is the
        # surface probability, and the rest, 1 - e, goes to the side of the
        # surface v lies on (a NaN distance reads NaN in all three)
        p_surf = np.exp(-self.alpha * np.maximum(0.0, np.abs(v) - self.zeta))
        rest = np.maximum(0.0, 1.0 - p_surf)
        return np.where(v <= 0, 0.0, rest), np.where(v > 0, 0.0, rest), p_surf


def grid_cells(points: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells of grids with cell side ``r``, one grid per row of a
    (B, n, 3) point stack, as ``(rows, centers)``: each cell once, ordered
    by row and then in grid scan order (sorted cell indices), so a
    ``np.bincount`` over ``rows`` adds each row's cells in that order.

    A row's grid is anchored so the minimum corner of its point extent is
    the center of its first cell, which makes downsampling idempotent.
    Cells are told apart by packed int64 keys (row, then the three cell
    indices); a point extent too wide for them raises ``ValueError``.  The
    keys are sorted, repeats dropped, and row and cell decoded back out of
    each key, which gives ``np.unique``'s cells without its index sort.
    A stack of no points has no cells.
    """
    if not r > 0:
        raise ValueError("cell side must be positive")
    B, n, _ = points.shape
    if B * n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 3))
    # one coordinate axis per contiguous row: the min and the per-row
    # shift run along rows (a min is exact in any order)
    f = points.transpose(0, 2, 1).copy()
    anchors = f.min(axis=2) - 0.5 * r
    f -= anchors[:, :, None]
    f /= r
    # the anchored coordinates are non-negative, so the cast's truncation
    # is their floor
    idx = f.astype(np.int64)
    del f
    span = int(idx.max()) + 2
    if B * span**3 > 2**63:
        raise ValueError(f"{span} cells across at resolution {r} overflow the int64 cell keys")
    keys = np.arange(B, dtype=np.int64)[:, None] * span + idx[:, 0]
    for ax in (1, 2):
        keys *= span
        keys += idx[:, ax]
    del idx
    keys = keys.ravel()
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    rows = keys[keep]
    cells = np.empty((len(rows), 3), dtype=np.int64)
    for ax in (2, 1, 0):
        rows, cells[:, ax] = np.divmod(rows, span)
    centers = cells + 0.5
    centers *= r
    centers += anchors[rows]
    return rows, centers


def _downsample_positions(points: np.ndarray, r: float) -> np.ndarray:
    """Occupied-cell centers of one grid of cell side ``r`` (:func:`grid_cells`)."""
    return grid_cells(points[None], r)[1]


def voxel_downsample(cloud: SemanticCloud, r: float) -> SemanticCloud:
    """Downsample each semantics class on its own grid of resolution ``r``."""
    return SemanticCloud.from_parts(
        free=_downsample_positions(cloud.free, r),
        occupied=_downsample_positions(cloud.occupied, r),
        surface=_downsample_positions(cloud.surface, r),
    )


def merge_observations(
    prev: SemanticCloud,
    new: SemanticCloud,
    particles: ParticleSet,
    dT_w: Pose,
    shape: Shape,
) -> SemanticCloud:
    """Fold a new observation set into the accumulated one.

    Previous non-free points ride along with the estimated object motion
    ``dT_w``; previous free points stay where they are but are kept only if
    every pose particle still places them strictly outside the object.  The
    union with the new observations is voxel downsampled per class
    (:data:`R_FREE` for free space, :data:`R_SURF` for surface and occupied).
    """
    moved_occ = dT_w.transform(prev.occupied)
    moved_surf = dT_w.transform(prev.surface)

    # whether every pose places a point outside needs each distinct pose once
    c, s, t = particles.distinct()
    origins = object_origins(c, s, t)
    radius = support_radius(shape)

    def consistent_free(pts: np.ndarray) -> np.ndarray:
        # a point beyond the shape's support radius from a pose's origin is
        # strictly outside under that pose: only nearer pairs are evaluated
        keep = np.ones(len(pts), dtype=bool)
        ii, pp = pairs_within(pts, origins, radius)
        for _, _, start, end in pose_groups(ii, len(t)):
            p = pp[start:end]
            outside = shape.sdf(rigid_transform(c, s, t, pts[p], ii[start:end])) > 0.0
            keep[p[~outside]] = False
        return pts[keep]

    free_prev = consistent_free(prev.free)
    merged = SemanticCloud.from_parts(free=free_prev, occupied=moved_occ, surface=moved_surf).extend(new)
    # re-filter after downsampling: a cell center can fall inside a particle
    # even when the points that voted for the cell were outside
    free_ds = consistent_free(_downsample_positions(merged.free, R_FREE))
    occ_ds = _downsample_positions(merged.occupied, R_SURF)
    surf_ds = _downsample_positions(merged.surface, R_SURF)
    return SemanticCloud.from_parts(free=free_ds, occupied=occ_ds, surface=surf_ds)
