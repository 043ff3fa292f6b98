"""Planar rigid transforms, signed distance shapes, and interpolated scalar fields.

Conventions used throughout the package:

- A :class:`Pose` maps world coordinates into the object frame of an
  object lying on the table.  It is held as a translation ``t`` and a yaw,
  with ``c`` and ``s`` the yaw's ``cos`` and ``sin``:
  ``x' = c*x - s*y + tx``, ``y' = s*x + c*y + ty``, ``z' = z + tz``.  The
  inverse maps object points back to the world; its turn is the map by
  ``c`` and ``-s``.
- Every pose-by-point map goes through :func:`rigid_transform`, for one
  pose or a stack of them: the same operations for every pose, each
  coordinate summed left to right.
- Signed distances are negative strictly inside a shape, positive
  strictly outside, zero on the surface, in meters.
- Unions take the min of child distances.  Off the surface this is only
  a (sign-correct) lower bound on the true Euclidean distance; every
  consumer in this package only thresholds near zero, where the bound is
  tight.
- ``bounding_box()`` encloses every point with signed distance <= 0, and
  outside it the distance is at least the distance to the box, which is
  what :func:`support_radius` rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GRAD_EPS = 1e-12
IDENTITY_TOL = 1e-6  # meters of translation and radians of turn


def _as_points(p) -> tuple[np.ndarray, bool]:
    """Coerce to float64, returning (array of shape (..., 3), was_single)."""
    a = np.asarray(p, dtype=np.float64)
    if a.shape == (3,):
        return a[None, :], True
    return a, False


def rigid_transform(c, s, translations, points, pose_idx=None) -> np.ndarray:
    """The planar map ``x' = c*x - s*y + tx``, ``y' = s*x + c*y + ty``,
    ``z' = z + tz`` of points by one pose or by a stack of poses, ``c`` and
    ``s`` the ``cos`` and ``sin`` of each pose's yaw.

    - One pose ``c, s`` ``()`` and ``translations`` ``(3,)`` on points
      ``(..., 3)``, or on a point ``(3,)``.
    - A stack ``(N,), (N,), (N, 3)`` on points ``(M, 3)`` shared by every
      pose, or ``(N, M, 3)`` one set per pose: ``(N, M, 3)``.
    - A stack and ``pose_idx`` ``(K,)``: points ``(K, 3)``, each mapped by
      its own pose.

    ``translations=None`` turns only, with no sum.  The inverse turn
    ``R^T`` is the map by the same ``c`` and ``-s``.  Each output coordinate
    is summed left to right, the same operations for every pose, into an
    ``(..., 3)`` view of a ``(3, ...)`` buffer: each output coordinate is
    contiguous, which is what the shapes' ``sdf`` reads.
    """
    c, s = np.asarray(c, dtype=np.float64), np.asarray(s, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    single = p.ndim == 1
    p = p[None] if single else p
    one = c.ndim == 0

    def pick(a):  # per-pose values as they broadcast against the points
        return a if one else a[:, None] if pose_idx is None else a[pose_idx]

    # one gathered factor alive at a time, and each translation coordinate
    # gathered as it is added
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    f = pick(s)
    buf = np.empty((3,) + np.broadcast_shapes(y.shape, f.shape), dtype=np.float64)
    term = np.multiply(y, f)
    np.multiply(x, f, out=buf[1])
    del f
    f = pick(c)
    np.multiply(x, f, out=buf[0])
    buf[0] -= term
    buf[1] += np.multiply(y, f, out=term)
    del f
    np.copyto(buf[2], z)
    if translations is not None:
        for i, acc in enumerate(buf):
            acc += pick(translations[..., i])
    out = buf.transpose(*range(1, buf.ndim), 0)
    return out[..., 0, :] if single else out


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid world-to-object transform of an object lying on the table: a
    turn by ``yaw`` about z, then ``translation`` ``(3,)``, which carries
    the height offset in z (:func:`rigid_transform`)."""

    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        object.__setattr__(self, "yaw", float(self.yaw))

    @property
    def rotation(self) -> np.ndarray:
        """``Rz(yaw)`` as a read-only ``(3, 3)`` matrix.  The package does
        not read it; it stays because ``loopbench/checks.py`` maps points by
        it for its reference, apart from :func:`rigid_transform`."""
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        return _read_only([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), 0.0)

    @staticmethod
    def from_placement(center, yaw: float = 0.0) -> "Pose":
        """Pose of an object whose frame origin sits at ``center`` with the given yaw.

        Returns the world-to-object map of that placement, ``Rz(-yaw)`` and
        ``-Rz(-yaw) center``.
        """
        turn = -float(yaw)
        return Pose(-rigid_transform(np.cos(turn), np.sin(turn), None, center), turn)

    def compose(self, other: "Pose") -> "Pose":
        """``self`` after ``other``: ``(self * other)(x) = self(other(x))``."""
        return Pose(*compose_poses(self.translation, self.yaw, other.translation, other.yaw))

    def inverse(self) -> "Pose":
        return Pose(self.object_center_world(), -self.yaw)

    def transform(self, points):
        """Apply the map to one point ``(3,)`` or a batch ``(..., 3)``: :func:`rigid_transform`."""
        return rigid_transform(np.cos(self.yaw), np.sin(self.yaw), self.translation, points)

    def object_center_world(self) -> np.ndarray:
        """World position of the object-frame origin, ``-R^T t``."""
        return -rigid_transform(np.cos(self.yaw), -np.sin(self.yaw), None, self.translation)

    def placement_yaw(self) -> float:
        """Yaw of the object placement (rotation of the object frame in the
        world), in ``[-pi, pi]``."""
        return -math.remainder(self.yaw, 2.0 * math.pi)

    def rotation_angle(self) -> float:
        """Magnitude of the rotation, radians in [0, pi]."""
        return abs(math.remainder(self.yaw, 2.0 * math.pi))

    def is_identity(self) -> bool:
        return float(np.linalg.norm(self.translation)) <= IDENTITY_TOL and self.rotation_angle() <= IDENTITY_TOL


# ---------------------------------------------------------------------------
# Many poses against one point set
# ---------------------------------------------------------------------------

# (pose, point) pairs evaluated together: bounds the (pairs, 3) temporaries
PAIR_BUDGET = 1 << 16
# pose-by-point distance tests per chunk of the radius test
_TEST_BUDGET = 1 << 18


@dataclass(frozen=True, eq=False)
class ParticleSet:
    """Pose hypotheses with normalized weights, held as C-ordered read-only
    copies of the arrays passed: ``translations`` (N, 3), ``yaws`` (N,) and
    ``weights`` (N,), uniform by default.

    The distinct-pose index is built once per set: ``first`` holds the
    first row of each distinct pose (equal translation and yaw bytes), in
    order of first appearance, and ``inverse`` each row's place among them.
    A kernel that reads one pose at a time evaluates the ``first`` rows and
    gathers through ``inverse``, bit for bit as evaluating every row."""

    translations: np.ndarray
    yaws: np.ndarray
    weights: np.ndarray | None = None
    first: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t, yaws = _read_only(self.translations), _read_only(self.yaws)
        n = len(t)
        if n == 0 or t.shape != (n, 3) or yaws.shape != (n,):
            raise ValueError("a particle set needs N > 0 translations (N, 3) and yaws (N,)")
        w = _read_only(np.full(n, 1.0 / n) if self.weights is None else self.weights)
        if w.shape != (n,):
            raise ValueError("poses and weights length mismatch")
        rows = np.concatenate([t, yaws[:, None]], axis=1).view(np.int64)
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        for name, value in (("translations", t), ("yaws", yaws), ("weights", w),
                            ("first", first[order]), ("inverse", np.argsort(order)[inverse.ravel()])):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_poses(poses) -> "ParticleSet":
        """A set of :class:`Pose` objects, uniform weights."""
        poses = list(poses)
        return ParticleSet(np.stack([p.translation for p in poses]), np.array([p.yaw for p in poses]))

    @staticmethod
    def from_placements(centers, yaws) -> "ParticleSet":
        """Placements of an object at ``centers`` (N, 3) with placement
        ``yaws`` (N,), uniform weights: each row is
        :meth:`Pose.from_placement` of its center and yaw, bit for bit."""
        turns = -np.asarray(yaws, dtype=np.float64)
        return ParticleSet(-rigid_transform(np.cos(turns), np.sin(turns), None, centers, np.arange(len(turns))), turns)

    def __len__(self) -> int:
        return len(self.weights)

    def pose(self, i: int) -> Pose:
        return Pose(self.translations[i], self.yaws[i])

    @property
    def poses(self) -> list[Pose]:
        return [Pose(t, yaw) for t, yaw in zip(self.translations, self.yaws)]

    def distinct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct poses as :func:`rigid_transform` reads a stack: the
        ``cos`` and ``sin`` of their yaws and their translations."""
        yaws = self.yaws[self.first]
        return np.cos(yaws), np.sin(yaws), self.translations[self.first]

    def weighted_sum(self, rows: np.ndarray) -> np.ndarray:
        """``sum_i weights[i] * rows[inverse[i]]`` for ``rows`` of one value
        set per distinct pose, ``(distinct poses, ...)`` -> ``(...)``.

        Each particle's product is added in particle order onto 0.0, as the
        loop ``acc += w * row`` over the particles adds it: no BLAS call, so
        the bits depend neither on the library nor on where a value sits in
        the array."""
        acc = np.zeros(rows.shape[1:])
        term = np.empty_like(acc)
        for w, k in zip(self.weights.tolist(), self.inverse.tolist()):
            acc += np.multiply(rows[k], w, out=term)
        return acc

    def weighted_center(self) -> np.ndarray:
        """Weighted mean of the object origins in the world, by
        :meth:`weighted_sum` (so its bits do not depend on the layout the
        origins are computed in)."""
        return self.weighted_sum(object_origins(*self.distinct()))


def compose_poses(t1, yaw1, t2, yaw2) -> tuple[np.ndarray, np.ndarray]:
    """``(t1, yaw1)`` after ``(t2, yaw2)``, as :meth:`Pose.compose`: the
    yaws add, and ``t2`` turns by ``yaw1`` (:func:`rigid_transform` with no
    translation) before ``t1`` is added.  The left side is one pose
    ``(3,), ()``, or ``t1`` a stack ``(N, 3)``; the right side one pose or a
    stack ``(N, 3), (N,)``."""
    return rigid_transform(np.cos(yaw1), np.sin(yaw1), None, t2) + t1, yaw1 + yaw2


def world_gradients(shape, c, s, translations: np.ndarray, points: np.ndarray) -> np.ndarray:
    """World-frame distance gradients ``R^T grad(R x + t)`` of ``shape`` at
    world ``points`` (M, 3), placed by one pose, (M, 3), or by each pose
    of a stack, (N, M, 3); the inverse turn is the map by ``c`` and ``-s``."""
    obj = rigid_transform(c, s, translations, points)
    g = shape.gradient(obj.reshape(-1, 3)).reshape(obj.shape)
    return rigid_transform(c, -s, None, g)


def object_origins(c: np.ndarray, s: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """World positions (N, 3) of the object-frame origins of a pose stack,
    ``-R^T t``, each row as :meth:`Pose.object_center_world` makes it."""
    return -rigid_transform(c, -s, None, translations, np.arange(len(translations)))


def pairs_within(points: np.ndarray, origins: np.ndarray, radius: float, always=None) -> tuple[np.ndarray, np.ndarray]:
    """The (pose, point) pairs whose point lies within ``radius`` of the
    pose's origin, or is flagged in ``always``.

    Returns ``(pose_idx, point_idx)``, pose-major and in point order within
    a pose.  The test errs toward keeping pairs: the radius gets a relative
    slack of 1e-9 and the expanded squared distance an absolute one for its
    rounding, and a NaN distance keeps the pair.  An infinite radius keeps
    every pair.  Distances are tested a chunk of poses at a time.
    """
    n, m = len(origins), len(points)
    if n == 0 or m == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    sq_pts = np.einsum("ij,ij->i", points, points)
    sq_orig = np.einsum("ij,ij->i", origins, origins)
    limit2 = (radius * (1.0 + 1e-9)) ** 2 + 1e-12 * (float(sq_pts.max()) + float(sq_orig.max()))
    rows = max(1, _TEST_BUDGET // m)
    pose_idx, point_idx = [], []
    for lo in range(0, n, rows):
        d2 = origins[lo:lo + rows] @ points.T
        d2 *= -2.0
        d2 += sq_orig[lo:lo + rows, None]
        d2 += sq_pts
        live = ~(d2 > limit2)
        if always is not None:
            live[:, always] = True
        ii, pp = np.nonzero(live)
        pose_idx.append(ii + lo)
        point_idx.append(pp)
    return np.concatenate(pose_idx), np.concatenate(point_idx)


# points evaluated together by :func:`blockwise`
POINT_BLOCK = 8192


def blockwise(fn, points: np.ndarray) -> np.ndarray:
    """``fn`` of an ``(n, 3)`` point array with one value per point,
    evaluated :data:`POINT_BLOCK` points at a time.  For a function that
    treats each point on its own this equals ``fn(points)``; the blocks keep
    its temporaries small, which is faster on large point sets."""
    if len(points) <= POINT_BLOCK:
        return fn(points)
    out = np.empty(len(points))
    for lo in range(0, len(points), POINT_BLOCK):
        out[lo:lo + POINT_BLOCK] = fn(points[lo:lo + POINT_BLOCK])
    return out


def pose_groups(pose_idx: np.ndarray, n: int):
    """Split pose-major pairs into runs of whole poses of about
    :data:`PAIR_BUDGET` pairs: yields ``(lo, hi, start, end)`` for poses
    ``[lo, hi)`` and pairs ``[start, end)`` (a pose with more pairs than the
    budget gets a run of its own; runs without pairs are skipped)."""
    ends = np.cumsum(np.bincount(pose_idx, minlength=n))
    lo, start = 0, 0
    while lo < n:
        hi = min(n, max(lo + 1, int(np.searchsorted(ends, start + PAIR_BUDGET, side="right"))))
        end = int(ends[hi - 1])
        if end > start:
            yield lo, hi, start, end
        lo, start = hi, end


def _normalize_rows(g: np.ndarray) -> np.ndarray:
    n = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2 + g[..., 2] ** 2)
    bad = n < _GRAD_EPS
    if np.any(bad):
        g = g.copy()
        g[bad] = (1.0, 0.0, 0.0)  # deterministic subgradient at degenerate points
        n = np.where(bad, 1.0, n)
    return g / n[..., None]


# ---------------------------------------------------------------------------
# 2D profiles for extrusion
# ---------------------------------------------------------------------------


def _planar_norm(x, y) -> np.ndarray:
    """``np.sqrt(x**2 + y**2)`` in a new array, with one temporary."""
    d = np.square(x)
    d += np.square(y)
    return np.sqrt(d, out=d)


def _box_distance(*q: np.ndarray) -> np.ndarray:
    """``sqrt(max(q0, 0)**2 + max(q1, 0)**2 + ...) + min(max(q0, q1, ...), 0)``,
    the distance to a box from the per-axis excesses ``q``, evaluated with
    the same operations in the same order as that formula but in place:
    the ``q`` arrays are overwritten and the first one is returned."""
    inside = np.maximum(q[0], q[1])
    for qi in q[2:]:
        np.maximum(inside, qi, out=inside)
    np.minimum(inside, 0.0, out=inside)
    out = q[0]
    for i, qi in enumerate(q):
        np.maximum(qi, 0.0, out=qi)
        np.square(qi, out=qi)
        if i:
            out += qi
    np.sqrt(out, out=out)
    out += inside
    return out


@dataclass(frozen=True)
class Circle2D:
    radius: float

    def sdf(self, x, y):
        d = _planar_norm(x, y)
        d -= self.radius
        return d

    def gradient(self, x, y):
        r = np.sqrt(x**2 + y**2)
        safe = np.maximum(r, _GRAD_EPS)
        gx, gy = x / safe, y / safe
        deg = r < _GRAD_EPS
        gx = np.where(deg, 1.0, gx)
        gy = np.where(deg, 0.0, gy)
        return gx, gy

    def bounds(self):
        r = self.radius
        return (-r, -r), (r, r)


@dataclass(frozen=True)
class Annulus2D:
    """Ring between two concentric circles: exact 2D distance."""

    outer_radius: float
    inner_radius: float

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError("annulus requires 0 < inner_radius < outer_radius")

    @property
    def mid_radius(self):
        return 0.5 * (self.outer_radius + self.inner_radius)

    @property
    def half_width(self):
        return 0.5 * (self.outer_radius - self.inner_radius)

    def sdf(self, x, y):
        d = _planar_norm(x, y)
        d -= self.mid_radius
        np.abs(d, out=d)
        d -= self.half_width
        return d

    def gradient(self, x, y):
        r = np.sqrt(x**2 + y**2)
        safe = np.maximum(r, _GRAD_EPS)
        s = np.where(r >= self.mid_radius, 1.0, -1.0)
        gx, gy = s * x / safe, s * y / safe
        deg = r < _GRAD_EPS
        gx = np.where(deg, -1.0, gx)  # at the center, distance decreases outward
        gy = np.where(deg, 0.0, gy)
        return gx, gy

    def bounds(self):
        r = self.outer_radius
        return (-r, -r), (r, r)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def _box_radius(box) -> float:
    lo, hi = box
    return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))


def support_radius(shape) -> float:
    """Radius about the frame origin beyond which the signed distance is at
    least the distance past the radius (so strictly positive): the farthest
    corner of ``shape.bounding_box()``.

    Outside its box a shape reads at least its distance to the box, and so
    at least its distance to any box that encloses that one, such as the
    ball of this radius.  That holds for unions and transformed shapes as
    for primitives, and for any object that exposes a ``bounding_box``."""
    return _box_radius(shape.bounding_box())


class Shape:
    """Base class: closed signed-distance description with a bounding box."""

    def sdf(self, points):
        raise NotImplementedError

    def gradient(self, points):
        """Unit-norm direction of increasing distance (analytic, deterministic ties)."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def characteristic_length(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def _pts(self, points):
        return _as_points(points)

    def _ret(self, v, single):
        return float(v[0]) if single else v

    def _retg(self, g, single):
        return g[0] if single else g


@dataclass(frozen=True)
class Sphere(Shape):
    radius: float

    def sdf(self, points):
        p, single = self._pts(points)
        v = np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2) - self.radius
        return self._ret(v, single)

    def gradient(self, points):
        p, single = self._pts(points)
        return self._retg(_normalize_rows(p.copy()), single)

    def bounding_box(self):
        r = self.radius
        return np.full(3, -r), np.full(3, r)


@dataclass(frozen=True)
class Box(Shape):
    half_extents: tuple[float, float, float]

    def sdf(self, points):
        p, single = self._pts(points)
        q = []
        for i, h in enumerate(self.half_extents):
            qi = np.abs(p[..., i])
            qi -= h
            q.append(qi)
        return self._ret(_box_distance(*q), single)

    def gradient(self, points):
        p, single = self._pts(points)
        h = self.half_extents
        q = np.stack([np.abs(p[..., i]) - h[i] for i in range(3)], axis=-1)
        sgn = np.where(p >= 0, 1.0, -1.0)
        out_mask = np.any(q > 0, axis=-1)
        qpos = np.maximum(q, 0.0)
        g_out = _normalize_rows(qpos * sgn)
        # inside: first axis of maximal q
        order = np.argmax(q, axis=-1)
        g_in = np.zeros_like(p)
        idx = np.indices(order.shape)
        g_in[(*idx, order)] = np.take_along_axis(sgn, order[..., None], axis=-1)[..., 0]
        g = np.where(out_mask[..., None], g_out, g_in)
        return self._retg(g, single)

    def bounding_box(self):
        h = np.asarray(self.half_extents, dtype=np.float64)
        return -h, h


@dataclass(frozen=True)
class Extrusion(Shape):
    """A 2D profile extruded symmetrically along z."""

    profile: object
    half_height: float

    def _wz(self, p):
        wz = np.abs(p[..., 2])
        wz -= self.half_height
        return wz

    def sdf(self, points):
        p, single = self._pts(points)
        # the profile's distances are a new array, which the kernel overwrites
        d2 = self.profile.sdf(p[..., 0], p[..., 1])
        return self._ret(_box_distance(d2, self._wz(p)), single)

    def gradient(self, points):
        p, single = self._pts(points)
        d2 = self.profile.sdf(p[..., 0], p[..., 1])
        gx, gy = self.profile.gradient(p[..., 0], p[..., 1])
        wz = self._wz(p)
        sz = np.where(p[..., 2] >= 0, 1.0, -1.0)
        a = np.maximum(d2, 0.0)
        b = np.maximum(wz, 0.0)
        g_out = np.stack([a * gx, a * gy, b * sz], axis=-1)
        g_out = _normalize_rows(g_out)
        in_profile = d2 >= wz  # ties: profile direction first
        g_in = np.stack(
            [np.where(in_profile, gx, 0.0), np.where(in_profile, gy, 0.0), np.where(in_profile, 0.0, sz)],
            axis=-1,
        )
        out_mask = (d2 > 0) | (wz > 0)
        g = np.where(out_mask[..., None], g_out, g_in)
        return self._retg(g, single)

    def bounding_box(self):
        (lx, ly), (hx, hy) = self.profile.bounds()
        return np.array([lx, ly, -self.half_height]), np.array([hx, hy, self.half_height])


def Cylinder(radius: float, half_height: float) -> Extrusion:
    """Axis-aligned (z) cylinder, exact distance."""
    return Extrusion(Circle2D(radius), half_height)


@dataclass(frozen=True)
class Union(Shape):
    """Min of the children's distances, every child evaluated at every point."""

    children: tuple[Shape, ...]

    def __init__(self, *children: Shape):
        object.__setattr__(self, "children", tuple(children))

    def sdf(self, points):
        p, single = self._pts(points)
        flat = p.reshape(-1, 3)
        v = self.children[0].sdf(flat)
        for c in self.children[1:]:
            v = np.minimum(v, c.sdf(flat))
        return self._ret(v.reshape(p.shape[:-1]), single)

    def gradient(self, points):
        """The gradient of the first child with the smallest distance (a
        NaN distance counts as smallest, as in ``np.argmin``), each child's
        gradient evaluated only at the points that pick it."""
        p, single = self._pts(points)
        flat = p.reshape(-1, 3)
        v = self.children[0].sdf(flat)
        pick = np.zeros(len(flat), dtype=np.intp)
        for k in range(1, len(self.children)):
            cv = self.children[k].sdf(flat)
            better = (cv < v) | (np.isnan(cv) & ~np.isnan(v))
            v[better] = cv[better]
            pick[better] = k
        g = np.empty(flat.shape, dtype=np.float64)
        for k, c in enumerate(self.children):
            rows = np.flatnonzero(pick == k)
            if len(rows):
                g[rows] = c.gradient(flat[rows])
        return self._retg(g.reshape(p.shape), single)

    def bounding_box(self):
        los, his = zip(*(c.bounding_box() for c in self.children))
        return np.min(np.stack(los), axis=0), np.max(np.stack(his), axis=0)


@dataclass(frozen=True)
class Transformed(Shape):
    """Child shape moved by ``offset`` in the parent frame:
    ``sdf(p) = child.sdf(p - offset)``, the gradient the child's there."""

    child: Shape
    offset: tuple[float, float, float]

    def _shifted(self, points) -> tuple[np.ndarray, bool]:
        """``points - offset``, coordinate-major as the children read it."""
        p, single = self._pts(points)
        buf = np.empty((3,) + p.shape[:-1], dtype=np.float64)
        for i, acc in enumerate(buf):
            np.subtract(p[..., i], self.offset[i], out=acc)
        return np.moveaxis(buf, 0, -1), single

    def sdf(self, points):
        q, single = self._shifted(points)
        return self._ret(self.child.sdf(q), single)

    def gradient(self, points):
        q, single = self._shifted(points)
        return self._retg(self.child.gradient(q), single)

    def bounding_box(self):
        lo, hi = self.child.bounding_box()
        return lo + self.offset, hi + self.offset


def translated(child: Shape, offset) -> Transformed:
    return Transformed(child, offset)


def mug_shape(
    outer_radius: float = 0.05,
    inner_radius: float = 0.042,
    height: float = 0.08,
    handle_size=(0.02, 0.015, 0.05),
) -> Shape:
    """Annular cup with a handle box attached at +x, desk scale."""
    body = Extrusion(Annulus2D(outer_radius, inner_radius), height / 2.0)
    hs = np.asarray(handle_size, dtype=np.float64) / 2.0
    handle = translated(Box((hs[0], hs[1], hs[2])), (outer_radius + hs[0], 0.0, 0.0))
    return Union(body, handle)


# ---------------------------------------------------------------------------
# Scalar fields and workspaces
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Dense axis-aligned voxel grid of node values with multilinear querying.

    A query exactly at a grid node returns the stored value; queries inside
    the grid interpolate the surrounding nodes (degenerate single-node axes
    contribute no interpolation weight); anything outside returns
    ``outside_value``.
    """

    origin: np.ndarray
    resolution: float
    values: np.ndarray
    outside_value: float = 0.0

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def node_positions(self) -> np.ndarray:
        axes = [self.origin[i] + self.resolution * np.arange(self.dims[i]) for i in range(3)]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        return np.stack([X, Y, Z], axis=-1).reshape(-1, 3)

    def query(self, points):
        p, single = _as_points(points)
        v = blockwise(self._interpolate, p.reshape(-1, 3)).reshape(p.shape[:-1])
        return float(v[0]) if single else v

    def _interpolate(self, p: np.ndarray) -> np.ndarray:
        """Values at points ``(n, 3)``: the grid's corners gathered through
        flat indices, then one linear level per axis with more than one
        node, the last such axis innermost."""
        eps = 1e-9
        dims = self.dims
        strides = (dims[1] * dims[2], dims[2], 1)
        # temporaries are updated in place: every rollout sub-move queries
        # the fields, most calls on a few hundred to a few thousand points
        inside = k = None  # k: flat index of the lowest corner
        levels = []
        for ax, n in enumerate(dims):
            u = (p[:, ax] - self.origin[ax]) / self.resolution
            within = u >= -eps
            within &= u <= n - 1 + eps
            if inside is None:
                inside = within
            else:
                inside &= within
            if n == 1:
                continue
            np.clip(u, 0.0, n - 1, out=u)
            i = np.minimum(u.astype(np.intp), n - 2)
            u -= i
            levels.append((u, strides[ax]))
            if strides[ax] != 1:
                i *= strides[ax]
            if k is None:
                k = i
            else:
                k += i
        if k is None:
            k = np.zeros(len(p), dtype=np.intp)
        # corners with the last live axis varying fastest, so that each
        # level combines neighbouring pairs, innermost axis first
        corners = [k]
        for _, step in levels:
            corners = [c for lo in corners for c in (lo, lo + step)]
        flat = np.ravel(self.values)
        v = [flat.take(c) for c in corners]
        for f, _ in reversed(levels):
            g = 1.0 - f
            for lo, hi in zip(v[::2], v[1::2]):
                lo *= g
                lo += f * hi
            v = v[::2]
        return np.where(inside, v[0], self.outside_value)


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned box sampled as a regular grid of query positions."""

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    resolution: float

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("workspace resolution must be positive")
        if len(self.bounds) != 3 or any(len(b) != 2 or not b[0] <= b[1] for b in self.bounds):
            raise ValueError(f"workspace bounds must be three (lo, hi) pairs with lo <= hi, got {self.bounds!r}")

    @property
    def counts(self) -> tuple[int, int, int]:
        out = []
        for lo, hi in self.bounds:
            extent = hi - lo
            out.append(int(math.floor(extent / self.resolution + 1e-9)) + 1)
        return tuple(out)

    def axes(self) -> list[np.ndarray]:
        return [
            self.bounds[i][0] + self.resolution * np.arange(self.counts[i]) for i in range(3)
        ]

    def grid_points(self) -> np.ndarray:
        """Row-major (x outer, z inner) grid positions, both boundary planes included."""
        X, Y, Z = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([X, Y, Z], axis=-1).reshape(-1, 3)

    def make_field(self, flat_values: np.ndarray, outside_value: float = 0.0) -> ScalarField:
        origin = np.array([b[0] for b in self.bounds])
        return ScalarField(
            origin=origin,
            resolution=self.resolution,
            values=np.asarray(flat_values, dtype=np.float64).reshape(self.counts),
            outside_value=outside_value,
        )

