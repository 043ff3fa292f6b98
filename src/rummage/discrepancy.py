"""Semantic discrepancy cost between a pose hypothesis and labeled points.

Each observed point contributes a hinge (free/occupied) or absolute-value
(surface) penalty on the signed distance of its object-frame image.  The
total over a cloud is accumulated strictly left to right in the cloud's
insertion order, so appending a point to a cloud adds exactly its own cost
to the total (bitwise, not just approximately).

The per-point descent directions (:func:`_scaled_gradient`) are built from
the *normalized* distance gradient, so they are parallel to, but not equal
to, the analytic cost gradients; what is guaranteed (and tested) is that a
small step of a point against its direction does not increase its cost.

Costs, descent steps and refinement take a whole particle set and
evaluate it in one pass per descent iteration: the (pose, point) pairs are
stacked, one ``shape.sdf`` and one ``shape.gradient`` call cover them, and
per-pose sums are sequential in cloud order (``np.bincount`` adds in index
order), so a batch gives bit for bit what each pose gives alone.

Cull invariant: a free point farther from a pose's object origin than the
shape's support radius plus ``max(epsilon, 0)`` has signed distance of at
least ``epsilon``, so its cost and its descent direction are exactly zero;
such pairs are dropped before the distance is evaluated.  Dropping an
exact 0.0 from a sequential sum leaves the sum unchanged.  The support
radius is the farthest corner of the shape's bounding box
(:func:`~rummage.geometry.support_radius`); it rests on the contract that
``bounding_box()`` encloses every point with sdf <= 0 and that the distance
outside it is at least the distance to the box.  So the costs a refinement
pass sums, over its own pairs, are the costs :func:`discrepancies` sums, and
:func:`refine_pose` returns them with the poses rather than leaving them to
be evaluated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ParticleSet,
    Pose,
    Shape,
    object_origins,
    pairs_within,
    pose_groups,
    rigid_transform,
    support_radius,
)
from .semantics import SemanticCloud, Semantics


@dataclass(frozen=True)
class DiscrepancyParams:
    """sigma_f scales free/occupied violations; epsilon (meters) tolerates
    small interior violations (default 0: exact sign constraints)."""

    sigma_f: float = 10.0
    epsilon: float = 0.0


def _class_costs(params: DiscrepancyParams, v: np.ndarray, sem: int) -> np.ndarray:
    if sem == int(Semantics.FREE):
        return params.sigma_f * np.maximum(0.0, params.epsilon - v)
    if sem == int(Semantics.OCCUPIED):
        return params.sigma_f * np.maximum(0.0, params.epsilon + v)
    return np.abs(v)


def _costs(params: DiscrepancyParams, v: np.ndarray, labels: np.ndarray) -> np.ndarray:
    costs = np.empty(len(v), dtype=np.float64)
    for sem in (Semantics.FREE, Semantics.OCCUPIED, Semantics.SURFACE):
        mask = labels == int(sem)
        if mask.any():
            costs[mask] = _class_costs(params, v[mask], int(sem))
    return costs


class _CloudKernel:
    """Evaluates one cloud against stacks of poses, one pass per call.

    Lists the (pose, point) pairs that can cost: free points farther than
    the cull radius from a pose's origin are left out.  A refinement moves
    each origin by at most the sum of its step caps (``travel``), so the
    pairs within the radius plus that travel of the first origins are
    listed once and every pass keeps those within the radius of the current
    origins; an origin that strays farther gets its pairs listed again.

    The listed pairs are pose-major, so a pass reads each origin once per
    run of its pairs (``np.repeat`` over the listing's run lengths) and the
    cloud through ``take`` on one contiguous copy per axis, made once per
    kernel: no per-pair gather of a strided row, and no per-pair
    coordinates kept between passes.
    """

    def __init__(self, params: DiscrepancyParams, shape: Shape, cloud: SemanticCloud, travel: float = 0.0):
        self.params = params
        self.shape = shape
        self.points = cloud.positions
        self.labels = cloud.labels
        self.always = cloud.labels != int(Semantics.FREE)
        self.radius = support_radius(shape) + max(params.epsilon, 0.0)
        self.travel = travel * (1.0 + 1e-6)
        self._axes = [np.ascontiguousarray(self.points[:, j]) for j in range(3)]
        self._origins = None
        self._pairs = None
        self._runs = None

    def _live(self, c: np.ndarray, s: np.ndarray, translations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        origins = object_origins(c, s, translations)
        if self._origins is None or np.any(np.sum((origins - self._origins) ** 2, axis=1) > self.travel**2):
            self._origins = origins
            self._pairs = pairs_within(self.points, origins, self.radius + self.travel, self.always)
            self._runs = np.bincount(self._pairs[0], minlength=len(origins))
        ii, pp = self._pairs
        if self.travel > 0.0 and math.isfinite(self.radius):
            # column by column: no (pairs, 3) temporaries at set-up's peak
            d2 = np.zeros(len(pp))
            for j in range(3):
                diff = self._axes[j].take(pp)
                diff -= np.repeat(origins[:, j], self._runs)
                d2 += np.square(diff, out=diff)
            keep = ~(d2 > (self.radius * (1.0 + 1e-9)) ** 2)
            keep |= self.always.take(pp)
            ii, pp = ii[keep], pp[keep]
        return ii, pp

    def passes(self, c: np.ndarray, s: np.ndarray, translations: np.ndarray):
        """Yield ``(lo, hi, pose_idx, x_obj, labels, v, costs)`` for runs of
        whole poses ``[lo, hi)`` of a stack (:func:`rigid_transform`'s
        ``c, s, translations``); ``pose_idx`` counts from ``lo``."""
        ii, pp = self._live(c, s, translations)
        for lo, hi, start, end in pose_groups(ii, len(translations)):
            i, p = ii[start:end], pp[start:end]
            x_obj = rigid_transform(c, s, translations, self.points[p], i)
            labels = self.labels[p]
            v = self.shape.sdf(x_obj)
            yield lo, hi, i - lo, x_obj, labels, v, _costs(self.params, v, labels)

    def totals(self, c: np.ndarray, s: np.ndarray, translations: np.ndarray) -> np.ndarray:
        out = np.zeros(len(translations))
        for lo, hi, ii, _, _, _, costs in self.passes(c, s, translations):
            out[lo:hi] = np.bincount(ii, weights=costs, minlength=hi - lo)
        return out

    def descent_steps(self, translations: np.ndarray, yaws: np.ndarray, step_t: float, step_r: float):
        """One planar descent step for every pose of a stack, as
        ``(translations, yaws, costs)``: the costs are at the incoming poses
        (from the same distance evaluation, so refinement needs one pass
        per step)."""
        n = len(yaws)
        cost = np.zeros(n)
        count = np.zeros(n, dtype=np.intp)
        dir_sum = np.zeros((n, 2))
        torque_sum = np.zeros(n)
        lever_sq = np.zeros(n)
        for lo, hi, ii, x_obj, labels, v, costs in self.passes(np.cos(yaws), np.sin(yaws), translations):
            m = hi - lo
            cost[lo:hi] = np.bincount(ii, weights=costs, minlength=m)
            # aggregate over active points only: satisfied points carry no
            # error signal and would otherwise dilute the step magnitude
            active = costs > 0
            if not active.any():
                continue
            ia = ii[active]
            x_act = x_obj[active]
            d_act = _scaled_gradient(self.shape, x_act, labels[active], costs[active], v[active])
            for j in range(2):
                dir_sum[lo:hi, j] = np.bincount(ia, weights=d_act[:, j], minlength=m)
            # the z component of x cross d, the only torque a yaw step reads
            torque = x_act[:, 0] * d_act[:, 1]
            torque -= x_act[:, 1] * d_act[:, 0]
            torque_sum[lo:hi] = np.bincount(ia, weights=torque, minlength=m)
            k = np.bincount(ia, minlength=m)
            count[lo:hi] = k
            # each pose's np.mean over its own active points: np.mean adds
            # 0.0 and the pairwise sum of the run, and reduceat over the run
            # behind a 0.0 adds exactly that
            lever = np.sum(x_act**2, axis=-1)
            some = np.flatnonzero(k)
            starts = (np.cumsum(k) - k)[some]
            sums = np.add.reduceat(np.insert(lever, starts, 0.0), starts + np.arange(len(starts)))
            lever_sq[lo + some] = sums / k[some]

        # bincount adds in index order: the sequential column sums of a
        # lone pose's mean(axis=0)
        g_mean = dir_sum / np.maximum(count, 1)[:, None]
        torque = torque_sum / np.maximum(count, 1) / np.maximum(lever_sq, 1e-12)
        return (*_step_poses(translations, yaws, g_mean, torque, step_t, step_r), cost)


def discrepancies(params: DiscrepancyParams, shape: Shape, cloud: SemanticCloud, particles: ParticleSet) -> np.ndarray:
    """Total discrepancy of each pose of a set, each accumulated
    sequentially in the cloud's storage order.  Each distinct pose is
    evaluated once (a pose's total does not depend on the others)."""
    if len(cloud) == 0:
        return np.zeros(len(particles))
    return _CloudKernel(params, shape, cloud).totals(*particles.distinct())[particles.inverse]


def total_discrepancy(params: DiscrepancyParams, shape: Shape, cloud: SemanticCloud, T: Pose) -> float:
    """Sum of point costs, accumulated sequentially in storage order."""
    return float(discrepancies(params, shape, cloud, ParticleSet.from_poses([T]))[0])


def _scaled_gradient(shape: Shape, x_act, labels, costs, v) -> np.ndarray:
    """Per-point ascent directions of the cost at object-frame points whose
    cost is active: the unit distance gradient scaled by the negated cost
    (free points), the cost (occupied) or the signed distance (surface)."""
    g = shape.gradient(x_act)
    scale = np.where(
        labels == int(Semantics.FREE),
        -costs,
        np.where(labels == int(Semantics.OCCUPIED), costs, v),
    )
    return scale[:, None] * g


@dataclass(frozen=True)
class DescentSchedule:
    """Per-iteration caps on the pose update.

    ``step_t`` caps the translation moved per step (meters) and ``step_r``
    the rotation (radians); both shrink by ``decay`` each iteration.  The
    update direction itself is the error-scaled aggregate of the point
    directions, so steps shorter than the cap take the full estimate.
    """

    step_t: float = 1e-2
    step_r: float = 1e-1
    decay: float = 0.9


def _clamp_norms(vecs: np.ndarray, cap: float) -> np.ndarray:
    """Rows ``(n, 2)`` longer than ``cap`` (and not shorter than 1e-15)
    scaled to ``cap``; the norms are ``sqrt(x*x + y*y)``."""
    n = np.sqrt(vecs[:, 0] * vecs[:, 0] + vecs[:, 1] * vecs[:, 1])
    over = ~((n <= cap) | (n < 1e-15))
    out = vecs.copy()
    out[over] *= (cap / n[over])[:, None]
    return out


def _step_poses(t: np.ndarray, yaws: np.ndarray, g_mean: np.ndarray, torque: np.ndarray, step_t: float, step_r: float):
    """Move each pose of a stack against its mean point direction ``(n, 2)``
    in x and y and its lever-normalized mean z torque ``(n,)`` (a turn about
    the object origin), each clamped to its cap: the translation steps by
    the clamped direction, then the yaw drops by the clamped torque and the
    translation turns with it (``Rz(-turn)``), so the origin moves by the
    clamped direction only.  A pose with both zero keeps its yaw and
    translation (up to the sign of a zero coordinate)."""
    turn = np.clip(torque, -step_r, step_r)
    moved = t.copy()
    moved[:, :2] -= _clamp_norms(g_mean, step_t)
    return rigid_transform(np.cos(-turn), np.sin(-turn), None, moved, np.arange(len(moved))), yaws - turn


def refine_pose(
    params: DiscrepancyParams,
    shape: Shape,
    cloud: SemanticCloud,
    T: ParticleSet,
    steps: int,
    schedule: DescentSchedule = DescentSchedule(),
) -> tuple[ParticleSet, np.ndarray]:
    """Run ``steps`` planar descent iterations with a decaying step cap,
    keeping the best iterate seen (descent is not monotone on hard
    instances).  The set is refined in one batched pass per iteration and
    comes back with the same weights, each pose refined exactly as it
    would be alone.

    Returns ``(refined set, costs)``: the costs are the returned poses'
    total discrepancies against ``cloud``, from the passes that chose
    them, and equal :func:`discrepancies` of the refined set bit for bit:
    the two list different pairs only among the free points beyond the
    cull radius, whose costs are exact zeros, and each pose's sum adds the
    other costs in cloud order onto 0.0.  With no steps the set comes back
    as it is, with one pass for its costs.
    """
    if steps <= 0 or len(cloud) == 0:
        return T, discrepancies(params, shape, cloud, T)
    caps = [schedule.step_t * schedule.decay**k for k in range(steps)]
    kernel = _CloudKernel(params, shape, cloud, travel=sum(caps))
    t, yaw = T.translations, T.yaws
    best_t, best_yaw, best_cost = t.copy(), yaw.copy(), None
    st, sr = schedule.step_t, schedule.step_r
    for _ in range(steps):
        next_t, next_yaw, cost_here = kernel.descent_steps(t, yaw, st, sr)
        if best_cost is None:
            best_cost = cost_here
        else:
            better = cost_here < best_cost
            best_t[better], best_yaw[better], best_cost[better] = t[better], yaw[better], cost_here[better]
        t, yaw = next_t, next_yaw
        st *= schedule.decay
        sr *= schedule.decay
    cost_here = kernel.totals(np.cos(yaw), np.sin(yaw), t)
    better = cost_here < best_cost
    best_t[better], best_yaw[better], best_cost[better] = t[better], yaw[better], cost_here[better]
    return ParticleSet(best_t, best_yaw, T.weights), best_cost
