"""Kernel-interpolated sampling MPC over the end-effector action space.

Candidate trajectories are sampled as perturbations of a small set of
control points, kernel-interpolated to the full horizon, rolled out through
a stochastic contact dynamics model, and softmax-combined by cost.  Two
costs drive exploration: the negated information gathered by the robot's
sensing points (in displaced-object-frame coordinates, downsampled so
loitering is not double counted) and a reachability ratio penalizing
trajectories that push informative regions out of the robot's reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PAIR_BUDGET, POINT_BLOCK, ParticleSet, ScalarField, Shape, Workspace, rigid_transform, world_gradients
from .infogain import InfoFields
from .semantics import grid_cells

POINT_PITCH = 0.01   # interior grid pitch of the paddle body
PAD_PITCH = 0.002    # pitch of the dense tactile pad on the +x face
SWEEP_CELL = 0.01    # side of the cells that de-duplicate a rollout's sweep
PUSH_ANGLE = math.radians(45.0)  # half-angle of the pushing cone about the contact normal
TRANSLATION_SCALE = 0.08  # meters of paddle travel at a translation control of 1
YAW_SCALE = 0.5      # radians of paddle turn at a yaw control of 1
KERNEL_SCALE = 2.0   # RBF length scale of the control-point interpolation, in steps


def to_physical(u: np.ndarray) -> np.ndarray:
    """Unit control values ``(..., 3)`` to a physical ``(dx, dy, dyaw)``."""
    return np.asarray(u, dtype=np.float64) * (TRANSLATION_SCALE, TRANSLATION_SCALE, YAW_SCALE)


def _placement(q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Configurations ``(3,)`` or ``(n, 3)`` as the ``cos``, ``sin`` and
    ``(x, y, 0)`` translations of :func:`rigid_transform`."""
    q = np.asarray(q, dtype=np.float64)
    t = q.copy()
    t[..., 2] = 0.0
    return np.cos(q[..., 2]), np.sin(q[..., 2]), t


@dataclass(frozen=True)
class PaddleRobot:
    """Planar paddle end effector.

    Interior points are a fixed-order grid over the body rectangle, in
    z = 0; the sensing subset is its column on the +x face.  A
    configuration ``(x, y, yaw)`` places them by the planar map
    :func:`~rummage.geometry.rigid_transform` of its yaw and ``(x, y, 0)``.
    """

    half_extents: tuple[float, float] = (0.01, 0.03)

    def __post_init__(self):
        if np.shape(self.half_extents) != (2,) or not all(h > 0 for h in self.half_extents):
            raise ValueError(f"robot half_extents must be two positive lengths, got {self.half_extents!r}")
        hx, hy = self.half_extents
        nx = max(2, int(round(2 * hx / POINT_PITCH)) + 1)
        ny = max(2, int(round(2 * hy / POINT_PITCH)) + 1)
        xs = np.linspace(-hx, hx, nx)
        ys = np.linspace(-hy, hy, ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=-1)
        object.__setattr__(self, "_body", grid)
        object.__setattr__(self, "_info", grid[:, 0] == xs[-1])
        # dense tactile pad on the +x face (observation only; the planner's
        # point sets stay at the coarse resolution)
        ns = max(2, int(round(2 * hy / PAD_PITCH)) + 1)
        pad = np.stack([np.full(ns, hx), np.linspace(-hy, hy, ns), np.zeros(ns)], axis=-1)
        object.__setattr__(self, "_pad", pad)

    @property
    def body_points(self) -> np.ndarray:
        return self._body

    @property
    def info_mask(self) -> np.ndarray:
        return self._info

    @property
    def pad_points(self) -> np.ndarray:
        return self._pad

    @property
    def body_radius(self) -> float:
        """Largest planar distance of a body point from the paddle origin."""
        return float(np.max(np.hypot(self._body[:, 0], self._body[:, 1])))

    def points_world(self, q) -> np.ndarray:
        """Interior points for a configuration ``(3,)`` -> ``(M, 3)``, or
        for a stack ``(n, 3)`` -> ``(n, M, 3)``."""
        return rigid_transform(*_placement(q), self.body_points)

    def body_point_world(self, q: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Interior point ``i[k]`` of configuration ``q[k]``, ``(n, 3)`` ->
        ``(n, 3)``: ``points_world(q)[arange(n), i]`` with one point
        placed per row."""
        return rigid_transform(*_placement(q), self.body_points[i], np.arange(len(i)))

    def info_points_world(self, q) -> np.ndarray:
        return rigid_transform(*_placement(q), self.body_points[self.info_mask])

    def pad_points_world(self, q) -> np.ndarray:
        """Dense sensing-pad points used by tactile observation."""
        return rigid_transform(*_placement(q), self.pad_points)


@dataclass(frozen=True)
class PlannerParams:
    horizon: int = 15
    control_points: int = 8
    samples: int = 500
    rollouts: int = 5
    mini_steps: int = 4
    replan_interval: int = 3
    temperature: float = 0.01
    noise_cov: float = 1.5          # isotropic covariance of control-point noise
    info_weight: float = 1.0
    reach_weight: float = 200.0
    warm_start_iters: int = 5
    opt_iters: int = 1              # optimization iterations per replan

    def __post_init__(self):
        for name in (
            "horizon", "control_points", "samples", "rollouts", "mini_steps", "replan_interval",
            "warm_start_iters", "opt_iters",
        ):
            if not getattr(self, name) >= 1:
                raise ValueError(f"planner {name} must be at least 1, got {getattr(self, name)!r}")
        if not self.temperature > 0:
            raise ValueError(f"planner temperature must be positive, got {self.temperature!r}")
        if not self.noise_cov >= 0:
            raise ValueError(f"planner noise_cov must not be negative, got {self.noise_cov!r}")
        for name in ("info_weight", "reach_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"planner {name} must be finite, got {getattr(self, name)!r}")
        if self.control_points > self.horizon:
            raise ValueError("control_points must not exceed horizon")


# ---------------------------------------------------------------------------
# Kernel interpolation
# ---------------------------------------------------------------------------


def kernel_value(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """RBF kernel between time coordinates, of length scale :data:`KERNEL_SCALE`."""
    d = np.abs(a[..., :, None] - b[..., None, :])
    return np.exp(-(d**2) / (2.0 * KERNEL_SCALE**2))


def control_times(H: int, H_c: int) -> np.ndarray:
    """Evenly spread control-point time coordinates, first 0 and last H-1."""
    return np.linspace(0.0, float(H - 1), H_c)


def interpolation_weights(times: np.ndarray, H: int, H_c: int) -> np.ndarray:
    """Weights W with ``u(times) = W @ theta``.

    Rows at (numerically) exact control times are snapped to unit rows so
    the interpolation property holds regardless of Gram conditioning; one
    iterative refinement step tightens the rest.
    """
    tc = control_times(H, H_c)
    K2 = kernel_value(tc, tc)
    Kt = kernel_value(np.asarray(times, dtype=np.float64), tc)
    try:
        X = np.linalg.solve(K2, Kt.T)
        R = Kt.T - K2 @ X
        X += np.linalg.solve(K2, R)
    except np.linalg.LinAlgError:
        K2r = K2 + 1e-9 * np.eye(H_c)
        try:
            X = np.linalg.solve(K2r, Kt.T)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("kernel Gram matrix singular even after regularization") from exc
    W = X.T
    for j, t in enumerate(tc):
        hit = np.abs(np.asarray(times) - t) < 1e-9
        if hit.any():
            W[hit] = 0.0
            W[hit, j] = 1.0
    return W


def kernel_interpolate(theta: np.ndarray, H: int) -> np.ndarray:
    """Expand control points ``(H_c, dim)`` to a full action sequence ``(H, dim)``."""
    theta = np.asarray(theta, dtype=np.float64)
    H_c = theta.shape[0]
    W = interpolation_weights(np.arange(H, dtype=np.float64), H, H_c)
    return W @ theta


# ---------------------------------------------------------------------------
# Stochastic contact dynamics
# ---------------------------------------------------------------------------


# cell keys pack into one int64 code at these many bits per axis
_CELL_BITS = 21
_CELL_HALF = 1 << (_CELL_BITS - 1)


def _cell_codes(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer-valued cell keys ``(n, 3)`` as int64 keys and as one int64
    code per key, ordered as the keys are lexicographically; every key must
    lie in ``[-2**20, 2**20)``."""
    if not np.all((cells >= -_CELL_HALF) & (cells < _CELL_HALF)):
        raise ValueError(f"normal cache cell keys must lie in [-{_CELL_HALF}, {_CELL_HALF})")
    keys = cells.astype(np.int64)
    k = keys + _CELL_HALF
    return keys, (k[:, 0] << (2 * _CELL_BITS)) | (k[:, 1] << _CELL_BITS) | k[:, 2]


@dataclass
class PlanningContext:
    """Immutable per-step snapshot the planner rolls out against.

    The rollout normals snap each query point to a cell of side half the
    field resolution: the exact belief-averaged normal is computed once per
    cell, at its center, and kept for the lifetime of the context (one
    planning step) as sorted cell codes with their normals.
    """

    fields: InfoFields
    particles: ParticleSet
    shape: Shape
    reach_table: "ReachTable | None" = None

    def __post_init__(self):
        self._cell = self.fields.info.resolution / 2.0
        self._codes = np.empty(0, dtype=np.int64)
        self._normals = np.empty((0, 3))
        self._poses = self.particles.distinct()
        # particle rows among the distinct poses; None when all are distinct
        self._inverse = self.particles.inverse if len(self.particles.first) < len(self.particles) else None

    def _exact_normals(self, points: np.ndarray) -> np.ndarray:
        """Weighted world-frame distance gradients at world points, the
        gradients evaluated once per distinct particle pose; the weighted
        sum runs over every particle in order, the rows gathered through the
        distinct-pose index."""
        world = world_gradients(self.shape, *self._poses, points)
        if self._inverse is not None:
            world = world[self._inverse]
        return np.einsum("n,nmi->mi", self.particles.weights, world)

    def weighted_normals(self, points: np.ndarray) -> np.ndarray:
        """Belief-averaged world-frame surface normals at world points: each
        point reads the normal at its cell's center.  Cells not cached yet
        are evaluated together, in order of first appearance."""
        keys, codes = _cell_codes(np.round(points / self._cell))
        slot = np.searchsorted(self._codes, codes)
        missing = slot == len(self._codes)
        missing[~missing] = self._codes[slot[~missing]] != codes[~missing]
        if missing.any():
            new, first = np.unique(codes[missing], return_index=True)
            order = np.argsort(first, kind="stable")
            normals = np.empty((len(new), 3))
            normals[order] = self._exact_normals(keys[missing][first[order]] * self._cell)
            at = np.searchsorted(self._codes, new)
            self._codes = np.insert(self._codes, at, new)
            self._normals = np.insert(self._normals, at, normals, axis=0)
            slot = np.searchsorted(self._codes, codes)
        return self._normals[slot]


def _contact_points(
    q_c: np.ndarray, d: np.ndarray, ctx: PlanningContext, robot: PaddleRobot
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Most contact-likely robot point of each row (lowest ``p_free`` in
    displaced-object-frame coordinates): its index, displaced-frame
    position, world position and the raw ``p_free`` field value read there.

    The search takes a block of rows at a time, so that their (rows, M)
    point sets stay about one block of points."""
    n = len(q_c)
    block = max(1, POINT_BLOCK // len(robot.body_points))
    i_star = np.empty(n, dtype=np.intp)
    x_i = np.empty((n, 3))
    p_star = np.empty((n, 3))
    pf = np.empty(n)
    for lo in range(0, n, block):
        pts_c = robot.points_world(q_c[lo:lo + block])      # (rows, M, 3)
        disp = pts_c - d[lo:lo + block, None, :]
        p_free = ctx.fields.p_free.query(disp)
        k = np.argmin(p_free, axis=1)
        rows = np.arange(len(k))
        i_star[lo:lo + block] = k
        x_i[lo:lo + block] = disp[rows, k]
        p_star[lo:lo + block] = pts_c[rows, k]
        pf[lo:lo + block] = p_free[rows, k]
    return i_star, x_i, p_star, pf


def _action_groups(actions: np.ndarray) -> np.ndarray:
    """Leader of each row of ``(B, H, 3)`` action sequences: the first row
    of its run of consecutive rows with bit-equal actions."""
    B = len(actions)
    bits = np.ascontiguousarray(actions, dtype=np.float64).reshape(B, -1).view(np.int64)
    starts = np.ones(B, dtype=bool)
    starts[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    return np.maximum.accumulate(np.where(starts, np.arange(B), 0))


def _rollout_batch(
    q0: np.ndarray,
    d0: np.ndarray,
    actions: np.ndarray,
    ctx: PlanningContext,
    robot: PaddleRobot,
    params: PlannerParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll out B action sequences (B, H, 3) -> configs (B, H, 3),
    displacements (B, H, 3) and each row's leader (B,), the lowest row of its
    group: rows that share a leader have bit-equal rollouts.

    Each action is split into ``mini_steps`` sequential sub-moves.  At every
    sub-move the most contact-likely robot point (in displaced-object-frame
    coordinates) samples its semantics from the cached class-probability
    fields; free moves pass, pushing contacts displace the object along with
    the robot, and non-pushing contacts block the robot in place.

    Each sub-move draws its uniforms first; a row is hit only where its draw
    is at least the fields' :class:`~rummage.infogain.FreeFloor` at the
    displaced paddle origin and at least the free probability at its contact
    point.  Below the floor every body point reads a larger free
    probability, so the row moves freely whichever point the search would
    pick; the results are those of searching every row.  The search's
    ``p_free`` value at the chosen point is read once and renormalized by
    :meth:`~rummage.infogain.InfoFields.free_probability`; a hit row's push
    direction transforms only its chosen body point.

    The search, the free probability and the push-or-block decision depend
    only on ``(q_c, d)``, so work is shared where those are bit-equal:

    - Consecutive rows with bit-equal actions that have had the same outcome
      at every sub-move are in one state and form a group, led by its
      lowest row.  A
      group is searched once, and its hit rows share one decision.  When
      its rows' outcomes differ, the rows whose outcome differs from the
      leader's form a new group.
    - A row blocked at a sub-move tries the same ``(q_c, d)`` at the next
      sub-move of the same action, so it is not searched again: it keeps
      its free probability and, if hit, is blocked again.  The wait ends at
      every action boundary.
    """
    B, H, _ = actions.shape
    q = np.tile(np.asarray(q0, dtype=np.float64), (B, 1))
    d = np.tile(np.asarray(d0, dtype=np.float64), (B, 1))
    q_traj = np.empty((B, H, 3))
    d_traj = np.empty((B, H, 3))
    cos_thresh = math.cos(PUSH_ANGLE)
    floor = ctx.fields.free_floor(robot.body_radius)
    lead = _action_groups(actions)
    fp = np.ones(B)             # each row's free probability at its contact point
    slot = np.empty(B, dtype=np.intp)
    d_step = np.empty((B, 3))   # each hit group leader's push direction
    pushes = np.zeros(B, dtype=bool)

    for t in range(H):
        u_phys = to_physical(np.clip(actions[:, t], -1.0, 1.0)) / params.mini_steps
        waiting = np.zeros(B, dtype=bool)
        for _ in range(params.mini_steps):
            q_c = q + u_phys  # free-space motion
            draw = rng.random(B)
            cand = draw >= floor.at((q_c - d)[:, :2])
            fresh = np.flatnonzero(cand & ~waiting)
            searched = np.zeros(B, dtype=bool)
            searched[lead[fresh]] = True
            s = np.flatnonzero(searched)
            i_star, x_i, p_star, pf_raw = _contact_points(q_c[s], d[s], ctx, robot)
            fp[s] = ctx.fields.free_probability(pf_raw, x_i)
            fp[fresh] = fp[lead[fresh]]
            hit = cand & (draw >= fp)
            if not hit.any():
                waiting[:] = False
                q = q_c
                continue
            # one push-or-block decision per group with a fresh hit; the
            # push direction is the motion of the corresponding interior point
            fresh_hit = hit & ~waiting
            decide = np.zeros(B, dtype=bool)
            decide[lead[fresh_hit]] = True
            g = np.flatnonzero(decide)
            slot[s] = np.arange(len(s))
            k = slot[g]
            d_prime = p_star[k] - robot.body_point_world(q[g], i_star[k])
            normals = ctx.weighted_normals(x_i[k])
            n_norm = np.linalg.norm(normals, axis=1)
            m_norm = np.linalg.norm(d_prime, axis=1)
            ok = (n_norm > 1e-12) & (m_norm > 1e-12)
            cos_angle = np.where(
                ok,
                np.einsum("ij,ij->i", normals, -d_prime) / np.maximum(n_norm * m_norm, 1e-300),
                -1.0,
            )
            pushes[g] = cos_angle > cos_thresh
            d_step[g] = d_prime
            # waiting rows that are hit again are blocked again
            pushing = fresh_hit & pushes[lead]
            push_rows = np.flatnonzero(pushing)
            d[push_rows] = d[push_rows] + d_step[lead[push_rows]]
            # blocked rows keep q and d
            waiting = hit & ~pushing
            blocked = np.flatnonzero(waiting)
            q_c[blocked] = q[blocked]
            q = q_c
            # rows whose outcome differs from their leader's form new groups
            split = np.flatnonzero(hit != hit[lead])
            if len(split):
                first = np.full(B, B)
                np.minimum.at(first, lead[split], split)
                lead[split] = first[lead[split]]
        q_traj[:, t] = q
        d_traj[:, t] = d
    return q_traj, d_traj, lead


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------


def batched_sweep_cost(
    q_traj: np.ndarray,
    d_traj: np.ndarray,
    info_field: ScalarField,
    robot: PaddleRobot,
    r_ds: float,
) -> np.ndarray:
    """Negated information over each rollout's deduplicated sweep: (B, H, 3)
    trajectories -> (B,).  The sensing points, shifted back by the object
    displacement at their time, count once per cell of a grid of side
    ``r_ds`` anchored at the rollout's own point extent (the field is read
    at the cell centers); see :func:`grid_cells`, which finds the cells by
    one sort of packed cell keys.  Each rollout's sum adds its cells in
    sorted-cell order.

    The rollouts are taken a block at a time, each block about
    :data:`~rummage.geometry.PAIR_BUDGET` sweep points, so memory is bounded
    by one block whatever ``B``; a rollout's cells, their order and its sum
    do not depend on the other rollouts, so the blocks change no value.
    """
    B, H, _ = q_traj.shape
    block = max(1, PAIR_BUDGET // (H * int(robot.info_mask.sum())))
    out = np.empty(B)
    for lo in range(0, B, block):
        q, d = q_traj[lo:lo + block], d_traj[lo:lo + block]
        n = len(q)
        pts = robot.info_points_world(q.reshape(-1, 3)).reshape(n, H, -1, 3)
        pts -= d[:, :, None, :]
        rows, centers = grid_cells(pts.reshape(n, -1, 3), r_ds)
        out[lo:lo + n] = -np.bincount(rows, weights=info_field.query(centers), minlength=n)
    return out


class ReachTable:
    """Cross-correlation cache for the reachability cost.

    For displacements that shift the information field rigidly, the
    reachable-information sum is a function of the shift alone; its values
    on the grid-shift lattice equal the discrete cross-correlation of the
    reachability and information grids, computed once per step with FFTs
    over the grid's axes.  The table is kept as a :class:`ScalarField` over
    the shifts ``[-(n-1), n-1]`` grid units per axis, so lookups between
    lattice shifts interpolate it multilinearly and shifts beyond it read 0.
    (Exact on the lattice; between lattice shifts it differs from the direct
    evaluation only through boundary cells, negligibly for interior fields.
    Rollout displacements are planar, so on fields with z layers every
    lookup falls on the zero z shift.)
    """

    def __init__(self, info_field: ScalarField, reach_field: ScalarField):
        I = info_field.values
        R = reach_field.values
        n = I.shape
        size = tuple(2 * k - 1 for k in n)
        # single-node axes correlate by the product alone
        axes = tuple(ax for ax in range(3) if n[ax] > 1)
        if axes:
            s = [size[ax] for ax in axes]
            FI = np.fft.rfftn(I, s=s, axes=axes)
            FR = np.fft.rfftn(R, s=s, axes=axes)
            corr = np.fft.irfftn(FR * np.conj(FI), s=s, axes=axes)
        else:
            corr = R * I
        # corr[k mod size] = sum_m R[m+k] I[m]; unwrap to k in [-(n-1), n-1]
        table = corr[np.ix_(*[np.arange(-(k - 1), k) % sz for k, sz in zip(n, size)])]
        res = info_field.resolution
        self.field = ScalarField(-res * (np.array(n) - 1.0), res, table, 0.0)
        self.total = float(I.sum())

    def reachable_info(self, shifts: np.ndarray) -> np.ndarray:
        """Reachable information for displacement shifts (..., 3)."""
        return self.field.query(shifts)

    def reach_cost_batch(self, displacement_traj: np.ndarray) -> np.ndarray:
        """(B, H, 3) displacement trajectories -> (B,) costs in [-1, 0]."""
        if self.total <= 0.0:
            return np.zeros(displacement_traj.shape[0])
        ri = self.reachable_info(displacement_traj).mean(axis=1)
        return -np.clip(ri / self.total, 0.0, 1.0)


def total_cost(info_c, reach_c, params: PlannerParams):
    return params.info_weight * np.asarray(info_c) + params.reach_weight * np.asarray(reach_c)


# ---------------------------------------------------------------------------
# Sampling MPC core
# ---------------------------------------------------------------------------


def mppi_update(
    theta: np.ndarray,
    cost_fn,
    params: PlannerParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One optimization iteration around the nominal control points.

    Samples Gaussian perturbations in control-point space, interpolates each
    to the horizon, evaluates ``cost_fn`` on the clamped action sequences,
    and returns the softmax-weighted combination plus the sample costs.
    """
    theta = np.asarray(theta, dtype=np.float64)
    H_c, dim = theta.shape
    eps = rng.normal(0.0, math.sqrt(params.noise_cov), size=(params.samples, H_c, dim))
    cand = theta[None] + eps
    W = interpolation_weights(np.arange(params.horizon, dtype=np.float64), params.horizon, H_c)
    actions = np.clip(np.einsum("ht,sta->sha", W, cand), -1.0, 1.0)
    costs = np.asarray(cost_fn(actions), dtype=np.float64)
    shifted = (costs - costs.min()) / params.temperature
    w = np.exp(-shifted)
    w = w / w.sum()
    theta_new = np.einsum("s,sta->ta", w, cand)
    return theta_new, costs


def make_rollout_cost(
    q0: np.ndarray,
    ctx: PlanningContext,
    robot: PaddleRobot,
    params: PlannerParams,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
):
    """Average stochastic-rollout cost of sampled action sequences.

    Each distinct rollout is scored once: rows that share a leader have the
    same trajectories, so they read its cost.  The reach cost reads
    ``ctx.reach_table``.  ``workspace`` is not read; it stays because the
    wrapper that ``loopbench/tracing.py`` puts around this function passes
    it positionally."""
    if ctx.reach_table is None and params.reach_weight != 0.0:
        raise ValueError("reach cost requires a reach table")

    def cost_fn(actions: np.ndarray) -> np.ndarray:
        S, H, dim = actions.shape
        R = params.rollouts
        rep = np.repeat(actions, R, axis=0)
        q_traj, d_traj, lead = _rollout_batch(
            np.asarray(q0, dtype=np.float64), np.zeros(3), rep, ctx, robot, params, rng
        )
        rows, of_row = np.unique(lead, return_inverse=True)
        q_traj, d_traj = q_traj[rows], d_traj[rows]
        info_c = batched_sweep_cost(q_traj, d_traj, ctx.fields.info, robot, SWEEP_CELL)
        if params.reach_weight != 0.0:
            reach_c = ctx.reach_table.reach_cost_batch(d_traj)
        else:
            reach_c = np.zeros(len(rows))
        per_rollout = total_cost(info_c, reach_c, params)[of_row]
        return per_rollout.reshape(S, R).mean(axis=1)

    return cost_fn


class Planner:
    """Stateful receding-horizon planner for episodes.

    Replans after ``replan_interval`` executed actions or when contact is
    reported; the first plan warm starts with several optimization
    iterations without executing.
    """

    def __init__(self, params: PlannerParams, robot: PaddleRobot):
        self.params = params
        self.robot = robot
        self.theta = np.zeros((params.control_points, 3))  # (x, y, yaw), as to_physical reads it
        self._queue: list[np.ndarray] = []
        self._executed_since_plan = 0
        self._planned_once = False
        self.trace: list[dict] = []

    def _shift_nominal(self, executed: int):
        if executed <= 0:
            return
        H, H_c = self.params.horizon, self.params.control_points
        ncp = max(1, int(round(executed * (H_c - 1) / max(H - 1, 1))))
        ncp = min(ncp, H_c)
        self.theta = np.vstack([self.theta[ncp:], np.zeros((ncp, self.theta.shape[1]))])

    def replan(self, q, ctx: PlanningContext, rng: np.random.Generator):
        self._shift_nominal(self._executed_since_plan)
        self._executed_since_plan = 0
        iters = self.params.warm_start_iters if not self._planned_once else self.params.opt_iters
        cost_fn = make_rollout_cost(np.asarray(q, dtype=np.float64), ctx, self.robot, self.params, rng)
        for it in range(iters):
            self.theta, costs = mppi_update(self.theta, cost_fn, self.params, rng)
            actions = np.clip(kernel_interpolate(self.theta, self.params.horizon), -1.0, 1.0)
            self.trace.append(
                {"iteration": len(self.trace), "costs": costs.copy(), "chosen_action": actions[0].copy()}
            )
        self._planned_once = True
        self._queue = [actions[t] for t in range(min(self.params.replan_interval, self.params.horizon))]

    def get_action(self, q, ctx: PlanningContext, rng: np.random.Generator, contact: bool = False) -> np.ndarray:
        if contact or not self._queue:
            self.replan(q, ctx, rng)
        action = self._queue.pop(0)
        self._executed_since_plan += 1
        return action
