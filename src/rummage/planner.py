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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import ParticleSet
from .geometry import POINT_BLOCK, ScalarField, Shape, Workspace
from .infogain import InfoFields
from .semantics import downsample_positions


@dataclass(frozen=True)
class ActionScale:
    """Map of unit control values to physical units."""

    translation: float = 0.08  # meters at |u| = 1
    rotation: float = 0.5      # radians at |u| = 1

    def to_physical(self, u: np.ndarray) -> np.ndarray:
        out = np.asarray(u, dtype=np.float64).copy()
        out[..., :2] *= self.translation
        out[..., 2] *= self.rotation
        return out


@dataclass(frozen=True)
class PaddleRobot:
    """Planar paddle end effector.

    Interior points are a fixed-order grid over the body rectangle; the
    sensing subset is the leading ``info_depth`` column(s) on the +x face.
    Configurations are ``(x, y, yaw)`` at a fixed working height.
    """

    half_extents: tuple[float, float] = (0.01, 0.03)
    point_resolution: float = 0.01
    plane_z: float = 0.0
    info_depth: int = 1
    sense_resolution: float = 0.002
    base: tuple[float, float] | None = None   # arm base; None: unconstrained
    max_range: float | None = None            # radial workspace limit, meters

    def __post_init__(self):
        hx, hy = self.half_extents
        nx = max(2, int(round(2 * hx / self.point_resolution)) + 1)
        ny = max(2, int(round(2 * hy / self.point_resolution)) + 1)
        xs = np.linspace(-hx, hx, nx)
        ys = np.linspace(-hy, hy, ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([X.ravel(), Y.ravel()], axis=-1)
        front = np.unique(grid[:, 0])[-self.info_depth :]
        object.__setattr__(self, "_body", grid)
        object.__setattr__(self, "_info", np.isin(grid[:, 0], front))
        # dense tactile pad on the +x face (observation only; the planner's
        # point sets stay at the coarse resolution)
        ns = max(2, int(round(2 * hy / self.sense_resolution)) + 1)
        pad = np.stack([np.full(ns, hx), np.linspace(-hy, hy, ns)], axis=-1)
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

    def _transform_body(self, q, body: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        single = q.shape == (3,)
        qb = q.reshape(-1, 3)
        c, s = np.cos(qb[:, 2]), np.sin(qb[:, 2])
        out = np.empty((len(qb), len(body), 3))
        out[..., 0] = c[:, None] * body[None, :, 0] - s[:, None] * body[None, :, 1] + qb[:, 0:1]
        out[..., 1] = s[:, None] * body[None, :, 0] + c[:, None] * body[None, :, 1] + qb[:, 1:2]
        out[..., 2] = self.plane_z
        return out[0] if single else out

    def points_world(self, q) -> np.ndarray:
        """Interior points for configurations ``(..., 3)`` -> ``(..., M, 3)``."""
        return self._transform_body(q, self.body_points)

    def info_points_world(self, q) -> np.ndarray:
        return self._transform_body(q, self.body_points[self.info_mask])

    def pad_points_world(self, q) -> np.ndarray:
        """Dense sensing-pad points used by tactile observation."""
        return self._transform_body(q, self.pad_points)

    def free_dynamics(self, q, u_phys):
        """Free-space motion: configuration-space addition, radially clamped
        to the arm's workspace when a range limit is set."""
        out = np.asarray(q, dtype=np.float64) + np.asarray(u_phys, dtype=np.float64)
        if self.max_range is not None:
            base = np.asarray(self.base if self.base is not None else (0.0, 0.0))
            rel = out[..., :2] - base
            r = np.sqrt(rel[..., 0] ** 2 + rel[..., 1] ** 2)
            over = r > self.max_range
            if np.any(over):
                out = out.copy()
                scale = np.where(over, self.max_range / np.maximum(r, 1e-12), 1.0)
                out[..., 0] = base[0] + rel[..., 0] * scale
                out[..., 1] = base[1] + rel[..., 1] * scale
        return out


@dataclass(frozen=True)
class PlannerParams:
    horizon: int = 15
    control_points: int = 8
    kernel: str = "rbf"
    kernel_scale: float = 2.0
    samples: int = 500
    rollouts: int = 5
    mini_steps: int = 4
    replan_interval: int = 3
    temperature: float = 0.01
    noise_cov: float = 1.5          # isotropic covariance of control-point noise
    push_angle: float = math.radians(45.0)
    info_weight: float = 1.0
    reach_weight: float = 200.0
    warm_start_iters: int = 5
    opt_iters: int = 1              # optimization iterations per replan
    downsample_res: float = 0.01    # sweep de-duplication cell size
    action_scale: ActionScale = field(default_factory=ActionScale)

    def __post_init__(self):
        if self.control_points > self.horizon:
            raise ValueError("control_points must not exceed horizon")


# ---------------------------------------------------------------------------
# Kernel interpolation
# ---------------------------------------------------------------------------


def kernel_value(a: np.ndarray, b: np.ndarray, kind: str = "rbf", scale: float = 2.0) -> np.ndarray:
    d = np.abs(a[..., :, None] - b[..., None, :])
    if kind == "rbf":
        return np.exp(-(d**2) / (2.0 * scale**2))
    if kind == "bspline":
        u = d / scale
        out = np.zeros_like(u)
        near = u < 1.0
        mid = (u >= 1.0) & (u < 2.0)
        out[near] = 2.0 / 3.0 - u[near] ** 2 + 0.5 * u[near] ** 3
        out[mid] = ((2.0 - u[mid]) ** 3) / 6.0
        return out
    raise ValueError(f"unknown kernel {kind!r}")


def control_times(H: int, H_c: int) -> np.ndarray:
    """Evenly spread control-point time coordinates, first 0 and last H-1."""
    return np.linspace(0.0, float(H - 1), H_c)


def interpolation_weights(
    times: np.ndarray, H: int, H_c: int, kind: str = "rbf", scale: float = 2.0
) -> np.ndarray:
    """Weights W with ``u(times) = W @ theta``.

    Rows at (numerically) exact control times are snapped to unit rows so
    the interpolation property holds regardless of Gram conditioning; one
    iterative refinement step tightens the rest.
    """
    tc = control_times(H, H_c)
    K2 = kernel_value(tc, tc, kind, scale)
    Kt = kernel_value(np.asarray(times, dtype=np.float64), tc, kind, scale)
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


def kernel_interpolate(
    theta: np.ndarray, H: int, kind: str = "rbf", scale: float = 2.0
) -> np.ndarray:
    """Expand control points ``(H_c, dim)`` to a full action sequence ``(H, dim)``."""
    theta = np.asarray(theta, dtype=np.float64)
    H_c = theta.shape[0]
    W = interpolation_weights(np.arange(H, dtype=np.float64), H, H_c, kind, scale)
    return W @ theta


def interpolate_at(
    theta: np.ndarray, H: int, times, kind: str = "rbf", scale: float = 2.0
) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    W = interpolation_weights(np.asarray(times, dtype=np.float64), H, theta.shape[0], kind, scale)
    return W @ theta


# ---------------------------------------------------------------------------
# Stochastic contact dynamics
# ---------------------------------------------------------------------------


@dataclass
class PlanningContext:
    """Immutable per-step snapshot the planner rolls out against.

    ``normal_quantization`` trades exactness for speed in the rollout
    normals: when set, query points snap to that cell size and the exact
    belief-averaged normal is computed once per cell and memoized for the
    lifetime of the context (one planning step).
    """

    fields: InfoFields
    reach: ScalarField
    particles: ParticleSet
    shape: Shape
    reach_table: "ReachTable | None" = None
    normal_quantization: float | None = None

    def __post_init__(self):
        self._normal_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def _exact_normals(self, points: np.ndarray) -> np.ndarray:
        w = self.particles.weights
        R = self.particles.rotations()      # (N, 3, 3)
        t = self.particles.translations()   # (N, 3)
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        obj = np.empty((len(w), len(points), 3))
        obj[..., 0] = R[:, 0, 0, None] * x + R[:, 0, 1, None] * y + R[:, 0, 2, None] * z + t[:, 0, None]
        obj[..., 1] = R[:, 1, 0, None] * x + R[:, 1, 1, None] * y + R[:, 1, 2, None] * z + t[:, 1, None]
        obj[..., 2] = R[:, 2, 0, None] * x + R[:, 2, 1, None] * y + R[:, 2, 2, None] * z + t[:, 2, None]
        g = self.shape.gradient(obj.reshape(-1, 3)).reshape(obj.shape)
        gx, gy, gz = g[..., 0], g[..., 1], g[..., 2]
        world = np.empty_like(g)
        # rotate back to the world frame with R^T
        world[..., 0] = R[:, 0, 0, None] * gx + R[:, 1, 0, None] * gy + R[:, 2, 0, None] * gz
        world[..., 1] = R[:, 0, 1, None] * gx + R[:, 1, 1, None] * gy + R[:, 2, 1, None] * gz
        world[..., 2] = R[:, 0, 2, None] * gx + R[:, 1, 2, None] * gy + R[:, 2, 2, None] * gz
        return np.einsum("n,nmi->mi", w, world)

    def weighted_normals(self, points: np.ndarray) -> np.ndarray:
        """Belief-averaged world-frame surface normals at world points."""
        q = self.normal_quantization
        if q is None:
            return self._exact_normals(points)
        keys = np.round(points / q).astype(np.int64)
        if len(keys) == 0:
            return np.empty((0, 3))
        first, inverse = _distinct_rows(keys)
        # distinct cells in order of first appearance; cells not cached yet
        # are evaluated together, in that order
        order = np.argsort(first, kind="stable")
        cell_keys = [tuple(k) for k in keys[first[order]].tolist()]
        normals = np.empty((len(first), 3))
        missing = []
        for slot, key in zip(order, cell_keys):
            hit = self._normal_cache.get(key)
            if hit is None:
                missing.append((slot, key))
            else:
                normals[slot] = hit
        if missing:
            centers = np.array([key for _, key in missing], dtype=np.float64) * q
            for (slot, key), n in zip(missing, self._exact_normals(centers)):
                self._normal_cache[key] = n
                normals[slot] = n
        return normals[inverse]


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each distinct row of integer ``keys`` (N, 3) and each
    row's distinct index, through one int64 code per row when the key
    ranges allow it."""
    lo = keys.min(axis=0)
    hi = keys.max(axis=0)
    # spans in floating point first: far-apart keys would overflow int64
    if float(np.prod(hi.astype(np.float64) - lo.astype(np.float64) + 1.0)) < 2.0**62:
        span = hi - lo + 1
        k = keys - lo
        codes = (k[:, 0] * span[1] + k[:, 1]) * span[2] + k[:, 2]
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _contact_points(
    q_c: np.ndarray, d: np.ndarray, ctx: PlanningContext, robot: PaddleRobot
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Most contact-likely robot point of each row (lowest ``p_free`` in
    displaced-object-frame coordinates): its index, displaced-frame
    position and world position.

    The search takes a block of rows at a time, so that their (rows, M)
    point sets stay about one block of points."""
    n = len(q_c)
    block = max(1, POINT_BLOCK // len(robot.body_points))
    i_star = np.empty(n, dtype=np.intp)
    x_i = np.empty((n, 3))
    p_star = np.empty((n, 3))
    for lo in range(0, n, block):
        pts_c = robot.points_world(q_c[lo:lo + block])      # (rows, M, 3)
        disp = pts_c - d[lo:lo + block, None, :]
        k = np.argmin(ctx.fields.p_free.query(disp), axis=1)
        rows = np.arange(len(k))
        i_star[lo:lo + block] = k
        x_i[lo:lo + block] = disp[rows, k]
        p_star[lo:lo + block] = pts_c[rows, k]
    return i_star, x_i, p_star


def _rollout_batch(
    q0: np.ndarray,
    d0: np.ndarray,
    actions: np.ndarray,
    ctx: PlanningContext,
    robot: PaddleRobot,
    params: PlannerParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll out B action sequences (B, H, 3) -> configs (B, H, 3), displacements (B, H, 3).

    Each action is split into ``mini_steps`` sequential sub-moves.  At every
    sub-move the most contact-likely robot point (in displaced-object-frame
    coordinates) samples its semantics from the cached class-probability
    fields; free moves pass, pushing contacts displace the object along with
    the robot, and non-pushing contacts block the robot in place.

    Each sub-move draws its uniforms first, then searches for the contact
    point only in the candidate rows, whose draw is at least the fields'
    :class:`~rummage.infogain.FreeFloor` at the displaced paddle origin.
    Below the floor every body point reads a larger free probability, so the
    row moves freely whichever point the search would pick; the results are
    those of searching every row.
    """
    B, H, _ = actions.shape
    q = np.array(q0, dtype=np.float64).reshape(1, 3).repeat(B, axis=0) if np.asarray(q0).ndim == 1 else np.array(q0, dtype=np.float64)
    d = np.array(d0, dtype=np.float64).reshape(1, 3).repeat(B, axis=0) if np.asarray(d0).ndim == 1 else np.array(d0, dtype=np.float64)
    q_traj = np.empty((B, H, 3))
    d_traj = np.empty((B, H, 3))
    cos_thresh = math.cos(params.push_angle)
    floor = ctx.fields.free_floor(robot.body_radius)

    for t in range(H):
        u_phys = params.action_scale.to_physical(np.clip(actions[:, t], -1.0, 1.0)) / params.mini_steps
        for _ in range(params.mini_steps):
            q_c = robot.free_dynamics(q, u_phys)
            draw = rng.random(B)
            cand = np.flatnonzero(draw >= floor.at(q_c[:, :2] - d[:, :2]))
            i_star, x_i, p_star = _contact_points(q_c[cand], d[cand], ctx, robot)
            pf, _, _ = ctx.fields.class_probabilities(x_i)
            hit = draw[cand] >= pf
            if not hit.any():
                q = q_c
                continue
            # push direction: motion of the corresponding interior point
            c_rows = cand[hit]
            pts_b = robot.points_world(q[c_rows])
            d_prime = p_star[hit] - pts_b[np.arange(len(c_rows)), i_star[hit]]
            normals = ctx.weighted_normals(x_i[hit])
            n_norm = np.linalg.norm(normals, axis=1)
            m_norm = np.linalg.norm(d_prime, axis=1)
            ok = (n_norm > 1e-12) & (m_norm > 1e-12)
            cos_angle = np.where(
                ok,
                np.einsum("ij,ij->i", normals, -d_prime) / np.maximum(n_norm * m_norm, 1e-300),
                -1.0,
            )
            pushing = cos_angle > cos_thresh
            push_rows = c_rows[pushing]
            d[push_rows] = d[push_rows] + d_prime[pushing]
            # blocked rows keep q and d
            blocked = c_rows[~pushing]
            q_c[blocked] = q[blocked]
            q = q_c
        q_traj[:, t] = q
        d_traj[:, t] = d
    return q_traj, d_traj


def dynamics_step(
    q,
    d,
    u,
    ctx: PlanningContext,
    robot: PaddleRobot,
    params: PlannerParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-step form of the stochastic dynamics (one action, mini-stepped)."""
    actions = np.asarray(u, dtype=np.float64).reshape(1, 1, 3)
    q_traj, d_traj = _rollout_batch(
        np.asarray(q, dtype=np.float64).reshape(1, 3),
        np.asarray(d, dtype=np.float64).reshape(1, 3),
        actions,
        ctx,
        robot,
        params,
        rng,
    )
    return q_traj[0, 0], d_traj[0, 0]


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------


def info_cost(
    config_traj: np.ndarray,
    displacement_traj: np.ndarray,
    info_field: ScalarField,
    robot: PaddleRobot,
    r_ds: float = 0.01,
) -> float:
    """Negated information over the deduplicated sweep of the sensing points,
    each shifted back by the object displacement at its time."""
    config_traj = np.asarray(config_traj, dtype=np.float64).reshape(-1, 3)
    displacement_traj = np.asarray(displacement_traj, dtype=np.float64).reshape(-1, 3)
    pts = robot.info_points_world(config_traj) - displacement_traj[:, None, :]
    centers = downsample_positions(pts.reshape(-1, 3), r_ds)
    if len(centers) == 0:
        return 0.0
    return float(-np.sum(info_field.query(centers)))


def batched_sweep_cost(
    q_traj: np.ndarray,
    d_traj: np.ndarray,
    info_field: ScalarField,
    robot: PaddleRobot,
    r_ds: float,
) -> np.ndarray:
    """info_cost for every rollout at once: (B, H, 3) trajectories -> (B,).

    Identical semantics to the scalar op (per-rollout grids anchored at the
    rollout's own point extent), vectorized through composite cell keys.
    """
    B, H, _ = q_traj.shape
    pts = robot.info_points_world(q_traj.reshape(-1, 3)).reshape(B, H, -1, 3)
    pts = pts - d_traj[:, :, None, :]
    flat = pts.reshape(B, -1, 3)
    anchors = flat.min(axis=1) - 0.5 * r_ds
    idx = np.floor((flat - anchors[:, None, :]) / r_ds).astype(np.int64)
    span = int(idx.max()) + 2  # indices are non-negative by anchoring
    b_col = np.arange(B, dtype=np.int64)[:, None]
    keys = ((b_col * span + idx[..., 0]) * span + idx[..., 1]) * span + idx[..., 2]
    uniq, first = np.unique(keys.ravel(), return_index=True)
    rows = first // flat.shape[1]
    cells = idx.reshape(-1, 3)[first]
    centers = anchors[rows] + (cells + 0.5) * r_ds
    vals = info_field.query(centers)
    return -np.bincount(rows, weights=vals, minlength=B)


def reach_cost(
    displacement_traj: np.ndarray,
    workspace: Workspace,
    info_field: ScalarField,
    reach_field: ScalarField,
) -> float:
    """Fraction of workspace information that stays reachable, negated.

    Averages the displaced information over the horizon at every workspace
    node, weighs it by reachability, and normalizes by the total
    information; 0 when there is no information at all.
    """
    disp = np.asarray(displacement_traj, dtype=np.float64).reshape(-1, 3)
    nodes = workspace.grid_points()
    total = float(np.sum(info_field.query(nodes)))
    if total <= 0.0:
        return 0.0
    avg = np.zeros(len(nodes))
    for d_t in disp:
        avg += info_field.query(nodes - d_t)
    avg /= len(disp)
    reachable = float(np.sum(avg * reach_field.query(nodes)))
    return -min(1.0, max(0.0, reachable / total))


class ReachTable:
    """Cross-correlation cache for the reachability cost.

    For displacements that shift the information field rigidly, the
    reachable-information sum is a function of the shift alone; its values
    on the grid-shift lattice equal the discrete cross-correlation of the
    reachability and information grids, computed once per step with FFTs
    over the grid's axes and multilinearly interpolated in between.  (Exact
    on the lattice; between lattice shifts it differs from the direct
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
        self.table = corr[np.ix_(*[np.arange(-(k - 1), k) % sz for k, sz in zip(n, size)])]
        self.res = info_field.resolution
        self.n = n
        self.total = float(I.sum())

    def reachable_info(self, shifts: np.ndarray) -> np.ndarray:
        """Reachable information for displacement shifts (..., 3)."""
        s = np.asarray(shifts, dtype=np.float64)
        t = self.table
        live = [ax for ax in range(3) if t.shape[ax] > 1]
        base: list = [0, 0, 0]
        frac = {}
        inside = np.ones(s.shape[:-1], dtype=bool)
        for ax in live:
            u = s[..., ax] / self.res + (self.n[ax] - 1)
            inside &= (u >= 0) & (u <= t.shape[ax] - 1)
            u = np.clip(u, 0, t.shape[ax] - 1)
            base[ax] = np.minimum(u.astype(int), t.shape[ax] - 2)
            frac[ax] = u - base[ax]
        # corners with x varying fastest; each weight is the product of the
        # per-axis weights in axis order
        v = None
        for bits in itertools.product((0, 1), repeat=len(live)):
            upper = dict(zip(reversed(live), bits))
            term = t[tuple(base[ax] + upper.get(ax, 0) for ax in range(3))]
            for ax in live:
                term = term * (frac[ax] if upper[ax] else 1 - frac[ax])
            v = term if v is None else v + term
        return np.where(inside, v, 0.0)

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
    W = interpolation_weights(
        np.arange(params.horizon, dtype=np.float64), params.horizon, H_c, params.kernel, params.kernel_scale
    )
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

    The reach cost reads ``ctx.reach_table``; ``workspace`` is accepted
    from callers that pass the planning workspace and not needed."""
    if ctx.reach_table is None and params.reach_weight != 0.0:
        raise ValueError("reach cost requires a reach table")

    def cost_fn(actions: np.ndarray) -> np.ndarray:
        S, H, dim = actions.shape
        R = params.rollouts
        rep = np.repeat(actions, R, axis=0)
        q_traj, d_traj = _rollout_batch(
            np.asarray(q0, dtype=np.float64), np.zeros(3), rep, ctx, robot, params, rng
        )
        info_c = batched_sweep_cost(q_traj, d_traj, ctx.fields.info, robot, params.downsample_res)
        if params.reach_weight != 0.0:
            reach_c = ctx.reach_table.reach_cost_batch(d_traj)
        else:
            reach_c = np.zeros(S * R)
        per_rollout = total_cost(info_c, reach_c, params)
        return per_rollout.reshape(S, R).mean(axis=1)

    return cost_fn


def plan(
    q0,
    ctx: PlanningContext,
    robot: PaddleRobot,
    nominal_theta: np.ndarray,
    params: PlannerParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One planning call: optimize around the nominal control points and
    return (next action, shifted nominal)."""
    cost_fn = make_rollout_cost(np.asarray(q0, dtype=np.float64), ctx, robot, params, rng)
    theta_new, _ = mppi_update(np.asarray(nominal_theta, dtype=np.float64), cost_fn, params, rng)
    actions = np.clip(kernel_interpolate(theta_new, params.horizon, params.kernel, params.kernel_scale), -1.0, 1.0)
    shifted = np.vstack([theta_new[1:], np.zeros((1, theta_new.shape[1]))])
    return actions[0], shifted


class Planner:
    """Stateful receding-horizon planner for episodes.

    Replans after ``replan_interval`` executed actions or when contact is
    reported; the first plan warm starts with several optimization
    iterations without executing.
    """

    def __init__(self, params: PlannerParams, robot: PaddleRobot, action_dim: int = 3):
        self.params = params
        self.robot = robot
        self.theta = np.zeros((params.control_points, action_dim))
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
        for it in range(max(1, iters)):
            self.theta, costs = mppi_update(self.theta, cost_fn, self.params, rng)
            actions = np.clip(
                kernel_interpolate(self.theta, self.params.horizon, self.params.kernel, self.params.kernel_scale),
                -1.0,
                1.0,
            )
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
