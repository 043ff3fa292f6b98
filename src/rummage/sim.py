"""Ground-truth rummaging world and the episode harness.

The world advances with quasi-static pushing: robot motion is split into
sub-steps, penetrations are resolved by translating (and slightly rotating)
the object out along the true surface normal when the motion lies inside
the friction cone, and truncating the robot's motion otherwise.  A fixed
fan camera and the paddle's sensing face provide semantically labeled
points; the episode loop ties observation, belief update, planning, and
metrics together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .belief import BeliefParams, initialize_particles, update_step
from .discrepancy import DiscrepancyParams
from .geometry import (
    Annulus2D,
    Box,
    Cylinder,
    Extrusion,
    ParticleSet,
    Pose,
    ScalarField,
    Shape,
    Sphere,
    Union,
    Workspace,
    blockwise,
    mug_shape,
    object_origins,
    rigid_transform,
    translated,
    world_gradients,
)
from .infogain import InfoFields, ReachabilityModel, build_info_fields, build_reachability
from .planner import (
    PUSH_ANGLE,
    TRANSLATION_SCALE,
    PaddleRobot,
    Planner,
    PlannerParams,
    PlanningContext,
    ReachTable,
    to_physical,
)
from .semantics import R_FREE, SemanticCloud, SensorModel, voxel_downsample

METHODS = ("full", "info-only", "reach-only", "slide")
PRIOR_MODES = ("surface_centroid", "gaussian")

SUBSTEPS = 8                 # pushing sub-steps per action
MAX_RESOLVE = 8              # penetration resolutions per pushing sub-step
PENETRATION_TOL = 1e-5       # depth below which a body point does not push
CONTACT_MARGIN = 0.003       # clearance that still reports contact
TACTILE_TOL = 0.003          # contact shell within which a sensing point reads surface
CAMERA_FREE_FRACTION = 0.95  # share of a camera ray's depth observed as free
CAMERA_SPACING = 0.01        # spacing of the free points along a camera ray
CAMERA_HIT_TOL = 1e-5        # distance at which a camera ray hits
SURFACE_SHELL = 0.005        # shell about the surface that surface sampling draws from
CALIBRATION_SHIFT = 0.005    # meters the success bar's calibration moves the true pose
CALIBRATION_TURN = math.radians(5.0)  # and radians it turns it
PRIOR_POSITION_STD = 0.05    # per-axis spread of the "gaussian" prior positions
SLIDE_SPEED = 0.5            # slide baseline's action magnitude, in normalized units


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


def shape_from_config(cfg: dict) -> Shape:
    kind = cfg["type"]
    if kind == "mug":
        return mug_shape(
            outer_radius=cfg.get("outer_radius", 0.05),
            inner_radius=cfg.get("inner_radius", 0.042),
            height=cfg.get("height", 0.08),
            handle_size=tuple(cfg.get("handle_size", (0.02, 0.015, 0.05))),
        )
    if kind == "sphere":
        return Sphere(cfg["radius"])
    if kind == "box":
        return Box(tuple(cfg["half_extents"]))
    if kind == "cylinder":
        return Cylinder(cfg["radius"], cfg["half_height"])
    if kind == "annulus":
        return Extrusion(Annulus2D(cfg["outer_radius"], cfg["inner_radius"]), cfg["half_height"])
    if kind == "union":
        return Union(*[shape_from_config(c) for c in cfg["children"]])
    if kind == "translated":
        return translated(shape_from_config(cfg["child"]), cfg["offset"])
    raise ValueError(f"unknown shape type {kind!r}")


@dataclass(frozen=True)
class CameraModel:
    """Planar fan of rays from a fixed viewpoint."""

    position: tuple[float, float, float] = (-0.15, 0.0, 0.0)
    look_angle: float = 0.0        # fan center direction, radians in the plane
    fov: float = math.radians(70.0)
    n_rays: int = 81
    max_range: float = 1.0

    def __post_init__(self):
        if not self.n_rays >= 1:
            raise ValueError(f"camera n_rays must be at least 1, got {self.n_rays!r}")
        if not self.max_range > 0:
            raise ValueError(f"camera max_range must be positive, got {self.max_range!r}")


@dataclass(frozen=True)
class Scenario:
    name: str = "planar_mug"
    shape_config: dict = field(default_factory=lambda: {"type": "mug"})
    true_center: tuple[float, float, float] = (0.45, 0.0, 0.0)
    true_yaw: float = 0.4
    workspace_bounds: tuple = ((0.0, 0.8), (-0.4, 0.4), (0.0, 0.0))
    workspace_resolution: float = 0.01
    camera: CameraModel = field(default_factory=CameraModel)
    robot: PaddleRobot = field(default_factory=PaddleRobot)
    robot_start: tuple[float, float, float] = (0.2, -0.25, 0.9)
    reachability: ReachabilityModel = field(default_factory=lambda: ReachabilityModel(r_mid=0.35, r_half=0.10))
    sensor: SensorModel = field(default_factory=SensorModel)
    disc: DiscrepancyParams = field(default_factory=DiscrepancyParams)
    belief: BeliefParams = field(default_factory=BeliefParams)
    planner: PlannerParams = field(default_factory=PlannerParams)
    prior_mode: str = "surface_centroid"   # one of PRIOR_MODES
    prior_center: tuple[float, float, float] = (0.45, 0.0, 0.0)
    prior_count: int | None = None         # None: one prior per particle
    n_steps: int = 40
    surface_samples: int = 500
    termination_ratio: float = 0.03
    observe_movement_directly: bool = True
    camera_every_step: bool = False
    nll_threshold: float | None = None     # None: calibrated per scenario

    def __post_init__(self):
        if self.prior_mode not in PRIOR_MODES:
            raise ValueError(f"prior_mode must be one of {PRIOR_MODES}, got {self.prior_mode!r}")
        if not self.surface_samples >= 1:
            raise ValueError(f"surface_samples must be at least 1, got {self.surface_samples!r}")
        # built once, so a bad shape or workspace fails when the scenario is
        # loaded rather than at an episode's first step (frozen: they cannot
        # go stale)
        workspace = Workspace(bounds=self.workspace_bounds, resolution=self.workspace_resolution)
        object.__setattr__(self, "_shape", shape_from_config(self.shape_config))
        object.__setattr__(self, "_workspace", workspace)

    def build_shape(self) -> Shape:
        return self._shape

    def build_workspace(self) -> Workspace:
        return self._workspace

    def true_pose(self) -> Pose:
        return Pose.from_placement(self.true_center, self.true_yaw)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        return _build(Scenario, data)

    @staticmethod
    def from_json(path) -> "Scenario":
        with open(path) as fh:
            return Scenario.from_dict(json.load(fh))


def _build(cls, data: dict):
    """``cls(**data)`` with every dict given for a dataclass-typed field
    built into that dataclass, at any depth, and every list made a tuple
    (of built values).  Unknown keys fail as ``cls(**data)`` does."""

    def value(kind, v):
        if isinstance(v, dict) and is_dataclass(kind):
            return _build(kind, v)
        if isinstance(v, list):
            return tuple(value(None, x) for x in v)
        return v

    hints = get_type_hints(cls)
    return cls(**{k: value(hints.get(k), v) for k, v in dict(data).items()})


@dataclass
class World:
    """Ground truth: the true object pose and the robot configuration."""

    shape: Shape
    true_pose: Pose
    q: np.ndarray


# ---------------------------------------------------------------------------
# Observation models
# ---------------------------------------------------------------------------


def _sphere_trace(origin, directions, sdf, max_range, tol):
    """March the rays ``origin + t * directions[i]`` against one batched
    distance function, all rays in lockstep.

    A ray hits when the distance at ``origin + t * direction`` is below
    ``tol``, and otherwise advances ``t`` by ``max(d, tol)``; it stops at a
    hit, past ``max_range`` or after 256 steps.  Each ray's arithmetic is
    that of marching it alone.  Returns ``(hit_t, hit)`` per ray,
    ``(max_range, False)`` on a miss.
    """
    n = len(directions)
    t = np.zeros(n)
    hit_t = np.full(n, float(max_range))
    hits = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for _ in range(256):
        if not len(live):
            break
        dv = sdf(origin + t[live, None] * directions[live])
        hit = dv < tol
        hit_t[live[hit]] = t[live[hit]]
        hits[live[hit]] = True
        live = live[~hit]
        t[live] += np.maximum(dv[~hit], tol)
        live = live[~(t[live] > max_range)]
    return hit_t, hits


def camera_observe(world: World, camera: CameraModel) -> SemanticCloud:
    """Fan-trace the object: a surface point where a ray hits it, free
    points along 95% of every ray's detected depth (full range on misses)."""
    origin = np.asarray(camera.position, dtype=np.float64)
    T = world.true_pose

    if camera.n_rays == 1:
        angles = [camera.look_angle]
    else:
        angles = camera.look_angle + np.linspace(-camera.fov / 2, camera.fov / 2, camera.n_rays)
    directions = np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])
    hit_ts, hits = _sphere_trace(
        origin, directions, lambda p: world.shape.sdf(T.transform(p)), camera.max_range, CAMERA_HIT_TOL
    )

    frees, surfaces = [], []
    for direction, hit_t, hit in zip(directions, hit_ts, hits):
        free_to = CAMERA_FREE_FRACTION * hit_t if hit else camera.max_range
        ts = np.arange(CAMERA_SPACING, free_to, CAMERA_SPACING)
        if len(ts):
            frees.append(origin[None, :] + ts[:, None] * direction[None, :])
        if hit:
            surfaces.append(origin + hit_t * direction)
    return SemanticCloud.from_parts(
        free=np.concatenate(frees) if frees else None,
        surface=np.stack(surfaces) if surfaces else None,
    )


def classify_tactile(v: np.ndarray, info_mask: np.ndarray):
    """Split robot interior points into (surface, free) index masks.

    Sensing points within the contact shell report surface; everything else
    reports free when at or beyond the shell (strictly positive distance).
    """
    surface = info_mask & (np.abs(v) < TACTILE_TOL)
    free = ~surface & (v >= TACTILE_TOL)
    return surface, free


def tactile_observe(world: World, q, robot: PaddleRobot) -> SemanticCloud:
    q = np.asarray(q, dtype=np.float64)
    pts = robot.points_world(q)
    v = world.shape.sdf(world.true_pose.transform(pts))
    surface, free = classify_tactile(v, robot.info_mask)
    surf_pts = [pts[surface]] if surface.any() else []
    # the dense pad reads the contact patch at sensor pitch
    pad = robot.pad_points_world(q)
    pv = world.shape.sdf(world.true_pose.transform(pad))
    pad_hit = np.abs(pv) < TACTILE_TOL
    if pad_hit.any():
        surf_pts.append(pad[pad_hit])
    return SemanticCloud.from_parts(
        free=pts[free] if free.any() else None,
        surface=np.concatenate(surf_pts) if surf_pts else None,
    )


# ---------------------------------------------------------------------------
# Quasi-static pushing
# ---------------------------------------------------------------------------


def _world_motion(delta: np.ndarray, pivot: np.ndarray, angle: float) -> Pose:
    """World map: translate by ``delta`` then rotate by ``angle`` about the
    displaced pivot."""
    trans = Pose(delta.copy())
    if angle == 0.0:
        return trans
    c = pivot + delta
    turn = Pose(np.zeros(3), angle)
    rot = Pose(c - turn.transform(c), angle)
    return rot.compose(trans)


def world_step(world: World, u, robot: PaddleRobot) -> tuple[Pose, bool]:
    """Advance the world by one clamped action, in :data:`SUBSTEPS` sub-steps.

    Returns ``(dT_true, contact)`` where ``dT_true`` left-composes onto the
    previous true pose.  Mutates ``world`` in place.
    """
    u = np.clip(np.asarray(u, dtype=np.float64), -1.0, 1.0)
    phys = to_physical(u) / SUBSTEPS
    T_old = world.true_pose
    T = T_old
    q = np.asarray(world.q, dtype=np.float64).copy()
    contact = False
    cos_thresh = math.cos(PUSH_ANGLE)
    rho = world.shape.characteristic_length / 4.0  # torque radius

    for _ in range(SUBSTEPS):
        q_new = q + phys
        pts_prev = robot.points_world(q)
        pts = robot.points_world(q_new)
        blocked = False
        for _ in range(MAX_RESOLVE):
            v = world.shape.sdf(T.transform(pts))
            i = int(np.argmin(v))
            if v[i] >= -PENETRATION_TOL:
                break
            contact = True
            x = pts[i]
            motion = pts[i] - pts_prev[i]
            m_norm = float(np.linalg.norm(motion))
            n = world_gradients(world.shape, np.cos(T.yaw), np.sin(T.yaw), T.translation, x)
            n_norm = float(np.linalg.norm(n))
            if m_norm < 1e-12 or n_norm < 1e-12:
                blocked = True
                break
            cos_angle = float(np.dot(n, -motion)) / (n_norm * m_norm)
            if cos_angle <= cos_thresh:
                blocked = True
                break
            depth = -float(v[i])
            delta = -n / n_norm * depth
            center = T.object_center_world()
            r = x - center
            angle = float(r[0] * delta[1] - r[1] * delta[0]) / (float(r[0] ** 2 + r[1] ** 2) + rho**2)
            motion_w = _world_motion(delta, x, angle)
            T = T.compose(motion_w.inverse())
        if blocked:
            # non-pushing contact: truncate the robot's motion where it meets
            # the object (bisection on the sub-step fraction), pressing
            # against the surface instead of stopping a full sub-step short
            lo, hi = 0.0, 1.0
            for _ in range(8):
                mid = 0.5 * (lo + hi)
                v_mid = world.shape.sdf(T.transform(robot.points_world(q + mid * phys)))
                if float(v_mid.min()) > PENETRATION_TOL:
                    lo = mid
                else:
                    hi = mid
            q = q + lo * phys
            continue
        q = q_new
        if not contact:
            v = world.shape.sdf(T.transform(robot.points_world(q)))
            if float(v.min()) < CONTACT_MARGIN:
                contact = True

    world.q = q
    world.true_pose = T
    dT_true = T.compose(T_old.inverse())
    return dT_true, contact


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def sample_surface(shape: Shape, n: int, rng: np.random.Generator) -> np.ndarray:
    """Near-uniform object-frame surface samples via rejection to the
    :data:`SURFACE_SHELL` plus Newton projection onto the zero level set."""
    lo, hi = shape.bounding_box()
    lo = lo - SURFACE_SHELL
    hi = hi + SURFACE_SHELL
    out = []
    attempts = 0
    while sum(len(o) for o in out) < n and attempts < 200:
        attempts += 1
        cand = rng.uniform(lo, hi, size=(max(4 * n, 256), 3))
        v = shape.sdf(cand)
        cand = cand[np.abs(v) < SURFACE_SHELL]
        if len(cand) == 0:
            continue
        for _ in range(4):
            v = shape.sdf(cand)
            g = shape.gradient(cand)
            cand = cand - v[:, None] * g
        v = shape.sdf(cand)
        out.append(cand[np.abs(v) < 1e-7])
    pts = np.concatenate(out) if out else np.zeros((0, 3))
    if len(pts) < n:
        raise RuntimeError("surface sampling failed to converge")
    return pts[:n]


def nll(
    particles: ParticleSet,
    shape: Shape,
    true_pose: Pose,
    surface_samples: np.ndarray,
    sensor: SensorModel = SensorModel(),
) -> float:
    """Negative log likelihood that the true surface is labeled surface
    under the belief (probabilities floored at 1e-12).

    The surface probabilities are evaluated once per distinct particle
    pose, all in one batch; the weighted sum still adds every particle's,
    in particle order."""
    world_pts = true_pose.inverse().transform(surface_samples)
    obj = rigid_transform(*particles.distinct(), world_pts).reshape(-1, 3)
    surf = sensor.probabilities(blockwise(shape.sdf, obj))[2].reshape(len(particles.first), -1)
    acc = particles.weighted_sum(surf)
    return float(-np.sum(np.log(np.maximum(acc, 1e-12))))


def pairwise_chamfer(particles: ParticleSet, shape: Shape, surface_samples: np.ndarray) -> float:
    """Mean absolute signed distance of every particle's surface samples
    under every other particle (sequential accumulation, matching the
    scalar-loop definition bit for bit).

    Only the distinct particle poses are evaluated: their sample blocks
    make the columns and each distinct row is computed once, kept only
    while a later particle still repeats its pose.  A row is then expanded
    to all n*P columns through the distinct-pose index, so the chained sum
    adds the values of the scalar loop in its order."""
    n = len(particles)
    p_count = len(surface_samples)
    c, s, t = particles.distinct()
    inverse = particles.inverse
    repeated = len(t) < n
    # every distinct pose's samples in the world, by the inverse poses
    # (c, -s and -R^T t): (3, distinct * P) in memory, so every block of
    # rows reads contiguous coordinates
    flat = rigid_transform(c, -s, object_origins(c, s, t), surface_samples).reshape(-1, 3)
    last = {k: j for j, k in enumerate(inverse.tolist())}
    kept: dict[int, np.ndarray] = {}
    # one particle's row at a time: adding the running total to the row's
    # first element continues the sequential sum where the last row ended
    total = 0.0
    for j, k in enumerate(inverse.tolist()):
        row = kept.pop(k, None)
        if row is None:
            row = blockwise(lambda x: shape.sdf(rigid_transform(c[k], s[k], t[k], x)), flat)
            np.abs(row, out=row)
        if repeated:
            if last[k] > j:
                kept[k] = row
            row = row.reshape(len(t), p_count)[inverse].ravel()
        row[0] += total
        total = float(np.cumsum(row)[-1])
    return total / (n * n * p_count)


def calibrate_nll_threshold(
    shape: Shape,
    true_pose: Pose,
    surface_samples: np.ndarray,
    sensor: SensorModel,
) -> float:
    """Success bar: mean NLL of a single-particle belief at the true pose
    perturbed by :data:`CALIBRATION_SHIFT` and :data:`CALIBRATION_TURN`
    over the four cardinal directions and both yaw signs."""
    center = true_pose.object_center_world()
    yaw = true_pose.placement_yaw()
    vals = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        for sy in (1, -1):
            pert_center = center + CALIBRATION_SHIFT * np.array([dx, dy, 0.0])
            pert = Pose.from_placement(pert_center, yaw + sy * CALIBRATION_TURN)
            vals.append(nll(ParticleSet.from_poses([pert]), shape, true_pose, surface_samples, sensor))
    return float(np.mean(vals))


@dataclass
class StepRecord:
    step: int
    nll: float
    chamfer: float
    contact: bool
    action: tuple[float, float, float]
    reach_true: float


@dataclass
class Metrics:
    records: list[StepRecord]
    nll_threshold: float
    success: bool = False
    pushed_out: bool = False
    terminated_early: bool = False

    @property
    def cumulative_nll(self) -> float:
        return float(sum(r.nll for r in self.records))

    @property
    def min_nll(self) -> float:
        return float(min(r.nll for r in self.records))

    @property
    def initial_nll(self) -> float:
        return self.records[0].nll

    @property
    def final_nll(self) -> float:
        return self.records[-1].nll

    def finalize(self):
        self.success = self.min_nll <= self.nll_threshold
        self.pushed_out = any(r.reach_true <= 1e-12 for r in self.records)
        return self


# ---------------------------------------------------------------------------
# Baseline policy
# ---------------------------------------------------------------------------


def slide_policy(
    particles: ParticleSet,
    shape: Shape,
    q,
    in_contact: bool,
    contact_point,
    tangent_sign: float,
) -> np.ndarray:
    """Contact-sliding heuristic: head toward the estimated object center
    until contact, then move tangent to the estimated surface normal, at
    :data:`SLIDE_SPEED` (each
    distinct particle pose's normal evaluated once, the weighted sum over
    every particle in order)."""
    q = np.asarray(q, dtype=np.float64)
    if in_contact and contact_point is not None:
        cp = np.asarray(contact_point, dtype=np.float64)
        normals = world_gradients(shape, *particles.distinct(), cp[None])[:, 0]
        normal = particles.weighted_sum(normals)
        n2 = normal[:2]
        nn = float(np.linalg.norm(n2))
        if nn > 1e-12:
            tangent = np.array([-n2[1], n2[0]]) * tangent_sign / nn
            return np.array([tangent[0] * SLIDE_SPEED, tangent[1] * SLIDE_SPEED, 0.0])
    center = particles.weighted_center()
    dvec = (center - q[:3])[:2]
    dvec[:] = dvec / TRANSLATION_SCALE
    dist = float(np.linalg.norm(dvec))
    if dist < 1e-12:
        return np.zeros(3)
    if dist > SLIDE_SPEED:
        dvec *= SLIDE_SPEED / dist
    return np.array([dvec[0], dvec[1], 0.0])


# ---------------------------------------------------------------------------
# Episode harness
# ---------------------------------------------------------------------------


def _sample_priors(scenario: Scenario, cloud: SemanticCloud, rng: np.random.Generator) -> ParticleSet:
    n = scenario.prior_count if scenario.prior_count is not None else scenario.belief.n_particles
    n = max(n, scenario.belief.n_particles)
    if scenario.prior_mode == "surface_centroid" and len(cloud.surface):
        center = cloud.surface.mean(axis=0)
        center[2] = scenario.true_center[2]
        # one block of draws: the stream of n scalar draws
        return ParticleSet.from_placements(np.broadcast_to(center, (n, 3)), rng.uniform(-math.pi, math.pi, n))
    offsets, yaws = np.zeros((n, 3)), np.empty(n)
    for k in range(n):  # each prior's draws in turn: x, y, then its yaw
        offsets[k, 0], offsets[k, 1], yaws[k] = (
            rng.normal(0, PRIOR_POSITION_STD), rng.normal(0, PRIOR_POSITION_STD), rng.uniform(-math.pi, math.pi)
        )
    return ParticleSet.from_placements(np.asarray(scenario.prior_center, dtype=np.float64) + offsets, yaws)


@dataclass
class EpisodeArtifacts:
    """Outputs an episode fills for export (field snapshots, particles, trace)."""

    fields: list[tuple[int, InfoFields, ScalarField]] = field(init=False, default_factory=list)
    particle_snapshots: list[tuple[int, ParticleSet]] = field(init=False, default_factory=list)
    planner_trace: list[dict] = field(init=False, default_factory=list)


def run_episode(
    scenario: Scenario,
    method: str,
    seed: int,
    n_steps: int | None = None,
    artifacts: EpisodeArtifacts | None = None,
) -> Metrics:
    """Run one seeded episode of observe, update, plan, act.

    ``method`` is one of ``full`` (both planning costs), ``info-only``,
    ``reach-only``, or ``slide``.  Terminates early once the particle set's
    pairwise surface agreement falls below the convergence ratio of the
    object's bounding-box diagonal.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if n_steps is None:
        n_steps = scenario.n_steps

    rng = np.random.default_rng(seed)
    shape = scenario.build_shape()
    workspace = scenario.build_workspace()
    sensor = scenario.sensor
    T_true = scenario.true_pose()
    world = World(shape=shape, true_pose=T_true, q=np.asarray(scenario.robot_start, dtype=np.float64))
    robot = scenario.robot
    reach_field = build_reachability(workspace, scenario.reachability)

    surface_samples = sample_surface(shape, scenario.surface_samples, rng)
    threshold = (
        scenario.nll_threshold
        if scenario.nll_threshold is not None
        else calibrate_nll_threshold(shape, T_true, surface_samples, sensor)
    )

    pparams = scenario.planner
    if method == "info-only":
        pparams = replace(pparams, reach_weight=0.0)
    elif method == "reach-only":
        pparams = replace(pparams, info_weight=0.0)

    cloud0 = voxel_downsample(camera_observe(world, scenario.camera), R_FREE)
    priors = _sample_priors(scenario, cloud0, rng)
    state = initialize_particles(priors, cloud0, shape, scenario.disc, scenario.belief, rng)

    term_level = scenario.termination_ratio * shape.characteristic_length
    tangent_sign = 1.0 if rng.random() < 0.5 else -1.0
    planner = Planner(pparams, robot)
    # the pairwise chamfer depends on the particle poses only, and they stay
    # bit for bit the same over the steps that merely reweigh the particles
    chamfers: dict[bytes, float] = {}

    def chamfer() -> float:
        key = state.particles.translations.tobytes() + state.particles.yaws.tobytes()
        if key not in chamfers:
            chamfers[key] = pairwise_chamfer(state.particles, shape, surface_samples)
        return chamfers[key]

    def record(step: int, contact: bool, action) -> StepRecord:
        return StepRecord(
            step=step,
            nll=nll(state.particles, shape, world.true_pose, surface_samples, sensor),
            chamfer=chamfer(),
            contact=contact,
            action=tuple(float(a) for a in action),
            reach_true=float(reach_field.query(world.true_pose.object_center_world())),
        )

    records = [record(0, False, (0.0, 0.0, 0.0))]
    metrics = Metrics(records=records, nll_threshold=threshold)
    in_contact = False
    contact_point = None

    for t in range(1, n_steps + 1):
        if method == "slide":
            action = slide_policy(state.particles, shape, world.q, in_contact, contact_point, tangent_sign)
        else:
            fields = build_info_fields(
                state.particles, shape, workspace, scenario.belief.gamma, sensor, scenario.disc
            )
            table = ReachTable(fields.info, reach_field) if pparams.reach_weight != 0.0 else None
            ctx = PlanningContext(fields=fields, particles=state.particles, shape=shape, reach_table=table)
            if artifacts is not None:
                artifacts.fields.append((t, fields, reach_field))
            action = planner.get_action(world.q, ctx, rng, contact=in_contact)

        q_before = world.q.copy()
        dT_true, contact = world_step(world, action, robot)
        obs = tactile_observe(world, world.q, robot)
        if scenario.camera_every_step:
            obs = obs.extend(camera_observe(world, scenario.camera))

        if scenario.observe_movement_directly:
            # a perfect slip sensor also fixes the world-frame point motion
            T_new = world.true_pose
            dT_w_true = T_new.inverse().compose(dT_true.inverse()).compose(T_new)
            state = update_step(state, obs, shape, scenario.disc, scenario.belief, rng, known=(dT_true, dT_w_true))
        else:
            # sticking contact: the object moves with the paddle
            motion = (
                Pose(np.array([world.q[0] - q_before[0], world.q[1] - q_before[1], 0.0]))
                if contact
                else None
            )
            state = update_step(state, obs, shape, scenario.disc, scenario.belief, rng, prior_w=motion)

        in_contact = contact
        contact_point = obs.surface.mean(axis=0) if len(obs.surface) else contact_point
        if artifacts is not None:
            artifacts.particle_snapshots.append((t, state.particles))

        rec = record(t, contact, action)
        records.append(rec)
        if rec.chamfer < term_level:
            metrics.terminated_early = True
            break

    if artifacts is not None and method != "slide":
        artifacts.planner_trace = planner.trace
    return metrics.finalize()
