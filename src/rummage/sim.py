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
from dataclasses import dataclass, field, replace

import numpy as np

from .belief import (
    BeliefConfig,
    BeliefParams,
    BeliefState,
    ParticleSet,
    initialize_particles,
    update_step,
)
from .discrepancy import DiscrepancyParams
from .geometry import (
    Annulus2D,
    Box,
    Cylinder,
    Extrusion,
    Pose,
    ScalarField,
    Shape,
    Sphere,
    Union,
    Workspace,
    blockwise,
    mug_shape,
    rotation_z,
    translated,
)
from .infogain import InfoFields, ReachabilityModel, build_info_fields, build_reachability
from .planner import (
    ActionScale,
    PaddleRobot,
    Planner,
    PlannerParams,
    PlanningContext,
    ReachTable,
)
from .semantics import SemanticCloud, SensorModel, voxel_downsample

METHODS = ("full", "info-only", "reach-only", "slide")


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
    free_fraction: float = 0.95
    sample_spacing: float = 0.01
    surface_tol: float = 1e-5


@dataclass(frozen=True)
class SimParams:
    substeps: int = 8
    max_resolve: int = 8
    penetration_tol: float = 1e-5
    contact_margin: float = 0.003
    push_angle: float = math.radians(45.0)
    torque_radius: float | None = None   # None: characteristic_length / 4
    tactile_tol: float = 0.003


@dataclass
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
    sim: SimParams = field(default_factory=SimParams)
    prior_mode: str = "surface_centroid"   # or "gaussian"
    prior_center: tuple[float, float, float] = (0.45, 0.0, 0.0)
    prior_position_std: float = 0.05
    prior_count: int | None = None         # None: one prior per particle
    n_steps: int = 40
    surface_samples: int = 500
    termination_ratio: float = 0.03
    observe_movement_directly: bool = True
    camera_every_step: bool = False
    slide_speed: float = 0.5
    nll_threshold: float | None = None     # None: calibrated per scenario

    def build_shape(self) -> Shape:
        return shape_from_config(self.shape_config)

    def build_workspace(self) -> Workspace:
        return Workspace(bounds=self.workspace_bounds, resolution=self.workspace_resolution)

    def true_pose(self) -> Pose:
        return Pose.from_placement(self.true_center, self.true_yaw)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        kw = dict(data)
        for key, cls in (
            ("camera", CameraModel),
            ("robot", PaddleRobot),
            ("reachability", ReachabilityModel),
            ("sensor", SensorModel),
            ("disc", DiscrepancyParams),
            ("belief", BeliefParams),
            ("sim", SimParams),
        ):
            if key in kw and isinstance(kw[key], dict):
                sub = dict(kw[key])
                for k, v in sub.items():
                    if isinstance(v, list):
                        sub[k] = tuple(v)
                kw[key] = cls(**sub)
        if "planner" in kw and isinstance(kw["planner"], dict):
            sub = dict(kw["planner"])
            if "action_scale" in sub and isinstance(sub["action_scale"], dict):
                sub["action_scale"] = ActionScale(**sub["action_scale"])
            kw["planner"] = PlannerParams(**sub)
        for key in ("true_center", "robot_start", "prior_center"):
            if key in kw and isinstance(kw[key], list):
                kw[key] = tuple(kw[key])
        if "workspace_bounds" in kw:
            kw["workspace_bounds"] = tuple(tuple(b) for b in kw["workspace_bounds"])
        return Scenario(**kw)

    @staticmethod
    def from_json(path) -> "Scenario":
        with open(path) as fh:
            return Scenario.from_dict(json.load(fh))


@dataclass
class World:
    """Ground truth: the true object pose and the robot configuration."""

    shape: Shape
    true_pose: Pose
    q: np.ndarray
    occluders: list[Shape] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Observation models
# ---------------------------------------------------------------------------


def _sphere_trace(direction, origin, sdf_fns, max_range, tol):
    """March a ray against several distance functions.

    Returns (hit_t, hit_index) with hit_index -1 when nothing is hit.
    """
    t = 0.0
    for _ in range(256):
        p = origin + t * direction
        dists = [f(p) for f in sdf_fns]
        k = int(np.argmin(dists))
        dv = dists[k]
        if dv < tol:
            return t, k
        t += max(dv, tol)
        if t > max_range:
            break
    return max_range, -1


def camera_observe(world: World, camera: CameraModel) -> SemanticCloud:
    """Fan-trace the scene: a surface point where a ray hits the object, free
    points along 95% of every ray's detected depth (full range on misses)."""
    origin = np.asarray(camera.position, dtype=np.float64)
    T = world.true_pose
    sdf_fns = [lambda p: float(world.shape.sdf(T.transform(p)))]
    for occ in world.occluders:
        sdf_fns.append(lambda p, occ=occ: float(occ.sdf(p)))

    if camera.n_rays == 1:
        angles = [camera.look_angle]
    else:
        angles = camera.look_angle + np.linspace(-camera.fov / 2, camera.fov / 2, camera.n_rays)

    frees, surfaces = [], []
    for a in angles:
        direction = np.array([math.cos(a), math.sin(a), 0.0])
        hit_t, hit_k = _sphere_trace(direction, origin, sdf_fns, camera.max_range, camera.surface_tol)
        free_to = camera.free_fraction * hit_t if hit_k >= 0 else camera.max_range
        ts = np.arange(camera.sample_spacing, free_to, camera.sample_spacing)
        if len(ts):
            frees.append(origin[None, :] + ts[:, None] * direction[None, :])
        if hit_k == 0:
            surfaces.append(origin + hit_t * direction)
    return SemanticCloud.from_parts(
        free=np.concatenate(frees) if frees else None,
        surface=np.stack(surfaces) if surfaces else None,
    )


def classify_tactile(v: np.ndarray, info_mask: np.ndarray, tol: float = 0.003):
    """Split robot interior points into (surface, free) index masks.

    Sensing points within the contact shell report surface; everything else
    reports free when at or beyond the shell (strictly positive distance).
    """
    surface = info_mask & (np.abs(v) < tol)
    free = ~surface & (v >= tol)
    return surface, free


def tactile_observe(world: World, q, robot: PaddleRobot, tol: float = 0.003) -> SemanticCloud:
    q = np.asarray(q, dtype=np.float64)
    pts = robot.points_world(q)
    v = world.shape.sdf(world.true_pose.transform(pts))
    surface, free = classify_tactile(v, robot.info_mask, tol)
    surf_pts = [pts[surface]] if surface.any() else []
    # the dense pad reads the contact patch at sensor pitch
    pad = robot.pad_points_world(q)
    pv = world.shape.sdf(world.true_pose.transform(pad))
    pad_hit = np.abs(pv) < tol
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
    trans = Pose(np.eye(3), delta.copy())
    if angle == 0.0:
        return trans
    R = rotation_z(angle)
    c = pivot + delta
    rot = Pose(R, c - R @ c)
    return rot.compose(trans)


def world_step(
    world: World,
    u,
    robot: PaddleRobot,
    action_scale: ActionScale,
    params: SimParams = SimParams(),
) -> tuple[Pose, bool]:
    """Advance the world by one clamped action.

    Returns ``(dT_true, contact)`` where ``dT_true`` left-composes onto the
    previous true pose.  Mutates ``world`` in place.
    """
    u = np.clip(np.asarray(u, dtype=np.float64), -1.0, 1.0)
    phys = action_scale.to_physical(u) / params.substeps
    T_old = world.true_pose
    T = T_old
    q = np.asarray(world.q, dtype=np.float64).copy()
    contact = False
    cos_thresh = math.cos(params.push_angle)
    rho = params.torque_radius if params.torque_radius is not None else world.shape.characteristic_length / 4.0

    for _ in range(params.substeps):
        q_new = q + phys
        pts_prev = robot.points_world(q)
        pts = robot.points_world(q_new)
        blocked = False
        for _ in range(params.max_resolve):
            v = world.shape.sdf(T.transform(pts))
            i = int(np.argmin(v))
            if v[i] >= -params.penetration_tol:
                break
            contact = True
            x = pts[i]
            motion = pts[i] - pts_prev[i]
            m_norm = float(np.linalg.norm(motion))
            n = T.inverse().rotate(world.shape.gradient(T.transform(x)))
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
                if float(v_mid.min()) > params.penetration_tol:
                    lo = mid
                else:
                    hi = mid
            q = q + lo * phys
            continue
        q = q_new
        if not contact:
            v = world.shape.sdf(T.transform(robot.points_world(q)))
            if float(v.min()) < params.contact_margin:
                contact = True

    world.q = q
    world.true_pose = T
    dT_true = T.compose(T_old.inverse())
    return dT_true, contact


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def sample_surface(shape: Shape, n: int, rng: np.random.Generator, shell: float = 0.005) -> np.ndarray:
    """Near-uniform object-frame surface samples via shell rejection plus
    Newton projection onto the zero level set."""
    lo, hi = shape.bounding_box()
    lo = lo - shell
    hi = hi + shell
    out = []
    attempts = 0
    while sum(len(o) for o in out) < n and attempts < 200:
        attempts += 1
        cand = rng.uniform(lo, hi, size=(max(4 * n, 256), 3))
        v = shape.sdf(cand)
        cand = cand[np.abs(v) < shell]
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
    under the belief (probabilities floored at 1e-12)."""
    world_pts = true_pose.inverse().transform(surface_samples)
    acc = np.zeros(len(world_pts))
    for T, w in zip(particles.poses, particles.weights):
        _, _, ps = sensor.probabilities(shape.sdf(T.transform(world_pts)))
        acc += w * ps
    return float(-np.sum(np.log(np.maximum(acc, 1e-12))))


def pairwise_chamfer(particles: ParticleSet, shape: Shape, surface_samples: np.ndarray) -> float:
    """Mean absolute signed distance of every particle's surface samples
    under every other particle (sequential accumulation, matching the
    scalar-loop definition bit for bit)."""
    n = len(particles)
    p_count = len(surface_samples)
    flat = np.concatenate([T.inverse().transform(surface_samples) for T in particles.poses])
    # one particle's row at a time: adding the running total to the row's
    # first element continues the sequential sum where the last row ended
    total = 0.0
    for T in particles.poses:
        row = np.abs(blockwise(lambda x: shape.sdf(T.transform(x)), flat))
        row[0] += total
        total = float(np.cumsum(row)[-1])
    return total / (n * n * p_count)


def calibrate_nll_threshold(
    shape: Shape,
    true_pose: Pose,
    surface_samples: np.ndarray,
    sensor: SensorModel,
    trans: float = 0.005,
    rot: float = math.radians(5.0),
) -> float:
    """Success bar: mean NLL of a single-particle belief at the true pose
    perturbed by ``trans``/``rot`` over the four cardinal directions and
    both yaw signs."""
    center = true_pose.object_center_world()
    yaw = true_pose.placement_yaw()
    vals = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        for sy in (1, -1):
            pert_center = center + trans * np.array([dx, dy, 0.0])
            pert = Pose.from_placement(pert_center, yaw + sy * rot)
            vals.append(nll(ParticleSet.uniform([pert]), shape, true_pose, surface_samples, sensor))
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
    action_scale: ActionScale,
    speed: float = 0.5,
) -> np.ndarray:
    """Contact-sliding heuristic: head toward the estimated object center
    until contact, then move tangent to the estimated surface normal."""
    q = np.asarray(q, dtype=np.float64)
    if in_contact and contact_point is not None:
        normal = np.zeros(3)
        for T, w in zip(particles.poses, particles.weights):
            normal += w * T.inverse().rotate(shape.gradient(T.transform(np.asarray(contact_point))))
        n2 = normal[:2]
        nn = float(np.linalg.norm(n2))
        if nn > 1e-12:
            tangent = np.array([-n2[1], n2[0]]) * tangent_sign / nn
            return np.array([tangent[0] * speed, tangent[1] * speed, 0.0])
    center = particles.weighted_center()
    dvec = (center - q[:3])[:2]
    dvec[:] = dvec / action_scale.translation
    dist = float(np.linalg.norm(dvec))
    if dist < 1e-12:
        return np.zeros(3)
    if dist > speed:
        dvec *= speed / dist
    return np.array([dvec[0], dvec[1], 0.0])


# ---------------------------------------------------------------------------
# Episode harness
# ---------------------------------------------------------------------------


def _sample_priors(scenario: Scenario, cloud: SemanticCloud, rng: np.random.Generator) -> list[Pose]:
    n = scenario.prior_count if scenario.prior_count is not None else scenario.belief.n_particles
    n = max(n, scenario.belief.n_particles)
    if scenario.prior_mode == "surface_centroid" and len(cloud.surface):
        center = cloud.surface.mean(axis=0)
        center[2] = scenario.true_center[2]
        return [Pose.from_placement(center, rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    base = np.asarray(scenario.prior_center, dtype=np.float64)
    priors = []
    for _ in range(n):
        offset = np.array([rng.normal(0, scenario.prior_position_std), rng.normal(0, scenario.prior_position_std), 0.0])
        priors.append(Pose.from_placement(base + offset, rng.uniform(-math.pi, math.pi)))
    return priors


@dataclass
class EpisodeArtifacts:
    """Optional extra outputs for export (field snapshots, particles, trace)."""

    fields: list[tuple[int, InfoFields, ScalarField]] = field(default_factory=list)
    particle_snapshots: list[tuple[int, ParticleSet]] = field(default_factory=list)
    planner_trace: list[dict] = field(default_factory=list)


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

    cloud0 = voxel_downsample(
        camera_observe(world, scenario.camera), scenario.belief.r_free
    )
    priors = _sample_priors(scenario, cloud0, rng)
    cfg = BeliefConfig(shape=shape, disc=scenario.disc, params=scenario.belief)
    particles = initialize_particles(priors, cloud0, shape, scenario.disc, scenario.belief, rng)
    state = BeliefState(particles=particles, cloud=cloud0)

    term_level = scenario.termination_ratio * shape.characteristic_length
    tangent_sign = 1.0 if rng.random() < 0.5 else -1.0
    planner = Planner(pparams, robot)
    # the pairwise chamfer depends on the particle poses only, and they stay
    # bit for bit the same over the steps that merely reweigh the particles
    chamfers: dict[bytes, float] = {}

    def chamfer() -> float:
        key = state.particles.rotations().tobytes() + state.particles.translations().tobytes()
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
            action = slide_policy(
                state.particles, shape, world.q, in_contact, contact_point,
                tangent_sign, pparams.action_scale, scenario.slide_speed,
            )
        else:
            fields = build_info_fields(
                state.particles, shape, workspace, scenario.belief.gamma, sensor, scenario.disc
            )
            table = ReachTable(fields.info, reach_field) if pparams.reach_weight != 0.0 else None
            ctx = PlanningContext(
                fields=fields,
                reach=reach_field,
                particles=state.particles,
                shape=shape,
                reach_table=table,
                normal_quantization=scenario.workspace_resolution / 2.0,
            )
            if artifacts is not None:
                artifacts.fields.append((t, fields, reach_field))
            action = planner.get_action(world.q, ctx, rng, contact=in_contact)

        q_before = world.q.copy()
        dT_true, contact = world_step(world, action, robot, pparams.action_scale, scenario.sim)
        obs = tactile_observe(world, world.q, robot, scenario.sim.tactile_tol)
        if scenario.camera_every_step:
            obs = obs.extend(camera_observe(world, scenario.camera))

        if scenario.observe_movement_directly:
            # a perfect slip sensor also fixes the world-frame point motion
            T_new = world.true_pose
            dT_w_true = T_new.inverse().compose(dT_true.inverse()).compose(T_new)
            state = update_step(state, cfg, obs, dT_true, rng, movement_known=True, dT_w_known=dT_w_true)
        else:
            # sticking contact: the object moves with the paddle
            motion = (
                Pose(np.eye(3), np.array([world.q[0] - q_before[0], world.q[1] - q_before[1], 0.0]))
                if contact
                else None
            )
            state = update_step(state, cfg, obs, Pose.identity(), rng, movement_known=False, prior_w=motion)

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
