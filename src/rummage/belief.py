"""Particle-filter posterior over object pose.

Weights follow a Boltzmann rule on the semantic discrepancy,
``w_i ∝ exp(-gamma * d_i)`` after subtracting the minimum discrepancy for
numerical stability (the normalization constant of the underlying
distribution is absorbed by the weight normalization).  Resampling is
systematic importance resampling followed by perturbation and a few
discrepancy descent steps; it triggers when the worst particle's
discrepancy exceeds a threshold rather than on weight degeneracy alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import DescentSchedule, DiscrepancyParams, discrepancies, refine_pose
from .discrepancy import total_discrepancy  # noqa: F401  (loopbench/tracing.py wraps belief.total_discrepancy)
from .geometry import Pose, Shape
from .semantics import SemanticCloud, merge_observations

log = logging.getLogger(__name__)


@dataclass
class ParticleSet:
    """Pose hypotheses with normalized weights."""

    poses: list[Pose]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.poses) != len(self.weights):
            raise ValueError("poses and weights length mismatch")
        if len(self.poses) == 0:
            raise ValueError("particle set must be nonempty")

    @staticmethod
    def uniform(poses: list[Pose]) -> "ParticleSet":
        n = len(poses)
        return ParticleSet(list(poses), np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return len(self.poses)

    def rotations(self) -> np.ndarray:
        return np.stack([p.rotation for p in self.poses])

    def translations(self) -> np.ndarray:
        return np.stack([p.translation for p in self.poses])

    def weighted_center(self) -> np.ndarray:
        centers = np.stack([p.object_center_world() for p in self.poses])
        return (self.weights[:, None] * centers).sum(axis=0)


@dataclass(frozen=True)
class BeliefParams:
    gamma: float = 2.0          # posterior peakiness
    eta: float = 5.0            # resample discrepancy threshold
    sigma_t: float = 0.010      # translation process noise, meters
    sigma_r: float = 0.0        # rotation process noise, radians
    k_opt: int = 10             # descent steps per refinement
    n_particles: int = 100
    planar: bool = True
    resample_percentile: float | None = None  # None: use the max discrepancy
    r_free: float = 0.010
    r_surf: float = 0.002
    schedule: DescentSchedule = field(default_factory=DescentSchedule)


def weigh(
    particles: ParticleSet,
    cloud: SemanticCloud,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    d: np.ndarray | None = None,
) -> ParticleSet:
    """Boltzmann reweighting from discrepancies; weights sum to one.

    ``d``, when given, holds the particles' discrepancies against ``cloud``
    already computed (they are not evaluated again)."""
    if d is None:
        d = discrepancies(disc, shape, cloud, particles)
    d = d - d.min()
    w = np.exp(-params.gamma * d)
    total = w.sum()
    if total <= 0.0 or not np.isfinite(total):
        log.warning("all particle weights underflowed; falling back to uniform")
        w = np.full(len(particles), 1.0 / len(particles))
    else:
        w = w / total
    return ParticleSet(list(particles.poses), w)


def perturb(rng: np.random.Generator, sigma_t: float, sigma_r: float, planar: bool = False) -> Pose:
    """Sample a small random transform: Gaussian translation, Gaussian angle
    about a uniformly random axis (the z axis in planar mode)."""
    if planar:
        dt = np.zeros(3)
        dt[:2] = rng.normal(0.0, sigma_t, 2) if sigma_t > 0 else 0.0
        axis = np.array([0.0, 0.0, 1.0])
    else:
        dt = rng.normal(0.0, sigma_t, 3) if sigma_t > 0 else np.zeros(3)
        raw = rng.normal(size=3)
        n = np.linalg.norm(raw)
        axis = raw / n if n > 0 else np.array([0.0, 0.0, 1.0])
    angle = float(rng.normal(0.0, sigma_r)) if sigma_r > 0 else 0.0
    return Pose.delta(dt, axis, angle)


def systematic_resample_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against rounding
    return np.searchsorted(cum, positions, side="right").clip(max=n - 1)


def resample(
    particles: ParticleSet,
    cloud: SemanticCloud,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    rng: np.random.Generator,
) -> ParticleSet:
    """Systematic resampling by weight, then perturb and locally refine each
    copy against the accumulated cloud.  Weights reset to uniform."""
    idx = systematic_resample_indices(particles.weights, rng)
    new_poses = []
    for i in idx:
        base = particles.poses[int(i)]
        noise = perturb(rng, params.sigma_t, params.sigma_r, params.planar)
        new_poses.append(noise.compose(base))
    refined = refine_pose(disc, shape, cloud, new_poses, params.k_opt, params.schedule, params.planar)
    return ParticleSet.uniform(refined)


def estimate_movement(
    prev_cloud: SemanticCloud,
    new_cloud: SemanticCloud,
    particles: ParticleSet,
    dT_robot: Pose,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    prior_w: Pose | None = None,
) -> tuple[Pose, Pose]:
    """Estimate the object's pose delta from the newest observations.

    Starts from the sticking-contact prior ``dT_robot``, picks the lowest
    discrepancy particle as the representative pose, and descends the
    discrepancy of the new cloud under the composed pose.  Returns
    ``(dT, dT_w)`` where ``dT`` left-composes onto pose particles and
    ``dT_w`` is the world-frame point motion consistent with it:
    ``dT_w = T_i^-1 dT^-1 T_i``, which makes
    ``(dT T_i)(dT_w x) == T_i x`` hold exactly.

    ``prior_w``, when given, is the world-frame motion of the contact (the
    paddle's displacement) and replaces ``dT_robot``: the prior is built
    through the same representative particle it is composed onto, so the
    world motion it implies is ``prior_w`` whatever that particle's yaw.
    """
    if len(new_cloud.surface) == 0:
        return Pose.identity(), Pose.identity()
    d = discrepancies(disc, shape, prev_cloud, particles)
    i = int(np.argmin(d))
    T_i = particles.poses[i]
    if prior_w is not None:
        dT_robot = T_i.compose(prior_w.inverse()).compose(T_i.inverse())
    composed = dT_robot.compose(T_i)
    composed = refine_pose(disc, shape, new_cloud, composed, params.k_opt, params.schedule, params.planar)
    dT = composed.compose(T_i.inverse())
    dT_w = T_i.inverse().compose(dT.inverse()).compose(T_i)
    return dT, dT_w


@dataclass(frozen=True)
class BeliefConfig:
    shape: Shape
    disc: DiscrepancyParams = field(default_factory=DiscrepancyParams)
    params: BeliefParams = field(default_factory=BeliefParams)


@dataclass
class BeliefState:
    particles: ParticleSet
    cloud: SemanticCloud


def _resample_trigger(d: np.ndarray, params: BeliefParams) -> float:
    if params.resample_percentile is not None:
        return float(np.percentile(d, params.resample_percentile))
    return float(d.max())


def update_step(
    state: BeliefState,
    cfg: BeliefConfig,
    new_cloud: SemanticCloud,
    dT_robot: Pose,
    rng: np.random.Generator,
    movement_known: bool = False,
    dT_w_known: Pose | None = None,
    prior_w: Pose | None = None,
) -> BeliefState:
    """One posterior update: estimate object motion, predict particles,
    merge observations, then resample or reweigh.

    With ``movement_known`` the provided delta is trusted as the object's
    pose change (simulators or slip sensors that measure it directly), and
    ``dT_w_known`` can supply the matching world-frame point motion; when
    omitted it is derived through the lowest-discrepancy particle.  Without
    ``movement_known`` the delta is only the sticking prior for the
    movement optimization; ``prior_w`` gives that prior as the contact's
    world-frame motion instead (see :func:`estimate_movement`).
    """
    p = cfg.params
    if movement_known:
        dT = dT_robot
        if dT_w_known is not None:
            dT_w = dT_w_known
        else:
            if len(state.cloud) and not dT.is_identity():
                d = discrepancies(cfg.disc, cfg.shape, state.cloud, state.particles)
                T_i = state.particles.poses[int(np.argmin(d))]
            else:
                T_i = state.particles.poses[0]
            dT_w = T_i.inverse().compose(dT.inverse()).compose(T_i)
    else:
        dT, dT_w = estimate_movement(
            state.cloud, new_cloud, state.particles, dT_robot, cfg.shape, cfg.disc, p, prior_w
        )

    particles = state.particles
    if not dT.is_identity():
        moved = []
        for T in particles.poses:
            noise = perturb(rng, p.sigma_t, p.sigma_r, p.planar)
            moved.append(noise.compose(dT).compose(T))
        particles = ParticleSet(moved, particles.weights.copy())

    cloud = merge_observations(state.cloud, new_cloud, particles, dT_w, cfg.shape, p.r_free, p.r_surf)

    d = discrepancies(cfg.disc, cfg.shape, cloud, particles)
    if _resample_trigger(d, p) > p.eta:
        particles = resample(particles, cloud, cfg.shape, cfg.disc, p, rng)
        particles = weigh(particles, cloud, cfg.shape, cfg.disc, p)
    else:
        particles = weigh(particles, cloud, cfg.shape, cfg.disc, p, d)
    return BeliefState(particles=particles, cloud=cloud)


def initialize_particles(
    prior_poses: list[Pose],
    cloud: SemanticCloud,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    rng: np.random.Generator,
    yaw_bins: int = 36,
) -> ParticleSet:
    """Diversity-preserving initialization from prior poses.

    Each prior is locally refined against the initial cloud, then binned by
    placement yaw; the lowest-discrepancy pose per bin survives.  Bins whose
    elite still exceeds the resample threshold are dropped when anything
    better exists.  The particle set is filled by sampling surviving bins
    uniformly at random, then weighed.
    """
    n = params.n_particles
    if len(cloud) == 0:
        if len(prior_poses) < n:
            raise ValueError("need at least n_particles prior poses")
        return ParticleSet.uniform(list(prior_poses[:n]))

    refined = refine_pose(disc, shape, cloud, prior_poses, params.k_opt, params.schedule, params.planar)
    costs = discrepancies(disc, shape, cloud, refined)

    elites: dict[int, tuple[float, Pose]] = {}
    for T, c in zip(refined, costs):
        yaw = T.placement_yaw() % (2.0 * math.pi)
        b = min(int(yaw / (2.0 * math.pi / yaw_bins)), yaw_bins - 1)
        if b not in elites or c < elites[b][0]:
            elites[b] = (c, T)

    good = {b: e for b, e in elites.items() if e[0] <= params.eta}
    if good:
        elites = good
    bins = sorted(elites.keys())
    picks = rng.integers(0, len(bins), size=n)
    chosen = [elites[bins[int(k)]] for k in picks]
    particles = ParticleSet.uniform([T for _, T in chosen])
    # a pose's discrepancy does not depend on the batch it is evaluated in
    return weigh(particles, cloud, shape, disc, params, np.array([c for c, _ in chosen]))


def particles_to_rows(particles: ParticleSet) -> list[dict]:
    """Serializable rows (translation + quaternion + weight) for logging."""
    from .geometry import quaternion_from_matrix

    rows = []
    for T, w in zip(particles.poses, particles.weights):
        q = quaternion_from_matrix(T.rotation)
        t = T.translation
        rows.append(
            {
                "tx": t[0], "ty": t[1], "tz": t[2],
                "qw": q[0], "qx": q[1], "qy": q[2], "qz": q[3],
                "weight": float(w),
            }
        )
    return rows


def particles_from_rows(rows: list[dict]) -> ParticleSet:
    from .geometry import matrix_from_quaternion

    poses, weights = [], []
    for r in rows:
        R = matrix_from_quaternion([float(r["qw"]), float(r["qx"]), float(r["qy"]), float(r["qz"])])
        poses.append(Pose(R, np.array([float(r["tx"]), float(r["ty"]), float(r["tz"])])))
        weights.append(float(r["weight"]))
    return ParticleSet(poses, np.asarray(weights))
