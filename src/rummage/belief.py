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
from .geometry import ParticleSet, Pose, Shape, compose_poses, rotation_about_axis
from .semantics import SemanticCloud, merge_observations

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BeliefParams:
    gamma: float = 2.0          # posterior peakiness
    eta: float = 5.0            # resample discrepancy threshold
    sigma_t: float = 0.010      # translation process noise, meters
    sigma_r: float = 0.0        # rotation process noise, radians
    k_opt: int = 10             # descent steps per refinement
    n_particles: int = 100
    planar: bool = True
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
    return ParticleSet(particles.rotations, particles.translations, w)


def perturb(
    rng: np.random.Generator, n: int, sigma_t: float, sigma_r: float, planar: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n`` small random transforms, as rotations (n, 3, 3) and
    translations (n, 3): Gaussian translation, Gaussian angle about a
    uniformly random axis (the z axis in planar mode).

    One standard-normal block holds each transform's draws in turn
    (translation, axis, angle), so the stream is that of drawing them one
    transform at a time with ``rng.normal``."""
    m = (2 if planar else 3) if sigma_t > 0 else 0
    z = rng.standard_normal((n, m + (0 if planar else 3) + (sigma_r > 0)))
    t = np.zeros((n, 3))
    t[:, :m] = sigma_t * z[:, :m]
    axis = np.tile([0.0, 0.0, 1.0], (n, 1))
    if not planar:
        raw = z[:, m:m + 3]
        norm = np.sqrt(np.vecdot(raw, raw))[:, None]
        np.divide(raw, norm, out=axis, where=norm > 0)
    angle = sigma_r * z[:, -1] if sigma_r > 0 else np.zeros(n)
    return rotation_about_axis(axis, angle), t


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
    noise = perturb(rng, len(idx), params.sigma_t, params.sigma_r, params.planar)
    copies = ParticleSet(*compose_poses(*noise, particles.rotations[idx], particles.translations[idx]))
    return refine_pose(disc, shape, cloud, copies, params.k_opt, params.schedule, params.planar)


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
    T_i = particles.pose(int(np.argmin(d)))
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
                T_i = state.particles.pose(int(np.argmin(d)))
            else:
                T_i = state.particles.pose(0)
            dT_w = T_i.inverse().compose(dT.inverse()).compose(T_i)
    else:
        dT, dT_w = estimate_movement(
            state.cloud, new_cloud, state.particles, dT_robot, cfg.shape, cfg.disc, p, prior_w
        )

    particles = state.particles
    if not dT.is_identity():
        # (noise dT) T for every particle
        noise = perturb(rng, len(particles), p.sigma_t, p.sigma_r, p.planar)
        moved = compose_poses(*compose_poses(*noise, dT.rotation, dT.translation), particles.rotations, particles.translations)
        particles = ParticleSet(*moved, particles.weights)

    cloud = merge_observations(state.cloud, new_cloud, particles, dT_w, cfg.shape, p.r_free, p.r_surf)

    d = discrepancies(cfg.disc, cfg.shape, cloud, particles)
    if d.max() > p.eta:
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
    priors = ParticleSet.from_poses(prior_poses)
    if len(cloud) == 0:
        if len(priors) < n:
            raise ValueError("need at least n_particles prior poses")
        return ParticleSet(priors.rotations[:n], priors.translations[:n])

    refined = refine_pose(disc, shape, cloud, priors, params.k_opt, params.schedule, params.planar)
    costs = discrepancies(disc, shape, cloud, refined)

    # each pose's yaw bin (Pose.placement_yaw), then each bin's lowest cost
    R = refined.rotations
    yaw = np.arctan2(R[:, 0, 1], R[:, 0, 0]) % (2.0 * math.pi)
    bins = np.minimum((yaw / (2.0 * math.pi / yaw_bins)).astype(np.intp), yaw_bins - 1)
    order = np.lexsort((costs, bins))  # stable: the first among equal costs leads
    _, lead = np.unique(bins[order], return_index=True)
    elites = order[lead]

    good = elites[costs[elites] <= params.eta]
    if len(good):
        elites = good
    rows = elites[rng.integers(0, len(elites), size=n)]
    particles = ParticleSet(R[rows], refined.translations[rows])
    # a pose's discrepancy does not depend on the batch it is evaluated in
    return weigh(particles, cloud, shape, disc, params, costs[rows])
