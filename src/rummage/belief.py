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
from .geometry import ParticleSet, Pose, Shape, compose_poses
from .semantics import SemanticCloud, merge_observations

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BeliefParams:
    gamma: float = 2.0          # posterior peakiness
    eta: float = 5.0            # resample discrepancy threshold
    sigma_t: float = 0.010      # translation process noise, meters
    k_opt: int = 10             # descent steps per refinement
    n_particles: int = 100
    schedule: DescentSchedule = field(default_factory=DescentSchedule)

    def __post_init__(self):
        if not self.n_particles >= 1:
            raise ValueError(f"belief n_particles must be at least 1, got {self.n_particles!r}")


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
    return ParticleSet(particles.translations, particles.yaws, w)


def perturb(rng: np.random.Generator, n: int, sigma_t: float) -> np.ndarray:
    """Sample ``n`` small planar random translations (n, 3): Gaussian x and
    y, zero z (no draw at all for ``sigma_t <= 0``).

    One standard-normal block holds each translation's draws in turn (x,
    y), so the stream is that of drawing them one translation at a time
    with ``rng.normal``."""
    t = np.zeros((n, 3))
    if sigma_t > 0:
        t[:, :2] = sigma_t * rng.standard_normal((n, 2))
    return t


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
) -> tuple[ParticleSet, np.ndarray]:
    """Systematic resampling by weight, then perturb and locally refine each
    copy against the accumulated cloud.  Weights reset to uniform.

    Returns the copies and their discrepancies against ``cloud``, as
    :func:`refine_pose` returns them."""
    idx = systematic_resample_indices(particles.weights, rng)
    # the noise translates each copy in the world
    copies = ParticleSet(particles.translations[idx] + perturb(rng, len(idx), params.sigma_t), particles.yaws[idx])
    return refine_pose(disc, shape, cloud, copies, params.k_opt, params.schedule)


@dataclass
class BeliefState:
    """A weighed particle set, the cloud it was weighed against, and each
    particle's total discrepancy against that cloud, ``costs`` (N,), equal
    to :func:`discrepancies` of the two bit for bit.  The update that makes
    a state has the costs at hand, so the next update reads them instead of
    evaluating them again."""

    particles: ParticleSet
    cloud: SemanticCloud
    costs: np.ndarray

    def __post_init__(self):
        if np.shape(self.costs) != (len(self.particles),):
            raise ValueError("a belief state needs one cost per particle")


def estimate_movement(
    state: BeliefState,
    new_cloud: SemanticCloud,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    prior_w: Pose | None = None,
) -> tuple[Pose, Pose]:
    """Estimate the object's pose delta from the newest observations.

    Picks the particle of the lowest discrepancy against the state's
    cloud as the representative pose (read from ``state.costs``, not
    evaluated again), applies the sticking-contact prior to it, and
    descends the discrepancy of the new cloud under the composed pose.
    Returns ``(dT, dT_w)`` where
    ``dT`` left-composes onto pose particles and ``dT_w`` is the
    world-frame point motion consistent with it:
    ``dT_w = T_i^-1 dT^-1 T_i``, which makes
    ``(dT T_i)(dT_w x) == T_i x`` hold exactly.

    ``prior_w`` is the world-frame motion of the contact (the paddle's
    displacement), none meaning no motion.  The prior is built through the
    representative particle it is composed onto, so the world motion it
    implies is ``prior_w`` whatever that particle's yaw.
    """
    if len(new_cloud.surface) == 0:
        return Pose.identity(), Pose.identity()
    T_i = state.particles.pose(int(np.argmin(state.costs)))
    # composed even when it is the identity, which can flip the sign of zeros
    prior = Pose.identity() if prior_w is None else T_i.compose(prior_w.inverse()).compose(T_i.inverse())
    start = ParticleSet.from_poses([prior.compose(T_i)])
    composed = refine_pose(disc, shape, new_cloud, start, params.k_opt, params.schedule)[0].pose(0)
    dT = composed.compose(T_i.inverse())
    dT_w = T_i.inverse().compose(dT.inverse()).compose(T_i)
    return dT, dT_w


def update_step(
    state: BeliefState,
    new_cloud: SemanticCloud,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    rng: np.random.Generator,
    *,
    known: tuple[Pose, Pose] | None = None,
    prior_w: Pose | None = None,
) -> BeliefState:
    """One posterior update: estimate object motion, predict particles,
    merge observations, then resample or reweigh.

    ``known`` is the object's measured motion ``(dT, dT_w)`` (a simulator
    or slip sensor that measures it directly): the pose change that
    left-composes onto the particles and the matching world-frame point
    motion.  Without it the motion is estimated from the new cloud, with
    ``prior_w``, the contact's world-frame motion, as the sticking prior
    (see :func:`estimate_movement`).

    The particles' discrepancies against the merged cloud are evaluated
    once, or come from the refinement when they are resampled; the
    weights and the returned state's costs both use them.
    """
    if known is not None and prior_w is not None:
        raise ValueError("give the known motion or its prior, not both")
    if known is not None:
        dT, dT_w = known
    else:
        dT, dT_w = estimate_movement(state, new_cloud, shape, disc, params, prior_w)

    particles = state.particles
    if not dT.is_identity():
        # (noise dT) T for every particle: noise dT is dT with the noise
        # added to its translation
        noise = perturb(rng, len(particles), params.sigma_t)
        moved = compose_poses(dT.translation + noise, dT.yaw, particles.translations, particles.yaws)
        particles = ParticleSet(*moved, particles.weights)

    cloud = merge_observations(state.cloud, new_cloud, particles, dT_w, shape)

    d = discrepancies(disc, shape, cloud, particles)
    if d.max() > params.eta:
        particles, d = resample(particles, cloud, shape, disc, params, rng)
    return BeliefState(weigh(particles, cloud, shape, disc, params, d), cloud, d)


def initialize_particles(
    priors: ParticleSet,
    cloud: SemanticCloud,
    shape: Shape,
    disc: DiscrepancyParams,
    params: BeliefParams,
    rng: np.random.Generator,
) -> BeliefState:
    """Diversity-preserving initialization from prior poses: the first
    belief state against the first cloud.

    Each prior is locally refined against the initial cloud, then binned by
    placement yaw into 36 bins of 10 degrees; the lowest-discrepancy pose
    per bin survives.  Bins whose elite still exceeds the resample
    threshold are dropped when anything better exists.  The particle set
    is filled by sampling surviving bins uniformly at random, then weighed
    by the costs the refinement returned.
    """
    n = params.n_particles
    if len(cloud) == 0:
        if len(priors) < n:
            raise ValueError("need at least n_particles prior poses")
        return BeliefState(ParticleSet(priors.translations[:n], priors.yaws[:n]), cloud, np.zeros(n))

    refined, costs = refine_pose(disc, shape, cloud, priors, params.k_opt, params.schedule)

    # each pose's placement-yaw bin, then each bin's lowest cost
    yaw = -refined.yaws % (2.0 * math.pi)
    bins = np.minimum((yaw / (2.0 * math.pi / 36)).astype(np.intp), 35)
    order = np.lexsort((costs, bins))  # stable: the first among equal costs leads
    _, lead = np.unique(bins[order], return_index=True)
    elites = order[lead]

    good = elites[costs[elites] <= params.eta]
    if len(good):
        elites = good
    rows = elites[rng.integers(0, len(elites), size=n)]
    particles = ParticleSet(refined.translations[rows], refined.yaws[rows])
    # a pose's discrepancy does not depend on the batch it is evaluated in
    return BeliefState(weigh(particles, cloud, shape, disc, params, costs[rows]), cloud, costs[rows])
