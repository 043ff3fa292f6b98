"""Particle sets as arrays: every batched site against a per-pose loop.

Each reference below makes, one particle at a time, the ``Pose`` calls
and draws that the batched code replaces, and the batched result must
match it bit for bit.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rummage import discrepancy, sim
from rummage.belief import BeliefParams, BeliefState, resample, systematic_resample_indices, update_step
from rummage.discrepancy import DescentSchedule, DiscrepancyParams, _step_poses, refine_pose, total_discrepancy
from rummage.geometry import ParticleSet, Pose
from rummage.semantics import SemanticCloud

from conftest import random_pose, rodrigues, weighted_set
from test_discrepancy import pose_descent_step, scene_cloud

# (planar, value): particle origins on the table or with z offsets; the
# value is the measured motion's yaw for test_update_step_motion and the
# translation noise sigma_t for test_resample_perturb_compose (0: no draw)
NOISE = [(True, 0.0), (True, 0.05), (False, 0.05)]


def assert_bits(a: Pose, b: Pose):
    assert a.rotation.tobytes() == b.rotation.tobytes()
    assert a.translation.tobytes() == b.translation.tobytes()
    assert np.float64(a.yaw).tobytes() == np.float64(b.yaw).tobytes()


def turn(yaw: float, v) -> np.ndarray:
    """``Rz(yaw) v`` with the elementwise products ``c*x - s*y``."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])


def perturb_one(rng, sigma_t: float) -> Pose:
    """One particle's planar noise, a translation drawn as a per-particle
    loop draws it."""
    dt = np.zeros(3)
    dt[:2] = rng.normal(0.0, sigma_t, 2) if sigma_t > 0 else 0.0
    return Pose(dt)


def compose_one(A: Pose, B: Pose) -> Pose:
    """``A`` after ``B``: the yaws add and ``B``'s translation turns by ``A``'s yaw."""
    return Pose(turn(A.yaw, B.translation) + A.translation, A.yaw + B.yaw)


def step_one(T: Pose, g_mean, torque: float, step_t: float, step_r: float) -> Pose:
    """One pose's descent step, as a per-pose loop makes it: the x, y
    direction and the z torque clamped, the yaw lowered by the torque and
    the stepped translation turned with it."""

    def clamp(vec, cap):
        n = math.sqrt(vec[0] * vec[0] + vec[1] * vec[1])
        return vec if n <= cap or n < 1e-15 else vec * (cap / n)

    new_t = T.translation.copy()
    new_t[:2] -= clamp(g_mean, step_t)
    angle = min(max(torque, -step_r), step_r)
    return Pose(turn(-angle, new_t), T.yaw - angle)


def particle_set(rng, n: int, planar: bool) -> ParticleSet:
    poses = [random_pose(rng, planar=planar, trans_scale=0.1) for _ in range(n)]
    w = rng.uniform(0.1, 1.0, n)
    return weighted_set(poses, w / w.sum())


@pytest.mark.parametrize("planar, yaw", NOISE)
def test_update_step_motion(planar, yaw, mug):
    """Every particle becomes (noise dT) T, its noise drawn in turn, with
    and without a turn."""
    particles = particle_set(np.random.default_rng(3), 200, planar)
    dT = Pose(np.array([0.01, -0.004, 0.0 if planar else 0.002]), yaw)
    sigma_t = 0.01
    params = BeliefParams(sigma_t=sigma_t)
    state = BeliefState(particles, SemanticCloud(), np.zeros(len(particles)))
    out = update_step(
        state, SemanticCloud(), mug, DiscrepancyParams(), params,
        np.random.default_rng(11), known=(dT, Pose.identity()),
    )
    rng = np.random.default_rng(11)
    for T, got in zip(particles.poses, out.particles.poses):
        noisy = Pose(dT.translation + perturb_one(rng, sigma_t).translation, dT.yaw)
        assert_bits(got, compose_one(noisy, T))


@pytest.mark.parametrize("planar, sigma_t", NOISE)
def test_resample_perturb_compose(planar, sigma_t, mug):
    """Every resampled copy is noise T, its noise drawn after the indices."""
    particles = particle_set(np.random.default_rng(4), 200, planar)
    params = BeliefParams(sigma_t=sigma_t)
    out, _ = resample(particles, SemanticCloud(), mug, DiscrepancyParams(), params, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    idx = systematic_resample_indices(particles.weights, rng)
    assert len(np.unique(idx)) < len(idx)  # some particles copied more than once
    poses = particles.poses
    for i, got in zip(idx, out.poses):
        assert_bits(got, compose_one(perturb_one(rng, sigma_t), poses[i]))


def test_step_poses(rng):
    """Clamped and unclamped steps, rows with zero torque, and rows without
    active points (zero direction and torque), which stay put."""
    n = 90
    poses = [random_pose(rng, planar=k % 2 == 0) for k in range(n)]
    t, yaws = np.stack([T.translation for T in poses]), np.array([T.yaw for T in poses])
    g_mean = rng.normal(0.0, 0.01, (n, 2))
    torque = rng.normal(0.0, 0.1, n)
    torque[::4] = 0.0
    torque[1::9] *= 1e-17
    still = rng.random(n) < 0.2
    g_mean[still], torque[still] = 0.0, 0.0
    new_t, new_yaws = _step_poses(t, yaws, g_mean, torque, 0.01, 0.1)
    assert np.sum(np.abs(torque) > 0.1) > 10 and np.sum(np.hypot(*g_mean.T) > 0.01) > 10
    for i, T in enumerate(poses):
        assert_bits(Pose(new_t[i], new_yaws[i]), T if still[i] else step_one(T, g_mean[i], torque[i], 0.01, 0.1))


def polar(M: np.ndarray) -> np.ndarray:
    """The nearest rotation to ``M`` (polar decomposition by SVD)."""
    U, _, Vt = np.linalg.svd(M)
    out = U @ Vt
    if np.linalg.det(out) < 0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        out = U @ Vt
    return out


def test_planar_forms_match_matrix_products():
    """Composition, inverse and one descent step of planar poses against
    3x3 matrix products (the step: a Rodrigues turn about z, then the
    polar projection).  The angle sums round differently from the
    products, so the rotation entries may differ by at most 4 ulp of 1.0
    and a translation coordinate by 2 ulp of the sum of the magnitudes it
    is made from; over these 500 cases the largest differences were 2.5
    and 0.73."""
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(21)

    def close(got: Pose, R, t, scale):
        assert np.abs(got.rotation - R).max() <= 4 * eps
        assert np.abs(got.translation - t).max() <= 2 * eps * scale

    for _ in range(500):
        A = Pose(rng.uniform(-0.5, 0.5, 3), rng.uniform(-math.pi, math.pi))
        B = Pose(rng.uniform(-0.5, 0.5, 3), rng.uniform(-math.pi, math.pi))
        scale = np.abs(A.translation).sum() + np.abs(B.translation).sum()
        close(A.compose(B), A.rotation @ B.rotation, A.rotation @ B.translation + A.translation, scale)
        close(A.inverse(), A.rotation.T, -A.rotation.T @ A.translation, np.abs(A.translation).sum())

        g_mean, torque = rng.normal(0.0, 0.01, 2), float(rng.normal(0.0, 0.1))
        t, yaw = _step_poses(A.translation[None], np.array([A.yaw]), g_mean[None], np.array([torque]), 0.01, 0.1)
        n = float(np.linalg.norm(g_mean))
        moved = A.translation - np.append(g_mean if n <= 0.01 else g_mean * (0.01 / n), 0.0)
        angle = min(abs(torque), 0.1)
        turn = rodrigues((0.0, 0.0, math.copysign(1.0, torque)), -angle)
        close(Pose(t[0], yaw[0]), polar(turn @ A.rotation), turn @ moved, np.abs(moved).sum())


def test_refine_best_iterate(rng, mug):
    """Each pose keeps the lowest-cost iterate, the earliest among equal
    costs, and the last one only when it is strictly better."""
    center = (0.4, 0.0, 0.0)
    cloud = scene_cloud(rng, mug, center)
    params = DiscrepancyParams()
    schedule = DescentSchedule(step_t=0.03, step_r=0.6, decay=0.9)
    poses = [Pose.from_placement(np.add(center, rng.normal(0, 0.01, 3) * [1, 1, 0]), rng.uniform(-math.pi, math.pi)) for _ in range(30)]
    got, _ = refine_pose(params, mug, cloud, ParticleSet.from_poses(poses), 5, schedule)
    kept_last = []
    for T, G in zip(poses, got.poses):
        best, best_cost, current = T, None, T
        st, sr = schedule.step_t, schedule.step_r
        for _ in range(5):
            cost = total_discrepancy(params, mug, cloud, current)
            nxt = pose_descent_step(params, mug, cloud, current, st, sr)
            if best_cost is None or cost < best_cost:
                best, best_cost = current, cost
            current, st, sr = nxt, st * schedule.decay, sr * schedule.decay
        kept_last.append(total_discrepancy(params, mug, cloud, current) < best_cost)
        assert_bits(G, current if kept_last[-1] else best)
    assert any(kept_last) and not all(kept_last)


def test_running_sum():
    """``ParticleSet.weighted_sum`` adds ``w * rows[inverse[i]]`` in
    particle order onto 0.0, as ``acc += w * row`` does, signed zeros too;
    the last column's sum is 0 in this order and 1 in reverse order."""
    t = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    particles = ParticleSet(t, np.zeros(4), np.array([0.5, 1.0, 0.5, 2.0]))
    rows = np.array([[-0.0, -0.0, 1e-300, 2.0], [-0.0, 0.0, -1e-300, 1e16], [-0.0, 3.0, 1e16, -5e15]])
    acc = np.zeros(4)
    for w, k in zip(particles.weights, particles.inverse):
        acc += w * rows[k]
    got = particles.weighted_sum(rows)
    assert got.tobytes() == acc.tobytes()
    assert got[3] == 0.0 and np.signbit(got[:2]).tolist() == [False, False]


def test_refine_best_iterate_ties(rng, monkeypatch):
    """Among equal costs the earliest iterate is kept: a scripted kernel
    moves every pose by 1 per step and reports costs full of ties."""
    steps, n = 6, 40
    costs = rng.integers(0, 3, (steps + 1, n)).astype(np.float64)

    class Scripted:
        def __init__(self, *args, **kwargs):
            self.k = 0

        def descent_steps(self, t, yaws, step_t, step_r):
            self.k += 1
            return t + 1.0, yaws, costs[self.k - 1].copy()

        def totals(self, c, s, t):
            return costs[steps].copy()

    monkeypatch.setattr(discrepancy, "_CloudKernel", Scripted)
    start = ParticleSet.from_poses([random_pose(rng) for _ in range(n)])
    cloud = SemanticCloud.from_parts(surface=[[0.0, 0.0, 0.0]])
    got, got_costs = refine_pose(DiscrepancyParams(), None, cloud, start, steps)
    for i in range(n):
        best, best_cost, current = None, None, start.translations[i]
        for k in range(steps + 1):
            if best_cost is None or costs[k, i] < best_cost:
                best, best_cost = current, costs[k, i]
            current = current + 1.0
        assert got.translations[i].tobytes() == best.tobytes()
        assert got_costs[i] == best_cost


def test_weighted_center(rng):
    for planar in (True, False):
        particles = particle_set(rng, 100, planar)
        centers = np.stack([T.object_center_world() for T in particles.poses])
        want = (particles.weights[:, None] * centers).sum(axis=0)
        assert particles.weighted_center().tobytes() == want.tobytes()


def test_arrays_are_read_only_copies(rng):
    """A set keeps its own C-ordered copies, and nothing can write to them
    later (a caller may keep a set and read it again)."""
    t = np.asfortranarray(rng.normal(size=(4, 3)))
    yaws = rng.uniform(-math.pi, math.pi, 8)[::2]
    w = np.full(4, 0.25)
    particles = ParticleSet(t, yaws, w)
    assert particles.translations.flags["C_CONTIGUOUS"] and particles.yaws.flags["C_CONTIGUOUS"]
    t[0], yaws[0], w[0] = 0.0, 0.0, 0.0
    assert particles.translations[0].any() and particles.yaws[0] != 0.0 and particles.weights[0] == 0.25
    pose = particles.pose(1)
    arrays = (particles.translations, particles.yaws, particles.weights, pose.rotation, pose.translation)
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_loopbench_tracer_fits_the_package():
    """The benchmark's tracer patches the package from outside: every
    attribute it wraps must exist, and restoring puts each one back."""
    path = Path(__file__).resolve().parent.parent / "loopbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("loopbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing.Patches()
    try:
        tracing.instrument(tracing.Tracer(), patches)
        saved = list(patches._saved)
        assert len(saved) > 20
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        patches.restore()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def reference_priors(scenario, cloud, rng) -> list[Pose]:
    """The priors drawn one at a time: a uniform yaw about the surface
    centroid, or (without surface points) normal x and y offsets from the
    prior center and then a uniform yaw, each made by ``Pose.from_placement``."""
    n = max(scenario.prior_count or 0, scenario.belief.n_particles)
    if len(cloud.surface):
        center = cloud.surface.mean(axis=0)
        center[2] = scenario.true_center[2]
        return [Pose.from_placement(center, rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    base = np.asarray(scenario.prior_center, dtype=np.float64)
    priors = []
    for _ in range(n):
        offset = np.array([rng.normal(0, sim.PRIOR_POSITION_STD), rng.normal(0, sim.PRIOR_POSITION_STD), 0.0])
        priors.append(Pose.from_placement(base + offset, rng.uniform(-math.pi, math.pi)))
    return priors


@pytest.mark.parametrize("seed", range(20))
def test_priors_as_arrays(seed):
    """The array-built priors equal the per-prior loop bit for bit, on
    both branches, and leave the generator where the loop leaves it."""
    scenario = replace(sim.Scenario(), prior_count=200)
    rng = np.random.default_rng(seed)
    surface = SemanticCloud.from_parts(surface=rng.uniform(0.3, 0.6, (50, 3)), free=rng.uniform(0.0, 1.0, (20, 3)))
    for cloud in (surface, SemanticCloud.from_parts(free=surface.free)):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sim._sample_priors(scenario, cloud, got_rng)
        want = reference_priors(scenario, cloud, want_rng)
        assert len(got) == len(want) == 200
        for G, W in zip(got.poses, want):
            assert_bits(G, W)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()
