"""Per-particle kernels evaluate each distinct pose once.

Every kernel below is checked bit for bit against a per-particle reference
loop written here, on two particle sets: one that repeats poses the way
``initialize_particles`` fills 100 particles from yaw-bin elites, and one
whose 100 poses are all distinct.
"""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from rummage import belief as belief_mod
from rummage.belief import BeliefParams, BeliefState, ParticleSet, update_step
from rummage.discrepancy import DiscrepancyParams, discrepancies
from rummage.geometry import PAIR_BUDGET, Pose, Workspace, mug_shape
from rummage.infogain import _accumulate, build_info_fields
from rummage.planner import PlanningContext
from rummage.semantics import SemanticCloud, SensorModel, _downsample_positions, merge_observations
from rummage.sim import SLIDE_SPEED, nll, pairwise_chamfer, sample_surface, slide_policy

from conftest import weighted_set
from test_discrepancy import cost_array

CENTER = np.array([0.45, 0.0, 0.0])
SENSOR = SensorModel()
DISC = DiscrepancyParams()


def placement(rng):
    return Pose.from_placement(CENTER + rng.normal(0, 0.01, 3) * [1, 1, 0], rng.uniform(-math.pi, math.pi))


def particle_sets():
    """(name, particles): 100 particles drawn from 36 elites, some of the
    repeats equal-valued copies rather than the same object, and 100
    distinct poses; random weights."""
    rng = np.random.default_rng(7)
    elites = [placement(rng) for _ in range(36)]
    repeated = []
    for k in rng.integers(0, len(elites), 100):
        T = elites[int(k)]
        copy = Pose(np.copy(T.translation, order="K"), T.yaw)
        repeated.append(copy if rng.random() < 0.3 else T)
    distinct = [placement(rng) for _ in range(100)]
    out = []
    for name, poses in (("repeated", repeated), ("distinct", distinct)):
        w = rng.uniform(0.1, 1.0, len(poses))
        out.append((name, weighted_set(poses, w / w.sum())))
    return out


SETS = particle_sets()
IDS = [name for name, _ in SETS]
PARTICLES = [p for _, p in SETS]


def nine_term(R, t, points):
    """``R x + t`` with every term, as a per-particle reference."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return np.stack([R[i, 0] * x + R[i, 1] * y + R[i, 2] * z + t[i] for i in range(3)], axis=-1)


def field_sums(particles, shape, nodes):
    """Per-particle loop: each particle's sensor probabilities and expected
    class costs at the nodes, ``w * value`` added in particle order onto
    0.0 -> rows p_free, p_occ, p_surf, E c_free, E c_occ, E c_surf."""
    acc = np.zeros((6, len(nodes)))
    for T, w in zip(particles.poses, particles.weights):
        v = shape.sdf(nine_term(T.rotation, T.translation, nodes))
        costs = (DISC.sigma_f * np.maximum(0.0, DISC.epsilon - v), DISC.sigma_f * np.maximum(0.0, DISC.epsilon + v), np.abs(v))
        for row, value in zip(acc, SENSOR.probabilities(v) + costs):
            row += w * value
    return acc


def index(poses):
    particles = ParticleSet.from_poses(poses)
    return particles.first, particles.inverse


class TestDistinctPoses:
    def test_first_appearance_order_and_inverse(self):
        a = Pose.from_placement((0.1, 0.0, 0.0), 0.3)
        b = Pose.from_placement((0.2, 0.0, 0.0), -1.0)
        c = Pose.identity()
        first, inverse = index([b, a, b, c, a, a])
        npt.assert_array_equal(first, [0, 1, 3])
        npt.assert_array_equal(inverse, [0, 1, 0, 2, 1, 1])

    def test_equal_valued_separate_objects_merge(self):
        T = Pose.from_placement((0.4, -0.1, 0.0), 2.0)
        copy = Pose(np.copy(T.translation), T.yaw)
        near = Pose(T.translation + [1e-15, 0.0, 0.0], T.yaw)
        turned = Pose(np.copy(T.translation), np.nextafter(T.yaw, 4.0))
        first, inverse = index([T, copy, near, copy, turned])
        npt.assert_array_equal(first, [0, 2, 4])
        npt.assert_array_equal(inverse, [0, 0, 1, 0, 2])

    def test_all_distinct_and_empty(self):
        first, inverse = index(Pose.from_placement((0.01 * i, 0.0, 0.0)) for i in range(5))
        npt.assert_array_equal(first, np.arange(5))
        npt.assert_array_equal(inverse, np.arange(5))
        with pytest.raises(ValueError):
            ParticleSet.from_poses([])
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((0, 3)), np.zeros(0))

    def test_particle_sets(self):
        (_, repeated), (_, distinct) = SETS
        assert len(repeated.first) <= 36
        assert len(distinct.first) == 100


@pytest.fixture(scope="module")
def shape():
    return mug_shape()


@pytest.mark.parametrize("particles", PARTICLES, ids=IDS)
class TestKernelsMatchPerParticleLoops:
    def test_info_fields(self, particles, shape):
        ws = Workspace(bounds=((0.3, 0.6), (-0.15, 0.15), (0.0, 0.0)), resolution=0.01)
        pf, po, ps, ef, eo, es = field_sums(particles, shape, ws.grid_points())
        fields = build_info_fields(particles, shape, ws, 2.0, SENSOR, DISC)
        assert fields.info.values.ravel().tobytes() == (2.0 * (pf * ef + po * eo + ps * es)).tobytes()
        assert fields.p_free.values.ravel().tobytes() == pf.tobytes()
        assert fields.p_occ.values.ravel().tobytes() == po.tobytes()
        assert fields.p_surf.values.ravel().tobytes() == ps.tobytes()

    def test_rollout_normals(self, particles, shape, rng):
        ws = Workspace(bounds=((0.3, 0.6), (-0.15, 0.15), (0.0, 0.0)), resolution=0.02)
        fields = build_info_fields(particles, shape, ws)
        ctx = PlanningContext(fields=fields, particles=particles, shape=shape)
        points = CENTER + rng.uniform(-0.07, 0.07, (300, 3)) * [1, 1, 0.3]
        R = np.stack([T.rotation for T in particles.poses])
        obj = np.stack([nine_term(T.rotation, T.translation, points) for T in particles.poses])
        g = shape.gradient(obj.reshape(-1, 3)).reshape(obj.shape)
        # R^T g summed left to right, per particle
        world = np.empty_like(g)
        for i in range(3):
            world[..., i] = R[:, 0, i, None] * g[..., 0] + R[:, 1, i, None] * g[..., 1] + R[:, 2, i, None] * g[..., 2]
        want = np.einsum("n,nmi->mi", particles.weights, world)
        for _ in range(2):  # the distinct stack is built once per context
            npt.assert_array_equal(ctx._exact_normals(points), want)

    def test_pairwise_chamfer(self, particles, shape):
        samples = sample_surface(shape, 60, np.random.default_rng(1))
        columns = np.concatenate([T.inverse().transform(samples) for T in particles.poses])
        total = 0.0
        for T in particles.poses:
            row = np.abs(shape.sdf(nine_term(T.rotation, T.translation, columns)))
            row[0] += total
            total = float(np.cumsum(row)[-1])
        n = len(particles)
        assert pairwise_chamfer(particles, shape, samples) == total / (n * n * len(samples))

    def test_nll(self, particles, shape):
        samples = sample_surface(shape, 200, np.random.default_rng(2))
        truth = Pose.from_placement(CENTER + [0.004, -0.002, 0.0], 0.5)
        world = truth.inverse().transform(samples)
        acc = np.zeros(len(samples))
        for T, w in zip(particles.poses, particles.weights):
            acc += w * SENSOR.probabilities(shape.sdf(nine_term(T.rotation, T.translation, world)))[2]
        want = float(-np.sum(np.log(np.maximum(acc, 1e-12))))
        assert nll(particles, shape, truth, samples, SENSOR) == want

    def test_discrepancies(self, particles, shape, rng):
        cloud = SemanticCloud.from_parts(
            free=CENTER + rng.uniform(-0.2, 0.2, (800, 3)) * [1, 1, 0.1],
            surface=Pose.from_placement(CENTER, 0.2).inverse().transform(sample_surface(shape, 60, rng)),
        )
        for eps in (0.0, 0.004):
            params = DiscrepancyParams(epsilon=eps)
            want = [float(np.cumsum(cost_array(params, shape, cloud, T))[-1]) for T in particles.poses]
            npt.assert_array_equal(discrepancies(params, shape, cloud, particles), want)

    def test_merge_free_filter(self, particles, shape, rng):
        prev = SemanticCloud.from_parts(
            free=CENTER + rng.uniform(-0.15, 0.15, (1500, 3)) * [1, 1, 0.2],
            surface=CENTER + rng.uniform(-0.05, 0.05, (30, 3)),
        )
        new = SemanticCloud.from_parts(free=CENTER + rng.uniform(-0.15, 0.15, (300, 3)) * [1, 1, 0.2])
        dT_w = Pose(np.array([0.004, -0.002, 0.0]), 0.03)
        got = merge_observations(prev, new, particles, dT_w, shape)
        # every particle in turn: a free point stays only if all place it outside
        keep_prev = np.ones(len(prev.free), dtype=bool)
        for T in particles.poses:
            keep_prev &= shape.sdf(nine_term(T.rotation, T.translation, prev.free)) > 0.0
        merged = SemanticCloud.from_parts(
            free=prev.free[keep_prev], surface=dT_w.transform(prev.surface)
        ).extend(new)
        free_ds = _downsample_positions(merged.free, 0.01)
        keep = np.ones(len(free_ds), dtype=bool)
        for T in particles.poses:
            keep &= shape.sdf(nine_term(T.rotation, T.translation, free_ds)) > 0.0
        npt.assert_array_equal(got.free, free_ds[keep])
        npt.assert_array_equal(got.surface, _downsample_positions(merged.surface, 0.002))
        assert 0 < len(got.free) < len(free_ds)

    def test_slide_contact_normal(self, particles, shape):
        for cp in ([0.50, 0.01, 0.0], [0.41, -0.05, 0.01]):
            normal = np.zeros(3)
            for T, w in zip(particles.poses, particles.weights):
                g = shape.gradient(nine_term(T.rotation, T.translation, np.asarray([cp])))
                normal += w * nine_term(T.rotation.T, np.zeros(3), g)[0]
            n2 = normal[:2]
            tangent = np.array([-n2[1], n2[0]]) * -1.0 / float(np.linalg.norm(n2))
            want = np.array([tangent[0] * SLIDE_SPEED, tangent[1] * SLIDE_SPEED, 0.0])
            got = slide_policy(particles, shape, [0.3, 0.0, 0.0], True, cp, -1.0)
            npt.assert_array_equal(got, want)


ONE = weighted_set([Pose.from_placement(CENTER, 0.7)] * 4, [0.1, 0.4, 0.3, 0.2])


@pytest.mark.parametrize("particles", [ONE, *PARTICLES], ids=["one", *IDS])
def test_info_sums_across_blocks(particles, shape):
    """Node counts of one node, one block of (distinct pose, node) pairs
    +- 1 node and several blocks, with one, repeated and all-distinct
    poses: bit for bit the per-particle loop."""
    rng = np.random.default_rng(5)
    block = PAIR_BUDGET // len(particles.first)
    for m in (1, block - 1, block, block + 1, 3 * block + 5):
        nodes = CENTER + rng.uniform(-0.12, 0.12, (m, 3)) * [1, 1, 0.5]
        assert _accumulate(particles, shape, nodes, SENSOR, DISC).tobytes() == field_sums(particles, shape, nodes).tobytes()


class TestNoDuplicatePasses:
    def test_reweigh_only_update_takes_one_discrepancy_pass(self, shape, monkeypatch):
        """A reweigh-only update evaluates the discrepancies once and hands
        them to ``weigh``; the weights equal weighing from scratch."""
        calls = []
        real = belief_mod.discrepancies

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(belief_mod, "discrepancies", counting)
        _, particles = SETS[1]
        truth = Pose.from_placement(CENTER, 0.3)
        cloud = SemanticCloud.from_parts(surface=truth.inverse().transform(sample_surface(shape, 40, np.random.default_rng(4))))
        params = BeliefParams(eta=1e9)  # never resample
        state = BeliefState(particles, cloud, discrepancies(DiscrepancyParams(), shape, cloud, particles))
        rng = np.random.default_rng(0)
        out = update_step(state, SemanticCloud(), shape, DiscrepancyParams(), params, rng, known=(Pose.identity(), Pose.identity()))
        assert len(calls) == 1
        want = belief_mod.weigh(particles, out.cloud, shape, DiscrepancyParams(), params)
        npt.assert_array_equal(out.particles.weights, want.weights)
        assert len(calls) == 2


class TestMemory:
    def test_chamfer_peak_with_distinct_poses(self, shape):
        """100 distinct poses x 500 samples: no row cache, no gathers."""
        _, particles = SETS[1]
        samples = sample_surface(shape, 500, np.random.default_rng(3))
        tracemalloc.start()
        try:
            pairwise_chamfer(particles, shape, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("particles", PARTICLES, ids=IDS)
    def test_info_fields_peak_on_5mm_grid(self, particles, shape):
        """One block of (distinct pose, node) pairs at a time: (distinct
        poses, nodes) arrays peak at 48 MB (repeated) and 81 MB (distinct)
        here."""
        ws = Workspace(bounds=((0.0, 0.8), (-0.4, 0.4), (0.0, 0.0)), resolution=0.005)
        tracemalloc.start()
        try:
            build_info_fields(particles, shape, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"
