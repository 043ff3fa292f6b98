"""Semantic discrepancy cost, exact additivity, and descent behavior."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from rummage.discrepancy import (
    DiscrepancyParams,
    _CloudKernel,
    _costs,
    discrepancies,
    refine_pose,
    total_discrepancy,
)
from rummage.geometry import Box, Cylinder, ParticleSet, Pose, Sphere, object_origins
from rummage.semantics import SemanticCloud, Semantics

from conftest import PRIMITIVES, random_pose


def point_cost(params, shape, x_obj, s):
    """Reference: cost of observing semantics ``s`` at object-frame
    position ``x_obj``, a hinge on the signed distance (free, occupied) or
    its absolute value (surface)."""
    v = float(shape.sdf(np.asarray(x_obj, dtype=np.float64)))
    if s == Semantics.FREE:
        return params.sigma_f * max(0.0, params.epsilon - v)
    if s == Semantics.OCCUPIED:
        return params.sigma_f * max(0.0, params.epsilon + v)
    return abs(v)


def descent_directions(params, shape, x_obj, labels):
    """Reference: per-point ascent directions of the cost at object-frame
    points ``(n, 3)`` and the costs ``(n,)``.  The unit distance gradient is
    scaled by the negated cost (free), the cost (occupied) or the signed
    distance (surface), and evaluated only where the cost is active; the
    direction is zero elsewhere."""
    v = shape.sdf(x_obj)
    costs = _costs(params, v, labels)
    dirs = np.zeros((len(x_obj), 3))
    active = costs > 0
    if active.any():
        lab, c = labels[active], costs[active]
        scale = np.where(lab == int(Semantics.FREE), -c, np.where(lab == int(Semantics.OCCUPIED), c, v[active]))
        dirs[active] = scale[:, None] * shape.gradient(x_obj[active])
    return dirs, costs


def point_cost_descent(params, shape, x_obj, s):
    """Reference: the ascent direction of one point's cost."""
    d, _ = descent_directions(params, shape, np.asarray(x_obj, dtype=np.float64)[None, :], np.array([int(s)]))
    return d[0]


def append(cloud, position, s):
    """``cloud`` with one more point at its end."""
    return cloud.extend(SemanticCloud(np.asarray(position, dtype=np.float64)[None, :], [int(s)]))


def cost_array(params, shape, cloud, T):
    """Reference: per-point costs in the cloud's storage order, every point
    evaluated (no cull)."""
    if len(cloud) == 0:
        return np.zeros(0)
    return _costs(params, shape.sdf(T.transform(cloud.positions)), cloud.labels)


def pose_descent_step(params, shape, cloud, T, step_t=1e-2, step_r=1e-1):
    """One planar descent step of a lone pose: the step ``refine_pose``
    takes per iteration, on a one-pose stack."""
    if len(cloud) == 0:
        return T
    t, yaw, _ = _CloudKernel(params, shape, cloud).descent_steps(T.translation[None], np.array([T.yaw]), step_t, step_r)
    return Pose(t[0], yaw[0])


def random_cloud(rng, n=40, scale=0.2):
    pos = rng.uniform(-scale, scale, (n, 3))
    labels = rng.integers(0, 3, n).astype(np.int8)
    return SemanticCloud(pos, labels)


def scalar_total(params, shape, cloud, T):
    """Independent oracle: scalar loop in storage order, plain accumulation."""
    s = 0.0
    for i in range(len(cloud)):
        s = s + point_cost(params, shape, T.transform(cloud.positions[i]), Semantics(int(cloud.labels[i])))
    return s


class TestPointCost:
    P = DiscrepancyParams(sigma_f=10.0, epsilon=0.0)

    def test_satisfied_free_point(self):
        shape = Sphere(0.05)
        # sdf at (0.1,0,0) is +0.05
        assert point_cost(self.P, shape, (0.1, 0.0, 0.0), Semantics.FREE) == 0.0

    def test_violating_free_point(self):
        shape = Sphere(0.05)
        # sdf at (0.03,0,0) = -0.02 -> 10 * 0.02
        assert point_cost(self.P, shape, (0.03, 0.0, 0.0), Semantics.FREE) == pytest.approx(0.2, abs=1e-12)

    def test_surface_cost_is_abs_sdf(self):
        shape = Sphere(0.05)
        assert point_cost(self.P, shape, (0.1, 0.0, 0.0), Semantics.SURFACE) == pytest.approx(0.05, abs=1e-12)

    def test_occupied_cost(self):
        shape = Sphere(0.05)
        assert point_cost(self.P, shape, (0.1, 0.0, 0.0), Semantics.OCCUPIED) == pytest.approx(0.5, abs=1e-12)
        assert point_cost(self.P, shape, (0.0, 0.0, 0.0), Semantics.OCCUPIED) == 0.0

    def test_nonnegative(self, rng):
        shape = Box((0.1, 0.05, 0.08))
        for _ in range(200):
            x = rng.uniform(-0.3, 0.3, 3)
            s = Semantics(int(rng.integers(0, 3)))
            assert point_cost(self.P, shape, x, s) >= 0.0


class TestTotalDiscrepancy:
    P = DiscrepancyParams()

    def test_empty_cloud(self):
        assert total_discrepancy(self.P, Sphere(0.05), SemanticCloud(), Pose.identity()) == 0.0

    def test_additivity_exact(self, rng):
        """Appending a point adds exactly its own cost (identical summation order)."""
        shape = Sphere(0.05)
        for _ in range(300):
            cloud = random_cloud(rng, n=int(rng.integers(1, 50)))
            x = rng.uniform(-0.2, 0.2, 3)
            s = Semantics(int(rng.integers(0, 3)))
            T = random_pose(rng)
            union = append(cloud, x, s)
            lhs = total_discrepancy(self.P, shape, union, T)
            rhs = total_discrepancy(self.P, shape, cloud, T) + point_cost(self.P, shape, T.transform(x), s)
            assert lhs == rhs

    def test_two_copies_double(self, rng):
        shape = Box((0.05, 0.05, 0.05))
        x = rng.uniform(-0.2, 0.2, 3)
        cloud = SemanticCloud.from_parts(surface=[x, x])
        single = SemanticCloud.from_parts(surface=[x])
        T = random_pose(rng)
        assert total_discrepancy(self.P, shape, cloud, T) == 2.0 * total_discrepancy(self.P, shape, single, T)

    def test_matches_scalar_loop_exactly(self, rng):
        for shape in PRIMITIVES:
            cloud = random_cloud(rng, n=100)
            T = random_pose(rng)
            assert total_discrepancy(self.P, shape, cloud, T) == scalar_total(self.P, shape, cloud, T)

    def test_noiseless_cloud_zero_cost(self, rng, mug):
        from rummage.sim import sample_surface

        T_star = Pose.from_placement((0.3, 0.1, 0.0), 0.8)
        samples = sample_surface(mug, 200, rng)
        world = T_star.inverse().transform(samples)
        cloud = SemanticCloud.from_parts(surface=world)
        assert total_discrepancy(self.P, mug, cloud, T_star) < 1e-6


class TestDescentDirections:
    P = DiscrepancyParams()

    def test_inactive_hinge_zero(self):
        shape = Sphere(0.05)
        d = point_cost_descent(self.P, shape, (0.2, 0.0, 0.0), Semantics.FREE)
        npt.assert_array_equal(d, np.zeros(3))

    def test_surface_radial_direction(self):
        shape = Sphere(0.05)
        d = point_cost_descent(self.P, shape, (0.1, 0.0, 0.0), Semantics.SURFACE)
        npt.assert_allclose(d, (0.05, 0.0, 0.0), atol=1e-12)

    def test_zero_direction_iff_zero_cost(self, rng):
        shape = Cylinder(0.06, 0.05)
        for _ in range(300):
            x = rng.uniform(-0.2, 0.2, 3)
            s = Semantics(int(rng.integers(0, 3)))
            c = point_cost(self.P, shape, x, s)
            d = point_cost_descent(self.P, shape, x, s)
            if c == 0.0:
                assert np.all(d == 0.0)
            else:
                assert np.linalg.norm(d) > 0.0

    @staticmethod
    def _away_from_medial_axis(shape, x):
        if isinstance(shape, Sphere):
            return np.linalg.norm(x) > 1e-3
        if isinstance(shape, Box):
            q = np.abs(x) - np.asarray(shape.half_extents)
            top2 = np.sort(q)[-2:]
            return abs(top2[1] - top2[0]) > 1e-3 and np.min(np.abs(x)) > 1e-4
        # extruded circle: radial axis and profile/cap tie
        r = math.hypot(x[0], x[1])
        wz = abs(x[2]) - shape.half_height
        d2 = r - shape.profile.radius
        return r > 1e-3 and abs(d2 - wz) > 1e-3

    def test_small_step_reduces_cost(self, rng):
        """Descent oracle: eta = 1e-4 steps on random active points."""
        eta = 1e-4
        trials = 0
        wins = 0
        while trials < 1000:
            shape = PRIMITIVES[int(rng.integers(0, len(PRIMITIVES)))]
            x = rng.uniform(-0.25, 0.25, 3)
            s = Semantics(int(rng.integers(0, 3)))
            if not self._away_from_medial_axis(shape, x):
                continue
            c0 = point_cost(self.P, shape, x, s)
            if c0 <= 1e-9:
                continue
            trials += 1
            d = point_cost_descent(self.P, shape, x, s)
            c1 = point_cost(self.P, shape, x - eta * d, s)
            if c1 < c0:
                wins += 1
        assert wins / trials >= 0.99


class TestPoseDescent:
    P = DiscrepancyParams()

    def test_zero_cost_cloud_unchanged(self):
        shape = Sphere(0.05)
        cloud = SemanticCloud.from_parts(free=[[0.2, 0.0, 0.0]])
        T = Pose.identity()
        out = pose_descent_step(self.P, shape, cloud, T)
        npt.assert_array_equal(out.rotation, T.rotation)
        npt.assert_array_equal(out.translation, T.translation)

    def test_single_offset_surface_point_cost_decreases(self):
        shape = Sphere(0.05)
        # surface point seen 5 mm outside the current surface along +x
        cloud = SemanticCloud.from_parts(surface=[[0.055, 0.0, 0.0]])
        T = Pose.identity()
        c0 = total_discrepancy(self.P, shape, cloud, T)
        out = pose_descent_step(self.P, shape, cloud, T)
        c1 = total_discrepancy(self.P, shape, cloud, out)
        assert c1 < c0

    def test_convergence_from_small_offset(self, rng, mug):
        """Ten refinement steps at least halve the cost of a noiseless cloud
        observed from a pose 5 mm / 5 degrees away."""
        from rummage.sim import sample_surface

        T_star = Pose.from_placement((0.4, 0.0, 0.0), 0.9)
        samples = sample_surface(mug, 150, rng)
        world = T_star.inverse().transform(samples)
        cloud = SemanticCloud.from_parts(surface=world)
        T0 = Pose.from_placement((0.405, 0.0, 0.0), 0.9 + math.radians(5))
        c0 = total_discrepancy(self.P, mug, cloud, T0)
        out = refine_one(self.P, mug, cloud, T0, steps=10)
        c1 = total_discrepancy(self.P, mug, cloud, out)
        assert c1 < c0 / 2

    def test_planar_mode_keeps_plane(self, rng, mug):
        cloud = SemanticCloud.from_parts(surface=rng.uniform(-0.1, 0.1, (20, 3)))
        T = Pose.from_placement((0.0, 0.0, 0.0), 0.3)
        out = refine_one(self.P, mug, cloud, T, steps=5)
        # still a pure z rotation and no z translation drift
        assert abs(out.rotation[2, 2] - 1.0) < 1e-12
        assert abs(out.translation[2]) < 1e-12

    def test_refinement_never_raises_cost(self, rng):
        """Refinement keeps its best iterate, so no pose comes back costlier
        than it went in, though a single aggregated step can raise the cost
        (its mean direction weighs the points unlike the cost gradient)."""
        lowered = 0
        for _ in range(40):
            shape = PRIMITIVES[int(rng.integers(0, len(PRIMITIVES)))]
            cloud = random_cloud(rng, n=25, scale=0.15)
            poses = ParticleSet.from_poses([random_pose(rng, planar=True, trans_scale=0.05) for _ in range(3)])
            c0 = discrepancies(self.P, shape, cloud, poses)
            c1 = discrepancies(self.P, shape, cloud, refine_pose(self.P, shape, cloud, poses, steps=5)[0])
            assert np.all(c1 <= c0)
            lowered += int(np.sum(c1 < c0))
        assert lowered > 90


# ---------------------------------------------------------------------------
# Batched kernel and the free-point cull
# ---------------------------------------------------------------------------


def scene_cloud(rng, shape, center, n_free=300, n_surface=25, n_occupied=5, spread=0.25):
    """Free points scattered around an object at ``center`` (some inside
    it), surface samples and occupied points, shuffled into one cloud."""
    from rummage.sim import sample_surface

    T = Pose.from_placement(center, rng.uniform(-math.pi, math.pi))
    free = np.asarray(center) + rng.uniform(-spread, spread, (n_free, 3)) * [1, 1, 0.3]
    surf = T.inverse().transform(sample_surface(shape, n_surface, rng) + rng.normal(0, 0.003, (n_surface, 3)))
    occ = T.inverse().transform(rng.uniform(-0.03, 0.03, (n_occupied, 3)))
    pos = np.concatenate([free, surf, occ])
    labels = np.concatenate([np.zeros(n_free), np.full(n_surface, 2), np.ones(n_occupied)]).astype(np.int8)
    order = rng.permutation(len(pos))
    return SemanticCloud(pos[order], labels[order])


def near_poses(rng, center, n, spread=0.01, planar=True):
    poses = []
    for _ in range(n):
        c = np.asarray(center) + rng.normal(0, spread, 3) * [1, 1, 0 if planar else 1]
        poses.append(Pose.from_placement(c, rng.uniform(-math.pi, math.pi)))
    return poses


def unculled_total(params, shape, cloud, T):
    """Reference: every point evaluated, summed sequentially in cloud order."""
    costs = cost_array(params, shape, cloud, T)
    return float(np.cumsum(costs)[-1]) if len(costs) else 0.0


def refine_one(params, shape, cloud, T, steps):
    """``refine_pose`` on a set of the one pose ``T``."""
    return refine_pose(params, shape, cloud, ParticleSet.from_poses([T]), steps)[0].pose(0)


def reference_refine(params, shape, cloud, T, steps, step_t=1e-2, step_r=1e-1, decay=0.9):
    """Reference: one pose, every point evaluated, aggregated with plain
    NumPy reductions (the per-pose loop the batched kernel replaces); the
    step moves x, y and yaw only: the yaw drops by the clamped z torque and
    the translation turns by ``c*x - s*y`` products of that angle."""

    def clamp(vec, cap):
        n = math.sqrt(vec[0] * vec[0] + vec[1] * vec[1])
        return vec if n <= cap or n < 1e-15 else vec * (cap / n)

    def step(T, st, sr):
        x_obj = T.transform(cloud.positions)
        dirs, costs = descent_directions(params, shape, x_obj, cloud.labels)
        cost_here = float(np.cumsum(costs)[-1])
        active = costs > 0
        if not active.any():
            return T, cost_here
        x_act, d_act = x_obj[active], dirs[active]
        g_mean = d_act.mean(axis=0)
        lever_sq = float(np.mean(np.sum(x_act**2, axis=-1)))
        torque = float(np.cross(x_act, d_act).mean(axis=0)[2]) / max(lever_sq, 1e-12)
        turn = min(max(torque, -sr), sr)
        x, y = T.translation[:2] - clamp(g_mean[:2], st)
        c, s = np.cos(-turn), np.sin(-turn)
        return Pose(np.array([c * x - s * y, s * x + c * y, T.translation[2]]), T.yaw - turn), cost_here

    best, best_cost, current, st, sr = T, None, T, step_t, step_r
    for _ in range(steps):
        nxt, cost_here = step(current, st, sr)
        if best_cost is None or cost_here < best_cost:
            best, best_cost = current, cost_here
        current, st, sr = nxt, st * decay, sr * decay
    return current if unculled_total(params, shape, cloud, current) < best_cost else best


class CountingShape:
    """Exposes only what the kernel may use and counts evaluated points."""

    def __init__(self, inner):
        self.inner = inner
        self.sdf_points = 0

    def sdf(self, points):
        self.sdf_points += np.size(points) // 3
        return self.inner.sdf(points)

    def gradient(self, points):
        return self.inner.gradient(points)

    def bounding_box(self):
        return self.inner.bounding_box()

    @property
    def characteristic_length(self):
        return self.inner.characteristic_length


DISC_DEFAULT = DiscrepancyParams()


def same_pose(a, b):
    return np.array_equal(a.rotation, b.rotation) and np.array_equal(a.translation, b.translation)


class TestBatchedKernel:
    CENTER = (0.4, 0.0, 0.0)

    @pytest.mark.parametrize("budget", [1 << 16, 40])
    def test_batched_refinement_equals_per_pose_calls(self, rng, mug, monkeypatch, budget):
        """Bit for bit, also when the poses are split over several passes
        and when they are off the plane (the box's poses)."""
        from rummage import geometry

        monkeypatch.setattr(geometry, "PAIR_BUDGET", budget)
        for k, (shape, eps) in enumerate([(mug, 0.0), (Box((0.05, 0.03, 0.04)), 0.004), (Cylinder(0.04, 0.03), 0.0)]):
            params = DiscrepancyParams(epsilon=eps)
            cloud = scene_cloud(rng, shape, self.CENTER)
            poses = near_poses(rng, self.CENTER, 9, planar=k != 1)
            batch, _ = refine_pose(params, shape, cloud, ParticleSet.from_poses(poses), steps=6)
            assert isinstance(batch, ParticleSet) and len(batch) == len(poses)
            for T, B in zip(poses, batch.poses):
                assert same_pose(refine_one(params, shape, cloud, T, steps=6), B)
                assert same_pose(reference_refine(params, shape, cloud, T, steps=6), B)

    def test_batched_discrepancies_equal_per_pose_totals(self, rng, mug, monkeypatch):
        from rummage import geometry

        monkeypatch.setattr(geometry, "PAIR_BUDGET", 100)
        for shape in (mug, *PRIMITIVES):
            for eps in (0.0, 0.003):
                params = DiscrepancyParams(epsilon=eps)
                cloud = scene_cloud(rng, shape, self.CENTER)
                poses = near_poses(rng, self.CENTER, 12, spread=0.03)
                d = discrepancies(params, shape, cloud, ParticleSet.from_poses(poses))
                for T, di in zip(poses, d):
                    assert di == total_discrepancy(params, shape, cloud, T)
                    assert di == unculled_total(params, shape, cloud, T)

    def test_duck_typed_shape_and_cull_saves_evaluations(self, rng, mug):
        cloud = scene_cloud(rng, mug, self.CENTER, n_free=500)
        poses = ParticleSet.from_poses(near_poses(rng, self.CENTER, 10))
        counting = CountingShape(mug)
        assert np.array_equal(discrepancies(DISC_DEFAULT, counting, cloud, poses), discrepancies(DISC_DEFAULT, mug, cloud, poses))
        assert 0 < counting.sdf_points < len(poses) * len(cloud) / 2
        for a, b in zip(refine_pose(DISC_DEFAULT, counting, cloud, poses, 4)[0].poses, refine_pose(DISC_DEFAULT, mug, cloud, poses, 4)[0].poses):
            assert same_pose(a, b)

    @pytest.mark.parametrize("eps", [0.0, 0.004])
    def test_cull_exact_at_radius_edges(self, eps):
        """Free points straddling the cull radius along the box's corner
        direction: the one just inside costs, the one just outside not."""
        from rummage.geometry import support_radius

        shape = Box((0.05, 0.03, 0.04))
        params = DiscrepancyParams(epsilon=eps)
        T = Pose.from_placement(self.CENTER, 0.3)
        corner = np.array(shape.half_extents) / np.linalg.norm(shape.half_extents)
        limit = support_radius(shape) + eps
        radii = [limit - 1e-6, limit + 1e-6, limit - 1e-4, limit + 1e-4]
        cloud = SemanticCloud.from_parts(free=T.inverse().transform(np.outer(radii, corner)))
        costs = cost_array(params, shape, cloud, T)
        assert costs[0] > 0 and costs[2] > 0
        assert costs[1] == 0 and costs[3] == 0
        assert total_discrepancy(params, shape, cloud, T) == unculled_total(params, shape, cloud, T)
        counting = CountingShape(shape)
        total_discrepancy(params, counting, cloud, T)
        assert counting.sdf_points == 2  # only the two inside the radius


# ---------------------------------------------------------------------------
# The refinement's costs and the per-pass cull
# ---------------------------------------------------------------------------


def surface_only_cloud(rng, shape, center):
    """A scene cloud without free points: every pair is always kept."""
    cloud = scene_cloud(rng, shape, center, n_free=0)
    return SemanticCloud(cloud.positions, cloud.labels)


class TestReturnedCosts:
    CENTER = (0.4, 0.0, 0.0)

    def test_costs_equal_discrepancies_of_refined_set(self, rng, mug):
        """``refine_pose``'s costs are ``discrepancies`` of the set it
        returns, bit for bit: mug and box, distinct and repeated poses, no
        steps to six, clouds with and without free points, and empty ones."""
        box = Box((0.05, 0.03, 0.04))
        clouds = (scene_cloud, surface_only_cloud, lambda rng, shape, center: SemanticCloud())
        for case in range(240):
            shape, planar = (mug, True) if case % 2 == 0 else (box, False)
            params = DiscrepancyParams(epsilon=float(rng.choice([0.0, 0.004])))
            cloud = clouds[case // 2 % 3](rng, shape, self.CENTER)
            poses = near_poses(rng, self.CENTER, int(rng.integers(1, 8)), spread=0.02, planar=planar)
            # repeated poses: some rows drawn more than once
            rows = rng.integers(0, len(poses), int(rng.integers(1, 12)))
            start = ParticleSet.from_poses([poses[i] for i in rows])
            steps = int(rng.choice([0, 1, 3, 6]))
            got, costs = refine_pose(params, shape, cloud, start, steps)
            want = discrepancies(params, shape, cloud, got)
            assert costs.shape == (len(start),)
            assert costs.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_no_steps_return_the_set(self, rng, mug):
        cloud = scene_cloud(rng, mug, self.CENTER)
        start = ParticleSet.from_poses(near_poses(rng, self.CENTER, 5))
        got, costs = refine_pose(DISC_DEFAULT, mug, cloud, start, 0)
        assert got is start
        assert costs.tobytes() == discrepancies(DISC_DEFAULT, mug, cloud, start).tobytes()
        got, costs = refine_pose(DISC_DEFAULT, mug, SemanticCloud(), start, 4)
        assert got is start and costs.tolist() == [0.0] * 5


def reference_live(kernel, cloud, poses):
    """Reference: the pairs a refinement pass keeps, one pose at a time in
    set order and one point at a time in cloud order: every non-free point,
    and each free point whose squared distance to the pose's object origin,
    summed over x, y, z in turn, is within the slackened cull radius."""
    limit2 = (kernel.radius * (1.0 + 1e-9)) ** 2
    ii, pp = [], []
    for i, T in enumerate(poses):
        o = T.object_center_world()
        for p, (x, label) in enumerate(zip(cloud.positions.tolist(), cloud.labels.tolist())):
            d2 = 0.0
            for j in range(3):
                diff = x[j] - float(o[j])
                d2 += diff * diff
            if label != int(Semantics.FREE) or not d2 > limit2:
                ii.append(i)
                pp.append(p)
    return ii, pp


class TestPassCull:
    CENTER = (0.4, 0.0, 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.004])
    def test_live_pairs_equal_per_pose_loop(self, rng, mug, eps):
        """After the first listing, origins moved by up to the full travel
        (some by all of it) keep the pairs of a per-pose loop, without
        listing again."""
        params = DiscrepancyParams(epsilon=eps)
        travel = 0.04
        for shape in (mug, Box((0.05, 0.03, 0.04))):
            cloud = scene_cloud(rng, shape, self.CENTER, n_free=400, spread=0.2)
            start = ParticleSet.from_poses(near_poses(rng, self.CENTER, 12, spread=0.03))
            kernel = _CloudKernel(params, shape, cloud, travel=travel)
            for T, moved in [(start, start), (start, None), (start, None)]:
                if moved is None:
                    # each origin moves in the plane by up to the travel
                    angle = rng.uniform(-math.pi, math.pi, len(start))
                    length = travel * np.where(rng.random(len(start)) < 0.3, 1.0, rng.random(len(start)))
                    shift = np.stack([length * np.cos(angle), length * np.sin(angle), np.zeros(len(start))], axis=1)
                    yaws = start.yaws + rng.uniform(-0.5, 0.5, len(start))
                    moved = ParticleSet.from_placements(object_origins(*start.distinct())[start.inverse] + shift, -yaws)
                listing = kernel._pairs
                ii, pp = kernel._live(np.cos(moved.yaws), np.sin(moved.yaws), moved.translations)
                if listing is not None:
                    assert kernel._pairs is listing  # no second listing
                want_ii, want_pp = reference_live(kernel, cloud, moved.poses)
                assert ii.tolist() == want_ii and pp.tolist() == want_pp
