"""Kernel interpolation, contact dynamics, trajectory costs, sampling MPC."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rummage import planner as planner_mod
from rummage.belief import ParticleSet
from rummage.geometry import Pose, ScalarField, Sphere, Workspace, mug_shape
from rummage.infogain import InfoFields, build_info_fields, build_reachability, ReachabilityModel
from rummage.planner import (
    ActionScale,
    PaddleRobot,
    Planner,
    PlannerParams,
    PlanningContext,
    ReachTable,
    control_times,
    dynamics_step,
    info_cost,
    interpolate_at,
    kernel_interpolate,
    mppi_update,
    plan,
    reach_cost,
    total_cost,
)
from rummage.semantics import SensorModel


SENSOR = SensorModel()


def make_context(particle_poses, shape=None, bounds=((0.0, 0.6), (-0.3, 0.3), (0, 0)), res=0.01, with_table=False):
    shape = shape or Sphere(0.05)
    ws = Workspace(bounds=bounds, resolution=res)
    particles = ParticleSet.uniform(particle_poses)
    fields = build_info_fields(particles, shape, ws, 2.0, SENSOR)
    reach = build_reachability(ws, ReachabilityModel(base=(0, 0, 0), r_mid=0.3, r_half=0.2, psi=0.4))
    table = ReachTable(fields.info, reach) if with_table else None
    return PlanningContext(fields=fields, reach=reach, particles=particles, shape=shape, reach_table=table), ws


class TestKernelInterpolation:
    def test_identity_when_dense(self, rng):
        theta = rng.normal(size=(7, 3))
        out = kernel_interpolate(theta, 7)
        npt.assert_array_equal(out, theta)

    def test_control_time_exactness(self, rng):
        for H in range(5, 21):
            for H_c in range(2, H + 1):
                theta = rng.normal(size=(H_c, 2))
                tc = control_times(H, H_c)
                out = interpolate_at(theta, H, tc)
                assert np.abs(out - theta).max() <= 1e-9

    def test_hand_solved_midpoint(self):
        """H=3, H_c=2, RBF scale 2: u_1 = 0.5493 * (theta_0 + theta_1)."""
        theta = np.array([[0.0], [1.0]])
        out = kernel_interpolate(theta, 3)
        assert out[1, 0] == pytest.approx(0.5493, abs=1e-3)
        npt.assert_allclose(out[0, 0], 0.0, atol=1e-9)
        npt.assert_allclose(out[2, 0], 1.0, atol=1e-9)

    def test_bspline_kernel_exact_at_nodes(self, rng):
        theta = rng.normal(size=(5, 2))
        tc = control_times(12, 5)
        out = interpolate_at(theta, 12, tc, kind="bspline", scale=2.0)
        assert np.abs(out - theta).max() <= 1e-9

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_interpolate(np.zeros((3, 1)), 5, kind="nope")

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlannerParams(horizon=5, control_points=8)


class TestDynamics:
    def qparams(self, **kw):
        defaults = dict(horizon=3, control_points=2, samples=8, rollouts=1, mini_steps=4)
        defaults.update(kw)
        return PlannerParams(**defaults)

    def test_free_space_motion(self, rng):
        # object far away: every draw is free
        ctx, _ = make_context([Pose.from_placement((10.0, 0.0, 0.0), 0.0)])
        robot = PaddleRobot()
        params = self.qparams()
        q0 = np.array([0.1, 0.0, 0.0])
        u = np.array([1.0, 0.5, 0.2])
        q1, d1 = dynamics_step(q0, np.zeros(3), u, ctx, robot, params, rng)
        phys = params.action_scale.to_physical(u)
        npt.assert_allclose(q1, q0 + phys, atol=1e-12)
        npt.assert_array_equal(d1, np.zeros(3))

    def test_rollout_blocks_give_the_same_rollouts(self, monkeypatch):
        """The contact-point search runs a block of rollouts at a time;
        the block size must not change any rollout."""
        poses = [Pose.from_placement((0.3, 0.01 * k, 0.0), 0.3 * k) for k in range(4)]
        ctx, _ = make_context(poses, shape=mug_shape())
        ctx.normal_quantization = 0.005
        robot = PaddleRobot()
        params = self.qparams(horizon=4, mini_steps=3)
        actions = np.random.default_rng(7).uniform(-1.0, 1.0, (50, 4, 3))
        q0 = np.array([0.2, 0.0, 0.0])

        def rollouts():
            rng = np.random.default_rng(11)
            return planner_mod._rollout_batch(q0, np.zeros(3), actions, ctx, robot, params, rng)

        q_ref, d_ref = rollouts()
        assert np.abs(d_ref).max() > 0  # some rollouts push the object
        for block in (len(robot.body_points), 3 * len(robot.body_points) + 1):
            monkeypatch.setattr(planner_mod, "POINT_BLOCK", block)
            q_b, d_b = rollouts()
            npt.assert_array_equal(q_b, q_ref)
            npt.assert_array_equal(d_b, d_ref)

    def test_head_on_push_accumulates(self, rng):
        """Two agreeing particles; head-on approach pushes the object along."""
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0)] * 2
        ctx, _ = make_context(poses)
        robot = PaddleRobot()
        params = self.qparams()
        q0 = np.array([0.23, 0.0, 0.0])  # front face at 0.24, surface at 0.25
        u = np.array([1.0, 0.0, 0.0])    # 80 mm in 4 sub-moves of 20 mm
        q1, d1 = dynamics_step(q0, np.zeros(3), u, ctx, robot, params, rng)
        assert d1[0] > 0.04  # most sub-moves push
        assert abs(d1[1]) < 1e-9
        npt.assert_allclose(q1, q0 + params.action_scale.to_physical(u), atol=1e-12)

    def test_glancing_contact_blocks(self, rng):
        """Tangential graze outside the friction cone: robot blocked, object static."""
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0)] * 2
        ctx, _ = make_context(poses)
        robot = PaddleRobot()
        params = self.qparams(mini_steps=1)
        # paddle under the sphere, sensing face up and just clipping the shell;
        # sliding sideways makes the contact normal nearly perpendicular to motion
        q0 = np.array([0.3, -0.0585, math.pi / 2])
        u = np.array([0.25, 0.0, 0.0])  # 20 mm sideways
        q1, d1 = dynamics_step(q0, np.zeros(3), u, ctx, robot, params, rng)
        npt.assert_array_equal(d1, np.zeros(3))
        npt.assert_allclose(q1, q0, atol=1e-12)

    def test_never_displaces_without_contact(self, rng):
        ctx, _ = make_context([Pose.from_placement((0.3, 0.0, 0.0), 0.0)])
        robot = PaddleRobot()
        params = self.qparams()
        for _ in range(20):
            q0 = np.array([rng.uniform(0, 0.1), rng.uniform(-0.2, 0.2), rng.uniform(-1, 1)])
            u = rng.uniform(-0.3, 0.3, 3)
            q1, d1 = dynamics_step(q0, np.zeros(3), u, ctx, robot, params, rng)
            # far from the object nothing should ever move it
            assert np.linalg.norm(d1) == 0.0


def reference_rollouts(q0, actions, ctx, robot, params, rng):
    """The rollout dynamics searching the contact point of every row, with
    counts of (pushing, blocked, off-grid) row sub-moves."""
    B, H, _ = actions.shape
    q = np.tile(np.asarray(q0, dtype=np.float64), (B, 1))
    d = np.zeros((B, 3))
    q_traj, d_traj = np.empty((B, H, 3)), np.empty((B, H, 3))
    f = ctx.fields.p_free
    lo_xy = f.origin[:2]
    hi_xy = f.origin[:2] + f.resolution * (np.array(f.dims[:2]) - 1)
    counts = np.zeros(3, dtype=int)
    for t in range(H):
        u = params.action_scale.to_physical(np.clip(actions[:, t], -1.0, 1.0)) / params.mini_steps
        for _ in range(params.mini_steps):
            q_c = robot.free_dynamics(q, u)
            o = q_c[:, :2] - d[:, :2]
            counts[2] += np.sum(np.any((o < lo_xy) | (o > hi_xy), axis=1))
            pts_c = robot.points_world(q_c)
            disp = pts_c - d[:, None, :]
            k = np.argmin(f.query(disp), axis=1)
            rows = np.arange(B)
            x_i, p_star = disp[rows, k], pts_c[rows, k]
            pf, _, _ = ctx.fields.class_probabilities(x_i)
            contact = rng.random(B) >= pf
            c_rows = np.flatnonzero(contact)
            normals = ctx.weighted_normals(x_i[c_rows]) if len(c_rows) else np.empty((0, 3))
            q_next = q_c.copy()
            for b, n in zip(c_rows, normals):
                d_prime = p_star[b] - robot.points_world(q[b])[k[b]]
                nn, mn = np.linalg.norm(n), np.linalg.norm(d_prime)
                cos = np.dot(n, -d_prime) / (nn * mn) if nn > 1e-12 and mn > 1e-12 else -1.0
                if cos > math.cos(params.push_angle):
                    d[b] = d[b] + d_prime
                    counts[0] += 1
                else:
                    q_next[b] = q[b]
                    counts[1] += 1
            q = q_next
        q_traj[:, t], d_traj[:, t] = q, d
    return q_traj, d_traj, counts


class TestRolloutCull:
    """Only rows whose draw reaches the free-probability floor are searched;
    the rollouts equal those of searching every row."""

    @pytest.mark.parametrize(
        "res, z",
        [(0.01, (0.0, 0.0)), (0.005, (0.0, 0.0)), (0.01, (-0.02, 0.02))],
        ids=["planar-1cm", "planar-5mm", "z-interval"],
    )
    def test_matches_searching_every_row(self, res, z):
        poses = [Pose.from_placement((0.3 + 0.005 * k, 0.004 * k, 0.0), 0.4 + 0.5 * k) for k in range(5)]
        ctx, _ = make_context(poses, shape=mug_shape(), bounds=((0.1, 0.5), (-0.2, 0.2), z), res=res)
        ctx.normal_quantization = res / 2
        ref_ctx, _ = make_context(poses, shape=mug_shape(), bounds=((0.1, 0.5), (-0.2, 0.2), z), res=res)
        ref_ctx.normal_quantization = res / 2
        robot = PaddleRobot()
        params = PlannerParams(horizon=6, control_points=3, mini_steps=3)
        # a fan of headings from just in front of the mug: some rollouts run
        # into it, some graze it, some leave the grid
        actions = np.random.default_rng(2).uniform(-1.0, 1.0, (120, 6, 3))
        actions[:40, :, 0] = np.abs(actions[:40, :, 0])
        q0 = np.array([0.2, 0.0, 0.0])
        q, d = planner_mod._rollout_batch(q0, np.zeros(3), actions, ctx, robot, params, np.random.default_rng(4))
        q_ref, d_ref, (pushes, blocks, off_grid) = reference_rollouts(
            q0, actions, ref_ctx, robot, params, np.random.default_rng(4)
        )
        assert pushes > 0 and blocks > 0 and off_grid > 0
        npt.assert_array_equal(q, q_ref)
        npt.assert_array_equal(d, d_ref)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nz=st.sampled_from([1, 3]),
        res=st.sampled_from([0.005, 0.01, 0.02]),
        x=st.floats(-0.08, 0.18),
        y=st.floats(-0.08, 0.18),
        yaw=st.floats(-math.pi, math.pi),
    )
    def test_floor_bounds_the_free_probability(self, seed, nz, res, x, y, yaw):
        """At any paddle placement, on or off the grid, the floor at the
        paddle origin is at most the free probability at every body point,
        also next to nodes whose probabilities are all 0."""
        rng = np.random.default_rng(seed)
        # a free-probability ramp over x, y and z (so the floor is tight),
        # random totals, and a few nodes whose probabilities are all 0
        dims = (11, 9, nz)
        ix, iy, iz = np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")
        g = rng.uniform(-1.0, 1.0, 3)
        ratio = np.clip(0.5 + 0.05 * (g[0] * ix + g[1] * iy) + 0.2 * g[2] * iz, 0.02, 0.98)
        total = rng.uniform(0.5, 1.5, dims)
        split = rng.uniform(size=dims)
        vals = np.stack([ratio, (1 - ratio) * split, (1 - ratio) * (1 - split)]) * total
        for _ in range(rng.integers(0, 3)):
            vals[:, rng.integers(dims[0]), rng.integers(dims[1]), rng.integers(nz)] = 0.0
        origin = np.array([0.0, 0.0, 0.0 if nz == 1 else -0.013])
        pf, po, ps = (ScalarField(origin, res, v, out) for v, out in zip(vals, (1.0, 0.0, 0.0)))
        fields = InfoFields(info=pf, p_free=pf, p_occ=po, p_surf=ps)
        robot = PaddleRobot()
        floor = fields.free_floor(robot.body_radius).at(np.array([[x, y]]))[0]
        free, _, _ = fields.class_probabilities(robot.points_world(np.array([x, y, yaw])))
        assert np.all(floor <= free)


class TestInfoCost:
    def test_zero_field(self):
        f = ScalarField(origin=np.zeros(3), resolution=0.1, values=np.zeros((4, 4, 1)))
        robot = PaddleRobot()
        traj = np.tile(np.array([0.1, 0.1, 0.0]), (5, 1))
        assert info_cost(traj, np.zeros((5, 3)), f, robot) == 0.0

    def test_loitering_counts_once(self):
        vals = np.full((40, 40, 1), 1.0)
        f = ScalarField(origin=np.array([-0.2, -0.2, 0.0]), resolution=0.01, values=vals)
        robot = PaddleRobot()
        stay = np.tile(np.array([0.0, 0.0, 0.0]), (8, 1))
        one = stay[:1]
        c_stay = info_cost(stay, np.zeros((8, 3)), f, robot, r_ds=0.01)
        c_one = info_cost(one, np.zeros((1, 3)), f, robot, r_ds=0.01)
        assert c_stay == c_one

    def test_sticking_worse_than_sweeping(self):
        vals = np.full((60, 60, 1), 1.0)
        f = ScalarField(origin=np.array([-0.1, -0.3, 0.0]), resolution=0.01, values=vals)
        robot = PaddleRobot()
        qs = np.stack([np.array([0.02 * t, 0.0, 0.0]) for t in range(8)])
        sticking = info_cost(qs, qs * [1, 1, 0], f, robot, r_ds=0.01)  # displacement grows with q
        sweeping = info_cost(qs, np.zeros((8, 3)), f, robot, r_ds=0.01)
        assert sweeping < sticking  # more negative: collects more
        # sticking stays within roughly one stamp of the sensing points
        single = info_cost(qs[:1], np.zeros((1, 3)), f, robot, r_ds=0.01)
        assert sticking == pytest.approx(single, abs=abs(single))


class TestBatchedSweepCost:
    def test_matches_scalar_op(self, rng):
        from rummage.planner import batched_sweep_cost

        vals = rng.uniform(0, 1, (40, 40, 1))
        f = ScalarField(origin=np.array([-0.1, -0.2, 0.0]), resolution=0.01, values=vals)
        robot = PaddleRobot()
        B, H = 7, 6
        q_traj = rng.uniform(-0.05, 0.15, (B, H, 3))
        d_traj = np.cumsum(rng.uniform(-0.01, 0.01, (B, H, 3)) * [1, 1, 0], axis=1)
        batched = batched_sweep_cost(q_traj, d_traj, f, robot, 0.01)
        for b in range(B):
            scalar = info_cost(q_traj[b], d_traj[b], f, robot, 0.01)
            assert batched[b] == pytest.approx(scalar, abs=1e-9)

    def test_normal_cache_matches_exact(self, rng):
        poses = [Pose.from_placement((0.3, 0.0, 0.0), y) for y in (0.0, 1.3)]
        exact_ctx, _ = make_context(poses)
        pts = rng.uniform(0.2, 0.4, (30, 3)) * [1, 1, 0]
        exact = exact_ctx._exact_normals(pts)
        cached_ctx, _ = make_context(poses)
        cached_ctx.normal_quantization = 1e-7  # cells fine enough to be exact
        got = cached_ctx.weighted_normals(pts)
        npt.assert_allclose(got, exact, atol=1e-4)

    def test_normal_cache_matches_row_loop(self, rng):
        """The cache hands out, row by row, the normal of the row's cell;
        cells first met in one call are evaluated together in order of
        first appearance.  Reference: that rule written as a loop."""
        poses = [Pose.from_placement((0.3, 0.0, 0.0), y) for y in (0.0, 1.3, 2.0)]
        ctx, _ = make_context(poses, shape=mug_shape())
        ref_ctx, _ = make_context(poses, shape=mug_shape())
        q = ctx.normal_quantization = 0.005
        cache = {}

        def reference(points):
            keys = [tuple(k) for k in np.round(points / q).astype(np.int64).tolist()]
            missing = list(dict.fromkeys(k for k in keys if k not in cache))
            if missing:
                for key, n in zip(missing, ref_ctx._exact_normals(np.array(missing, dtype=np.float64) * q)):
                    cache[key] = n
            return np.array([cache[k] for k in keys]).reshape(-1, 3)

        for size in (40, 1, 200, 0, 75):
            pts = rng.uniform(0.2, 0.4, (size, 3)) * [1, 1, 0]
            pts = np.concatenate([pts, pts[::2]])  # repeated cells within a call
            npt.assert_array_equal(ctx.weighted_normals(pts), reference(pts))
        # keys far apart take the row-wise distinct search
        far = np.array([[0.3, 0.0, 0.0], [4e16, 0.0, 0.0], [-4e16, 1.0, 0.0], [0.3, 0.0, 0.0]])
        npt.assert_array_equal(ctx.weighted_normals(far), reference(far))


class TestReachCost:
    def small_fields(self):
        info = np.zeros((21, 21, 1))
        info[8:13, 8:13, 0] = 1.0
        ws = Workspace(bounds=((0, 0.2), (0, 0.2), (0, 0)), resolution=0.01)
        f_info = ws.make_field(info.ravel(), outside_value=0.0)
        return ws, f_info

    def test_zero_displacement_full_reach(self):
        ws, f_info = self.small_fields()
        ones = ws.make_field(np.ones(21 * 21))
        assert reach_cost(np.zeros((4, 3)), ws, f_info, ones) == pytest.approx(-1.0)

    def test_zero_reach_zero(self):
        ws, f_info = self.small_fields()
        zeros = ws.make_field(np.zeros(21 * 21))
        assert reach_cost(np.zeros((4, 3)), ws, f_info, zeros) == 0.0

    def test_zero_info_zero(self):
        ws, _ = self.small_fields()
        zero_info = ws.make_field(np.zeros(21 * 21))
        ones = ws.make_field(np.ones(21 * 21))
        assert reach_cost(np.zeros((4, 3)), ws, zero_info, ones) == 0.0

    def test_displacing_info_out_worsens(self):
        ws, f_info = self.small_fields()
        # reachable only in the left half
        reach_vals = np.zeros((21, 21, 1))
        reach_vals[:11, :, 0] = 1.0
        f_reach = ws.make_field(reach_vals.ravel())
        costs = []
        for dx in (0.0, 0.04, 0.08, 0.2):
            disp = np.tile(np.array([dx, 0.0, 0.0]), (4, 1))
            costs.append(reach_cost(disp, ws, f_info, f_reach))
        assert all(costs[i] <= costs[i + 1] + 1e-12 for i in range(len(costs) - 1))
        assert costs[-1] == pytest.approx(0.0, abs=1e-9)

    def test_bounded(self, rng):
        ws, f_info = self.small_fields()
        vals = rng.uniform(0, 1, 21 * 21)
        f_reach = ws.make_field(vals)
        for _ in range(20):
            disp = rng.uniform(-0.3, 0.3, (5, 3)) * [1, 1, 0]
            c = reach_cost(disp, ws, f_info, f_reach)
            assert -1.0 <= c <= 0.0

    def test_table_matches_direct(self, rng):
        """FFT correlation table against the direct sum, interior info mass."""
        ws = Workspace(bounds=((0, 0.2), (0, 0.2), (0, 0)), resolution=0.01)
        info = np.zeros((21, 21, 1))
        info[4:17, 4:17, 0] = rng.uniform(0, 1, (13, 13))
        f_info = ws.make_field(info.ravel())
        f_reach = ws.make_field(rng.uniform(0, 1, 21 * 21))
        table = ReachTable(f_info, f_reach)
        for _ in range(25):
            disp = rng.uniform(-0.05, 0.05, (6, 3)) * [1, 1, 0]
            direct = reach_cost(disp, ws, f_info, f_reach)
            fast = float(table.reach_cost_batch(disp[None])[0])
            assert fast == pytest.approx(direct, abs=1e-9)

    def test_table_matches_direct_with_z_layers(self, rng):
        """On a workspace with a z interval the table correlates over all
        three axes; planar displacements look up its zero z shift."""
        ws = Workspace(bounds=((0, 0.2), (0, 0.2), (-0.02, 0.02)), resolution=0.01)
        assert ws.counts == (21, 21, 5)
        info = np.zeros(ws.counts)
        info[4:17, 4:17, :] = rng.uniform(0, 1, (13, 13, 5))
        f_info = ws.make_field(info.ravel())
        f_reach = ws.make_field(rng.uniform(0, 1, 21 * 21 * 5))
        table = ReachTable(f_info, f_reach)
        for _ in range(25):
            disp = rng.uniform(-0.05, 0.05, (6, 3)) * [1, 1, 0]
            direct = reach_cost(disp, ws, f_info, f_reach)
            fast = float(table.reach_cost_batch(disp[None])[0])
            assert fast == pytest.approx(direct, abs=1e-9)


class TestTotalCost:
    def test_zero(self):
        assert total_cost(0.0, 0.0, PlannerParams()) == 0.0

    def test_weighted_sum(self):
        assert total_cost(-3.0, -0.5, PlannerParams()) == pytest.approx(-103.0)

    def test_info_homogeneity(self):
        p = PlannerParams()
        a = total_cost(-2.0, -0.25, p)
        b = total_cost(-2.0 * 3.0, -0.25, p)
        assert b - a == pytest.approx(p.info_weight * (-4.0))


class TestMppi:
    def test_argmin_recovery_at_low_temperature(self, rng):
        params = PlannerParams(horizon=6, control_points=3, samples=64, temperature=1e-9)
        target = np.array([0.7, -0.3])

        def cost_fn(actions):
            return np.linalg.norm(actions.mean(axis=1) - target, axis=1)

        theta = np.zeros((3, 2))
        eps = rng.normal(0, math.sqrt(params.noise_cov), size=(params.samples, 3, 2))
        # replicate the sampling to identify the argmin candidate
        rng2 = np.random.default_rng(42)
        theta_new, costs = mppi_update(theta, cost_fn, params, np.random.default_rng(42))
        eps2 = rng2.normal(0, math.sqrt(params.noise_cov), size=(params.samples, 3, 2))
        best = theta + eps2[np.argmin(costs)]
        npt.assert_allclose(theta_new, best, atol=1e-9)

    def test_equal_costs_mean(self):
        params = PlannerParams(horizon=6, control_points=3, samples=32)
        theta = np.zeros((3, 2))

        def cost_fn(actions):
            return np.zeros(len(actions))

        rng2 = np.random.default_rng(7)
        theta_new, _ = mppi_update(theta, cost_fn, params, np.random.default_rng(7))
        eps = rng2.normal(0, math.sqrt(params.noise_cov), size=(params.samples, 3, 2))
        npt.assert_allclose(theta_new, (theta + eps).mean(axis=0), atol=1e-12)

    def test_plan_deterministic_given_seed(self):
        poses = [Pose.from_placement((0.3, 0.0, 0.0), y) for y in (0.0, 1.0, 2.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(horizon=5, control_points=3, samples=16, rollouts=2, mini_steps=2)
        robot = PaddleRobot()
        q0 = np.array([0.1, 0.0, 0.0])
        theta = np.zeros((3, 3))
        a1, n1 = plan(q0, ctx, robot, theta, params, np.random.default_rng(3))
        a2, n2 = plan(q0, ctx, robot, theta, params, np.random.default_rng(3))
        npt.assert_array_equal(a1, a2)
        npt.assert_array_equal(n1, n2)

    def test_plan_clamps_action(self):
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(horizon=4, control_points=2, samples=8, rollouts=1, mini_steps=1, noise_cov=25.0)
        a, _ = plan(np.array([0.1, 0.0, 0.0]), ctx, PaddleRobot(), np.zeros((2, 3)), params, np.random.default_rng(0))
        assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_nominal_shift_appends_zero(self):
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(horizon=4, control_points=3, samples=8, rollouts=1, mini_steps=1)
        _, nominal = plan(np.array([0.1, 0.0, 0.0]), ctx, PaddleRobot(), np.zeros((3, 3)), params, np.random.default_rng(0))
        npt.assert_array_equal(nominal[-1], np.zeros(3))


def _integrator_mssd(h_c: int, seed: int) -> float:
    """Toy 2D integrator: smoothness statistic of the planned action sequence."""
    H = 20
    params = PlannerParams(horizon=H, control_points=h_c, samples=64, temperature=0.1)
    goal = np.array([1.0, 0.5])

    def cost_fn(actions):
        pos = np.cumsum(0.1 * actions, axis=1)
        state_cost = ((pos - goal) ** 2).sum(axis=2).sum(axis=1)
        action_cost = 0.1 * (actions**2).sum(axis=2).sum(axis=1)
        return state_cost + action_cost

    rng = np.random.default_rng(seed)
    theta = np.zeros((h_c, 2))
    for _ in range(4):
        theta, _ = mppi_update(theta, cost_fn, params, rng)
    u = kernel_interpolate(theta, H)
    dd = np.diff(u, n=2, axis=0)
    return float((dd**2).mean())


class TestSmoothness:
    def test_fewer_control_points_smoother(self):
        """Mean squared second difference: H_c=8 beats H_c=H over 20 seeds."""
        coarse = np.mean([_integrator_mssd(8, s) for s in range(20)])
        dense = np.mean([_integrator_mssd(20, s) for s in range(20)])
        assert coarse < dense


class TestPlannerState:
    def test_replans_every_interval(self):
        poses = [Pose.from_placement((0.35, 0.0, 0.0), y) for y in (0.0, 2.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(
            horizon=5, control_points=3, samples=8, rollouts=1, mini_steps=1,
            replan_interval=2, warm_start_iters=2,
        )
        planner = Planner(params, PaddleRobot())
        rng = np.random.default_rng(0)
        q = np.array([0.1, 0.0, 0.0])
        for _ in range(2):
            planner.get_action(q, ctx, rng)
        n_iters = len(planner.trace)
        assert n_iters == params.warm_start_iters
        planner.get_action(q, ctx, rng)  # queue exhausted: replan (single iteration)
        assert len(planner.trace) == n_iters + 1

    def test_contact_forces_replan(self):
        poses = [Pose.from_placement((0.35, 0.0, 0.0), 0.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(
            horizon=5, control_points=3, samples=8, rollouts=1, mini_steps=1,
            replan_interval=3, warm_start_iters=1,
        )
        planner = Planner(params, PaddleRobot())
        rng = np.random.default_rng(0)
        q = np.array([0.1, 0.0, 0.0])
        planner.get_action(q, ctx, rng)
        before = len(planner.trace)
        planner.get_action(q, ctx, rng, contact=True)
        assert len(planner.trace) == before + 1
