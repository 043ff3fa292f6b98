"""Kernel interpolation, contact dynamics, trajectory costs, sampling MPC."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rummage import planner as planner_mod
from rummage.belief import ParticleSet
from rummage.geometry import PAIR_BUDGET, Pose, ScalarField, Sphere, Workspace, mug_shape
from rummage.infogain import InfoFields, build_info_fields, build_reachability, ReachabilityModel
from rummage.planner import (
    PUSH_ANGLE,
    PaddleRobot,
    Planner,
    PlannerParams,
    PlanningContext,
    ReachTable,
    control_times,
    interpolation_weights,
    kernel_interpolate,
    mppi_update,
    total_cost,
)
from rummage.semantics import SensorModel, grid_cells

from test_semantics import unique_cell_centers


SENSOR = SensorModel()


def interpolate_at(theta, H, times):
    """Reference: control points ``(H_c, dim)`` kernel-interpolated at
    arbitrary times of a horizon ``H``."""
    theta = np.asarray(theta, dtype=np.float64)
    return interpolation_weights(np.asarray(times, dtype=np.float64), H, theta.shape[0]) @ theta


def make_context(particle_poses, shape=None, bounds=((0.0, 0.6), (-0.3, 0.3), (0, 0)), res=0.01, with_table=False):
    shape = shape or Sphere(0.05)
    ws = Workspace(bounds=bounds, resolution=res)
    particles = ParticleSet.from_poses(particle_poses)
    fields = build_info_fields(particles, shape, ws, 2.0, SENSOR)
    reach = build_reachability(ws, ReachabilityModel(base=(0, 0, 0), r_mid=0.3, r_half=0.2, psi=0.4))
    table = ReachTable(fields.info, reach) if with_table else None
    return PlanningContext(fields=fields, particles=particles, shape=shape, reach_table=table), ws


def dynamics_step(q, d, u, ctx, robot, params, rng):
    """One action of the rollout dynamics: a single-row, single-step batch."""
    q_traj, d_traj = planner_mod._rollout_batch(q, d, np.reshape(u, (1, 1, 3)), ctx, robot, params, rng)
    return q_traj[0, 0], d_traj[0, 0]


# Scalar references for the batched costs: one trajectory at a time, read
# straight from the definitions.


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
    centers = unique_cell_centers(pts.reshape(-1, 3), r_ds)
    if len(centers) == 0:
        return 0.0
    return float(-np.sum(info_field.query(centers)))


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

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlannerParams(horizon=5, control_points=8)


def planar_placement(q, points):
    """Reference: points ``(M, 3)`` with z = 0 placed by configurations
    ``(n, 3)``, written out: ``(c*x - s*y + qx, s*x + c*y + qy, 0)``."""
    c, s = np.cos(q[:, 2:]), np.sin(q[:, 2:])
    x, y = points[:, 0], points[:, 1]
    return np.stack([c * x - s * y + q[:, :1], s * x + c * y + q[:, 1:2], np.zeros((len(q), len(points)))], axis=-1)


class TestPaddlePlacement:
    """Every placement of the paddle's points is the planar map of the
    configuration's yaw and ``(x, y, 0)``, bit for bit, with z exactly 0."""

    ROBOT = PaddleRobot()
    # yaws over a full turn, positions on both sides of both axes
    Q = np.column_stack([
        np.random.default_rng(3).uniform(-0.4, 0.6, 12),
        np.random.default_rng(4).uniform(-0.4, 0.4, 12),
        np.linspace(-math.pi, math.pi, 12),
    ])
    USES = {
        "body": (ROBOT.points_world, ROBOT.body_points),
        "info": (ROBOT.info_points_world, ROBOT.body_points[ROBOT.info_mask]),
        "pad": (ROBOT.pad_points_world, ROBOT.pad_points),
    }

    @pytest.mark.parametrize("use", USES)
    def test_one_configuration(self, use):
        place, points = self.USES[use]
        assert points.shape[1] == 3 and points[:, 2].tobytes() == np.zeros(len(points)).tobytes()
        for q in self.Q:
            got = place(q)
            assert got.shape == points.shape
            assert got.tobytes() == planar_placement(q[None], points)[0].tobytes()

    @pytest.mark.parametrize("use", USES)
    def test_stack(self, use):
        place, points = self.USES[use]
        got = place(self.Q)
        assert got.shape == (len(self.Q), len(points), 3)
        assert got.tobytes() == planar_placement(self.Q, points).tobytes()

    def test_one_point_per_row(self):
        body = self.ROBOT.body_points
        i = np.random.default_rng(5).integers(0, len(body), len(self.Q))
        want = np.stack([planar_placement(q[None], body[k:k + 1])[0, 0] for q, k in zip(self.Q, i)])
        assert self.ROBOT.body_point_world(self.Q, i).tobytes() == want.tobytes()


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
        phys = planner_mod.to_physical(u)
        npt.assert_allclose(q1, q0 + phys, atol=1e-12)
        npt.assert_array_equal(d1, np.zeros(3))

    def test_rollout_blocks_give_the_same_rollouts(self, monkeypatch):
        """The contact-point search runs a block of rollouts at a time;
        the block size must not change any rollout."""
        poses = [Pose.from_placement((0.3, 0.01 * k, 0.0), 0.3 * k) for k in range(4)]
        ctx, _ = make_context(poses, shape=mug_shape())
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
        npt.assert_allclose(q1, q0 + planner_mod.to_physical(u), atol=1e-12)

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


def class_probabilities(fields, points):
    """Reference: the free, occupied and surface fields each read at the
    points and clipped at 0, then divided by their total (a total of at
    most 0 read as 1)."""
    pf = np.maximum(fields.p_free.query(points), 0.0)
    po = np.maximum(fields.p_occ.query(points), 0.0)
    ps = np.maximum(fields.p_surf.query(points), 0.0)
    total = pf + po + ps
    total = np.where(total <= 0, 1.0, total)
    return pf / total, po / total, ps / total


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
        u = planner_mod.to_physical(np.clip(actions[:, t], -1.0, 1.0)) / params.mini_steps
        for _ in range(params.mini_steps):
            q_c = q + u
            o = q_c[:, :2] - d[:, :2]
            counts[2] += np.sum(np.any((o < lo_xy) | (o > hi_xy), axis=1))
            pts_c = robot.points_world(q_c)
            disp = pts_c - d[:, None, :]
            k = np.argmin(f.query(disp), axis=1)
            rows = np.arange(B)
            x_i, p_star = disp[rows, k], pts_c[rows, k]
            pf, _, _ = class_probabilities(ctx.fields, x_i)
            contact = rng.random(B) >= pf
            c_rows = np.flatnonzero(contact)
            normals = ctx.weighted_normals(x_i[c_rows]) if len(c_rows) else np.empty((0, 3))
            q_next = q_c.copy()
            for b, n in zip(c_rows, normals):
                d_prime = p_star[b] - robot.points_world(q[b])[k[b]]
                nn, mn = np.linalg.norm(n), np.linalg.norm(d_prime)
                cos = np.dot(n, -d_prime) / (nn * mn) if nn > 1e-12 and mn > 1e-12 else -1.0
                if cos > math.cos(PUSH_ANGLE):
                    d[b] = d[b] + d_prime
                    counts[0] += 1
                else:
                    q_next[b] = q[b]
                    counts[1] += 1
            q = q_next
        q_traj[:, t], d_traj[:, t] = q, d
    return q_traj, d_traj, counts


ROLLOUT_FIELDS = pytest.mark.parametrize(
    "res, z",
    [(0.01, (0.0, 0.0)), (0.005, (0.0, 0.0)), (0.01, (-0.02, 0.02))],
    ids=["planar-1cm", "planar-5mm", "z-interval"],
)


def mug_context(res, z):
    poses = [Pose.from_placement((0.3 + 0.005 * k, 0.004 * k, 0.0), 0.4 + 0.5 * k) for k in range(5)]
    return make_context(poses, shape=mug_shape(), bounds=((0.1, 0.5), (-0.2, 0.2), z), res=res)[0]


def searched_rows(ctx, robot):
    """The contact search over 1000 paddle placements around the mug, on
    and off the grid, each with a small object displacement (more rows than
    the search takes in one block)."""
    rng = np.random.default_rng(7)
    q = np.column_stack([rng.uniform(0.05, 0.55, 1000), rng.uniform(-0.25, 0.25, 1000), rng.uniform(-math.pi, math.pi, 1000)])
    d = rng.normal(0.0, 0.01, (1000, 3)) * [1, 1, 0]
    return q, d, planner_mod._contact_points(q, d, ctx, robot)


class TestRolloutCull:
    """Only rows whose draw reaches the free-probability floor are searched;
    the rollouts equal those of searching every row."""

    @ROLLOUT_FIELDS
    def test_matches_searching_every_row(self, res, z):
        ctx = mug_context(res, z)
        ref_ctx = mug_context(res, z)
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

    @ROLLOUT_FIELDS
    def test_search_returns_the_raw_free_value(self, res, z):
        """The search hands back, bit for bit, the free field's value at the
        point it chose, and that point's position and index."""
        ctx, robot = mug_context(res, z), PaddleRobot()
        q, d, (i_star, x_i, p_star, pf) = searched_rows(ctx, robot)
        rows = np.arange(len(q))
        pts = robot.points_world(q)
        assert pf.tobytes() == ctx.fields.p_free.query(x_i).tobytes()
        assert np.all(pf == ctx.fields.p_free.query(pts - d[:, None, :]).min(axis=1))
        assert p_star.tobytes() == pts[rows, i_star].tobytes()
        assert x_i.tobytes() == (pts - d[:, None, :])[rows, i_star].tobytes()

    @ROLLOUT_FIELDS
    def test_one_point_transform_equals_all_points(self, res, z):
        """A hit row's push direction transforms its chosen body point only;
        each row reads what transforming all the row's points gives."""
        ctx, robot = mug_context(res, z), PaddleRobot()
        q, _, (i_star, *_) = searched_rows(ctx, robot)
        want = robot.points_world(q)[np.arange(len(q)), i_star]
        assert robot.body_point_world(q, i_star).tobytes() == want.tobytes()
        every = np.arange(len(robot.body_points))
        one_q = np.repeat(q[:1], len(every), axis=0)
        assert robot.body_point_world(one_q, every).tobytes() == robot.points_world(one_q)[every, every].tobytes()

    @ROLLOUT_FIELDS
    def test_free_probability_equals_three_field_renormalization(self, res, z):
        """Renormalizing the search's raw value reads the free probability
        of interpolating all three class fields at the point."""
        ctx, robot = mug_context(res, z), PaddleRobot()
        _, _, (_, x_i, _, pf) = searched_rows(ctx, robot)
        got = ctx.fields.free_probability(pf, x_i)
        want, _, _ = class_probabilities(ctx.fields, x_i)
        assert got.tobytes() == want.tobytes()
        assert got.min() < 0.5 < got.max() == 1.0  # inside the mug and far from it

    @pytest.mark.parametrize("rho, half_width", [(2.4, 3), (2.5, 4), (2.5 - 1e-9, 4), (3.16, 4), (6.32, 7)])
    def test_floor_window_half_width(self, rho, half_width):
        """The floor of a single low node reaches floor(r/res + 0.5) + 1
        nodes, one more where r/res + 0.5 is (or nearly is) an integer."""
        from rummage.infogain import FreeFloor

        res, dims = 0.01, (25, 25, 1)
        pf = np.full(dims, 0.9)
        pf[12, 12, 0] = 0.1
        po, ps = 1.0 - pf, np.zeros(dims)
        fields = InfoFields(*(ScalarField(np.zeros(3), res, v, out) for v, out in ((pf, 1.0), (pf, 1.0), (po, 0.0), (ps, 0.0))))
        low = FreeFloor(fields, rho * res).values < 0.5
        ix, iy = np.meshgrid(np.arange(25), np.arange(25), indexing="ij")
        npt.assert_array_equal(low, np.maximum(abs(ix - 12), abs(iy - 12)) <= half_width)

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
        free, _, _ = class_probabilities(fields, robot.points_world(np.array([x, y, yaw])))
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


def sweep_all_at_once(q_traj, d_traj, info_field, robot, r_ds):
    """Reference: the sweep costs of every rollout from one point stack."""
    B, H, _ = q_traj.shape
    pts = robot.info_points_world(q_traj.reshape(-1, 3)).reshape(B, H, -1, 3)
    pts -= d_traj[:, :, None, :]
    rows, centers = grid_cells(pts.reshape(B, -1, 3), r_ds)
    return -np.bincount(rows, weights=info_field.query(centers), minlength=B)


def sweep_inputs(rng, B, H):
    f = ScalarField(origin=np.array([-0.1, -0.3, 0.0]), resolution=0.01, values=rng.uniform(0, 1, (60, 60, 1)))
    q_traj = rng.uniform(-0.05, 0.3, (B, H, 3))
    d_traj = np.cumsum(rng.uniform(-0.01, 0.01, (B, H, 3)) * [1, 1, 0], axis=1)
    return q_traj, d_traj, f


# rollout counts, given the rollouts of one block
SWEEP_COUNTS = {
    "1": lambda block: 1, "block-1": lambda block: block - 1, "block": lambda block: block,
    "block+1": lambda block: block + 1, "2500": lambda block: 2500,
}


class TestBatchedSweepCost:
    @pytest.mark.parametrize("count", SWEEP_COUNTS.values(), ids=SWEEP_COUNTS.keys())
    def test_blocks_match_one_stack(self, rng, count):
        """Rollout counts of one rollout, one block +- 1 and several blocks,
        bit for bit the costs of one stack of all rollouts."""
        from rummage.planner import batched_sweep_cost

        robot, H = PaddleRobot(), 15
        block = PAIR_BUDGET // (H * int(robot.info_mask.sum()))
        B = count(block)
        q_traj, d_traj, f = sweep_inputs(rng, B, H)
        got = batched_sweep_cost(q_traj, d_traj, f, robot, 0.01)
        assert got.tobytes() == sweep_all_at_once(q_traj, d_traj, f, robot, 0.01).tobytes()

    def test_peak_memory_one_block(self, rng):
        """2500 rollouts of 15 steps: the sweep holds one block of rollouts
        at a time (one stack of all of them peaks at about 28 MB here)."""
        from rummage.planner import batched_sweep_cost

        q_traj, d_traj, f = sweep_inputs(rng, 2500, 15)
        tracemalloc.start()
        try:
            batched_sweep_cost(q_traj, d_traj, f, PaddleRobot(), 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"

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
        """Each point reads, bit for bit, the exact normal at the center of
        its cell, a cube of side half the field resolution."""
        poses = [Pose.from_placement((0.3, 0.0, 0.0), y) for y in (0.0, 1.3)]
        ctx, _ = make_context(poses, res=0.01)
        exact_ctx, _ = make_context(poses, res=0.01)
        pts = rng.uniform(0.2, 0.4, (30, 3)) * [1, 1, 0]
        got = ctx.weighted_normals(pts)
        for p, n in zip(pts, got):
            center = np.round(p / 0.005).astype(np.int64) * 0.005
            npt.assert_array_equal(n, exact_ctx._exact_normals(center[None])[0])

    def test_normal_cache_matches_row_loop(self, rng):
        """The cache hands out, row by row, the normal of the row's cell;
        cells first met in one call are evaluated together in order of
        first appearance.  Reference: that rule written as a loop."""
        poses = [Pose.from_placement((0.3, 0.0, 0.0), y) for y in (0.0, 1.3, 2.0)]
        ctx, _ = make_context(poses, shape=mug_shape())
        ref_ctx, _ = make_context(poses, shape=mug_shape())
        q = 0.005  # half the field resolution
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
        # cell keys pack 21 bits per axis: the extreme cells are cached
        # apart, and a key outside the range is an error
        edge = np.array([[-2.0**20, 2.0**20 - 1, 0.0], [2.0**20 - 1, -2.0**20, 0.0]]) * q
        npt.assert_array_equal(ctx.weighted_normals(edge), reference(edge))
        for far in ([2.0**20, 0.0, 0.0], [0.0, -2.0**20 - 1, 0.0], [0.0, 0.0, np.nan]):
            with pytest.raises(ValueError, match="cell keys"):
                ctx.weighted_normals(np.array([far]) * q)


def direct_correlation(info, reach, k):
    """Reference: sum over nodes m of reach[m + k] * info[m], for an
    integer node shift ``k``, node by node."""
    total = 0.0
    for m in np.ndindex(info.shape):
        j = tuple(a + b for a, b in zip(m, k))
        if all(0 <= x < n for x, n in zip(j, info.shape)):
            total += reach[j] * info[m]
    return total


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


    RES = 0.01

    def table_fields(self, rng, dims):
        ws = Workspace(bounds=tuple((0.0, self.RES * (n - 1)) for n in dims), resolution=self.RES)
        assert ws.counts == dims
        info = rng.uniform(0.1, 1.0, dims)
        reach = rng.uniform(0.1, 1.0, dims)
        table = ReachTable(ws.make_field(info.ravel()), ws.make_field(reach.ravel()))
        return info, reach, table

    @pytest.mark.parametrize("dims", [(5, 4, 1), (4, 3, 3)], ids=["planar", "z-layers"])
    def test_lattice_shifts_equal_direct_correlation(self, rng, dims):
        info, reach, table = self.table_fields(rng, dims)
        ks = list(np.ndindex(*(2 * n - 1 for n in dims)))
        ks = [tuple(k - (n - 1) for k, n in zip(kk, dims)) for kk in ks]
        got = table.reachable_info(np.array(ks, dtype=np.float64) * self.RES)
        want = np.array([direct_correlation(info, reach, k) for k in ks])
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_table_edges_and_beyond(self, rng):
        """Shifts of exactly +-(n-1) nodes read the corner products; a
        shift just beyond the table on any axis reads 0."""
        dims = (5, 4, 1)
        info, reach, table = self.table_fields(rng, dims)
        edge = np.array([n - 1 for n in dims], dtype=np.float64) * self.RES
        for sx in (-1, 1):
            for sy in (-1, 1):
                k = (sx * (dims[0] - 1), sy * (dims[1] - 1), 0)
                at = np.array([sx, sy, 0.0]) * edge
                assert table.reachable_info(at[None])[0] == pytest.approx(direct_correlation(info, reach, k), rel=1e-12)
                assert table.reachable_info(at[None])[0] > 0.0
                for ax in (0, 1):
                    beyond = at.copy()
                    beyond[ax] += (sx, sy)[ax] * 1e-6 * self.RES
                    assert table.reachable_info(beyond[None])[0] == 0.0
        far = np.array([[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.01]])
        npt.assert_array_equal(table.reachable_info(far), 0.0)


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
        params = PlannerParams(horizon=5, control_points=3, samples=16, rollouts=2, mini_steps=2, warm_start_iters=1)
        q0 = np.array([0.1, 0.0, 0.0])
        planners = [Planner(params, PaddleRobot()) for _ in range(2)]
        for p in planners:
            p.replan(q0, ctx, np.random.default_rng(3))
        a, b = planners
        npt.assert_array_equal(a.theta, b.theta)
        npt.assert_array_equal(np.array(a._queue), np.array(b._queue))

    def test_plan_clamps_action(self):
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(
            horizon=4, control_points=2, samples=8, rollouts=1, mini_steps=1, noise_cov=25.0, warm_start_iters=1
        )
        planner = Planner(params, PaddleRobot())
        a = planner.get_action(np.array([0.1, 0.0, 0.0]), ctx, np.random.default_rng(0))
        assert np.abs(planner.theta).max() > 1.0  # the nominal itself leaves the box
        assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_nominal_shift_appends_zero(self):
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0)]
        ctx, ws = make_context(poses, with_table=True)
        params = PlannerParams(horizon=4, control_points=3, samples=8, rollouts=1, mini_steps=1, warm_start_iters=1)
        planner = Planner(params, PaddleRobot())
        planner.replan(np.array([0.1, 0.0, 0.0]), ctx, np.random.default_rng(0))
        theta = planner.theta.copy()
        planner._shift_nominal(1)
        npt.assert_array_equal(planner.theta[:-1], theta[1:])
        npt.assert_array_equal(planner.theta[-1], np.zeros(3))


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
