"""World dynamics, synthetic sensing, metrics, baseline, episode harness."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from rummage import sim
from rummage.belief import ParticleSet
from rummage.geometry import Pose, Sphere
from rummage.planner import TRANSLATION_SCALE, YAW_SCALE, PaddleRobot, PlannerParams
from rummage.semantics import SensorModel
from rummage.sim import (
    CameraModel,
    EpisodeArtifacts,
    Scenario,
    World,
    calibrate_nll_threshold,
    camera_observe,
    classify_tactile,
    nll,
    pairwise_chamfer,
    run_episode,
    sample_surface,
    slide_policy,
    tactile_observe,
    world_step,
)


SENSOR = SensorModel()


def small_scenario(**kw):
    planner = PlannerParams(
        horizon=5, control_points=3, samples=24, rollouts=2, mini_steps=2,
        replan_interval=2, warm_start_iters=2,
    )
    belief = dataclasses.replace(Scenario().belief, n_particles=20)
    defaults = dict(planner=planner, belief=belief, surface_samples=120, n_steps=4)
    defaults.update(kw)
    return Scenario(**defaults)


class TestSampleSurface:
    def test_on_surface(self, rng, mug):
        pts = sample_surface(mug, 200, rng)
        assert len(pts) == 200
        assert np.abs(mug.sdf(pts)).max() < 1e-7

    def test_deterministic(self, mug):
        a = sample_surface(mug, 50, np.random.default_rng(3))
        b = sample_surface(mug, 50, np.random.default_rng(3))
        npt.assert_array_equal(a, b)


class TestCamera:
    def test_miss_gives_only_free(self):
        world = World(shape=Sphere(0.05), true_pose=Pose.from_placement((0.0, 5.0, 0.0), 0.0), q=np.zeros(3))
        cam = CameraModel(position=(-0.2, 0.0, 0.0), n_rays=11, fov=math.radians(30))
        cloud = camera_observe(world, cam)
        assert len(cloud.surface) == 0
        assert len(cloud.free) > 0

    def test_hit_places_surface_point(self):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T, q=np.zeros(3))
        cam = CameraModel(position=(-0.2, 0.0, 0.0), n_rays=21, fov=math.radians(40))
        cloud = camera_observe(world, cam)
        assert len(cloud.surface) > 0
        v = np.abs(Sphere(0.05).sdf(T.transform(cloud.surface)))
        assert v.max() < 1e-4

    def test_free_points_strictly_outside(self):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T, q=np.zeros(3))
        cam = CameraModel(position=(-0.2, 0.05, 0.0), n_rays=31, fov=math.radians(50))
        cloud = camera_observe(world, cam)
        assert np.all(Sphere(0.05).sdf(T.transform(cloud.free)) > 0)

    def test_lockstep_march_matches_per_ray_loop(self, mug):
        """All rays marched together give the cloud of marching each ray
        alone, bit for bit: rays that hit the mug, rays that miss it, and
        rays that stop at max_range short of it."""
        T = Pose.from_placement((0.35, 0.02, 0.0), 0.8)
        world = World(shape=mug, true_pose=T, q=np.zeros(3))
        cam = CameraModel(position=(-0.15, 0.0, 0.0), n_rays=61, fov=math.radians(80), max_range=0.47)
        origin = np.asarray(cam.position, dtype=np.float64)

        def march(direction, max_range):
            t = 0.0
            for _ in range(256):
                d = float(mug.sdf(T.transform(origin + t * direction)))
                if d < sim.CAMERA_HIT_TOL:
                    return t, True
                t += max(d, sim.CAMERA_HIT_TOL)
                if t > max_range:
                    break
            return max_range, False

        frees, surfaces, hits, short = [], [], set(), 0
        for a in cam.look_angle + np.linspace(-cam.fov / 2, cam.fov / 2, cam.n_rays):
            direction = np.array([math.cos(a), math.sin(a), 0.0])
            t, hit = march(direction, cam.max_range)
            hits.add(hit)
            short += not hit and march(direction, 1.0)[1]
            free_to = sim.CAMERA_FREE_FRACTION * t if hit else cam.max_range
            ts = np.arange(sim.CAMERA_SPACING, free_to, sim.CAMERA_SPACING)
            if len(ts):
                frees.append(origin[None, :] + ts[:, None] * direction[None, :])
            if hit:
                surfaces.append(origin + t * direction)
        assert hits == {False, True} and short > 0

        cloud = camera_observe(world, cam)
        assert cloud.free.tobytes() == np.concatenate(frees).tobytes()
        assert cloud.surface.tobytes() == np.stack(surfaces).tobytes()


class TestTactile:
    def test_far_from_object_all_free(self):
        world = World(shape=Sphere(0.05), true_pose=Pose.from_placement((0.5, 0.0, 0.0), 0.0), q=np.zeros(3))
        robot = PaddleRobot()
        cloud = tactile_observe(world, np.array([0.1, 0.0, 0.0]), robot)
        assert len(cloud.surface) == 0
        assert len(cloud.free) == len(robot.body_points)

    def test_touching_face_reports_surface(self):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T, q=np.zeros(3))
        robot = PaddleRobot()
        # front face at 0.249: within the 3 mm shell of the surface at 0.25
        cloud = tactile_observe(world, np.array([0.239, 0.0, 0.0]), robot)
        assert len(cloud.surface) >= 1
        assert np.abs(Sphere(0.05).sdf(T.transform(cloud.surface))).max() < 0.003

    def test_boundary_exactly_at_tolerance_is_free(self):
        info_mask = np.array([True, True, False])
        v = np.array([0.003, 0.0029, 0.003])
        surface, free = classify_tactile(v, info_mask)
        npt.assert_array_equal(surface, [False, True, False])
        npt.assert_array_equal(free, [True, False, True])

    def test_non_sensing_points_never_surface(self):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T, q=np.zeros(3))
        robot = PaddleRobot()
        cloud = tactile_observe(world, np.array([0.239, 0.0, 0.0]), robot)
        # every surface point lies on the sensing face (max x of the paddle)
        if len(cloud.surface):
            assert cloud.surface[:, 0].max() >= cloud.free[:, 0].max() - 1e-9


class TestWorldStep:
    def test_free_space_action(self):
        world = World(shape=Sphere(0.05), true_pose=Pose.from_placement((0.5, 0.0, 0.0), 0.0), q=np.array([0.1, 0.0, 0.0]))
        dT, contact = world_step(world, np.array([0.5, 0.0, 0.0]), PaddleRobot())
        assert not contact
        assert dT.is_identity()
        npt.assert_allclose(world.q, (0.14, 0.0, 0.0), atol=1e-12)

    def test_head_on_push_translates_object(self):
        """20 mm travel with 5 mm standoff: about 15 mm of object motion."""
        T0 = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T0, q=np.array([0.235, 0.0, 0.0]))
        u = np.array([0.25, 0.0, 0.0])  # 20 mm
        dT, contact = world_step(world, u, PaddleRobot())
        assert contact
        moved = world.true_pose.object_center_world() - T0.object_center_world()
        assert moved[0] == pytest.approx(0.015, abs=0.001)
        assert abs(moved[1]) < 1e-6

    def test_tangential_graze_truncates_robot(self):
        T0 = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T0, q=np.array([0.3, -0.0585, math.pi / 2]))
        u = np.array([0.25, 0.0, 0.0])
        dT, contact = world_step(world, u, PaddleRobot())
        assert contact
        assert dT.is_identity()
        npt.assert_allclose(world.q, (0.3, -0.0585, math.pi / 2), atol=1e-9)

    def test_no_deep_interpenetration(self, rng, mug):
        T0 = Pose.from_placement((0.3, 0.0, 0.0), 0.4)
        world = World(shape=mug, true_pose=T0, q=np.array([0.2, 0.0, 0.0]))
        robot = PaddleRobot()
        for _ in range(30):
            u = rng.uniform(-1, 1, 3)
            world_step(world, u, robot)
            v = mug.sdf(world.true_pose.transform(robot.points_world(world.q)))
            # at most one sub-step of travel deep
            assert v.min() > -(TRANSLATION_SCALE + 0.05 * YAW_SCALE) / sim.SUBSTEPS

    def test_push_delta_composes_correctly(self):
        T0 = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        world = World(shape=Sphere(0.05), true_pose=T0, q=np.array([0.235, 0.0, 0.0]))
        dT, _ = world_step(world, np.array([0.25, 0.0, 0.0]), PaddleRobot())
        composed = dT.compose(T0)
        npt.assert_allclose(composed.rotation, world.true_pose.rotation, atol=1e-12)
        npt.assert_allclose(composed.translation, world.true_pose.translation, atol=1e-12)


class TestNll:
    def test_zero_at_truth(self, rng, mug):
        T = Pose.from_placement((0.4, 0.0, 0.0), 0.7)
        samples = sample_surface(mug, 150, rng)
        particles = ParticleSet.from_poses([T])
        assert nll(particles, mug, T, samples, SENSOR) == 0.0

    def test_monotone_in_offset(self, rng, mug):
        T = Pose.from_placement((0.4, 0.0, 0.0), 0.7)
        samples = sample_surface(mug, 150, rng)
        values = []
        for off in (0.0, 0.01, 0.02, 0.04):
            P = ParticleSet.from_poses([Pose.from_placement((0.4 + off, 0.0, 0.0), 0.7)])
            values.append(nll(P, mug, T, samples, SENSOR))
        assert values == sorted(values)
        assert values[1] > 0

    def test_opposed_yaws_fail_threshold(self, rng, mug):
        T = Pose.from_placement((0.4, 0.0, 0.0), 0.3)
        samples = sample_surface(mug, 200, rng)
        threshold = calibrate_nll_threshold(mug, T, samples, SENSOR)
        opposed = ParticleSet.from_poses(
            [Pose.from_placement((0.4, 0.0, 0.0), 0.3 + math.pi), Pose.from_placement((0.4, 0.0, 0.0), 0.3 - math.pi / 2)]
        )
        assert nll(opposed, mug, T, samples, SENSOR) > threshold

    def test_finite_under_hopeless_belief(self, rng, mug):
        T = Pose.from_placement((0.4, 0.0, 0.0), 0.0)
        samples = sample_surface(mug, 100, rng)
        P = ParticleSet.from_poses([Pose.from_placement((5.0, 5.0, 0.0), 0.0)])
        v = nll(P, mug, T, samples, SENSOR)
        assert np.isfinite(v)
        assert v == pytest.approx(-100 * math.log(1e-12))


class TestPairwiseChamfer:
    def test_identical_particles_zero(self, rng, mug):
        samples = sample_surface(mug, 80, rng)
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.2)
        particles = ParticleSet.from_poses([T, T, T])
        assert pairwise_chamfer(particles, mug, samples) < 1e-7

    def test_relabeling_invariance(self, rng, mug):
        samples = sample_surface(mug, 60, rng)
        poses = [Pose.from_placement((0.3 + 0.01 * i, 0.0, 0.0), 0.1 * i) for i in range(4)]
        a = pairwise_chamfer(ParticleSet.from_poses(poses), mug, samples)
        b = pairwise_chamfer(ParticleSet.from_poses(poses[::-1]), mug, samples)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_scalar_oracle_exactly(self, rng):
        """Brute-force triple loop over (i, j, p), plain Python accumulation."""
        shape = Sphere(0.05)
        samples = sample_surface(shape, 40, rng)
        poses = [
            Pose.from_placement((0.3, 0.0, 0.0), 0.0),
            Pose.from_placement((0.31, 0.0, 0.0), 0.4),
            Pose.from_placement((0.29, 0.02, 0.0), -0.3),
        ]
        particles = ParticleSet.from_poses(poses)
        total = 0.0
        for Ti in poses:
            for Tj in poses:
                world = Tj.inverse().transform(samples)
                for p in world:
                    total = total + abs(float(shape.sdf(Ti.transform(p))))
        expected = total / (len(poses) ** 2 * len(samples))
        assert pairwise_chamfer(particles, shape, samples) == expected

    def test_two_sphere_offset_value(self, rng):
        """Two particles 10 mm apart on a 50 mm sphere: frozen oracle value."""
        shape = Sphere(0.05)
        samples = sample_surface(shape, 500, rng)
        poses = [Pose.from_placement((0.3, 0.0, 0.0), 0.0), Pose.from_placement((0.31, 0.0, 0.0), 0.0)]
        particles = ParticleSet.from_poses(poses)
        got = pairwise_chamfer(particles, shape, samples)
        # diagonal pairs contribute ~0; each cross pair is the mean |sdf| of
        # the other particle's surface samples seen 10 mm shifted
        cross_a = np.abs(shape.sdf(poses[0].transform(poses[1].inverse().transform(samples)))).mean()
        cross_b = np.abs(shape.sdf(poses[1].transform(poses[0].inverse().transform(samples)))).mean()
        assert got == pytest.approx((cross_a + cross_b) / 4, rel=1e-6)

    def test_every_point_goes_through_the_shape(self, rng, mug):
        """The chamfer evaluates the shape at all n * n * P points, the
        culling is inside the shape and changes no value."""
        counted = []

        class Counting:
            def sdf(self, points):
                counted.append(len(points))
                return mug.sdf(points)

        samples = sample_surface(mug, 70, rng)
        poses = [Pose.from_placement((0.4 + 0.01 * i, -0.005 * i, 0.0), 0.9 * i) for i in range(5)]
        particles = ParticleSet.from_poses(poses)
        assert pairwise_chamfer(particles, Counting(), samples) == pairwise_chamfer(particles, mug, samples)
        assert sum(counted) == 5 * 5 * 70


class TestPairwiseChamferMemory:
    def test_streams_rows(self, mug):
        """100 particles x 500 samples: the n x n*P buffer (77 MB) is gone."""
        import tracemalloc

        rng = np.random.default_rng(3)
        samples = sample_surface(mug, 500, rng)
        poses = [Pose.from_placement((0.4 + rng.normal(0, 0.01), rng.normal(0, 0.01), 0.0), rng.uniform(-3, 3)) for _ in range(100)]
        particles = ParticleSet.from_poses(poses)
        tracemalloc.start()
        try:
            value = pairwise_chamfer(particles, mug, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value) and value > 0
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestSlidePolicy:
    def test_heads_toward_center_when_free(self):
        particles = ParticleSet.from_poses([Pose.from_placement((0.4, 0.0, 0.0), 0.0)])
        a = slide_policy(particles, Sphere(0.05), np.array([0.2, 0.0, 0.0]), False, None, 1.0)
        assert a[0] > 0
        assert a[1] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(a[:2]) == pytest.approx(0.5)

    def test_zero_at_center(self):
        particles = ParticleSet.from_poses([Pose.from_placement((0.2, 0.0, 0.0), 0.0)])
        a = slide_policy(particles, Sphere(0.05), np.array([0.2, 0.0, 0.0]), False, None, 1.0)
        npt.assert_array_equal(a, np.zeros(3))

    def test_tangent_when_in_contact(self):
        particles = ParticleSet.from_poses([Pose.from_placement((0.3, 0.0, 0.0), 0.0)])
        contact = np.array([0.25, 0.0, 0.0])  # normal points -x here
        a_ccw = slide_policy(particles, Sphere(0.05), np.array([0.24, 0.0, 0.0]), True, contact, 1.0)
        # normal -x, counterclockwise tangent: (-n_y, n_x) = (0, -1)
        assert abs(a_ccw[0]) < 1e-9
        assert a_ccw[1] == pytest.approx(-0.5, abs=1e-9)
        a_cw = slide_policy(particles, Sphere(0.05), np.array([0.24, 0.0, 0.0]), True, contact, -1.0)
        assert a_cw[1] == pytest.approx(0.5, abs=1e-9)


class TestEpisode:
    def test_zero_steps_initial_metrics_only(self):
        scenario = small_scenario()
        metrics = run_episode(scenario, "slide", seed=0, n_steps=0)
        assert len(metrics.records) == 1
        assert metrics.records[0].step == 0
        assert metrics.records[0].nll > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_episode(small_scenario(), "bogus", seed=0)

    def test_seeded_determinism_slide(self):
        scenario = small_scenario()
        a = run_episode(scenario, "slide", seed=3, n_steps=3)
        b = run_episode(scenario, "slide", seed=3, n_steps=3)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_seeded_determinism_full(self):
        scenario = small_scenario()
        a = run_episode(scenario, "full", seed=5, n_steps=2)
        b = run_episode(scenario, "full", seed=5, n_steps=2)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_methods_diverge(self):
        scenario = small_scenario()
        a = run_episode(scenario, "full", seed=1, n_steps=2)
        b = run_episode(scenario, "info-only", seed=1, n_steps=2)
        assert a.records[0] == b.records[0]  # same initial belief

    @pytest.mark.parametrize("method", ["slide", "full"])
    def test_record_chamfer_is_that_of_the_step_particles(self, method, monkeypatch):
        """A step whose particle poses repeat an earlier step's reuses its
        chamfer; every record still equals the chamfer of its particles."""
        calls = []
        monkeypatch.setattr(sim, "pairwise_chamfer", lambda *a: calls.append(a[0]) or pairwise_chamfer(*a))
        scenario = small_scenario()
        art = EpisodeArtifacts()
        m = run_episode(scenario, method, seed=3, n_steps=4, artifacts=art)
        shape = scenario.build_shape()
        # the episode's first draws are its surface samples
        samples = sample_surface(shape, scenario.surface_samples, np.random.default_rng(3))
        assert [t for t, _ in art.particle_snapshots] == [r.step for r in m.records[1:]]
        for (t, particles), rec in zip(art.particle_snapshots, m.records[1:]):
            assert rec.chamfer == pairwise_chamfer(particles, shape, samples)

        def key(ps):
            return b"".join(T.rotation.tobytes() + T.translation.tobytes() for T in ps.poses)

        # one evaluation per distinct pose set
        assert len({key(ps) for ps in calls}) == len(calls)
        assert {key(ps) for _, ps in art.particle_snapshots} <= {key(ps) for ps in calls}
        if method == "slide":
            assert len(calls) < len(m.records)  # no step here resamples

    def test_metrics_shape(self):
        scenario = small_scenario()
        m = run_episode(scenario, "reach-only", seed=2, n_steps=2)
        assert m.nll_threshold > 0
        assert all(np.isfinite(r.nll) for r in m.records)
        assert all(r.chamfer >= 0 for r in m.records)

    @pytest.mark.parametrize("method", ["full", "reach-only"])
    def test_non_planar_workspace_runs(self, method):
        """A workspace with a z interval plans with a reach table
        correlated over all three grid axes."""
        scenario = small_scenario(workspace_bounds=((0.0, 0.8), (-0.4, 0.4), (-0.02, 0.02)), workspace_resolution=0.02)
        m = run_episode(scenario, method, seed=0, n_steps=1)
        assert len(m.records) == 2
        assert all(np.isfinite(r.nll) for r in m.records)
