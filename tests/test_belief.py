"""Particle filter: weighting, perturbation, resampling, movement, updates."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from rummage.belief import (
    BeliefParams,
    BeliefState,
    ParticleSet,
    estimate_movement,
    initialize_particles,
    perturb,
    resample,
    systematic_resample_indices,
    update_step,
    weigh,
)
from rummage.discrepancy import DiscrepancyParams, discrepancies, total_discrepancy
from rummage.export import particles_to_rows
from rummage.geometry import Pose, Sphere
from rummage.semantics import SemanticCloud
from rummage.sim import sample_surface

from conftest import weighted_set


DISC = DiscrepancyParams()


def state_of(particles, cloud, shape):
    """A belief state of ``particles`` against ``cloud``, with their costs."""
    return BeliefState(particles, cloud, discrepancies(DISC, shape, cloud, particles))


def make_particles(n, rng, center=(0.3, 0.0, 0.0), spread=0.0):
    poses = []
    for _ in range(n):
        c = np.asarray(center) + rng.normal(0, spread, 3) * [1, 1, 0]
        poses.append(Pose.from_placement(c, rng.uniform(-math.pi, math.pi)))
    return ParticleSet.from_poses(poses)


class TestWeigh:
    def test_equal_discrepancies_uniform(self, rng):
        shape = Sphere(0.05)
        particles = ParticleSet.from_poses([Pose.identity()] * 4)
        cloud = SemanticCloud.from_parts(surface=[[0.06, 0.0, 0.0]])
        out = weigh(particles, cloud, shape, DISC, BeliefParams())
        npt.assert_allclose(out.weights, 0.25)

    def test_two_particle_ratio(self):
        """d = [0, ln2/gamma] with gamma=2 gives weights [2/3, 1/3]."""
        shape = Sphere(0.05)
        d2 = math.log(2) / 2.0
        # particle 2 shifts the surface point radially outward by exactly d2
        p1 = Pose.identity()
        p2 = Pose(np.array([d2, 0.0, 0.0]))
        cloud = SemanticCloud.from_parts(surface=[[0.05, 0.0, 0.0]])
        particles = ParticleSet.from_poses([p1, p2])
        d = [total_discrepancy(DISC, shape, cloud, p) for p in (p1, p2)]
        assert d[0] == pytest.approx(0.0, abs=1e-12)
        assert d[1] == pytest.approx(d2, abs=1e-12)
        out = weigh(particles, cloud, shape, DISC, BeliefParams(gamma=2.0))
        npt.assert_allclose(out.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_shift_invariance(self, rng):
        shape = Sphere(0.05)
        particles = make_particles(8, rng)
        cloud = SemanticCloud.from_parts(surface=rng.uniform(-0.1, 0.1, (10, 3)))
        base = weigh(particles, cloud, shape, DISC, BeliefParams())
        # shifting every discrepancy by a constant is what the min-subtraction
        # does internally; adding a shared surface point shifts all d_i equally
        # only in degenerate cases, so instead verify the softmax directly
        d = discrepancies(DISC, shape, cloud, particles)
        for c in (0.0, 5.0, 123.4):
            w = np.exp(-2.0 * ((d + c) - (d + c).min()))
            npt.assert_allclose(w / w.sum(), base.weights, atol=1e-12)

    def test_weights_always_normalized(self, rng):
        shape = Sphere(0.05)
        particles = make_particles(16, rng, spread=0.05)
        cloud = SemanticCloud.from_parts(surface=rng.uniform(-0.2, 0.2, (30, 3)))
        out = weigh(particles, cloud, shape, DISC, BeliefParams())
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(out.weights))


class TestPerturb:
    def test_zero_noise_identity(self, rng):
        state = rng.bit_generator.state
        t = perturb(rng, 3, 0.0)
        npt.assert_array_equal(t, np.zeros((3, 3)))
        assert rng.bit_generator.state == state  # nothing drawn

    def test_translation_clt_bound(self):
        rng = np.random.default_rng(7)
        n = 100_000
        sigma = 0.01
        samples = perturb(rng, n, sigma)
        bound = 3 * sigma / math.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0)) < bound * 1.5)

    def test_planar_restriction(self, rng):
        t = perturb(rng, 50, 0.01)
        assert np.all(t[:, 2] == 0.0)
        assert np.all(t[:, :2] != 0.0)


class TestResample:
    def test_degenerate_weights_copy_winner(self, rng):
        shape = Sphere(0.05)
        poses = [Pose.from_placement((0.1 * i, 0.0, 0.0), 0.0) for i in range(4)]
        w = np.array([0.0, 0.0, 1.0, 0.0])
        particles = weighted_set(poses, w)
        params = BeliefParams(sigma_t=0.0, k_opt=0)
        out, _ = resample(particles, SemanticCloud(), shape, DISC, params, rng)
        for T in out.poses:
            npt.assert_allclose(T.translation, poses[2].translation, atol=1e-12)
        npt.assert_allclose(out.weights, 0.25)

    def test_uniform_zero_noise_preserves_set(self, rng):
        shape = Sphere(0.05)
        poses = [Pose.from_placement((0.1 * i, 0.0, 0.0), 0.1 * i) for i in range(5)]
        particles = ParticleSet.from_poses(poses)
        params = BeliefParams(sigma_t=0.0, k_opt=0)
        out, _ = resample(particles, SemanticCloud(), shape, DISC, params, rng)
        for a, b in zip(out.poses, poses):
            npt.assert_allclose(a.translation, b.translation, atol=1e-12)
            npt.assert_allclose(a.rotation, b.rotation, atol=1e-12)

    def test_refinement_reduces_max_discrepancy(self, rng, mug):
        T_star = Pose.from_placement((0.3, 0.0, 0.0), 0.5)
        samples = sample_surface(mug, 120, rng)
        cloud = SemanticCloud.from_parts(surface=T_star.inverse().transform(samples))
        poses = [
            Pose.from_placement((0.3 + rng.normal(0, 0.004), rng.normal(0, 0.004), 0.0), 0.5 + rng.normal(0, 0.05))
            for _ in range(8)
        ]
        particles = ParticleSet.from_poses(poses)
        params = BeliefParams(sigma_t=0.0, k_opt=10)
        before = discrepancies(DISC, mug, cloud, particles).max()
        out, _ = resample(particles, cloud, mug, DISC, params, rng)
        after = discrepancies(DISC, mug, cloud, out).max()
        assert after <= before

    def test_preserves_count(self, rng):
        shape = Sphere(0.05)
        particles = make_particles(12, rng)
        out, _ = resample(particles, SemanticCloud(), shape, DISC, BeliefParams(k_opt=0), rng)
        assert len(out) == 12

    def test_systematic_indices_uniform(self, rng):
        idx = systematic_resample_indices(np.full(10, 0.1), rng)
        npt.assert_array_equal(idx, np.arange(10))


class TestEstimateMovement:
    def test_no_surface_points_identity(self, rng, mug):
        particles = make_particles(3, rng)
        new = SemanticCloud.from_parts(free=[[0.5, 0.5, 0.0]])
        dT, dT_w = estimate_movement(state_of(particles, SemanticCloud(), mug), new, mug, DISC, BeliefParams())
        assert dT.is_identity()
        assert dT_w.is_identity()

    def test_consistent_cloud_stays_near_identity(self, rng, mug):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.2)
        samples = sample_surface(mug, 80, rng)
        cloud = SemanticCloud.from_parts(surface=T.inverse().transform(samples))
        particles = ParticleSet.from_poses([T])
        dT, _ = estimate_movement(state_of(particles, cloud, mug), cloud, mug, DISC, BeliefParams())
        assert np.linalg.norm(dT.translation) < 1e-3

    def test_recovers_translation(self, rng):
        """Object truly translated 50 mm; recovered world delta within 5 mm."""
        from rummage.geometry import Cylinder

        shape = Cylinder(0.05, 0.04)
        T_old = Pose.from_placement((0.3, 0.0, 0.0), 0.2)
        move = np.array([0.05, 0.0, 0.0])
        T_new = Pose.from_placement((0.35, 0.0, 0.0), 0.2)
        samples = sample_surface(shape, 120, rng)
        prev_cloud = SemanticCloud.from_parts(surface=T_old.inverse().transform(samples))
        new_cloud = SemanticCloud.from_parts(surface=T_new.inverse().transform(samples))
        particles = ParticleSet.from_poses([T_old])
        dT, dT_w = estimate_movement(state_of(particles, prev_cloud, shape), new_cloud, shape, DISC, BeliefParams())
        recovered = dT_w.transform(np.zeros(3))
        npt.assert_allclose(recovered, move, atol=0.005)

    def test_recovers_translation_with_sticking_prior(self, rng, mug):
        """Mug case with the sticking prior, the paddle's world-frame
        motion, 4 mm off the true motion."""
        T_old = Pose.from_placement((0.3, 0.0, 0.0), 0.2)
        move = np.array([0.05, 0.0, 0.0])
        T_new = Pose.from_placement((0.35, 0.0, 0.0), 0.2)
        samples = sample_surface(mug, 120, rng)
        prev_cloud = SemanticCloud.from_parts(surface=T_old.inverse().transform(samples))
        new_cloud = SemanticCloud.from_parts(surface=T_new.inverse().transform(samples))
        particles = ParticleSet.from_poses([T_old])
        paddle = Pose(move + np.array([0.004, 0.0, 0.0]))
        dT, dT_w = estimate_movement(state_of(particles, prev_cloud, mug), new_cloud, mug, DISC, BeliefParams(), prior_w=paddle)
        recovered = dT_w.transform(np.zeros(3))
        npt.assert_allclose(recovered, move, atol=0.005)

    def test_world_delta_consistency(self, rng, mug):
        """(dT T_i)(dT_w x) equals T_i x for any x."""
        T_old = Pose.from_placement((0.3, 0.0, 0.0), 0.2)
        T_new = Pose.from_placement((0.34, 0.02, 0.0), 0.3)
        samples = sample_surface(mug, 60, rng)
        new_cloud = SemanticCloud.from_parts(surface=T_new.inverse().transform(samples))
        prev_cloud = SemanticCloud.from_parts(surface=T_old.inverse().transform(samples))
        particles = ParticleSet.from_poses([T_old])
        dT, dT_w = estimate_movement(state_of(particles, prev_cloud, mug), new_cloud, mug, DISC, BeliefParams())
        x = rng.uniform(-0.3, 0.3, (20, 3))
        lhs = dT.compose(T_old).transform(dT_w.transform(x))
        rhs = T_old.transform(x)
        npt.assert_allclose(lhs, rhs, atol=1e-9)


    def test_world_motion_prior_follows_paddle(self, rng, mug):
        """The prior is built through the particle it is composed onto: with
        no refinement, the returned world-frame motion is the paddle's,
        whatever the yaw of that particle (here not the first one)."""
        T_true = Pose.from_placement((0.3, 0.0, 0.0), 1.1)
        samples = sample_surface(mug, 80, rng)
        prev_cloud = SemanticCloud.from_parts(surface=T_true.inverse().transform(samples))
        new_cloud = SemanticCloud.from_parts(surface=T_true.inverse().transform(samples[:10]))
        yaws = (-2.0, 0.3, 1.1, 2.5)
        particles = ParticleSet.from_poses([Pose.from_placement((0.3, 0.0, 0.0), y) for y in yaws])
        assert int(np.argmin(discrepancies(DISC, mug, prev_cloud, particles))) == 2
        paddle = Pose(np.array([0.012, -0.007, 0.0]))
        dT, dT_w = estimate_movement(state_of(particles, prev_cloud, mug), new_cloud, mug, DISC, BeliefParams(k_opt=0), prior_w=paddle)
        x = rng.uniform(-0.3, 0.3, (10, 3))
        npt.assert_allclose(dT_w.transform(x), paddle.transform(x), atol=1e-12)
        # the object-frame delta moves the chosen particle's object with the paddle
        moved = dT.compose(particles.poses[2])
        npt.assert_allclose(moved.object_center_world(), (0.312, -0.007, 0.0), atol=1e-12)


class TestUpdateStep:
    def make_state(self, rng, mug, n=6):
        T_star = Pose.from_placement((0.3, 0.0, 0.0), 0.4)
        samples = sample_surface(mug, 80, rng)
        cloud = SemanticCloud.from_parts(surface=T_star.inverse().transform(samples))
        poses = [T_star] + [
            Pose.from_placement((0.3 + rng.normal(0, 0.002), rng.normal(0, 0.002), 0.0), 0.4 + rng.normal(0, 0.02))
            for _ in range(n - 1)
        ]
        particles = ParticleSet.from_poses(poses)
        params = BeliefParams(sigma_t=0.0)
        return state_of(particles, cloud, mug), params, T_star

    def test_empty_update_renormalizes_only(self, rng, mug):
        state, params, _ = self.make_state(rng, mug)
        before = [T.translation.copy() for T in state.particles.poses]
        out = update_step(state, SemanticCloud(), mug, DISC, params, rng)
        for T, t0 in zip(out.particles.poses, before):
            npt.assert_allclose(T.translation, t0, atol=1e-12)
        assert out.particles.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_consistent_free_points_keep_poses(self, rng, mug):
        state, params, _ = self.make_state(rng, mug)
        new = SemanticCloud.from_parts(free=[[0.6, 0.3, 0.0], [0.7, -0.2, 0.0]])
        before = [T.translation.copy() for T in state.particles.poses]
        out = update_step(state, new, mug, DISC, params, rng)
        for T, t0 in zip(out.particles.poses, before):
            npt.assert_allclose(T.translation, t0, atol=1e-12)

    def test_contradiction_triggers_resample(self, rng, mug):
        state, _, T_star = self.make_state(rng, mug)
        params = BeliefParams(sigma_t=0.005)
        # enough contradicting surface points to push max discrepancy past eta
        ys = np.linspace(-0.3, 0.3, 15)
        far = np.stack([np.full(15, 0.75), ys, np.zeros(15)], axis=1)
        new = SemanticCloud.from_parts(surface=far)
        d_before = discrepancies(DISC, mug, state.cloud.extend(new), state.particles)
        assert d_before.max() > params.eta
        out = update_step(state, new, mug, DISC, params, rng)
        # resampling perturbs every surviving pose
        moved = all(
            not np.allclose(a.translation, b.translation, atol=1e-12)
            for a, b in zip(out.particles.poses, state.particles.poses)
        )
        assert moved

    def test_known_movement_predicts_particles(self, rng, mug):
        state, params, T_star = self.make_state(rng, mug)
        delta = Pose(np.array([0.01, 0.0, 0.0]))
        delta_w = T_star.inverse().compose(delta.inverse()).compose(T_star)
        surf = state.cloud.surface
        new = SemanticCloud.from_parts(surface=surf + np.array([-0.0, 0.0, 0.0]))
        before = [T.translation.copy() for T in state.particles.poses]
        out = update_step(state, new, mug, DISC, params, rng, known=(delta, delta_w))
        for T, t0 in zip(out.particles.poses, before):
            npt.assert_allclose(T.translation, t0 + delta.translation, atol=1e-9)

    def test_one_motion_input(self, rng, mug):
        """The measured motion and a prior for estimating it are exclusive."""
        state, params, _ = self.make_state(rng, mug)
        identity = Pose.identity()
        with pytest.raises(ValueError, match="not both"):
            update_step(state, SemanticCloud(), mug, DISC, params, rng, known=(identity, identity), prior_w=identity)

    def test_deterministic_given_seed(self, rng, mug):
        state1, params, _ = self.make_state(np.random.default_rng(5), mug)
        state2, _, _ = self.make_state(np.random.default_rng(5), mug)
        new = SemanticCloud.from_parts(surface=[[0.34, 0.01, 0.0]])
        out1 = update_step(state1, new, mug, DISC, params, np.random.default_rng(9))
        out2 = update_step(state2, new, mug, DISC, params, np.random.default_rng(9))
        for a, b in zip(out1.particles.poses, out2.particles.poses):
            npt.assert_array_equal(a.translation, b.translation)
            npt.assert_array_equal(a.rotation, b.rotation)
        npt.assert_array_equal(out1.particles.weights, out2.particles.weights)


class TestStateCosts:
    """A belief state's costs are ``discrepancies`` of its particles and
    cloud, bit for bit, and the next motion estimate reads them."""

    def test_update_costs_on_both_branches(self, rng, mug, monkeypatch):
        from rummage import belief as belief_mod

        resampled = []
        real = belief_mod.resample
        monkeypatch.setattr(belief_mod, "resample", lambda *a: resampled.append(1) or real(*a))
        ys = np.linspace(-0.3, 0.3, 15)
        contradiction = SemanticCloud.from_parts(surface=np.stack([np.full(15, 0.75), ys, np.zeros(15)], axis=1))
        for k in range(12):
            state, _, T_star = TestUpdateStep().make_state(rng, mug, n=int(rng.integers(2, 9)))
            params = BeliefParams(sigma_t=0.005)
            if k % 2:
                new = contradiction
            else:
                new = SemanticCloud.from_parts(surface=T_star.inverse().transform(sample_surface(mug, 10, rng)))
            before = len(resampled)
            out = update_step(state, new, mug, DISC, params, rng, prior_w=Pose(np.array([0.002, 0.0, 0.0])))
            assert len(resampled) - before == k % 2  # the contradiction resamples, the rest reweighs
            want = discrepancies(DISC, mug, out.cloud, out.particles)
            assert out.costs.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_initial_state_costs(self, rng, mug):
        T_star = Pose.from_placement((0.4, 0.0, 0.0), 0.3)
        world = T_star.inverse().transform(sample_surface(mug, 200, rng))
        cloud = SemanticCloud.from_parts(surface=world[world[:, 0] < 0.4], free=rng.uniform(0.2, 0.6, (300, 3)) * [1, 1, 0])
        priors = make_particles(60, rng, center=(0.4, 0.0, 0.0), spread=0.01)
        state = initialize_particles(priors, cloud, mug, DISC, BeliefParams(n_particles=30), rng)
        want = discrepancies(DISC, mug, cloud, state.particles)
        assert state.cloud is cloud
        assert state.costs.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_motion_estimate_reads_the_costs(self, rng, mug, monkeypatch):
        """No discrepancy of the state's cloud is evaluated again: the
        representative particle is the one its costs name."""
        from rummage import belief as belief_mod

        T_star = Pose.from_placement((0.3, 0.0, 0.0), 1.1)
        samples = sample_surface(mug, 80, rng)
        particles = ParticleSet.from_poses([Pose.from_placement((0.3, 0.0, 0.0), y) for y in (-2.0, 0.3, 1.1, 2.5)])
        new = SemanticCloud.from_parts(surface=T_star.inverse().transform(samples[:10]))
        monkeypatch.setattr(belief_mod, "discrepancies", None)  # any call fails
        paddle = Pose(np.array([0.012, -0.007, 0.0]))
        for pick in range(4):
            costs = np.full(4, 1.0)
            costs[pick] = 0.5
            state = BeliefState(particles, SemanticCloud(), costs)
            dT, _ = estimate_movement(state, new, mug, DISC, BeliefParams(k_opt=0), prior_w=paddle)
            moved = dT.compose(particles.pose(pick))
            npt.assert_allclose(moved.object_center_world(), (0.312, -0.007, 0.0), atol=1e-12)

    def test_one_cost_per_particle(self, rng):
        particles = make_particles(3, rng)
        with pytest.raises(ValueError, match="one cost per particle"):
            BeliefState(particles, SemanticCloud(), np.zeros(2))


class TestInitializeParticles:
    def test_empty_cloud_returns_priors(self, rng):
        shape = Sphere(0.05)
        priors = [Pose.from_placement((0.1 * i, 0.0, 0.0), 0.0) for i in range(10)]
        params = BeliefParams(n_particles=10)
        out = initialize_particles(ParticleSet.from_poses(priors), SemanticCloud(), shape, DISC, params, rng).particles
        assert len(out) == 10
        npt.assert_allclose(out.weights, 0.1)

    def test_identical_priors_single_bin(self, rng, mug):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.2)
        samples = sample_surface(mug, 60, rng)
        cloud = SemanticCloud.from_parts(surface=T.inverse().transform(samples))
        priors = [T] * 20
        params = BeliefParams(n_particles=12)
        out = initialize_particles(ParticleSet.from_poses(priors), cloud, mug, DISC, params, rng).particles
        assert len(out) == 12
        for p in out.poses:
            npt.assert_allclose(p.object_center_world(), T.object_center_world(), atol=1e-6)

    def test_retained_particles_below_threshold(self, rng, mug):
        """One-sided view of a mug: surviving particles all fit the data."""
        T_star = Pose.from_placement((0.4, 0.0, 0.0), 0.3)
        samples = sample_surface(mug, 200, rng)
        world = T_star.inverse().transform(samples)
        # one-sided: keep only points seen from -x (x below the mug center)
        seen = world[world[:, 0] < 0.4]
        cloud = SemanticCloud.from_parts(surface=seen)
        priors = [Pose.from_placement((0.4, 0.0, 0.0), rng.uniform(-math.pi, math.pi)) for _ in range(60)]
        params = BeliefParams(n_particles=30)
        out = initialize_particles(ParticleSet.from_poses(priors), cloud, mug, DISC, params, rng).particles
        d = discrepancies(DISC, mug, cloud, out)
        assert np.all(d < params.eta)


class TestSerialization:
    def test_round_trip(self, rng):
        """Rows hold each particle's translation, a unit quaternion of its
        rotation with ``qw >= 0`` and its weight."""

        def matrix(w, x, y, z):
            return np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ])

        planar = make_particles(5, rng, spread=0.03)
        # half turns both ways, yaws past a whole turn, and the range where
        # a matrix-to-quaternion conversion can flip the sign
        yaws = [math.pi, -math.pi, 0.0, -0.0, 7.0, -9.5, -2.5, -3.0, -2.2, 2.5]
        translations = np.concatenate([planar.translations, rng.normal(size=(len(yaws), 3))])
        particles = ParticleSet(translations, np.concatenate([planar.yaws, yaws]), rng.dirichlet(np.ones(5 + len(yaws))))
        rows = particles_to_rows(particles)
        for r, T, w in zip(rows, particles.poses, particles.weights):
            R, t = T.rotation, T.translation
            q = np.array([r["qw"], r["qx"], r["qy"], r["qz"]])
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert r["qw"] >= 0.0 and r["qx"] == r["qy"] == 0.0
            npt.assert_allclose(matrix(*q), R, atol=1e-12)
            npt.assert_array_equal([r["tx"], r["ty"], r["tz"]], t)
            assert r["weight"] == w
        # (-pi, pi]: the half turn reads qz = +1 whichever way it was taken
        assert rows[5]["qz"] == rows[6]["qz"] == 1.0
