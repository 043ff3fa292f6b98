"""Information field, class-probability field, and reachability."""

import numpy as np
import numpy.testing as npt
import pytest

from rummage.belief import ParticleSet
from rummage.discrepancy import DiscrepancyParams
from rummage.geometry import Pose, Sphere, Workspace
from rummage.infogain import (
    ReachabilityModel,
    _accumulate,
    build_info_fields,
    build_reachability,
)
from rummage.semantics import SensorModel

from conftest import weighted_set
from test_semantics import sensor_probabilities


SENSOR = SensorModel()


def semantics_probability(particles, shape, x, sensor=SENSOR):
    """Reference: belief-averaged class probabilities at one position
    (floats) or a batch (arrays), read from the field builder's kernel."""
    pts = np.asarray(x, dtype=np.float64)
    pf, po, ps, *_ = _accumulate(particles, shape, pts.reshape(-1, 3), sensor, DiscrepancyParams())
    if pts.shape == (3,):
        return float(pf[0]), float(po[0]), float(ps[0])
    return pf, po, ps


def info_gain(particles, shape, x, gamma=2.0, sensor=SENSOR, disc=DiscrepancyParams()):
    """Reference: expected discrepancy added by observing the semantics at
    ``x``, the information field's node formula at one position or a batch."""
    pts = np.asarray(x, dtype=np.float64)
    pf, po, ps, ef, eo, es = _accumulate(particles, shape, pts.reshape(-1, 3), sensor, disc)
    val = gamma * (pf * ef + po * eo + ps * es)
    return float(val[0]) if pts.shape == (3,) else val


class TestSemanticsProbability:
    def test_single_particle_equals_sensor(self):
        shape = Sphere(0.05)
        T = Pose.from_placement((0.1, 0.0, 0.0), 0.0)
        particles = ParticleSet.from_poses([T])
        x = np.array([0.2, 0.0, 0.0])
        expected = sensor_probabilities(SENSOR, float(shape.sdf(T.transform(x))))
        got = semantics_probability(particles, shape, x, SENSOR)
        npt.assert_allclose(got, expected, atol=1e-15)

    def test_two_particle_convexity(self):
        shape = Sphere(0.05)
        # particle A puts x on the surface (p_surf 1), B far away (p_surf ~ 0)
        A = Pose.identity()
        B = Pose(np.array([10.0, 0.0, 0.0]))
        particles = weighted_set([A, B], np.array([0.5, 0.5]))
        _, _, ps = semantics_probability(particles, shape, np.array([0.05, 0.0, 0.0]), SENSOR)
        assert ps == pytest.approx(0.5, abs=1e-4)

    def test_far_free_space(self):
        shape = Sphere(0.05)
        particles = ParticleSet.from_poses([Pose.identity()])
        pf, po, ps = semantics_probability(particles, shape, np.array([0.2, 0.0, 0.0]), SENSOR)
        # sdf = 0.15 > 0.1: overwhelming free probability
        assert pf > 0.9999
        assert po == 0.0

    def test_convex_combination_bounds(self, rng):
        shape = Sphere(0.05)
        poses = [Pose.from_placement(rng.uniform(-0.1, 0.1, 3) * [1, 1, 0], 0.0) for _ in range(5)]
        w = rng.uniform(0.1, 1.0, 5)
        particles = weighted_set(poses, w / w.sum())
        x = rng.uniform(-0.2, 0.2, 3)
        per = np.array([sensor_probabilities(SENSOR, float(shape.sdf(T.transform(x)))) for T in poses])
        got = np.array(semantics_probability(particles, shape, x, SENSOR))
        for k in range(3):
            assert per[:, k].min() - 1e-12 <= got[k] <= per[:, k].max() + 1e-12


class TestInfoGain:
    def test_unanimous_free_space_near_zero(self):
        shape = Sphere(0.05)
        particles = ParticleSet.from_poses([Pose.identity()] * 3)
        v = info_gain(particles, shape, np.array([0.2, 0.0, 0.0]), gamma=2.0, sensor=SENSOR)
        assert 0.0 <= v < 1e-3

    def test_hand_evaluated_two_particle_case(self):
        """Particle A reads sdf 0, particle B reads sdf 0.1 at the query:
        expected value about 0.05 (gamma 2, sigma_f 10, epsilon 0)."""
        shape = Sphere(0.05)
        A = Pose.identity()                                # sdf at x: 0
        B = Pose(np.array([0.1, 0.0, 0.0]))     # sdf at x: +0.1
        particles = weighted_set([A, B], np.array([0.5, 0.5]))
        x = np.array([0.05, 0.0, 0.0])
        assert float(shape.sdf(A.transform(x))) == pytest.approx(0.0, abs=1e-15)
        assert float(shape.sdf(B.transform(x))) == pytest.approx(0.1, abs=1e-15)
        v = info_gain(particles, shape, x, gamma=2.0, sensor=SENSOR, disc=DiscrepancyParams())
        assert v == pytest.approx(0.05, abs=1e-4)

    def test_agreeing_particles_low_info(self, rng):
        shape = Sphere(0.05)
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.0)
        particles = ParticleSet.from_poses([T] * 4)
        for _ in range(50):
            x = rng.uniform(-0.1, 0.5, 3) * [1, 1, 0]
            v_sdf = abs(float(shape.sdf(T.transform(x))))
            if abs(v_sdf - SENSOR.zeta) < 0.01:
                continue  # keep off the contact shell
            assert info_gain(particles, shape, x, 2.0, SENSOR) < 0.05

    def test_monotone_disagreement(self):
        """Disagreeing particles yield at least the info of agreeing ones
        holding the common distance fixed."""
        shape = Sphere(0.05)
        # both read sdf +0.02 at x_agree; at x_disagree A reads +0.02, B reads -0.02
        A = Pose.identity()
        B_agree = Pose.identity()
        B_disagree = Pose(np.array([-0.04, 0.0, 0.0]))  # sdf at x: 0.07-0.04-0.05 = -0.02
        x = np.array([0.07, 0.0, 0.0])
        agree = weighted_set([A, B_agree], np.array([0.5, 0.5]))
        disagree = weighted_set([A, B_disagree], np.array([0.5, 0.5]))
        assert float(shape.sdf(B_disagree.transform(x))) == pytest.approx(-0.02, abs=1e-12)
        v_agree = info_gain(agree, shape, x, 2.0, SENSOR)
        v_disagree = info_gain(disagree, shape, x, 2.0, SENSOR)
        assert v_disagree >= v_agree

    def test_nonnegative(self, rng):
        shape = Sphere(0.05)
        poses = [Pose.from_placement(rng.uniform(-0.05, 0.05, 3) * [1, 1, 0], 0.0) for _ in range(4)]
        particles = ParticleSet.from_poses(poses)
        pts = rng.uniform(-0.2, 0.2, (100, 3))
        vals = info_gain(particles, shape, pts, 2.0, SENSOR)
        assert np.all(vals >= 0.0)


class TestBuildInfoFields:
    def test_probabilities_sum_to_one_at_nodes(self, rng):
        shape = Sphere(0.05)
        particles = ParticleSet.from_poses(
            [Pose.from_placement((0.1 + 0.02 * i, 0.0, 0.0), 0.0) for i in range(3)]
        )
        ws = Workspace(bounds=((0, 0.2), (-0.1, 0.1), (0, 0)), resolution=0.02)
        fields = build_info_fields(particles, shape, ws, 2.0, SENSOR)
        total = fields.p_free.values + fields.p_occ.values + fields.p_surf.values
        npt.assert_allclose(total, 1.0, atol=1e-6)
        assert np.all(fields.info.values >= 0.0)

    def test_single_particle_peak_near_surface(self, mug):
        T = Pose.from_placement((0.3, 0.0, 0.0), 0.5)
        particles = ParticleSet.from_poses([T])
        ws = Workspace(bounds=((0.1, 0.5), (-0.2, 0.2), (0, 0)), resolution=0.01)
        fields = build_info_fields(particles, mug, ws, 2.0, SENSOR)
        flat = np.argmax(fields.info.values)
        node = ws.grid_points()[flat]
        v = abs(float(mug.sdf(T.transform(node))))
        assert v <= SENSOR.zeta + 2 * ws.resolution

    def test_outside_contract(self):
        shape = Sphere(0.05)
        particles = ParticleSet.from_poses([Pose.identity()])
        ws = Workspace(bounds=((-0.1, 0.1), (-0.1, 0.1), (0, 0)), resolution=0.05)
        fields = build_info_fields(particles, shape, ws, 2.0, SENSOR)
        far = np.array([5.0, 5.0, 0.0])
        assert fields.info.query(far) == 0.0
        assert fields.p_free.query(far) == 1.0
        assert fields.p_surf.query(far) == 0.0

    def test_deterministic(self):
        shape = Sphere(0.05)
        particles = ParticleSet.from_poses([Pose.from_placement((0.05, 0.0, 0.0), 0.0)])
        ws = Workspace(bounds=((-0.1, 0.1), (-0.1, 0.1), (0, 0)), resolution=0.02)
        a = build_info_fields(particles, shape, ws, 2.0, SENSOR)
        b = build_info_fields(particles, shape, ws, 2.0, SENSOR)
        npt.assert_array_equal(a.info.values, b.info.values)


class TestReachability:
    MODEL = ReachabilityModel(base=(0, 0, 0), r_mid=0.4, r_half=0.15, slope=2.0, psi=0.4)

    def test_mid_ring_full_score(self):
        assert self.MODEL.score(np.array([0.4, 0.0, 0.0])) == pytest.approx(1.0)

    def test_zero_at_threshold_error(self):
        # error >= psi: distance 0.4 + 0.15 + 0.4/2.0 beyond the band edge
        x = np.array([0.4 + 0.15 + 0.2 + 0.01, 0.0, 0.0])
        assert self.MODEL.score(x) == 0.0

    def test_linear_ramp_midpoint(self):
        # e = psi/2 -> R = 0.5: distance 0.1 beyond band edge with slope 2
        x = np.array([0.4 + 0.15 + 0.1, 0.0, 0.0])
        assert self.MODEL.score(x) == pytest.approx(0.5, abs=1e-12)

    def test_field_in_unit_interval(self):
        ws = Workspace(bounds=((0, 0.8), (-0.4, 0.4), (0, 0)), resolution=0.02)
        f = build_reachability(ws, self.MODEL)
        assert np.all(f.values >= 0.0)
        assert np.all(f.values <= 1.0)
        assert f.query(np.array([10.0, 0.0, 0.0])) == 0.0
