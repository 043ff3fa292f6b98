"""Sensor model, semantic clouds, downsampling, observation merging."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rummage.belief import ParticleSet
from rummage.geometry import Pose, Sphere
from rummage.semantics import (
    SemanticCloud,
    SensorModel,
    _downsample_positions,
    grid_cells,
    merge_observations,
    voxel_downsample,
)


def sensor_probabilities(model, v):
    """Reference: the model's class probabilities at one signed distance,
    as Python floats."""
    pf, po, ps = model.probabilities(np.float64(v))
    return float(pf), float(po), float(ps)


class TestSensorModel:
    def test_zero_distance(self):
        assert sensor_probabilities(SensorModel(), 0.0) == (0.0, 0.0, 1.0)

    def test_tolerance_absorbs(self):
        m = SensorModel()
        assert sensor_probabilities(m, m.zeta) == (0.0, 0.0, 1.0)
        assert sensor_probabilities(m, -m.zeta) == (0.0, 0.0, 1.0)

    def test_one_over_alpha_past_tolerance(self):
        pf, po, ps = sensor_probabilities(SensorModel(), 0.013)
        assert pf == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert po == 0.0
        assert ps == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_occupied_side(self):
        pf, po, ps = sensor_probabilities(SensorModel(), -0.013)
        assert pf == 0.0
        assert po == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert ps == pytest.approx(math.exp(-1.0), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(-0.1, 0.1))
    def test_sums_to_one(self, v):
        pf, po, ps = sensor_probabilities(SensorModel(), v)
        assert pf >= 0 and po >= 0 and ps >= 0
        assert pf + po + ps == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan")])
    def test_alpha_below_zero_rejected(self, alpha):
        with pytest.raises(ValueError, match="sensor alpha must be at least 0"):
            SensorModel(alpha=alpha)

    def test_monotonicity(self):
        m = SensorModel()
        v = np.linspace(-0.1, 0.1, 2001)
        pf, po, _ = m.probabilities(v)
        assert np.all(np.diff(pf) >= 0)
        assert np.all(np.diff(po) <= 0)


def three_exp(model, v):
    """Reference: the class probabilities with one exponential per class,
    each clamped to the side of the surface it belongs to."""
    sign = np.where(v > 0, 1.0, -1.0)
    vt = sign * np.maximum(0.0, np.abs(v) - model.zeta)
    p_free = np.maximum(0.0, 1.0 - np.exp(np.minimum(-model.alpha * vt, 0.0)))
    p_occ = np.maximum(0.0, 1.0 - np.exp(np.minimum(model.alpha * vt, 0.0)))
    p_surf = np.exp(-model.alpha * np.abs(vt))
    return p_free, p_occ, p_surf


@pytest.mark.parametrize("model", [SensorModel(), SensorModel(alpha=1e-3, zeta=0.0), SensorModel(alpha=1e4, zeta=0.05)])
def test_one_exponential_matches_three(model, rng):
    """Bit for bit the three-exponential form: around 0 and +-zeta (with
    their neighbours), at the extremes and over every magnitude; a NaN
    distance reads NaN in all three."""
    z = model.zeta
    edges = [0.0, z, np.nextafter(z, 0.0), np.nextafter(z, 1.0), 5e-324, 1e-300, 1e308, np.inf]
    mags = np.concatenate([edges, 10.0 ** rng.uniform(-12, 2, 20000), rng.uniform(0, 2 * z + 0.05, 20000)])
    v = np.concatenate([mags, -mags])
    with np.errstate(over="ignore"):  # alpha * 1e308
        pairs = list(zip(model.probabilities(v), three_exp(model, v)))
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
    assert all(np.isnan(p) for p in model.probabilities(np.nan))


class TestSemanticCloud:
    def test_partition_disjoint_exhaustive(self, rng):
        pos = rng.uniform(-1, 1, (30, 3))
        labels = rng.integers(0, 3, 30).astype(np.int8)
        cloud = SemanticCloud(pos, labels)
        assert len(cloud.free) + len(cloud.occupied) + len(cloud.surface) == len(cloud)

    def test_extend_preserves_order(self):
        a = SemanticCloud.from_parts(free=[[0, 0, 0]])
        b = SemanticCloud.from_parts(surface=[[1, 1, 1]])
        c = a.extend(b)
        npt.assert_allclose(c.positions[0], (0, 0, 0))
        npt.assert_allclose(c.positions[1], (1, 1, 1))


class TestVoxelDownsample:
    def test_single_point_maps_to_its_cell_center(self):
        cloud = SemanticCloud.from_parts(free=[[0.123, -0.04, 0.7]])
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 1
        npt.assert_allclose(out.positions[0], (0.123, -0.04, 0.7), atol=1e-12)

    def test_two_close_points_share_cell(self):
        cloud = SemanticCloud.from_parts(free=[[0.0, 0.0, 0.0], [0.001, 0.0, 0.0]])
        out = voxel_downsample(cloud, 0.010)
        assert len(out) == 1

    def test_classes_keep_separate_grids(self):
        cloud = SemanticCloud.from_parts(free=[[0.0, 0.0, 0.0]], surface=[[0.0, 0.0, 0.0]])
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 2
        assert len(out.free) == 1
        assert len(out.surface) == 1

    def test_empty_input(self):
        assert len(voxel_downsample(SemanticCloud(), 0.01)) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 60))
    def test_idempotent(self, seed, n):
        g = np.random.default_rng(seed)
        cloud = SemanticCloud.from_parts(
            free=g.uniform(-0.3, 0.3, (n, 3)),
            surface=g.uniform(-0.3, 0.3, (max(1, n // 2), 3)),
        )
        once = voxel_downsample(cloud, 0.01)
        twice = voxel_downsample(once, 0.01)
        assert len(once) == len(twice)
        npt.assert_allclose(once.positions, twice.positions, atol=1e-12)
        npt.assert_array_equal(once.labels, twice.labels)

    def test_deterministic_scan_order(self, rng):
        pts = rng.uniform(-0.2, 0.2, (50, 3))
        cloud = SemanticCloud.from_parts(free=pts)
        a = voxel_downsample(cloud, 0.05)
        b = voxel_downsample(SemanticCloud.from_parts(free=pts[::-1]), 0.05)
        npt.assert_allclose(a.positions, b.positions)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            voxel_downsample(SemanticCloud(), 0.0)


def unique_cell_centers(points, r):
    """Reference: the occupied-cell centers of a grid anchored at the
    points' minimum corner, the cells sorted by ``np.unique(axis=0)``."""
    anchor = points.min(axis=0) - 0.5 * r
    cells = np.unique(np.floor((points - anchor) / r).astype(np.int64), axis=0)
    return anchor + (cells + 0.5) * r


def assert_rows_match_unique(stack, r):
    """Each row's cells from :func:`grid_cells`, bit for bit and in order,
    as ``np.unique`` over that row alone finds them."""
    rows, centers = grid_cells(stack, r)
    assert np.all(np.diff(rows) >= 0)
    for b, points in enumerate(stack):
        want = unique_cell_centers(points, r)
        assert centers[rows == b].tobytes() == want.tobytes()
        assert _downsample_positions(points, r).tobytes() == want.tobytes()
    return rows, centers


class TestGridCells:
    def test_rows_match_unique_rows(self, rng):
        """Also where a grid is one cell thick or the points are far from
        the origin."""
        r = 0.002
        stack = rng.uniform(-0.05, 0.05, (6, 400, 3))
        stack[1, :, 2] = 0.0
        stack[2] += 37.0
        stack[3, :, :2] = np.round(stack[3, :, :2] / r) * r  # points on cell borders
        assert_rows_match_unique(stack, r)

    def test_row_in_one_cell(self, rng):
        """A row whose points all fall in one cell, beside rows that do not,
        and a row of one point repeated."""
        r = 0.01
        stack = rng.uniform(-0.05, 0.05, (3, 50, 3))
        stack[1] = 0.2 + rng.uniform(0.0, 0.4 * r, (50, 3))
        stack[2] = stack[2, 0]
        rows, _ = assert_rows_match_unique(stack, r)
        npt.assert_array_equal(np.bincount(rows), [len(unique_cell_centers(stack[0], r)), 1, 1])

    def test_repeated_cells(self, rng):
        """Rows that revisit their cells many times over, as the sweep of a
        blocked rollout does: a few placements, each repeated in runs and
        interleaved."""
        r = 0.01
        base = rng.uniform(-0.03, 0.03, (4, 5, 21, 3))
        runs = np.repeat(base, 6, axis=1)  # (4, 30, 21, 3): each placement six times in a row
        stack = np.concatenate([runs, base[:, ::-1]], axis=1).reshape(4, -1, 3)
        stack[3] = np.tile(stack[3, :21], (len(stack[3]) // 21, 1))  # one placement throughout
        rows, _ = assert_rows_match_unique(stack, r)
        counts = np.bincount(rows)
        assert np.all(counts[:3] <= 5 * 21) and counts[3] <= 21  # at most one cell per distinct point

    def test_one_point(self):
        rows, centers = assert_rows_match_unique(np.array([[[0.3, -0.2, 0.1]]]), 0.01)
        npt.assert_array_equal(rows, [0])
        npt.assert_array_equal(centers, [[0.3, -0.2, 0.1]])

    @pytest.mark.parametrize("B", [0, 1, 3])
    def test_no_points(self, B):
        """Rows of no points have no cells."""
        rows, centers = grid_cells(np.zeros((B, 0, 3)), 0.01)
        assert rows.shape == (0,) and centers.shape == (0, 3)
        assert np.bincount(rows, minlength=B).shape == (B,)

    @pytest.mark.parametrize("r", [0.0, -0.01, np.nan])
    def test_cell_side_not_positive_raises(self, r):
        with pytest.raises(ValueError, match="positive"):
            grid_cells(np.zeros((2, 4, 3)), r)

    def test_key_overflow_raises(self):
        """A 2**21-cell span fits one row's keys; a wider span raises
        rather than wrapping the int64 keys."""
        wide = np.array([[[0.0, 0.0, 0.0], [2.0**21 - 3.0, 0.0, 0.0]]])
        assert len(grid_cells(wide, 1.0)[1]) == 2
        with pytest.raises(ValueError, match="overflow"):
            grid_cells(np.concatenate([wide, wide]), 1.0)
        with pytest.raises(ValueError, match="overflow"):
            grid_cells(wide * 2.0, 1.0)


class TestMergeObservations:
    def setup_method(self):
        self.shape = Sphere(0.05)
        self.particles = ParticleSet.from_poses([Pose.identity()])

    def test_identity_merge_is_downsample_idempotent(self):
        prev = voxel_downsample(
            SemanticCloud.from_parts(free=[[0.2, 0.0, 0.0], [0.3, 0.1, 0.0]], surface=[[0.05, 0.0, 0.0]]),
            0.01,
        )
        out = merge_observations(prev, SemanticCloud(), self.particles, Pose.identity(), self.shape)
        assert len(out) == len(prev)
        npt.assert_allclose(np.sort(out.positions, axis=0), np.sort(prev.positions, axis=0), atol=1e-12)

    def test_free_point_inside_any_particle_removed(self):
        prev = SemanticCloud.from_parts(free=[[0.01, 0.0, 0.0], [0.2, 0.0, 0.0]])
        out = merge_observations(prev, SemanticCloud(), self.particles, Pose.identity(), self.shape)
        assert len(out.free) == 1
        assert out.free[0][0] > 0.1

    def test_surface_points_ride_displacement(self):
        prev = SemanticCloud.from_parts(surface=[[0.05, 0.0, 0.0]])
        shift = Pose(np.array([0.05, 0.0, 0.0]))
        out = merge_observations(prev, SemanticCloud(), self.particles, shift, self.shape)
        assert len(out.surface) == 1
        npt.assert_allclose(out.surface[0], (0.10, 0.0, 0.0), atol=1e-9)

    def test_never_outputs_inconsistent_free(self, rng):
        particles = ParticleSet.from_poses(
            [Pose.from_placement((x, 0.0, 0.0), 0.0) for x in (0.0, 0.02, -0.02)]
        )
        prev = SemanticCloud.from_parts(free=rng.uniform(-0.1, 0.1, (200, 3)))
        out = merge_observations(prev, SemanticCloud(), particles, Pose.identity(), self.shape)
        for pose in particles.poses:
            assert np.all(self.shape.sdf(pose.transform(out.free)) > 0)

    def test_union_with_new(self):
        prev = SemanticCloud.from_parts(free=[[0.2, 0.0, 0.0]])
        new = SemanticCloud.from_parts(surface=[[0.05, 0.0, 0.0]])
        out = merge_observations(prev, new, self.particles, Pose.identity(), self.shape)
        assert len(out.free) == 1
        assert len(out.surface) == 1


def reference_merge(prev, new, poses, dT_w, shape, r_free, r_surf):
    """Unculled reference: every free point tested under every pose."""
    from rummage.semantics import _downsample_positions

    def consistent_free(pts):
        keep = np.ones(len(pts), dtype=bool)
        for pose in poses:
            keep &= shape.sdf(pose.transform(pts)) > 0.0
        return pts[keep]

    moved_occ = dT_w.transform(prev.occupied) if len(prev.occupied) else prev.occupied
    moved_surf = dT_w.transform(prev.surface) if len(prev.surface) else prev.surface
    merged = SemanticCloud.from_parts(free=consistent_free(prev.free), occupied=moved_occ, surface=moved_surf).extend(new)
    return SemanticCloud.from_parts(
        free=consistent_free(_downsample_positions(merged.free, r_free)),
        occupied=_downsample_positions(merged.occupied, r_surf),
        surface=_downsample_positions(merged.surface, r_surf),
    )


class TestMergeCull:
    def test_equals_unculled_reference(self, rng, mug, monkeypatch):
        from rummage import geometry

        monkeypatch.setattr(geometry, "PAIR_BUDGET", 64)  # several passes
        center = np.array([0.4, 0.0, 0.0])
        poses = [Pose.from_placement(center + rng.normal(0, 0.01, 3) * [1, 1, 0], rng.uniform(-3.1, 3.1)) for _ in range(15)]
        for _ in range(4):
            prev = SemanticCloud.from_parts(
                free=center + rng.uniform(-0.3, 0.3, (600, 3)) * [1, 1, 0.2],
                surface=center + rng.uniform(-0.06, 0.06, (20, 3)),
            )
            new = SemanticCloud.from_parts(free=center + rng.uniform(-0.2, 0.2, (200, 3)) * [1, 1, 0.2])
            dT_w = Pose(np.array([0.01, -0.005, 0.0]), 0.05)
            got = merge_observations(prev, new, ParticleSet.from_poses(poses), dT_w, mug)
            want = reference_merge(prev, new, poses, dT_w, mug, 0.01, 0.002)
            npt.assert_array_equal(got.positions, want.positions)
            npt.assert_array_equal(got.labels, want.labels)
            assert 0 < len(got.free) < len(prev.free) + len(new.free)
