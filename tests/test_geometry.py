"""Geometry layer: transforms, signed distances, fields, workspaces."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rummage import geometry
from rummage.geometry import (
    Annulus2D,
    Box,
    Cylinder,
    Extrusion,
    Pose,
    ScalarField,
    Sphere,
    Transformed,
    Union,
    Workspace,
    mug_shape,
    rigid_transform,
    support_radius,
    translated,
)

from conftest import PRIMITIVES, random_pose


# ---------------------------------------------------------------------------
# Poses
# ---------------------------------------------------------------------------


class TestPose:
    def test_identity_transform(self):
        x = np.array([0.3, -0.1, 0.0])
        npt.assert_allclose(Pose.identity().transform(x), x)

    def test_yaw_quarter_turn(self):
        T = Pose(np.zeros(3), math.pi / 2)
        npt.assert_allclose(T.transform((1.0, 0.0, 0.0)), (0.0, 1.0, 0.0), atol=1e-15)

    def test_composition_identity(self, rng):
        for _ in range(50):
            A = random_pose(rng)
            B = random_pose(rng)
            x = rng.uniform(-1, 1, 3)
            lhs = A.compose(B).transform(x)
            rhs = A.transform(B.transform(x))
            npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(50):
            T = random_pose(rng)
            x = rng.uniform(-1, 1, 3)
            npt.assert_allclose(T.inverse().transform(T.transform(x)), x, atol=1e-12)

    def test_placement_accessors(self, rng):
        center = np.array([0.4, -0.2, 0.0])
        yaw = 0.7
        T = Pose.from_placement(center, yaw)
        npt.assert_allclose(T.object_center_world(), center, atol=1e-12)
        assert abs(T.placement_yaw() - yaw) < 1e-12
        # placing the object means its origin maps to zero
        npt.assert_allclose(T.transform(center), np.zeros(3), atol=1e-12)

    def test_results_do_not_depend_on_rotation_layout(self, rng):
        """A pose's rotation reads C-ordered and read-only; a strided
        translation gives the bits of a contiguous one, and column-major
        points those of C-ordered ones, in the map and its inverse turn."""
        assert Pose.from_placement((0.4, -0.1, 0.0), 2.0).rotation.flags["C_CONTIGUOUS"]
        for k in range(200):
            T = random_pose(rng, planar=k % 2 == 0)
            strided = np.repeat(T.translation, 2)[::2]
            F = Pose(strided, T.yaw)
            for R in (T.rotation, F.rotation, T.inverse().rotation):
                assert R.flags["C_CONTIGUOUS"] and not R.flags.writeable
            other = random_pose(rng)
            x = rng.uniform(-1, 1, (5, 3))
            pairs = [(T.inverse(), F.inverse()), (T.compose(other), F.compose(other)), (other.compose(T), other.compose(F))]
            for a, b in pairs:
                assert a.rotation.tobytes() == b.rotation.tobytes()
                assert a.translation.tobytes() == b.translation.tobytes()
                assert a.yaw == b.yaw
            assert T.transform(x).tobytes() == F.transform(x).tobytes()
            c, s = np.cos(T.yaw), np.sin(T.yaw)
            assert _bits(rigid_transform(c, -s, None, np.asfortranarray(x))) == _bits(rigid_transform(c, -s, None, x))

    def test_batch_matches_single(self, rng):
        T = random_pose(rng)
        pts = rng.uniform(-1, 1, (20, 3))
        batch = T.transform(pts)
        for i in range(20):
            single = T.transform(pts[i])
            assert np.all(batch[i] == single)


# ---------------------------------------------------------------------------
# Signed distances
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_box_axis_exterior(self):
        assert Box((0.1, 0.1, 0.1)).sdf((0.2, 0.0, 0.0)) == pytest.approx(0.1, abs=1e-12)

    def test_sphere_center(self):
        assert Sphere(0.05).sdf((0.0, 0.0, 0.0)) == pytest.approx(-0.05, abs=1e-12)

    def test_extruded_annulus_mid_height(self):
        shape = Extrusion(Annulus2D(0.05, 0.04), 0.04)
        assert shape.sdf((0.045, 0.0, 0.0)) == pytest.approx(-0.005, abs=1e-12)

    def test_cylinder_side(self):
        assert Cylinder(0.06, 0.05).sdf((0.08, 0.0, 0.0)) == pytest.approx(0.02, abs=1e-12)

    def test_union_is_min(self, rng):
        a, b = Sphere(0.05), Box((0.03, 0.03, 0.08))
        u = Union(a, b)
        pts = rng.uniform(-0.2, 0.2, (100, 3))
        npt.assert_allclose(u.sdf(pts), np.minimum(a.sdf(pts), b.sdf(pts)))

    def test_translated(self):
        s = translated(Sphere(0.05), (0.1, 0.0, 0.0))
        assert s.sdf((0.1, 0.0, 0.0)) == pytest.approx(-0.05, abs=1e-12)
        assert s.sdf((0.0, 0.0, 0.0)) == pytest.approx(0.05, abs=1e-12)

    def test_sign_correctness_sampled(self, rng):
        for shape in PRIMITIVES:
            lo, hi = shape.bounding_box()
            # interior points by rejection inside the bounding box
            pts = rng.uniform(lo, hi, (2000, 3))
            v = shape.sdf(pts)
            interior = pts[v < -1e-6]
            assert len(interior) > 10
            assert np.all(shape.sdf(interior) < 0)
            # points clearly outside the bounding box are positive
            outside = hi + rng.uniform(0.01, 0.1, (100, 3))
            assert np.all(shape.sdf(outside) > 0)

    def test_lipschitz_primitives(self, rng):
        for shape in PRIMITIVES:
            a = rng.uniform(-0.3, 0.3, (500, 3))
            b = rng.uniform(-0.3, 0.3, (500, 3))
            lhs = np.abs(shape.sdf(a) - shape.sdf(b))
            rhs = np.linalg.norm(a - b, axis=1)
            assert np.all(lhs <= rhs + 1e-9)

    def test_mug_structure(self, mug):
        # cavity interior is outside the solid, wall interior is inside
        assert mug.sdf((0.0, 0.0, 0.0)) > 0
        assert mug.sdf((0.046, 0.0, 0.0)) < 0
        # handle region is inside the union
        assert mug.sdf((0.06, 0.0, 0.0)) < 0
        lo, hi = mug.bounding_box()
        assert hi[0] == pytest.approx(0.07, abs=1e-12)
        assert mug.characteristic_length > 0


class TestGradient:
    def test_sphere_radial(self):
        npt.assert_allclose(Sphere(0.05).gradient((0.1, 0.0, 0.0)), (1.0, 0.0, 0.0), atol=1e-12)

    def test_unit_norm_everywhere(self, rng, mug):
        for shape in PRIMITIVES + [mug]:
            pts = rng.uniform(-0.2, 0.2, (500, 3))
            g = shape.gradient(pts)
            npt.assert_allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-9)

    def test_matches_finite_differences(self, rng, mug):
        """Central finite-difference oracle with h=1e-5: direction cosine > 0.999
        away from gradient discontinuities."""
        h = 1e-5
        for shape in PRIMITIVES + [mug]:
            pts = rng.uniform(-0.25, 0.25, (400, 3))
            g = shape.gradient(pts)
            fd = np.empty_like(pts)
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = h
                fd[:, i] = (shape.sdf(pts + dp) - shape.sdf(pts - dp)) / (2 * h)
            fd_norm = np.linalg.norm(fd, axis=1)
            # a small FD norm or FD/analytic disagreement marks a discontinuity
            # neighborhood (medial axis, edge); exclude those points
            valid = fd_norm > 0.99
            cos = np.einsum("ij,ij->i", g[valid], fd[valid]) / fd_norm[valid]
            assert np.mean(cos > 0.999) > 0.97

    def test_deterministic_at_center(self):
        g1 = Sphere(0.05).gradient((0.0, 0.0, 0.0))
        g2 = Sphere(0.05).gradient((0.0, 0.0, 0.0))
        npt.assert_array_equal(g1, g2)
        assert np.linalg.norm(g1) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------


class TestScalarField:
    def make(self):
        vals = np.zeros((3, 3, 1))
        vals[1, 1, 0] = 0.7
        return ScalarField(origin=np.zeros(3), resolution=0.5, values=vals, outside_value=0.0)

    def test_node_exact(self):
        f = self.make()
        assert f.query((0.5, 0.5, 0.0)) == 0.7

    def test_midpoint_linear(self):
        vals = np.zeros((2, 1, 1))
        vals[1, 0, 0] = 1.0
        f = ScalarField(origin=np.zeros(3), resolution=1.0, values=vals)
        assert f.query((0.5, 0.0, 0.0)) == pytest.approx(0.5)

    def test_outside_returns_default(self):
        f = self.make()
        assert f.query((2.0, 0.0, 0.0)) == 0.0
        f2 = ScalarField(origin=np.zeros(3), resolution=0.5, values=np.ones((2, 2, 1)), outside_value=1.0)
        assert f2.query((100.0, 0.0, 0.0)) == 1.0

    def test_linear_along_axis(self, rng):
        vals = rng.uniform(0, 1, (4, 4, 1))
        f = ScalarField(origin=np.zeros(3), resolution=0.1, values=vals)
        a = f.query((0.1, 0.2, 0.0))
        b = f.query((0.2, 0.2, 0.0))
        mid = f.query((0.15, 0.2, 0.0))
        assert mid == pytest.approx(0.5 * (a + b), abs=1e-12)

    @pytest.mark.parametrize(
        "dims", [(9, 7, 1), (1, 6, 1), (5, 1, 1), (1, 1, 1), (4, 5, 3), (4, 1, 3), (1, 6, 4), (3, 3, 2)]
    )
    def test_planar_matches_bilinear_reference(self, rng, dims):
        """Queries equal the nested linear formula on the node indices, one
        level per axis with more than one node, z innermost: the bilinear
        formula on planar grids, a single-node axis taking no level."""
        vals = rng.normal(size=dims)
        f = ScalarField(origin=np.array([0.1, -0.2, 0.03]), resolution=0.05, values=vals, outside_value=-3.0)
        p = f.origin + rng.uniform(-0.06, 0.05 * np.array(dims) + 0.06, (300, 3))
        p[::2, 2] = f.origin[2]
        top = np.array(dims) - 1
        u = (p - f.origin) / f.resolution
        inside = np.all((u >= -1e-9) & (u <= top + 1e-9), axis=1)
        u = np.clip(u, 0, top)
        i = np.minimum(u.astype(int), np.maximum(top - 1, 0))
        frac = u - i
        i1 = np.minimum(i + 1, top)

        def at(cx, cy, cz):
            return vals[(i1 if cx else i)[:, 0], (i1 if cy else i)[:, 1], (i1 if cz else i)[:, 2]]

        def lerp(ax, lo, hi):
            return lo if dims[ax] == 1 else (1.0 - frac[:, ax]) * lo + frac[:, ax] * hi

        ref = lerp(
            0,
            lerp(1, lerp(2, at(0, 0, 0), at(0, 0, 1)), lerp(2, at(0, 1, 0), at(0, 1, 1))),
            lerp(1, lerp(2, at(1, 0, 0), at(1, 0, 1)), lerp(2, at(1, 1, 0), at(1, 1, 1))),
        )
        npt.assert_array_equal(f.query(p), np.where(inside, ref, -3.0))

    @pytest.mark.parametrize("dims", [(6, 5, 1), (4, 5, 3)])
    def test_blocks_give_pointwise_values(self, rng, monkeypatch, dims):
        """Large batches are evaluated a block of points at a time; every
        value equals the single-point query, whatever the block size."""
        f = ScalarField(origin=np.zeros(3), resolution=0.1, values=rng.normal(size=dims), outside_value=0.25)
        p = rng.uniform(-0.05, 0.55, (7, 9, 3))
        p[..., 2] *= dims[2] > 1
        single = np.array([[f.query(x) for x in row] for row in p])
        for block in (1, 5, 63, 64, 10_000):
            monkeypatch.setattr(geometry, "POINT_BLOCK", block)
            got = f.query(p)
            assert got.shape == (7, 9)
            npt.assert_array_equal(got, single)

    @settings(max_examples=50, deadline=None)
    @given(
        ix=st.integers(0, 3), iy=st.integers(0, 3), iz=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_nodes_reproduced(self, ix, iy, iz, seed):
        vals = np.random.default_rng(seed).uniform(-1, 1, (4, 4, 3))
        f = ScalarField(origin=np.array([0.1, -0.2, 0.0]), resolution=0.05, values=vals)
        p = f.origin + f.resolution * np.array([ix, iy, iz])
        assert f.query(p) == pytest.approx(vals[ix, iy, iz], abs=1e-12)


class TestWorkspace:
    def test_small_cube(self):
        w = Workspace(bounds=((0, 0.02), (0, 0.02), (0, 0.02)), resolution=0.01)
        assert len(w.grid_points()) == 27

    def test_planar_grid(self):
        w = Workspace(bounds=((0, 0.8), (-0.4, 0.4), (0.0, 0.0)), resolution=0.01)
        pts = w.grid_points()
        assert len(pts) == 81 * 81
        assert w.counts == (81, 81, 1)
        # both boundary planes present
        assert pts[:, 0].min() == pytest.approx(0.0)
        assert pts[:, 0].max() == pytest.approx(0.8)

    def test_degenerate_point(self):
        w = Workspace(bounds=((0, 0), (0, 0), (0, 0)), resolution=0.01)
        assert len(w.grid_points()) == 1

    def test_row_major_deterministic(self):
        w = Workspace(bounds=((0, 0.02), (0, 0.01), (0.0, 0.0)), resolution=0.01)
        pts = w.grid_points()
        npt.assert_allclose(pts[0], (0.0, 0.0, 0.0))
        npt.assert_allclose(pts[1], (0.0, 0.01, 0.0))
        npt.assert_allclose(pts[2], (0.01, 0.0, 0.0))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            Workspace(bounds=((0, 1), (0, 1), (0, 0)), resolution=0.0)

    @pytest.mark.parametrize(
        "bounds",
        [((0.8, 0.0), (0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (0, 1), (0,))],
        ids=["inverted", "two-axes", "one-sided"],
    )
    def test_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError, match="lo <= hi"):
            Workspace(bounds=bounds, resolution=0.01)


# ---------------------------------------------------------------------------
# Support radius and many-pose evaluation
# ---------------------------------------------------------------------------


def _beyond(rng, radius, n=2000, width=0.05):
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = radius + rng.uniform(0.0, width, n)
    return d * r[:, None], r


def _old_support_radius(shape) -> float:
    """Reference: the per-class radii the box-corner rule replaced, a
    union's the largest of its box corner and its children's, a transformed
    shape's its child's plus its offset."""
    if isinstance(shape, Union):
        return max(geometry._box_radius(shape.bounding_box()), *map(_old_support_radius, shape.children))
    if isinstance(shape, Transformed):
        return _old_support_radius(shape.child) + float(np.linalg.norm(shape.offset))
    return geometry._box_radius(shape.bounding_box())


class TestSupportRadius:
    # kinds a scenario's shape_config can build
    BUILDABLE = [
        Sphere(0.05),
        Box((0.1, 0.07, 0.04)),
        Cylinder(0.06, 0.05),
        mug_shape(),
        translated(Box((0.02, 0.01, 0.03)), (0.08, -0.02, 0.01)),
        # a union inside a union
        Union(
            Sphere(0.03),
            Union(translated(Box((0.02, 0.01, 0.02)), (0.06, 0.0, 0.0)), translated(Sphere(0.02), (0.0, -0.07, 0.01))),
        ),
        # a whole union moved off the origin
        translated(mug_shape(), (0.1, -0.05, 0.02)),
    ]

    def test_distance_at_least_excess_beyond_radius(self, rng):
        """Beyond the radius the distance is at least the excess, so free
        points there cost nothing for any epsilon below the excess."""
        for shape in self.BUILDABLE:
            R = support_radius(shape)
            pts, r = _beyond(rng, R)
            assert np.all(shape.sdf(pts) >= r - R - 1e-12), shape
            # points on the radius's sphere and just past it, where the
            # bound is tightest
            pts, r = _beyond(rng, R, width=1e-4)
            assert np.all(shape.sdf(pts) >= r - R - 1e-12), shape

    def test_never_looser_than_per_class_radii(self):
        """On every shape a scenario can build: unions and translations keep
        their boxes axis-aligned, so the corner is within the children's."""
        for shape in self.BUILDABLE:
            assert support_radius(shape) <= _old_support_radius(shape), shape
        # the mug's radii all agree
        assert support_radius(mug_shape()) == _old_support_radius(mug_shape()) == 0.09486832980505139

    def test_primitives_take_box_corner(self):
        assert support_radius(Box((0.1, 0.07, 0.04))) == pytest.approx(math.sqrt(0.01 + 0.0049 + 0.0016))
        assert support_radius(mug_shape()) == pytest.approx(math.sqrt(0.07**2 + 0.05**2 + 0.04**2))

    def test_box_only_objects_use_bounding_box(self):
        class BoxOnly:
            def __init__(self, box):
                self.box = box

            def bounding_box(self):
                return self.box

        assert support_radius(BoxOnly((np.array([-0.1, -0.2, -0.3]), np.array([0.3, 0.1, 0.2])))) == pytest.approx(
            math.sqrt(0.09 + 0.04 + 0.09)
        )
        # a wrapper that exposes only the mug's box culls as the mug does
        mug = mug_shape()
        assert support_radius(BoxOnly(mug.bounding_box())) == support_radius(mug)


class TestManyPoses:
    def test_pairs_within_matches_brute_force(self, rng, monkeypatch):
        from rummage import geometry
        from rummage.geometry import object_origins, pairs_within

        monkeypatch.setattr(geometry, "_TEST_BUDGET", 64)  # several chunks
        poses = [random_pose(rng, trans_scale=0.2) for _ in range(9)]
        pts = rng.uniform(-0.4, 0.4, (50, 3))
        always = rng.random(50) < 0.1
        origins = object_origins(*_stack(poses))
        for radius in (0.1, 0.3, math.inf):
            ii, pp = pairs_within(pts, origins, radius, always)
            expect = [
                (i, p)
                for i, T in enumerate(poses)
                for p in range(len(pts))
                if always[p] or np.linalg.norm(T.transform(pts[p])) <= radius
            ]
            assert list(zip(ii.tolist(), pp.tolist())) == expect

    def test_planar_rotations_do_not_depend_on_position(self, rng):
        """A yaw's cos and sin are the same bits alone and wherever it sits
        in a stack (the refinement's stack, a set's distinct rows and a
        pose made alone each take them of their own yaws); NumPy's vector
        loops could differ from their scalar tails, so this is tested."""
        edges = [0.0, -0.0, 1e-9, -1e-300, math.pi / 2, math.pi, -math.pi]
        yaws = np.concatenate([rng.uniform(-math.pi, math.pi, 20000), rng.uniform(-40.0, 40.0, 500), edges])
        for f in (np.cos, np.sin):
            whole = f(yaws)
            for k in range(1, 17):
                assert _bits(f(yaws[k:])) == _bits(whole[k:])
            assert _bits(f(yaws[::-1])) == _bits(whole[::-1])
            assert _bits(f(yaws[1::3])) == _bits(whole[1::3])
            for y, v in zip(yaws.tolist(), whole):
                assert _bits(f(y)) == _bits(v)

    def test_pose_groups_cover_pairs(self, monkeypatch):
        from rummage import geometry
        from rummage.geometry import pose_groups

        monkeypatch.setattr(geometry, "PAIR_BUDGET", 5)
        ii = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 3, 3, 4])
        groups = list(pose_groups(ii, 7))
        assert [(s, e) for _, _, s, e in groups] == [(0, 2), (2, 9), (9, 12)]
        for lo, hi, s, e in groups:
            assert np.all((ii[s:e] >= lo) & (ii[s:e] < hi))
            assert e - s <= 5 or hi == lo + 1
        assert list(pose_groups(np.zeros(0, dtype=np.intp), 3)) == []


# ---------------------------------------------------------------------------
# Lean kernels against their formulas
# ---------------------------------------------------------------------------


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _planar(c, s, t, p: np.ndarray) -> np.ndarray:
    """``x' = c*x - s*y + tx``, ``y' = s*x + c*y + ty``, ``z' = z + tz``
    written out; ``c``, ``s`` (...) and ``t`` (..., 3) broadcast against the
    points ``p`` (..., 3), ``t=None`` adds nothing."""
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    rows = [c * x - s * y, s * x + c * y, np.broadcast_to(z, np.broadcast(x, c).shape)]
    if t is not None:
        rows = [v + t[..., i] for i, v in enumerate(rows)]
    return np.stack(rows, axis=-1)


def _nine_term(R: np.ndarray, t: np.ndarray | None, p: np.ndarray) -> np.ndarray:
    """``R x + t`` with all nine products of a ``(3, 3)`` matrix, each
    coordinate summed left to right; ``t=None`` adds nothing."""
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    rows = []
    for i in range(3):
        v = R[i, 0] * x + R[i, 1] * y + R[i, 2] * z
        rows.append(v if t is None else v + t[i])
    return np.stack(rows, axis=-1)


def _turn(T: Pose):
    """One pose as :func:`rigid_transform` reads it: ``c, s, t``."""
    return np.cos(T.yaw), np.sin(T.yaw), T.translation


def _stack(poses):
    """``c, s, t`` of a stack of poses, the trig taken over the stack."""
    yaws = np.array([T.yaw for T in poses])
    return np.cos(yaws), np.sin(yaws), np.stack([T.translation for T in poses])


def _coordinate_contiguous(a) -> bool:
    return np.moveaxis(a, -1, 0).flags.c_contiguous


class TestPoseTransformKernel:
    POSES = {
        # a turn past a quarter and a translation on every axis
        "general": Pose(np.array([0.2, -0.1, 0.05]), 2.1),
        "planar": Pose.from_placement((0.4, -0.2, 0.0), 0.7),
        "translation": Pose(np.array([-0.06, -0.0, 0.0])),
        "identity": Pose.identity(),
    }

    @pytest.mark.parametrize("name", list(POSES))
    def test_equals_nine_term_formula(self, rng, name):
        """The planar formula bit for bit; the nine products of the pose's
        rotation matrix up to the sign of a zero; each output coordinate
        contiguous."""
        T = self.POSES[name]
        c, s, t = _turn(T)
        pts = rng.uniform(-0.5, 0.5, (4, 37, 3))
        pts[0, :5] = 0.0
        got = rigid_transform(c, s, t, pts)
        assert _bits(got) == _bits(_planar(c, s, t, pts))
        npt.assert_array_equal(got, _nine_term(T.rotation, t, pts))
        assert got.shape == pts.shape
        assert _coordinate_contiguous(got)

    @pytest.mark.parametrize("name", list(POSES))
    def test_batch_equals_single_bit_for_bit(self, rng, name):
        c, s, t = _turn(self.POSES[name])
        pts = rng.uniform(-0.5, 0.5, (30, 3))
        pts[:3, 2] = 0.0
        batch = rigid_transform(c, s, t, pts)
        for i in range(len(pts)):
            single = rigid_transform(c, s, t, pts[i])
            assert single.shape == (3,)
            assert _bits(batch[i]) == _bits(single)
        # a column-major input gives the same bits
        assert _bits(rigid_transform(c, s, t, np.asfortranarray(pts))) == _bits(batch)

    def test_planar_pose_skips_zero_terms(self, rng):
        """The map multiplies no zero or unit entry of ``Rz``: z comes out
        as ``z + tz`` (``z`` itself when only turned), and x and y do not
        read z, for one pose and for a set's stack."""
        c, s, t = _turn(self.POSES["planar"])
        pts = rng.uniform(-0.5, 0.5, (20, 3))
        lifted = pts.copy()
        lifted[:, 2] = rng.uniform(-0.5, 0.5, 20)
        assert _bits(rigid_transform(c, s, t, pts)[:, 2]) == _bits(pts[:, 2] + t[2])
        assert _bits(rigid_transform(c, s, None, pts)[:, 2]) == _bits(pts[:, 2])
        assert _bits(rigid_transform(c, s, t, lifted)[:, :2]) == _bits(rigid_transform(c, s, t, pts)[:, :2])
        yaws = np.concatenate([rng.uniform(-4 * math.pi, 4 * math.pi, 300), [0.0, -0.0, math.pi, -math.pi, 1e-300]])
        particles = geometry.ParticleSet(rng.normal(0.0, 0.3, (len(yaws), 3)), yaws)
        got = rigid_transform(*particles.distinct(), pts)
        assert _bits(got[..., 2]) == _bits(pts[:, 2] + particles.translations[:, 2, None])


class TestRigidTransform:
    """The one pose-by-point kernel in each of its uses, against the planar
    formula written out: equal bits, each output coordinate contiguous."""

    # each stack's poses; "mixed" has a cosine of 1 or a sine of 0 for some
    # poses only
    STACKS = {
        "planar": [Pose.from_placement((0.4, -0.2, 0.0), a) for a in (0.7, -2.1, 0.0, 3.0)],
        "mixed": [*TestPoseTransformKernel.POSES.values(), Pose(np.array([0.0, 0.1, -0.02]), math.pi)],
        "translations": [Pose(np.array(t)) for t in ((-0.06, 0.0, 0.0), (0.0, 0.0, 0.0), (0.02, 0.0, 0.0))],
        "identity": [Pose.identity()] * 3,
    }

    @staticmethod
    def _points(rng, shape):
        pts = rng.uniform(-0.5, 0.5, shape)
        pts.reshape(-1, 3)[:5] = 0.0
        pts.reshape(-1, 3)[5:9, 2] = -0.0
        return pts

    @pytest.mark.parametrize("name", list(STACKS))
    @pytest.mark.parametrize("translate", [True, False])
    @pytest.mark.parametrize("per_pose", [False, True], ids=["shared", "per-pose"])
    def test_stack(self, rng, name, translate, per_pose):
        """Every pose on the shared points ``(M, 3)``, or each on its own
        set ``(N, M, 3)``."""
        c, s, t = _stack(self.STACKS[name])
        t = t if translate else None
        pts = self._points(rng, (len(c), 23, 3) if per_pose else (23, 3))
        got = geometry.rigid_transform(c, s, t, pts)
        assert got.shape == (len(c), 23, 3) and _coordinate_contiguous(got)
        want = _planar(c[:, None], s[:, None], None if t is None else t[:, None], pts)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("name", list(STACKS))
    def test_pairs(self, rng, name):
        """Each point mapped by its own pose of the stack, bit for bit as
        that pose maps it alone."""
        c, s, t = _stack(self.STACKS[name])
        pts = self._points(rng, (300, 3))
        idx = rng.integers(0, len(c), 300)
        got = geometry.rigid_transform(c, s, t, pts, idx)
        assert got.shape == (300, 3) and _coordinate_contiguous(got)
        assert _bits(got) == _bits(_planar(c[idx], s[idx], t[idx], pts))
        for k in range(0, 300, 7):
            i = idx[k]
            assert _bits(got[k]) == _bits(rigid_transform(c[i], s[i], t[i], pts[k]))

    def test_one_pose_rotation_only(self, rng):
        c, s, _ = _turn(TestPoseTransformKernel.POSES["general"])
        pts = self._points(rng, (4, 9, 3))
        got = geometry.rigid_transform(c, s, None, pts)
        assert got.shape == pts.shape and _coordinate_contiguous(got)
        assert _bits(got) == _bits(_planar(c, s, None, pts))

    def test_one_pose_products(self, rng, monkeypatch):
        """Every pose costs the same 4 products, those of its turn: no
        pose takes a path of its own."""
        pts = self._points(rng, (11, 3))
        calls = []
        multiply = np.multiply
        monkeypatch.setattr(np, "multiply", lambda *a, **k: calls.append(a) or multiply(*a, **k))
        for name, T in TestPoseTransformKernel.POSES.items():
            del calls[:]
            rigid_transform(*_turn(T), pts)
            assert len(calls) == 4, name

    def test_inverse_turn(self, rng):
        """The inverse turn ``R^T`` is the map by ``c`` and ``-s``: the
        written-out formula bit for bit, the transposed matrix's nine
        products up to the sign of a zero, and the undoing of the forward
        turn; the origins and world gradients take it."""
        poses = self.STACKS["mixed"]
        c, s, t = _stack(poses)
        pts = self._points(rng, (23, 3))
        for k, T in enumerate(poses):
            back = rigid_transform(c[k], -s[k], None, pts)
            assert _bits(back) == _bits(_planar(c[k], -s[k], None, pts))
            npt.assert_array_equal(back, _nine_term(T.rotation.T, None, pts))
            npt.assert_allclose(rigid_transform(c[k], -s[k], None, rigid_transform(c[k], s[k], None, pts)), pts, atol=1e-15)
            npt.assert_allclose(T.object_center_world(), -T.rotation.T @ T.translation, atol=1e-15)
        origins = geometry.object_origins(c, s, t)
        assert _bits(origins) == _bits(-_planar(c, -s, None, t))
        mug = mug_shape()
        world = geometry.world_gradients(mug, c, s, t, pts)
        for k, T in enumerate(poses):
            g = mug.gradient(T.transform(pts))
            assert _bits(world[k]) == _bits(_planar(c[k], -s[k], None, g))

    def test_single_point(self, rng):
        c, s, t = _stack(self.STACKS["mixed"])
        x = rng.uniform(-0.5, 0.5, 3)
        one = geometry.rigid_transform(c[1], s[1], t[1], x)
        assert one.shape == (3,)
        assert _bits(one) == _bits(geometry.rigid_transform(c[1], s[1], t[1], x[None])[0])
        many = geometry.rigid_transform(c, s, t, x)
        assert many.shape == (len(c), 3)
        assert _bits(many) == _bits(geometry.rigid_transform(c, s, t, x[None])[:, 0])

    def test_empty_point_sets(self):
        c, s, t = _stack(self.STACKS["mixed"])
        n = len(c)
        none = np.zeros((0, 3))
        assert geometry.rigid_transform(c[0], s[0], t[0], none).shape == (0, 3)
        assert geometry.rigid_transform(c, s, t, none).shape == (n, 0, 3)
        assert geometry.rigid_transform(c, s, None, np.zeros((n, 0, 3))).shape == (n, 0, 3)
        assert geometry.rigid_transform(c, s, t, none, np.zeros(0, dtype=np.intp)).shape == (0, 3)


def test_translated_shape_is_its_child_at_p_minus_offset(rng):
    """A translated shape's distances and gradients are its child's at
    ``p - offset``, bit for bit, and its box is the child's moved by the
    offset."""
    offset = np.array([0.06, -0.02, 0.01])
    for child in (*PRIMITIVES, mug_shape()):
        shape = translated(child, offset)
        p = rng.uniform(-0.15, 0.15, (500, 3))
        p[:5] = offset
        assert _bits(shape.sdf(p)) == _bits(child.sdf(p - offset))
        assert _bits(shape.gradient(p)) == _bits(child.gradient(p - offset))
        assert shape.sdf(p[7]) == child.sdf(p[7] - offset)
        assert _bits(shape.gradient(p[7])) == _bits(child.gradient(p[7] - offset))
        for got, want in zip(shape.bounding_box(), child.bounding_box()):
            assert _bits(got) == _bits(want + offset)


# every shape type a scenario can name, as shape_from_config builds it
SCENARIO_SHAPES = {
    "mug": {"type": "mug"},
    "sphere": {"type": "sphere", "radius": 0.05},
    "box": {"type": "box", "half_extents": [0.03, 0.02, 0.025]},
    "cylinder": {"type": "cylinder", "radius": 0.04, "half_height": 0.03},
    "annulus": {"type": "annulus", "outer_radius": 0.05, "inner_radius": 0.042, "half_height": 0.04},
    "union": {"type": "union", "children": [{"type": "sphere", "radius": 0.02},
                                            {"type": "box", "half_extents": [0.01, 0.03, 0.02]}]},
    "translated": {"type": "translated", "offset": [0.0, 0.03, 0.0],
                   "child": {"type": "cylinder", "radius": 0.02, "half_height": 0.01}},
}


@pytest.mark.parametrize("name", list(SCENARIO_SHAPES))
def test_shapes_ignore_the_sign_of_zero(rng, name):
    """No shape reads the sign of a zero coordinate: negating the zero
    coordinates of points leaves every shape's sdf bit for bit, and its
    gradient up to the sign of a zero component."""
    from rummage.sim import shape_from_config

    shape = shape_from_config(SCENARIO_SHAPES[name])
    p = rng.uniform(-0.08, 0.08, (600, 3))
    zero = rng.random(p.shape) < 0.4
    zero[:8] = True  # the origin, where gradients are degenerate
    p[zero] = 0.0
    q = p.copy()
    q[zero] = -0.0
    assert _bits(shape.sdf(p)) == _bits(shape.sdf(q))
    npt.assert_array_equal(shape.gradient(p), shape.gradient(q))
    for i in range(8, 40):
        assert _bits(shape.sdf(p[i])) == _bits(shape.sdf(q[i]))


class TestInPlaceShapes:
    """The in-place sdf kernels against their textbook formulas, bit for bit."""

    @staticmethod
    def _points(rng):
        p = np.concatenate([rng.uniform(-0.1, 0.1, (300, 3)), rng.uniform(-0.02, 0.02, (100, 3))])
        p[:10] = 0.0
        p[10:20, 0] = 0.03  # on faces of the box below
        return p

    def test_box(self, rng):
        h = (0.03, 0.02, 0.025)
        p = self._points(rng)
        qx, qy, qz = (np.abs(p[:, i]) - h[i] for i in range(3))
        ref = np.sqrt(np.maximum(qx, 0.0) ** 2 + np.maximum(qy, 0.0) ** 2 + np.maximum(qz, 0.0) ** 2)
        ref = ref + np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        assert _bits(Box(h).sdf(p)) == _bits(ref)

    @pytest.mark.parametrize(
        "profile, formula",
        [
            (geometry.Circle2D(0.04), lambda x, y: np.sqrt(x**2 + y**2) - 0.04),
            (Annulus2D(0.05, 0.042), lambda x, y: np.abs(np.sqrt(x**2 + y**2) - 0.046) - 0.004),
        ],
    )
    def test_profiles_and_extrusion(self, rng, profile, formula):
        p = self._points(rng)
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        d2 = formula(x, y)
        assert _bits(profile.sdf(x, y)) == _bits(d2)
        wz = np.abs(z) - 0.035
        ref = np.sqrt(np.maximum(d2, 0.0) ** 2 + np.maximum(wz, 0.0) ** 2) + np.minimum(np.maximum(d2, wz), 0.0)
        shape = Extrusion(profile, 0.035)
        assert _bits(shape.sdf(p)) == _bits(ref)
        for i in range(0, len(p), 37):
            assert _bits(shape.sdf(p[i])) == _bits(ref[i])


def _every_child_sdf(shape, p):
    """Every child of every union evaluated at every point, the min taken
    in child order."""
    if isinstance(shape, Union):
        v = _every_child_sdf(shape.children[0], p)
        for c in shape.children[1:]:
            v = np.minimum(v, _every_child_sdf(c, p))
        return v
    if isinstance(shape, geometry.Transformed):
        return _every_child_sdf(shape.child, p - shape.offset)
    if isinstance(shape, _Flipped):
        return _every_child_sdf(shape.child, p)
    return shape.sdf(p)


def _first_minimum_gradient(shape, p):
    """Point by point, the gradient of the first child of every union with
    the smallest distance, a NaN distance counting as smallest."""
    if isinstance(shape, _Flipped):
        return -_first_minimum_gradient(shape.child, p)
    if not isinstance(shape, Union):
        return shape.gradient(p)
    out = np.empty_like(p)
    for i in range(len(p)):
        row = p[i : i + 1]
        k = int(np.argmin([_every_child_sdf(c, row)[0] for c in shape.children]))
        out[i] = _first_minimum_gradient(shape.children[k], row)[0]
    return out


def _union_children():
    lifted = translated(Cylinder(0.015, 0.03), (0.02, -0.05, 0.01))
    nested = Union(Sphere(0.02), translated(Box((0.01, 0.02, 0.015)), (-0.06, 0.01, 0.0)))
    return [
        Extrusion(Annulus2D(0.05, 0.042), 0.04),
        translated(Box((0.01, 0.0075, 0.025)), (0.06, 0.0, 0.0)),
        lifted,
        nested,
    ]


class _Flipped(geometry.Shape):
    """A shape's distances with its gradient negated: listed after that
    shape in a union it ties on every row, and the gradient shows which of
    the two was picked."""

    def __init__(self, child):
        self.child = child

    def sdf(self, points):
        return self.child.sdf(points)

    def gradient(self, points):
        return -self.child.gradient(points)


class TestUnionCull:
    @settings(max_examples=60, deadline=None)
    @given(
        order=st.permutations(range(4)),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        offsets=st.lists(
            st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-4, -1e-4, 0.01, 0.03]),
            min_size=1, max_size=6,
        ),
    )
    def test_sdf_equals_unculled_min(self, order, count, seed, offsets):
        """The distances are the min over every child and the gradient is
        that of the first minimum, bit for bit, at a NaN row, at points on
        and near each child's bounding box and where children tie."""
        children = [_union_children()[k] for k in order[:count]]
        rng = np.random.default_rng(seed)
        pts = [rng.uniform(-0.15, 0.15, (40, 3)), np.full((1, 3), np.nan)]
        offsets = np.asarray(offsets)
        rows = np.arange(len(offsets))
        for c in children:
            # on a face of the box, moved out (or in) along its normal
            lo, hi = c.bounding_box()
            q = rng.uniform(lo, hi, (len(offsets), 3))
            axis = rng.integers(0, 3, len(offsets))
            upper = rng.random(len(offsets)) < 0.5
            q[rows, axis] = np.where(upper, hi[axis] + offsets, lo[axis] - offsets)
            pts.append(q)
        p = np.concatenate(pts)
        for shape in (Union(*children), Union(*children, _Flipped(children[0]))):
            ref = _every_child_sdf(shape, p)
            ref_g = _first_minimum_gradient(shape, p)
            assert _bits(shape.sdf(p)) == _bits(ref)
            assert _bits(shape.gradient(p)) == _bits(ref_g)
            for i in range(0, len(p), 7):
                assert _bits(shape.sdf(p[i])) == _bits(ref[i])
                assert _bits(shape.gradient(p[i])) == _bits(ref_g[i])

    def test_gradient_matches_stacked_reference(self, rng, mug):
        """Each child's gradient at the points that pick it equals the old
        stack-and-take_along_axis evaluation, first minimum on ties."""
        shapes = [mug, Union(*_union_children()), Union(*_union_children()[::-1])]
        p = np.concatenate([rng.uniform(-0.12, 0.12, (400, 3)), np.full((1, 3), np.nan)])
        for shape in shapes:
            vals = np.stack([c.sdf(p) for c in shape.children])
            pick = np.argmin(vals, axis=0)
            grads = np.stack([c.gradient(p) for c in shape.children])
            ref = np.take_along_axis(grads, pick[None, :, None], axis=0)[0]
            assert _bits(shape.gradient(p)) == _bits(ref)
            assert _bits(shape.gradient(p[3])) == _bits(ref[3])

    def test_gradient_ties_take_first_child(self, rng):
        class Tagged(geometry.Shape):
            def __init__(self, tag):
                self.tag = np.asarray(tag, dtype=np.float64)

            def sdf(self, points):
                return Sphere(0.05).sdf(points)

            def gradient(self, points):
                return np.broadcast_to(self.tag, np.shape(points)).copy()

            def bounding_box(self):
                return Sphere(0.05).bounding_box()

        shape = Union(Tagged((1.0, 0.0, 0.0)), Tagged((0.0, 1.0, 0.0)), Tagged((0.0, 0.0, 1.0)))
        g = shape.gradient(rng.uniform(-0.1, 0.1, (50, 3)))
        npt.assert_array_equal(g, np.tile((1.0, 0.0, 0.0), (50, 1)))
