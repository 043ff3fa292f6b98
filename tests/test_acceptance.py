"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``-s`` to see them all;
pytest shows them on failure regardless).  The end-to-end criteria share a
module-scoped batch of seeded episodes of the planar mug scenario.
"""

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from rummage.belief import ParticleSet, weigh
from rummage.discrepancy import DiscrepancyParams, point_cost, point_cost_descent, total_discrepancy
from rummage.geometry import Box, Cylinder, Pose, Sphere, Workspace, mug_shape
from rummage.infogain import build_info_fields
from rummage.planner import PlannerParams, control_times, interpolate_at, kernel_interpolate, mppi_update
from rummage.semantics import SemanticCloud, Semantics, SensorModel, sensor_probabilities, voxel_downsample
from rummage.sim import Scenario, World, camera_observe, pairwise_chamfer, run_episode, sample_surface
from rummage import cli, export

pytestmark = pytest.mark.acceptance

SCENARIO_PATH = Path(__file__).parent.parent / "scenarios" / "planar_mug.json"
PRIMS = [Sphere(0.05), Box((0.1, 0.07, 0.04)), Cylinder(0.06, 0.05)]


def _ok(msg):
    print(f"PASS {msg}")


# ---------------------------------------------------------------------------
# Criterion 1: sensor-model identity
# ---------------------------------------------------------------------------


def test_c01_sensor_model_identity():
    model = SensorModel()
    rng = np.random.default_rng(11)
    t0 = time.time()
    v = rng.uniform(-0.1, 0.1, 10_000)
    pf, po, ps = model.probabilities(v)
    total = pf + po + ps
    assert np.abs(total - 1.0).max() <= 1e-12
    assert np.all(pf >= 0) and np.all(po >= 0) and np.all(ps >= 0)
    assert sensor_probabilities(model, 0.0) == (0.0, 0.0, 1.0)
    assert sensor_probabilities(model, model.zeta) == (0.0, 0.0, 1.0)
    pf1, po1, ps1 = sensor_probabilities(model, model.zeta + 0.01)
    assert pf1 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert po1 == 0.0
    assert ps1 == pytest.approx(math.exp(-1.0), abs=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(f"C1 sensor-model identity (1e4 draws, {elapsed*1000:.0f} ms)")


# ---------------------------------------------------------------------------
# Criterion 2: cost additivity
# ---------------------------------------------------------------------------


def test_c02_cost_additivity_exact():
    rng = np.random.default_rng(22)
    disc = DiscrepancyParams()
    shape = Sphere(0.05)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        cloud = SemanticCloud(rng.uniform(-0.2, 0.2, (n, 3)), rng.integers(0, 3, n).astype(np.int8))
        x = rng.uniform(-0.2, 0.2, 3)
        s = Semantics(int(rng.integers(0, 3)))
        t = rng.uniform(-0.3, 0.3, 3)
        T = Pose.from_placement(t, float(rng.uniform(-np.pi, np.pi)))
        lhs = total_discrepancy(disc, shape, cloud.append(x, s), T)
        rhs = total_discrepancy(disc, shape, cloud, T) + point_cost(disc, shape, T.transform(x), s)
        assert lhs == rhs
    _ok("C2 cost additivity exact over 1000 random triples")


# ---------------------------------------------------------------------------
# Criterion 3: descent-direction validity
# ---------------------------------------------------------------------------


def _off_medial_axis(shape, x):
    if isinstance(shape, Sphere):
        return np.linalg.norm(x) > 1e-3
    if isinstance(shape, Box):
        q = np.abs(x) - np.asarray(shape.half_extents)
        top2 = np.sort(q)[-2:]
        return abs(top2[1] - top2[0]) > 1e-3 and np.min(np.abs(x)) > 1e-4
    r = math.hypot(x[0], x[1])
    wz = abs(x[2]) - shape.half_height
    return r > 1e-3 and abs((r - shape.profile.radius) - wz) > 1e-3


def test_c03_descent_direction_validity():
    rng = np.random.default_rng(33)
    disc = DiscrepancyParams()
    eta = 1e-4
    wins = trials = 0
    while trials < 1000:
        shape = PRIMS[int(rng.integers(0, len(PRIMS)))]
        x = rng.uniform(-0.25, 0.25, 3)
        s = Semantics(int(rng.integers(0, 3)))
        if not _off_medial_axis(shape, x):
            continue
        c0 = point_cost(disc, shape, x, s)
        if c0 <= 1e-9:
            continue
        trials += 1
        d = point_cost_descent(disc, shape, x, s)
        if point_cost(disc, shape, x - eta * d, s) < c0:
            wins += 1
    rate = wins / trials
    assert rate >= 0.99
    _ok(f"C3 descent validity {rate:.3f} over 1000 active trials")


# ---------------------------------------------------------------------------
# Criterion 4: brute-force oracle equivalence
# ---------------------------------------------------------------------------


def test_c04_brute_force_oracle_equivalence():
    rng = np.random.default_rng(44)
    shape = Sphere(0.05)
    disc = DiscrepancyParams()
    samples = sample_surface(shape, 100, rng)
    poses = [
        Pose.from_placement(rng.uniform(-0.05, 0.05, 3) * [1, 1, 0] + [0.3, 0, 0], float(rng.uniform(-np.pi, np.pi)))
        for _ in range(10)
    ]
    particles = ParticleSet.uniform(poses)

    total = 0.0
    for Ti in poses:
        for Tj in poses:
            world = Tj.inverse().transform(samples)
            for p in world:
                total = total + abs(float(shape.sdf(Ti.transform(p))))
    oracle_chamfer = total / (10 * 10 * 100)
    assert pairwise_chamfer(particles, shape, samples) == oracle_chamfer

    cloud = SemanticCloud(rng.uniform(-0.2, 0.2, (100, 3)), rng.integers(0, 3, 100).astype(np.int8))
    T = poses[3]
    acc = 0.0
    for i in range(len(cloud)):
        acc = acc + point_cost(disc, shape, T.transform(cloud.positions[i]), Semantics(int(cloud.labels[i])))
    assert total_discrepancy(disc, shape, cloud, T) == acc
    _ok("C4 vectorized chamfer and discrepancy match scalar-loop oracles exactly")


# ---------------------------------------------------------------------------
# Criterion 5: kernel-interpolated control
# ---------------------------------------------------------------------------


def _toy_mssd(h_c: int, seed: int) -> float:
    H = 20
    params = PlannerParams(horizon=H, control_points=h_c, samples=64, temperature=0.1)
    goal = np.array([1.0, 0.5])

    def cost_fn(actions):
        pos = np.cumsum(0.1 * actions, axis=1)
        return ((pos - goal) ** 2).sum(axis=2).sum(axis=1) + 0.1 * (actions**2).sum(axis=2).sum(axis=1)

    rng = np.random.default_rng(seed)
    theta = np.zeros((h_c, 2))
    for _ in range(4):
        theta, _ = mppi_update(theta, cost_fn, params, rng)
    u = kernel_interpolate(theta, H)
    dd = np.diff(u, n=2, axis=0)
    return float((dd**2).mean())


def test_c05_kernel_interpolated_control():
    rng = np.random.default_rng(55)
    worst = 0.0
    for H in range(5, 21):
        for H_c in range(2, H + 1):
            theta = rng.normal(size=(H_c, 2))
            out = interpolate_at(theta, H, control_times(H, H_c))
            worst = max(worst, float(np.abs(out - theta).max()))
    assert worst <= 1e-9

    hand = kernel_interpolate(np.array([[0.0], [1.0]]), 3)
    assert hand[1, 0] == pytest.approx(0.5493, abs=1e-3)

    coarse = np.mean([_toy_mssd(8, s) for s in range(20)])
    dense = np.mean([_toy_mssd(20, s) for s in range(20)])
    assert coarse < dense
    _ok(
        f"C5 control-time exactness {worst:.2e}; hand case {hand[1,0]:.4f}; "
        f"smoothness {coarse:.4f} < {dense:.4f} over 20 seeds"
    )


# ---------------------------------------------------------------------------
# Criterion 6: info-field structure (handle-ambiguity ring)
# ---------------------------------------------------------------------------


def test_c06_info_field_handle_band():
    scenario = Scenario.from_json(SCENARIO_PATH)
    shape = scenario.build_shape()
    workspace = scenario.build_workspace()
    world = World(shape=shape, true_pose=scenario.true_pose(), q=np.asarray(scenario.robot_start, float))
    cloud = voxel_downsample(camera_observe(world, scenario.camera), scenario.belief.r_free)

    center = cloud.surface.mean(axis=0)
    center[2] = 0.0
    yaws = np.linspace(-math.pi, math.pi, 100, endpoint=False)
    particles = ParticleSet.uniform([Pose.from_placement(center, y) for y in yaws])
    particles = weigh(particles, cloud, shape, scenario.disc, scenario.belief)

    t0 = time.time()
    fields = build_info_fields(particles, shape, workspace, scenario.belief.gamma, scenario.sensor, scenario.disc)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert workspace.counts[:2] == (81, 81)

    vals = fields.info.values.ravel()
    cut = vals.min() + 0.9 * (vals.max() - vals.min())
    hot = workspace.grid_points()[vals > cut]
    assert len(hot) > 0
    # annular band where handle material could sit, padded by the contact
    # tolerance and two grid cells
    handle_r = (0.05, math.hypot(0.07, 0.0075))
    pad = scenario.sensor.zeta + 2 * workspace.resolution
    radii = np.linalg.norm(hot[:, :2] - center[:2], axis=1)
    frac = float(np.mean((radii >= handle_r[0] - pad) & (radii <= handle_r[1] + pad)))
    assert frac >= 0.80
    _ok(f"C6 info ring: {frac:.0%} of top-decile nodes in handle band; build {elapsed*1000:.0f} ms")


# ---------------------------------------------------------------------------
# Criteria 7, 8, 10: end-to-end mug experiment
# ---------------------------------------------------------------------------


SEEDS = list(range(10))
EPISODE_METHODS = ("full", "info-only", "slide")


def _episode(args):
    method, seed = args
    scenario = Scenario.from_json(SCENARIO_PATH)
    return method, seed, run_episode(scenario, method, seed)


@pytest.fixture(scope="module")
def mug_batch():
    t0 = time.time()
    jobs = [(m, s) for m in EPISODE_METHODS for s in SEEDS]
    results = {m: {} for m in EPISODE_METHODS}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for method, seed, metrics in pool.map(_episode, jobs):
            results[method][seed] = metrics
    elapsed = time.time() - t0
    print(f"[mug batch] {len(jobs)} episodes in {elapsed/60:.1f} min "
          f"(expected < 15 min on desk hardware; this host: 2 cores)")
    return results


def test_c07_end_to_end_mug(mug_batch):
    full = [mug_batch["full"][s] for s in SEEDS]
    slide = [mug_batch["slide"][s] for s in SEEDS]
    info_only = [mug_batch["info-only"][s] for s in SEEDS]

    n_full = sum(m.success for m in full)
    n_slide = sum(m.success for m in slide)
    n_info = sum(m.success for m in info_only)

    med_final = float(np.median([m.final_nll for m in full]))
    med_initial = float(np.median([m.initial_nll for m in full]))

    assert n_full >= 7, f"full method succeeded only {n_full}/10"
    assert n_full >= n_slide
    assert n_full >= n_info
    assert med_final < 0.25 * med_initial
    _ok(
        f"C7 end-to-end: full {n_full}/10, slide {n_slide}/10, info-only {n_info}/10; "
        f"median final NLL {med_final:.1f} < 25% of initial {med_initial:.1f}"
    )


def test_c08_nll_chamfer_correlation(mug_batch):
    nlls, chams = [], []
    for method in EPISODE_METHODS:
        for s in SEEDS:
            for r in mug_batch[method][s].records:
                nlls.append(r.nll)
                chams.append(r.chamfer)
    r = export.pearson(nlls, chams)
    assert r is not None
    assert r > 0.5
    _ok(f"C8 pooled NLL/convergence correlation r = {r:.3f} over {len(nlls)} step records")


def test_c10_pushed_out_failure_mode(mug_batch):
    pushed_full = sum(m.pushed_out for m in (mug_batch["full"][s] for s in SEEDS))
    pushed_info = sum(m.pushed_out for m in (mug_batch["info-only"][s] for s in SEEDS))
    assert pushed_full < pushed_info, (
        f"expected strictly fewer pushed-out episodes for the full method "
        f"(full {pushed_full}, info-only {pushed_info})"
    )
    _ok(f"C10 pushed-out episodes: full {pushed_full} < info-only {pushed_info}")


# ---------------------------------------------------------------------------
# Criterion 9: determinism
# ---------------------------------------------------------------------------


def test_c09_deterministic_metrics(tmp_path):
    cfg = json.loads(SCENARIO_PATH.read_text())
    cfg["n_steps"] = 3
    cfg["planner"] = {
        "horizon": 6, "control_points": 3, "samples": 32, "rollouts": 2,
        "mini_steps": 2, "replan_interval": 2, "warm_start_iters": 2,
    }
    cfg["belief"]["n_particles"] = 24
    cfg["surface_samples"] = 120
    short = tmp_path / "short.json"
    short.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main([
            "run", "--scenario", str(short), "--method", "full",
            "--seeds", "0", "--out", str(out),
        ])
        assert rc == 0
        outs.append((out / "full_seed0.csv").read_bytes())
    assert outs[0] == outs[1]
    _ok("C9 repeated seeded episode produced byte-identical metrics CSV")
