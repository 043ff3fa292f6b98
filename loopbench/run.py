"""Closed-loop rummaging benchmark.

Runs one workload of seeded episodes through ``rummage.sim.run_episode``,
checks every episode's outputs against computations made apart from the
program, and prints the metrics as one JSON object on the last line of
standard output:

    python3 loopbench/run.py --workload mug-mpc --seed 0 --seconds 30 --trace 0

Run it from the root of a rummage checkout (the package is imported from
``src/``).  ``--trace 1`` runs the same episodes twice, untraced and then
with spans and counts at the layer boundaries, writes the trace to
``loopbench/out/`` and prints the per-layer metrics; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCENARIO = Path("scenarios") / "planar_mug.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# A run is whole rounds; a round is SETUPS set-up-only episodes (no control
# step), then one closed-loop episode of STEPS control steps.  A round stands
# for ROUND_SECONDS of --seconds: sizes are fixed, not clocked, so runs with
# the same seed do the same work however fast the program is.
SETUPS = 2
STEPS = 7
ROUND_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    method: str
    overrides: dict


# Every control step of the full workloads replans: with the shipped
# interval of three, the share of replanning steps follows the step at which
# contact begins (a third before it, nearly all after), so the step-time
# median jumps between the queued-step and the replanning-step mode from
# seed to seed.
WORKLOADS = {
    "mug-mpc": Workload("full", {"planner": {"replan_interval": 1}}),
    "mug-slide-camera": Workload("slide", {"camera_every_step": True, "observe_movement_directly": False}),
    "mug-mpc-fine": Workload("full", {"workspace_resolution": 0.005, "planner": {"replan_interval": 1}}),
}


def episode_plan(seed: int, seconds: int) -> list[tuple[int, int]]:
    """(episode seed, control steps) for every episode of a run."""
    rounds = max(1, round(seconds / ROUND_SECONDS))
    steps = ([0] * SETUPS + [STEPS]) * rounds
    return [(seed * 1000 + k, n) for k, n in enumerate(steps)]


def load_scenario(sim, workload: Workload):
    with open(SCENARIO) as fh:
        data = json.load(fh)
    for key, value in workload.overrides.items():
        if isinstance(value, dict):
            data[key] = {**data.get(key, {}), **value}
        else:
            data[key] = value
    return sim.Scenario.from_dict(data)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    seed: int
    n_steps: int
    metrics: object = None
    start: float = 0.0
    end: float = 0.0
    marks: list = field(default_factory=list)      # end of each step's metrics record
    weights: list = field(default_factory=list)    # particle weights at every NLL evaluation
    nll_args: tuple | None = None                  # the last NLL evaluation's inputs
    info: tuple | None = None                      # (inputs, fields) of the first information field

    @property
    def setup_s(self) -> float:
        return self.marks[0] - self.start

    @property
    def step_times(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


class Probe:
    """What every run needs from inside an episode: the time each step's
    metrics record is complete, and the inputs of the NLL and
    information-field evaluations, kept for the output checks."""

    def __init__(self, sim, patches):
        self.episode = Episode(-1, 0)
        probe = self

        class ClockedStepRecord(sim.StepRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe.episode.marks.append(time.perf_counter())

        nll, build_info_fields = sim.nll, sim.build_info_fields

        def nll_probe(*args):
            probe.episode.nll_args = args
            probe.episode.weights.append(args[0].weights)
            return nll(*args)

        def info_probe(*args):
            fields = build_info_fields(*args)
            if probe.episode.info is None:
                probe.episode.info = (args, fields)
            return fields

        patches.set(sim, "StepRecord", ClockedStepRecord)
        patches.set(sim, "nll", nll_probe)
        patches.set(sim, "build_info_fields", info_probe)


def run_episodes(plan, scenario, method: str, probe: Probe, entry) -> tuple[list[Episode], int]:
    done, failed = [], 0
    for seed, n_steps in plan:
        probe.episode = ep = Episode(seed, n_steps)
        ep.start = time.perf_counter()
        try:
            ep.metrics = entry(scenario, method, seed, n_steps=n_steps)
        except Exception:
            traceback.print_exc()
            print(f"loopbench: episode seed {seed} failed", file=sys.stderr)
            failed += 1
            continue
        ep.end = time.perf_counter()
        done.append(ep)
    return done, failed


def check_episodes(episodes: list[Episode], scenario, method: str, seed: int) -> None:
    import numpy as np

    import checks

    term_level = scenario.termination_ratio * scenario.build_shape().characteristic_length
    rng = np.random.default_rng(seed)
    for ep in episodes:
        where = f"episode seed {ep.seed}"
        m = ep.metrics
        checks.check_records(m, ep.n_steps, term_level, where)
        checks.require(len(ep.marks) == len(m.records), f"{where}: {len(ep.marks)} step clocks for {len(m.records)} records")
        for w in ep.weights:
            checks.check_weights(w, where)
        checks.check_final(ep.nll_args, m.final_nll, m.records[-1].chamfer, where)
        if method != "slide" and ep.n_steps > 0:
            checks.require(ep.info is not None, f"{where}: no information field was built")
            checks.check_info_field(ep.info, rng, where)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(episodes: list[Episode], peak_rss_mb: float) -> dict:
    loops = [ep for ep in episodes if ep.n_steps > 0]
    steps = [t for ep in loops for t in ep.step_times]
    return {
        "steps_per_s": (len(steps) / sum(ep.end - ep.start for ep in loops), "1/s"),
        "step_p50_s": (statistics.median(steps), "s"),
        "setup_s": (statistics.median(ep.setup_s for ep in episodes), "s"),
        "initial_nll": (statistics.median(ep.metrics.initial_nll for ep in episodes), "nats"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


SPAN_METRICS = (
    "planner.get_action", "planner.rollout_cost", "planner.batched_sweep_cost", "planner.reach_table",
    "planner.weighted_normals", "infogain.build_info_fields", "sim.pairwise_chamfer", "sim.observe",
    "sim.world_step", "sim.nll", "belief.update_step", "belief.resample", "belief.estimate_movement",
    "belief.initialize_particles", "discrepancy.refine_pose", "discrepancy.discrepancies",
    "semantics.merge_observations",
)
COUNT_METRICS = (
    "planner.replans", "planner.rollouts", "planner.weighted_normals.points", "infogain.field_evals",
    "belief.resamples", "belief.updates", "discrepancy.refine_pose.calls",
    "geometry.sdf.points", "geometry.gradient.points", "geometry.field_query.points",
)


def per_layer(tracer, traced: list[Episode], untraced: list[Episode]) -> dict:
    from tracing import LAYERS, ROOT

    self_s = tracer.self_times()
    counts = tracer.counts
    wall = tracer.root_wall()
    out = {f"{name}.s": (self_s.get(name, 0.0), "s") for name in SPAN_METRICS}
    out.update({name: (counts[name], "count") for name in COUNT_METRICS})
    out["sim.steps"] = (sum(len(ep.step_times) for ep in traced), "count")
    updates, merges = counts["belief.updates"], counts["semantics.merges"]
    out["belief.resample_ratio"] = (counts["belief.resamples"] / updates if updates else 0.0, "ratio")
    out["semantics.cloud_points"] = (counts["semantics.merged_points"] / merges if merges else 0.0, "points")
    loops = [ep.metrics.cumulative_nll for ep in traced if ep.n_steps > 0]
    out["sim.cumulative_nll"] = (statistics.median(loops), "nats")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s for n, s in self_s.items() if n.split(".")[0] == layer and n != ROOT), "s")
    out["untraced_remainder_s"] = (self_s.get(ROOT, 0.0), "s")
    out["trace.wall_s"] = (wall, "s")
    # episode 0 of the untraced pass also pays the process's first calls
    out["trace.overhead_s"] = (
        sum((t.end - t.start) - (u.end - u.start) for t, u in zip(traced[1:], untraced[1:])), "s"
    )
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def layer_table(out: dict) -> str:
    from tracing import LAYERS

    wall = out["trace.wall_s"][0]
    rows = [(layer, out[f"{layer}.self_s"][0]) for layer in LAYERS]
    rows.append(("untraced remainder of run_episode", out["untraced_remainder_s"][0]))
    lines = [f"{'layer':36s} {'self s':>9s} {'share':>7s}"]
    lines += [f"{name:36s} {s:9.3f} {100 * s / wall:6.1f}%" for name, s in rows]
    lines.append(f"{'sum':36s} {sum(s for _, s in rows):9.3f}   traced episode wall time {wall:.3f} s")
    lines.append(f"tracing overhead (traced minus untraced wall time): {out['trace.overhead_s'][0]:+.3f} s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rummage" / "__init__.py").is_file() or not (root / SCENARIO).is_file():
        print(f"loopbench: {root} is not a rummage checkout (src/rummage or {SCENARIO} missing)", file=sys.stderr)
        return 2
    # one thread per native pool: the loop is sequential, and the pools
    # would otherwise size themselves to the host's cores
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    from rummage import sim

    import checks
    from tracing import Patches, Tracer, instrument

    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    scenario = load_scenario(sim, workload)
    plan = episode_plan(args.seed, args.seconds)

    patches = Patches()
    try:
        probe = Probe(sim, patches)
        episodes, failed = run_episodes(plan, scenario, workload.method, probe, sim.run_episode)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            instrument(tracer, patches)
            traced, _ = run_episodes(plan, scenario, workload.method, probe, tracer.root(sim.run_episode))
    finally:
        patches.restore()

    correct = True
    try:
        checks.require(any(ep.n_steps > 0 for ep in episodes), "no closed-loop episode completed")
        check_episodes(episodes, scenario, workload.method, args.seed)
        if args.trace:
            checks.require(
                [ep.metrics.records for ep in traced] == [ep.metrics.records for ep in episodes],
                "traced episodes differ from untraced ones",
            )
    except checks.CheckFailed as exc:
        print(f"loopbench: CHECK FAILED: {exc}", file=sys.stderr)
        correct = False

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    metrics = {}
    if correct:
        if args.trace:
            metrics = per_layer(tracer, traced, episodes)
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            print(layer_table(metrics), file=sys.stderr)
        else:
            metrics = end_to_end(episodes, peak_rss_mb)
        if sorted(metrics) != sorted(names):
            print(f"loopbench: metrics {sorted(metrics)} differ from BENCHMARK.json {kind} {sorted(names)}", file=sys.stderr)
            correct = False
    result = {
        "correct": correct,
        "attempted": len(plan),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
