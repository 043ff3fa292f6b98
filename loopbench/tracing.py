"""Spans and counts recorded around calls into the rummage layers.

Everything here wraps the package from the outside: module attributes and
class methods are replaced by wrappers for the duration of a traced run and
restored afterwards.  The program itself is not edited.

A span is ``[name, start_ns, end_ns, parent_index, episode]``.  Spans of one
episode share the episode index; the parent is the span that was open when
the call began, so spans nest exactly (one thread, synchronous calls) and a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import collections
import json
import time

import numpy as np

LAYERS = ("sim", "belief", "discrepancy", "semantics", "infogain", "planner")
ROOT = "sim.run_episode"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.episode = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(counts, args, result)`` records
        counts once the call has returned."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.episode]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def root(self, fn):
        """Wrap the episode entry point: every call opens a new episode."""
        traced = self.wrap(ROOT, fn)

        def episode(*args, **kwargs):
            self.episode += 1
            return traced(*args, **kwargs)

        return episode

    def counter(self, fn, before):
        """Wrap ``fn`` so that ``before(counts, args)`` runs on each call;
        no span (for calls too frequent or too small to time)."""
        counts = self.counts

        def counted(*args, **kwargs):
            before(counts, args)
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += (end - start - c) * 1e-9
        return dict(out)

    def root_wall(self) -> float:
        return sum(e - s for name, s, e, _, _ in self.spans if name == ROOT) * 1e-9

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "episode"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _n_points(points) -> int:
    return int(np.size(points)) // 3


class CountingShape:
    """Delegates to the scenario's shape and counts the points of every
    top-level ``sdf``/``gradient`` call (the shape's own recursion into its
    children goes to the real children and is not counted)."""

    def __init__(self, inner, counts):
        self.inner = inner
        self._counts = counts

    def sdf(self, points):
        self._counts["geometry.sdf.points"] += _n_points(points)
        return self.inner.sdf(points)

    def gradient(self, points):
        self._counts["geometry.gradient.points"] += _n_points(points)
        return self.inner.gradient(points)

    def bounding_box(self):
        return self.inner.bounding_box()

    @property
    def characteristic_length(self):
        return self.inner.characteristic_length


class Patches:
    """setattr with undo."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the layer boundaries the closed loop crosses.

    ``run_episode`` looks its collaborators up in ``rummage.sim``'s globals
    and ``update_step`` in ``rummage.belief``'s, so those names are patched
    where they are looked up."""
    from rummage import belief, geometry, planner, sim

    def span(owner, attr, name, after=None):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    def add(key, amount):
        def after(counts, args, result):
            counts[key] += amount(args, result)
        return after

    span(sim, "sample_surface", "sim.sample_surface")
    span(sim, "calibrate_nll_threshold", "sim.calibrate_nll_threshold")
    span(sim, "camera_observe", "sim.observe")
    span(sim, "tactile_observe", "sim.observe")
    span(sim, "world_step", "sim.world_step")
    span(sim, "slide_policy", "sim.slide_policy")
    span(sim, "pairwise_chamfer", "sim.pairwise_chamfer")
    span(sim, "nll", "sim.nll")
    span(sim, "voxel_downsample", "semantics.voxel_downsample")
    span(sim, "build_reachability", "infogain.build_reachability")
    span(
        sim, "build_info_fields", "infogain.build_info_fields",
        add("infogain.field_evals", lambda a, r: len(a[0]) * int(np.prod(a[2].counts))),
    )
    span(sim, "initialize_particles", "belief.initialize_particles")
    span(sim, "update_step", "belief.update_step", add("belief.updates", lambda a, r: 1))

    span(belief, "estimate_movement", "belief.estimate_movement")
    span(belief, "resample", "belief.resample", add("belief.resamples", lambda a, r: 1))
    span(belief, "weigh", "belief.weigh")
    span(belief, "refine_pose", "discrepancy.refine_pose", add("discrepancy.refine_pose.calls", lambda a, r: 1))
    span(belief, "discrepancies", "discrepancy.discrepancies")
    span(belief, "total_discrepancy", "discrepancy.total_discrepancy")

    def merged(counts, args, result):
        counts["semantics.merges"] += 1
        counts["semantics.merged_points"] += len(result)

    span(belief, "merge_observations", "semantics.merge_observations", merged)

    span(planner.Planner, "get_action", "planner.get_action")
    patches.set(
        planner.Planner, "replan",
        tracer.counter(planner.Planner.replan, lambda counts, a: counts.update(("planner.replans",))),
    )
    span(planner.ReachTable, "__init__", "planner.reach_table")
    span(planner.ReachTable, "reach_cost_batch", "planner.reach_table")
    span(
        planner.PlanningContext, "weighted_normals", "planner.weighted_normals",
        add("planner.weighted_normals.points", lambda a, r: len(a[1])),
    )
    span(planner, "batched_sweep_cost", "planner.batched_sweep_cost")

    make_rollout_cost = planner.make_rollout_cost

    def traced_make_rollout_cost(q0, ctx, robot, params, rng, workspace=None):
        cost_fn = make_rollout_cost(q0, ctx, robot, params, rng, workspace)
        return tracer.wrap(
            "planner.rollout_cost", cost_fn,
            add("planner.rollouts", lambda a, r: a[0].shape[0] * params.rollouts),
        )

    patches.set(planner, "make_rollout_cost", traced_make_rollout_cost)

    patches.set(
        geometry.ScalarField, "query",
        tracer.counter(
            geometry.ScalarField.query,
            lambda counts, a: counts.update({"geometry.field_query.points": _n_points(a[1])}),
        ),
    )
    build_shape = sim.Scenario.build_shape
    patches.set(sim.Scenario, "build_shape", lambda self: CountingShape(build_shape(self), tracer.counts))
