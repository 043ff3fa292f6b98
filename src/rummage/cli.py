"""Command line experiment runner.

Subcommands:

- ``run``: seeded episodes of one method on a scenario, writing per-seed
  metrics CSVs, a per-run outcome table, and a per-step aggregate summary.
- ``export-field``: render a field CSV snapshot as an SVG heat map.
- ``correlate``: Pearson correlation between the NLL and convergence
  columns of metrics CSVs, per file and pooled.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import export
from .sim import METHODS, EpisodeArtifacts, Metrics, Scenario, run_episode


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"seed range {part!r} is reversed")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("no seeds given")
    if min(seeds) < 0:
        raise ValueError(f"seed {min(seeds)} is negative")
    return seeds


def _episode_job(args):
    scenario, method, seed, steps, want_artifacts = args
    artifacts = EpisodeArtifacts() if want_artifacts else None
    metrics = run_episode(scenario, method, seed, n_steps=steps, artifacts=artifacts)
    return seed, metrics, artifacts


def cmd_run(args) -> int:
    try:
        scenario = Scenario.from_json(args.scenario)
        seeds = _parse_seeds(args.seeds)
        if args.steps is not None and args.steps < 0:
            raise ValueError(f"--steps {args.steps} is negative")
        if args.jobs < 1:
            raise ValueError(f"--jobs {args.jobs} is below 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    want_artifacts = args.export_fields or args.export_particles or args.export_traces
    jobs = [(scenario, args.method, s, args.steps, want_artifacts) for s in seeds]
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_episode_job, jobs))
        else:
            results = [_episode_job(j) for j in jobs]
    except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2

    results.sort(key=lambda r: r[0])
    per_seed: list[Metrics] = []
    run_rows = []
    for seed, metrics, artifacts in results:
        per_seed.append(metrics)
        export.write_metrics_csv(metrics, out / f"{args.method}_seed{seed}.csv")
        run_rows.append(
            {
                "seed": seed,
                "steps": len(metrics.records) - 1,
                "success": metrics.success,
                "pushed_out": metrics.pushed_out,
                "terminated_early": metrics.terminated_early,
                "nll_threshold": metrics.nll_threshold,
                "min_nll": metrics.min_nll,
                "initial_nll": metrics.initial_nll,
                "final_nll": metrics.final_nll,
                "cumulative_nll": metrics.cumulative_nll,
            }
        )
        if artifacts is not None:
            adir = out / f"{args.method}_seed{seed}_artifacts"
            adir.mkdir(exist_ok=True)
            if args.export_fields:
                for t, fields, reach in artifacts.fields:
                    export.write_field_csv(fields.info, adir / f"info_step{t}.csv")
                    export.write_field_csv(fields.p_free, adir / f"p_free_step{t}.csv")
                    export.write_field_csv(reach, adir / f"reach_step{t}.csv")
            if args.export_particles:
                for t, particles in artifacts.particle_snapshots:
                    export.write_particles_csv(particles, adir / f"particles_step{t}.csv")
            if args.export_traces and artifacts.planner_trace:
                export.write_planner_trace_csv(artifacts.planner_trace, adir / "planner_trace.csv")

    export.write_runs_csv(run_rows, out / f"{args.method}_runs.csv")
    export.write_summary_csv(per_seed, out / f"{args.method}_summary.csv")
    successes = sum(r["success"] for r in run_rows)
    print(f"{args.method}: {successes}/{len(seeds)} successes, outputs in {out}")
    return 0


def cmd_export_field(args) -> int:
    try:
        fieldv = export.read_field_csv(args.snapshot)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        export.field_to_svg(fieldv, args.out, percentile=args.percentile, slice_z=args.slice_z)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def cmd_correlate(args) -> int:
    rows_out = []
    pooled_nll: list[float] = []
    pooled_chamfer: list[float] = []
    try:
        for path in args.inputs:
            rows = export.read_metrics_csv(path)
            nlls = [r["nll"] for r in rows]
            chams = [r["chamfer"] for r in rows]
            pooled_nll.extend(nlls)
            pooled_chamfer.extend(chams)
            r = export.pearson(nlls, chams)
            rows_out.append((str(path), "undefined" if r is None else repr(r)))
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    pooled = export.pearson(pooled_nll, pooled_chamfer)
    rows_out.append(("pooled", "undefined" if pooled is None else repr(pooled)))
    for name, val in rows_out:
        print(f"{name},{val}")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write("series,pearson_r\n")
                for name, val in rows_out:
                    fh.write(f"{name},{val}\n")
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rummage", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run seeded episodes of one method")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--method", choices=METHODS, default="full")
    run_p.add_argument("--seeds", default="0", help="comma list and/or ranges, e.g. 0,1,4-9")
    run_p.add_argument("--steps", type=int, default=None, help="override scenario step count")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    run_p.add_argument("--export-fields", action="store_true")
    run_p.add_argument("--export-particles", action="store_true")
    run_p.add_argument("--export-traces", action="store_true")
    run_p.set_defaults(func=cmd_run)

    exp_p = sub.add_parser("export-field", help="render a field CSV as an SVG heat map")
    exp_p.add_argument("--snapshot", required=True, help="field CSV written by run --export-fields")
    exp_p.add_argument("--out", required=True, help="output SVG path")
    exp_p.add_argument("--percentile", type=float, default=90.0)
    exp_p.add_argument("--slice-z", type=float, default=None)
    exp_p.set_defaults(func=cmd_export_field)

    cor_p = sub.add_parser("correlate", help="NLL vs convergence correlation report")
    cor_p.add_argument("--inputs", nargs="+", required=True, help="metrics CSV files")
    cor_p.add_argument("--out", default=None, help="optional report CSV path")
    cor_p.set_defaults(func=cmd_correlate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
