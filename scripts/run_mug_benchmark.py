#!/usr/bin/env python3
"""Run the planar mug benchmark: all four methods over a seed list.

Writes per-seed metrics, per-run outcomes, per-step aggregates, and a
pooled NLL/convergence correlation report under the output directory.

Example:
    python scripts/run_mug_benchmark.py --out results/mug --seeds 0-9 --jobs 2
"""

import argparse
import sys
from pathlib import Path

from rummage.cli import main as cli_main
from rummage.sim import METHODS


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(Path(__file__).parent.parent / "scenarios" / "planar_mug.json"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--steps", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--methods", nargs="+", default=list(METHODS), choices=METHODS)
    args = ap.parse_args(argv)

    out = Path(args.out)
    for method in args.methods:
        cmd = [
            "run", "--scenario", args.scenario, "--method", method,
            "--seeds", args.seeds, "--out", str(out), "--jobs", str(args.jobs),
        ]
        if args.steps is not None:
            cmd += ["--steps", str(args.steps)]
        rc = cli_main(cmd)
        if rc != 0:
            return rc

    metrics = sorted(str(p) for p in out.glob("*_seed*.csv") if "artifacts" not in p.parts)
    return cli_main(["correlate", "--inputs", *metrics, "--out", str(out / "correlation.csv")])


if __name__ == "__main__":
    sys.exit(run())
