#!/usr/bin/env python3
"""Render the expected-information field of the mug's yaw ambiguity.

Builds the one-sided-view belief (uniform yaw at the observed center),
computes the information field over the planar workspace, and writes it as
CSV plus an SVG heat map showing the ring where the handle could hide.

Example:
    python scripts/render_info_field.py --out results/info_demo
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from rummage import export
from rummage.belief import ParticleSet, weigh
from rummage.geometry import Pose
from rummage.infogain import build_info_fields, build_reachability
from rummage.semantics import R_FREE, voxel_downsample
from rummage.sim import Scenario, World, camera_observe


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(Path(__file__).parent.parent / "scenarios" / "planar_mug.json"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--particles", type=int, default=100)
    ap.add_argument("--percentile", type=float, default=95.0)
    args = ap.parse_args(argv)

    scenario = Scenario.from_json(args.scenario)
    shape = scenario.build_shape()
    workspace = scenario.build_workspace()
    world = World(shape=shape, true_pose=scenario.true_pose(), q=np.asarray(scenario.robot_start, float))
    cloud = voxel_downsample(camera_observe(world, scenario.camera), R_FREE)

    center = cloud.surface.mean(axis=0) if len(cloud.surface) else np.asarray(scenario.prior_center)
    center[2] = scenario.true_center[2]
    yaws = np.linspace(-math.pi, math.pi, args.particles, endpoint=False)
    particles = ParticleSet.from_poses([Pose.from_placement(center, y) for y in yaws])
    particles = weigh(particles, cloud, shape, scenario.disc, scenario.belief)

    fields = build_info_fields(particles, shape, workspace, scenario.belief.gamma, scenario.sensor, scenario.disc)
    reach = build_reachability(workspace, scenario.reachability)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export.write_field_csv(fields.info, out / "info.csv")
    export.write_field_csv(fields.p_free, out / "p_free.csv")
    export.write_field_csv(reach, out / "reach.csv")
    export.field_to_svg(fields.info, out / "info.svg", percentile=args.percentile)
    export.field_to_svg(reach, out / "reach.svg", percentile=5.0)
    export.write_cloud_csv(cloud, out / "initial_observation.csv")
    print(f"wrote info field demo to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
