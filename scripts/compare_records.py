#!/usr/bin/env python3
"""Compare the step records of two source trees on a benchmark workload.

Runs the seeded episodes of one ``loopbench`` workload (its scenario
overrides and episode plan) against two checkouts, each in its own
subprocess with ``PYTHONPATH`` set to that checkout's ``src/``, and diffs
every ``StepRecord`` field by ``repr``.  Exits 1 on any mismatch, so a
change meant to leave results bit-identical can be checked end to end:

    python scripts/compare_records.py --workload mug-mpc --seeds 0-4 --base ../parent

Each episode that differs gets a ``MISMATCH`` line naming its first
differing record.  When any differ, a ``DRIFT`` line per numeric field then
gives the size: how many compared records differ in it and their largest
relative difference.

``--before-contact`` compares only the records before the first one that
reports contact in the base run (for changes meant to alter the loop from
first contact on).  The workload definitions and the scenario file are
read from the checkout this script lives in, so both trees run the same
episodes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """Seeds of a comma list of seeds and ``lo-hi`` ranges, e.g. ``0-2,5``;
    an empty part, a negative seed or a reversed range is an error."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        if not (lo.isdecimal() and (hi.isdecimal() or not dash)):
            raise argparse.ArgumentTypeError(f"bad seed list {text!r}: {part!r} is not a seed or a range lo-hi")
        if dash and int(hi) < int(lo):
            raise argparse.ArgumentTypeError(f"bad seed list {text!r}: {part!r} is reversed")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def episode_spec(workload: str, seeds: list[int]) -> dict:
    """Scenario, method and (episode seed, steps) plan of a workload."""
    sys.path.insert(0, str(ROOT / "loopbench"))
    import run as loopbench

    wl = loopbench.WORKLOADS[workload]
    with open(ROOT / loopbench.SCENARIO) as fh:
        data = json.load(fh)
    for key, value in wl.overrides.items():
        data[key] = {**data.get(key, {}), **value} if isinstance(value, dict) else value
    plan = [ep for s in seeds for ep in loopbench.episode_plan(s, loopbench.ROUND_SECONDS)]
    return {"scenario": data, "method": wl.method, "plan": plan}


def emit(spec: dict) -> None:
    """Worker: run the episodes with the ``rummage`` on ``sys.path`` and
    print each one's records as field reprs."""
    from rummage import sim

    scenario = sim.Scenario.from_dict(spec["scenario"])
    names = [f.name for f in dataclasses.fields(sim.StepRecord)]
    out = []
    for seed, n_steps in spec["plan"]:
        m = sim.run_episode(scenario, spec["method"], seed, n_steps=n_steps)
        out.append({"seed": seed, "records": [{n: repr(getattr(r, n)) for n in names} for r in m.records]})
    print(json.dumps(out))


def run_tree(tree: Path, spec: dict) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **{v: "1" for v in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", json.dumps(spec)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"compare_records: episodes failed in {tree}")
    return json.loads(proc.stdout.splitlines()[-1])


def _compared(records: list[dict], before_contact: bool) -> list[dict]:
    """The base records of an episode that are compared."""
    if not before_contact:
        return records
    first = next((k for k, r in enumerate(records) if r["contact"] == "True"), len(records))
    return records[:first]


def compare(base: list[dict], head: list[dict], before_contact: bool) -> tuple[list[str], int]:
    """Mismatches (the first differing record of each episode) and the
    number of base records compared."""
    problems, compared = [], 0
    for b, h in zip(base, head):
        records = _compared(b["records"], before_contact)
        compared += len(records)
        if len(h["records"]) < len(records) or (not before_contact and len(h["records"]) != len(records)):
            problems.append(f"seed {b['seed']}: {len(records)} records in base, {len(h['records'])} in head")
            continue
        for rb, rh in zip(records, h["records"]):
            diff = [k for k in rb if rb[k] != rh[k]]
            if diff:
                problems.append(
                    f"seed {b['seed']} step {rb['step']}: " + ", ".join(f"{k} {rb[k]} != {rh[k]}" for k in diff)
                )
                break
    return problems, compared


def _numbers(text: str) -> list[float] | None:
    """The numbers of a field's ``repr`` (a number or a tuple of them), or
    None for a field that is not numeric."""
    try:
        return [float(part) for part in text.strip("()").split(",") if part.strip()]
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``, infinite where that is undefined."""
    scale = max(abs(a), abs(b))
    d = abs(a - b) / scale if scale > 0 else math.nan
    return d if d == d else math.inf


def drift(base: list[dict], head: list[dict], before_contact: bool) -> dict[str, tuple[int, float]]:
    """The size of a difference, per numeric field over every compared
    record (not only the first mismatch of an episode): the number of
    records whose values differ and the largest relative difference."""
    out: dict[str, tuple[int, float]] = {}
    for b, h in zip(base, head):
        for rb, rh in zip(_compared(b["records"], before_contact), h["records"]):
            for name, text in rb.items():
                x, y = _numbers(text), _numbers(rh[name])
                if x is None or y is None:
                    continue
                count, worst = out.get(name, (0, 0.0))
                if text != rh[name]:
                    count += 1
                    rel = [_relative(a, c) for a, c in zip(x, y) if a != c] if len(x) == len(y) else [math.inf]
                    worst = max([worst, *rel])
                out[name] = (count, worst)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--emit", help=argparse.SUPPRESS)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=parse_seeds, default="0", help="run seeds, e.g. 0-4 (episode seeds follow loopbench)")
    ap.add_argument("--base", type=Path, help="checkout to compare against")
    ap.add_argument("--head", type=Path, default=ROOT, help="checkout under test (default: this one)")
    ap.add_argument("--before-contact", action="store_true", help="compare only records before first contact")
    args = ap.parse_args(argv)
    if args.emit is not None:
        emit(json.loads(args.emit))
        return 0
    if args.workload is None or args.base is None:
        ap.error("--workload and --base are required")

    spec = episode_spec(args.workload, args.seeds)
    base, head = run_tree(args.base.resolve(), spec), run_tree(args.head.resolve(), spec)
    problems, compared = compare(base, head, args.before_contact)
    for p in problems:
        print(f"MISMATCH {p}")
    if problems:
        for name, (count, worst) in drift(base, head, args.before_contact).items():
            print(f"DRIFT {name}: {count} records differ, max relative difference {worst:.3g}")
    verdict = "differ" if problems else "bit-identical" if compared else "nothing compared"
    print(f"{args.workload}: {len(base)} episodes, {compared} records compared, {verdict}")
    return 1 if problems or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
