#!/usr/bin/env python3
"""Alternating paired benchmark runs of this checkout against another.

Runs ``loopbench/run.py`` untraced on one seed (``--seed``, 0 by default),
once in each checkout per pair, the side that goes first alternating from
pair to pair, so the base's quartiles measure its run-to-run spread.  Then
prints, for every end-to-end metric of ``BENCHMARK.json``, how many pairs
this checkout won (ties count for neither side), each side's median, the
base's interquartile range and whether the speed-claim rule holds: at
least 10 pairs, at least nine tenths of them won, and the medians further
apart, in the better direction, than the base's quartiles:

    python scripts/paired_bench.py --workload mug-mpc --base ../parent --pairs 10 --seed 1

Exits 2 on bad arguments, 1 when a run fails or reports incorrect
outputs, and 0 otherwise (whether or not a claim holds).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced loopbench run in ``tree``: its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "loopbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """Per metric of ``metrics`` (``BENCHMARK.json`` entries: name and
    better direction) over ``(base, change)`` result pairs: wins of the
    change, both medians, the base's quartiles and the claim verdict."""
    rows = []
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        base = np.array([b["metrics"][name]["value"] for b, _ in pairs], dtype=np.float64)
        change = np.array([c["metrics"][name]["value"] for _, c in pairs], dtype=np.float64)
        wins = int(np.sum(sign * change < sign * base))
        q1, q3 = np.percentile(base, [25, 75])
        b_med, c_med = float(np.median(base)), float(np.median(change))
        gap = sign * (b_med - c_med)  # positive when the change is better
        claim = (
            len(pairs) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(pairs)) and gap > q3 - q1
        )
        rows.append({
            "name": name, "better": m["better"], "wins": wins, "pairs": len(pairs),
            "base_median": b_med, "change_median": c_med, "base_q1": float(q1), "base_q3": float(q3),
            "claim": bool(claim),
        })
    return rows


def table(rows: list[dict]) -> str:
    lines = [f"{'metric':<14} {'better':<7} {'wins':>6} {'base median':>12} {'change median':>14} {'base IQR':>21}  claim"]
    for r in rows:
        iqr = f"{r['base_q1']:.4g}-{r['base_q3']:.4g}"
        lines.append(
            f"{r['name']:<14} {r['better']:<7} {r['wins']:>3}/{r['pairs']:<2} {r['base_median']:>12.4g} "
            f"{r['change_median']:>14.4g} {iqr:>21}  {'yes' if r['claim'] else 'no'}"
        )
    return "\n".join(lines)


def at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is not at least {low}")
        return value

    parse.__name__ = "integer"  # argparse's name for a value int() rejects
    return parse


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--pairs", type=at_least(1), required=True, help="alternating pairs to run (at least 1)")
    ap.add_argument("--seed", type=at_least(0), default=0, help="loopbench seed of every run (default 0)")
    args = ap.parse_args(argv)
    base = args.base.resolve()
    if not (base / "loopbench" / "run.py").is_file():
        ap.error(f"{args.base} is not a checkout with loopbench/run.py")
    if base == ROOT:
        ap.error(f"{args.base} is this checkout")

    pairs = []
    for k in range(args.pairs):
        order = (ROOT, base) if k % 2 == 0 else (base, ROOT)
        results = {tree: run_once(tree, args.workload, args.seed, spec["run_seconds"]) for tree in order}
        b, c = results[base], results[ROOT]
        if not (b["correct"] and c["correct"]):
            print(f"paired_bench: pair {k + 1}: a run failed (base correct: {b['correct']}, change correct: {c['correct']})", file=sys.stderr)
            return 1
        pairs.append((b, c))
        print(f"pair {k + 1}: " + ", ".join(
            f"{m['name']} {b['metrics'][m['name']]['value']:.4g} -> {c['metrics'][m['name']]['value']:.4g}"
            for m in spec["end_to_end"]
        ), flush=True)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs, {ROOT} against {base}")
    print(table(summarize(spec["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
