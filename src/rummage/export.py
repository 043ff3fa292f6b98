"""CSV and SVG serialization for fields, clouds, particles, and metrics.

All floats are written with ``repr`` (shortest round-trip form), so outputs
are byte-identical across runs of the same configuration.
"""

from __future__ import annotations

import csv
import math
import io

import numpy as np

from .geometry import ParticleSet, ScalarField
from .semantics import SemanticCloud, Semantics
from .sim import Metrics


def _fmt(x) -> str:
    return repr(float(x))


def write_field_csv(field: ScalarField, path) -> None:
    pts = field.node_positions()
    vals = field.values.ravel()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "z", "value"])
        for p, v in zip(pts, vals):
            w.writerow([_fmt(p[0]), _fmt(p[1]), _fmt(p[2]), _fmt(v)])


def read_field_csv(path) -> ScalarField:
    """Field written by :func:`write_field_csv`: one row per node of a dense
    grid with one spacing on every axis (up to a relative 1e-9 per step),
    in node order, x outer and z inner."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in ("x", "y", "z", "value") if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"field CSV has no column {', '.join(map(repr, missing))}")
    if not rows:
        raise ValueError("field CSV has no rows")
    pts = np.array([[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows])
    vals = np.array([float(r["value"]) for r in rows])
    axes = [np.unique(pts[:, i]) for i in range(3)]
    dims = tuple(len(a) for a in axes)
    if np.prod(dims) != len(rows):
        raise ValueError("field CSV is not a dense regular grid")
    diffs = np.concatenate([np.diff(a) for a in axes if len(a) > 1])
    res = float(diffs[0]) if len(diffs) else 1.0
    if np.any(np.abs(diffs - res) > 1e-9 * res):
        raise ValueError(f"field CSV grid spacing is not uniform: steps from {diffs.min()!r} to {diffs.max()!r}")
    node = np.ravel_multi_index([np.searchsorted(a, pts[:, i]) for i, a in enumerate(axes)], dims)
    if np.any(node != np.arange(len(rows))):
        raise ValueError("field CSV rows are not in node order (x outer, z inner)")
    origin = np.array([a[0] for a in axes])
    return ScalarField(origin=origin, resolution=res, values=vals.reshape(dims))


def _color_ramp(t: float) -> str:
    """Dark blue through teal to yellow."""
    t = min(1.0, max(0.0, t))
    r = int(255 * min(1.0, 2.0 * t))
    g = int(255 * (0.2 + 0.8 * t))
    b = int(255 * max(0.0, 1.0 - 1.6 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def field_to_svg(field: ScalarField, path, percentile: float = 90.0, slice_z: float | None = None) -> None:
    """Planar heat map of a field slice; cells at or below the percentile
    cutoff are left as background so only the most informative region shows."""
    nx, ny, nz = field.dims
    if nz > 1:
        if slice_z is None:
            raise ValueError("3D field requires a slice height")
        k = int(round((slice_z - field.origin[2]) / field.resolution))
        if not 0 <= k < nz:
            raise ValueError("slice height outside the field")
        plane = field.values[:, :, k]
    else:
        plane = field.values[:, :, 0]

    vals = plane.ravel()
    cutoff = float(np.percentile(vals, percentile))
    vmax = float(vals.max())
    vmin = float(vals.min())
    span = vmax - cutoff if vmax > cutoff else 1.0

    cell = 6
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{nx * cell}" height="{ny * cell}" '
        f'viewBox="0 0 {nx * cell} {ny * cell}">\n'
    )
    buf.write(f'<rect width="100%" height="100%" fill="#f2f2f2"/>\n')
    for ix in range(nx):
        for iy in range(ny):
            v = plane[ix, iy]
            if v <= cutoff or vmax <= vmin:
                continue
            color = _color_ramp((v - cutoff) / span)
            y_img = (ny - 1 - iy) * cell
            buf.write(f'<rect x="{ix * cell}" y="{y_img}" width="{cell}" height="{cell}" fill="{color}"/>\n')
    buf.write("</svg>\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def write_cloud_csv(cloud: SemanticCloud, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "z", "semantics"])
        for p, lab in zip(cloud.positions, cloud.labels):
            w.writerow([_fmt(p[0]), _fmt(p[1]), _fmt(p[2]), Semantics(int(lab)).name])


def particles_to_rows(particles: ParticleSet) -> list[dict]:
    """Serializable rows (translation + quaternion + weight) for logging.
    The quaternion of ``Rz(yaw)`` is ``(cos(yaw/2), 0, 0, sin(yaw/2))`` with
    the yaw wrapped to (-pi, pi], so ``qw >= 0``."""
    names = ("tx", "ty", "tz", "qw", "qx", "qy", "qz", "weight")
    rows = []
    for t, yaw, w in zip(particles.translations, particles.yaws.tolist(), particles.weights):
        wrapped = math.remainder(yaw, 2.0 * math.pi)
        half = (math.pi if wrapped == -math.pi else wrapped) / 2.0
        rows.append(dict(zip(names, (*t, math.cos(half), 0.0, 0.0, math.sin(half), float(w)))))
    return rows


def write_particles_csv(particles: ParticleSet, path) -> None:
    rows = particles_to_rows(particles)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        cols = ["tx", "ty", "tz", "qw", "qx", "qy", "qz", "weight"]
        w.writerow(cols)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in cols])


METRICS_COLUMNS = ["step", "nll", "chamfer", "contact", "ax", "ay", "ayaw", "reach_true"]


def write_metrics_csv(metrics: Metrics, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_COLUMNS)
        for r in metrics.records:
            w.writerow(
                [
                    r.step,
                    _fmt(r.nll),
                    _fmt(r.chamfer),
                    int(r.contact),
                    _fmt(r.action[0]),
                    _fmt(r.action[1]),
                    _fmt(r.action[2]),
                    _fmt(r.reach_true),
                ]
            )


def read_metrics_csv(path) -> list[dict]:
    """Step records written by :func:`write_metrics_csv`.  A missing column,
    a row without a value in a column or a value that is not a number is a
    ``ValueError`` naming the file, and the line and column of the value."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in METRICS_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"metrics CSV {path} has no column {', '.join(map(repr, missing))}")

        def cell(row, column, kind=float):
            value = row[column]
            where = f"metrics CSV {path} line {reader.line_num}"
            if value is None:
                raise ValueError(f"{where} has no value in column {column!r}")
            try:
                return kind(value)
            except ValueError:
                raise ValueError(f"{where}, column {column!r}: {value!r} is not a number") from None

        return [
            {
                "step": cell(r, "step", int),
                "nll": cell(r, "nll"),
                "chamfer": cell(r, "chamfer"),
                "contact": bool(cell(r, "contact", int)),
                "action": (cell(r, "ax"), cell(r, "ay"), cell(r, "ayaw")),
                "reach_true": cell(r, "reach_true"),
            }
            for r in reader
        ]


def write_planner_trace_csv(trace: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "sample", "cost", "chosen_ax", "chosen_ay", "chosen_ayaw"])
        for entry in trace:
            it = entry["iteration"]
            act = entry["chosen_action"]
            for s, c in enumerate(entry["costs"]):
                w.writerow([it, s, _fmt(c), _fmt(act[0]), _fmt(act[1]), _fmt(act[2])])


def write_runs_csv(rows: list[dict], path) -> None:
    cols = [
        "seed", "steps", "success", "pushed_out", "terminated_early",
        "nll_threshold", "min_nll", "initial_nll", "final_nll", "cumulative_nll",
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in rows:
            w.writerow(
                [
                    r["seed"], r["steps"], int(r["success"]), int(r["pushed_out"]), int(r["terminated_early"]),
                    _fmt(r["nll_threshold"]), _fmt(r["min_nll"]), _fmt(r["initial_nll"]),
                    _fmt(r["final_nll"]), _fmt(r["cumulative_nll"]),
                ]
            )


def write_summary_csv(per_seed_metrics: list[Metrics], path) -> None:
    """Per-step aggregate over seeds: median and quartiles of NLL and the
    convergence statistic, counting only seeds still running at each step."""
    max_len = max(len(m.records) for m in per_seed_metrics)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["step", "n_runs", "nll_median", "nll_p25", "nll_p75", "chamfer_median", "chamfer_p25", "chamfer_p75"]
        )
        for t in range(max_len):
            nlls = [m.records[t].nll for m in per_seed_metrics if len(m.records) > t]
            chams = [m.records[t].chamfer for m in per_seed_metrics if len(m.records) > t]
            w.writerow(
                [
                    t,
                    len(nlls),
                    _fmt(np.median(nlls)), _fmt(np.percentile(nlls, 25)), _fmt(np.percentile(nlls, 75)),
                    _fmt(np.median(chams)), _fmt(np.percentile(chams, 25)), _fmt(np.percentile(chams, 75)),
                ]
            )


def pearson(x, y) -> float | None:
    """Pearson correlation; None when either series is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))
