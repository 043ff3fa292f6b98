"""Output checks made apart from the program.

The pose transform and the contact sensor model are written here again, in
a different form from the package's (matrix products instead of component
sums, one branch-free probability formula), and the episode metrics and the
information field are recomputed from them.  Only the shape's signed
distance is taken from the package.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float, what: str, rtol: float = RTOL) -> None:
    require(math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300),
            f"{what}: program {a!r} vs reference {b!r}")


def to_object(pose, points: np.ndarray) -> np.ndarray:
    """World-to-object map ``R x + t`` of a pose given as (R, t)."""
    R, t = pose
    return points @ R.T + t


def inverse(pose):
    R, t = pose
    return R.T, -(R.T @ t)


def sensor_probabilities(v: np.ndarray, alpha: float, zeta: float):
    """(p_free, p_occupied, p_surface): the surface probability decays with
    the distance beyond the contact band; the rest goes to the side of the
    surface the point lies on."""
    p_surf = np.exp(-alpha * np.maximum(np.abs(v) - zeta, 0.0))
    outside = v > 0
    return np.where(outside, 1.0 - p_surf, 0.0), np.where(outside, 0.0, 1.0 - p_surf), p_surf


def poses_of(particles) -> list:
    return [(T.rotation, T.translation) for T in particles.poses]


def nll(poses, weights, sdf, true_pose, samples, alpha, zeta) -> float:
    world = to_object(inverse(true_pose), samples)
    acc = np.zeros(len(samples))
    for pose, w in zip(poses, weights):
        acc += w * sensor_probabilities(sdf(to_object(pose, world)), alpha, zeta)[2]
    return float(-np.log(np.maximum(acc, 1e-12)).sum())


def pairwise_chamfer(poses, sdf, samples) -> float:
    everyone = np.concatenate([to_object(inverse(p), samples) for p in poses])
    total = sum(float(np.abs(sdf(to_object(p, everyone))).sum()) for p in poses)
    return total / (len(poses) ** 2 * len(samples))


def info_values(poses, weights, sdf, nodes, gamma, alpha, zeta, sigma_f, epsilon) -> np.ndarray:
    """gamma * sum over classes s of p(s) * E[c_s] at each node."""
    v = np.stack([sdf(to_object(p, nodes)) for p in poses])       # particles x nodes
    p_free, p_occ, p_surf = (weights @ p for p in sensor_probabilities(v, alpha, zeta))
    c_free = weights @ (sigma_f * np.maximum(epsilon - v, 0.0))
    c_occ = weights @ (sigma_f * np.maximum(epsilon + v, 0.0))
    c_surf = weights @ np.abs(v)
    return gamma * (p_free * c_free + p_occ * c_occ + p_surf * c_surf)


def check_weights(weights: np.ndarray, where: str) -> None:
    require(bool(np.all(np.isfinite(weights))) and bool(np.all(weights >= 0.0)),
            f"{where}: weights not finite and non-negative")
    close(float(weights.sum()), 1.0, f"{where}: weight sum", rtol=1e-9)


def check_records(metrics, n_steps: int, term_level: float, where: str) -> None:
    """Record numbering, finiteness and the termination rule: the loop stops
    after the first step whose chamfer falls below ``term_level``, or after
    ``n_steps`` steps."""
    recs = metrics.records
    require([r.step for r in recs] == list(range(len(recs))), f"{where}: record steps not 0..{len(recs) - 1}")
    require(all(math.isfinite(r.nll) and math.isfinite(r.chamfer) for r in recs), f"{where}: non-finite record")
    below = [r.step for r in recs[1:] if r.chamfer < term_level]
    if metrics.terminated_early:
        require(below == [recs[-1].step], f"{where}: early stop not at the first step below the chamfer level")
    else:
        require(not below and len(recs) == n_steps + 1,
                f"{where}: {len(recs)} records for {n_steps} steps without early stop")
    require(metrics.success == (metrics.min_nll <= metrics.nll_threshold), f"{where}: success flag")


def check_final(nll_args, nll_value: float, chamfer_value: float, where: str) -> None:
    """Recompute the last record's NLL and pairwise chamfer from the inputs
    of the program's last NLL evaluation."""
    particles, shape, true_pose, samples, sensor = nll_args
    sdf = shape.sdf
    poses = poses_of(particles)
    truth = (true_pose.rotation, true_pose.translation)
    close(nll_value, nll(poses, particles.weights, sdf, truth, samples, sensor.alpha, sensor.zeta), f"{where}: final nll")
    close(chamfer_value, pairwise_chamfer(poses, sdf, samples), f"{where}: final pairwise chamfer")


def check_info_field(info_call, rng: np.random.Generator, where: str, n_nodes: int = 6) -> None:
    """Spot-check ``build_info_fields`` at its largest node and at random
    nodes."""
    (particles, shape, workspace, gamma, sensor, disc), fields = info_call
    sdf = shape.sdf
    values = fields.info.values.ravel()
    nodes = workspace.grid_points()
    pick = np.concatenate([[int(np.argmax(values))], rng.choice(len(nodes), n_nodes - 1, replace=False)])
    ref = info_values(poses_of(particles), particles.weights, sdf, nodes[pick],
                      gamma, sensor.alpha, sensor.zeta, disc.sigma_f, disc.epsilon)
    for k, node in enumerate(pick):
        close(float(values[node]), float(ref[k]), f"{where}: info field at node {node}")
