"""Independent references and output checks for the benchmark's commands.

The references rebuild each problem with NumPy alone: Gauss-Legendre rules
from ``numpy.polynomial.legendre``, orthonormal Legendre factors, the total
degree index set, and the Ishigami and Duffing targets written out again.
Only the dense least squares solve goes through ``kronlev.oracle``, which
is the package's own brute-force reference.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-10      # optimal error against the reference
VALUE_TOL = 1e-12    # masses (relative) and node coordinates (absolute) against the reference
ERROR_SLACK = 1e-9   # a sketch error may undercut the optimum by this share


@dataclass(frozen=True)
class Reference:
    """One problem rebuilt independently of the package."""

    nodes: tuple        # per dimension, (M_d,)
    weights: tuple      # per dimension, (M_d,) probability weights
    factors: tuple      # per dimension, (M_d, N_d): sqrt(w) * orthonormal Legendre
    q: tuple            # per dimension, Q of the thin QR of the factor
    alpha0: np.ndarray  # (N, D) 0-based multi-indices of the total-degree set

    @property
    def shape(self):
        return tuple(len(n) for n in self.nodes)


def total_degree_set(dimension: int, order: int) -> np.ndarray:
    """0-based multi-indices with entry sum at most ``order``."""
    out = [a for a in itertools.product(range(order + 1), repeat=dimension) if sum(a) <= order]
    return np.asarray(out, dtype=np.int64).reshape(-1, dimension)


def reference_problem(config: dict) -> Reference:
    """Rebuild grids, factors and index set of a benchmark config."""
    dimension = config["dimension"]
    spec = config["index_set"]
    if spec["family"] != "wlp-ball" or spec["p"] != 1.0 or set(spec.get("weights", [1.0])) != {1.0}:
        raise ValueError("the reference covers total-degree index sets only")
    if config["basis"] != {"kind": "legendre-orthonormal"}:
        raise ValueError("the reference covers orthonormal Legendre bases only")
    order = int(spec["order"])
    m = config["grid"]["M"]
    y, w = np.polynomial.legendre.leggauss(m)
    w = w / 2.0
    if config["grid"]["grid"] == "gauss-legendre-uniform":
        w = np.full(m, 1.0 / m)
    elif config["grid"]["grid"] != "gauss-legendre":
        raise ValueError("the reference covers Gauss-Legendre grids only")
    degrees = np.arange(order + 1)
    factor = np.sqrt(w)[:, None] * np.polynomial.legendre.legvander(y, order) * np.sqrt(2 * degrees + 1)
    q = np.linalg.qr(factor)[0]
    return Reference(
        (y,) * dimension, (w,) * dimension, (factor,) * dimension, (q,) * dimension,
        total_degree_set(dimension, order),
    )


def ishigami(y, a: float, b: float):
    s1 = np.sin(np.pi * y[0])
    return s1 + a * np.sin(np.pi * y[1]) ** 2 + b * (np.pi * y[2]) ** 4 * s1


def duffing(y, t_final: float, step: float):
    """u(t_final) of u'' + 2 w1 w2 u' + w1^2 (u + w3 u^3) = 0, u(0)=1, u'(0)=0, by RK4."""
    w1 = 2.0 * np.pi * (1.0 + 0.2 * y[0])
    w2 = 0.05 * (1.0 + 0.05 * y[1])
    w3 = -0.5 * (1.0 + 0.5 * y[2])
    c, k = 2.0 * w1 * w2, w1 * w1
    steps = int(round(t_final / step))
    h = t_final / steps

    def accel(u, v):
        return -c * v - k * (u + w3 * (u * u * u))

    u, v = np.ones_like(w1), np.zeros_like(w1)
    for _ in range(steps):
        a1 = accel(u, v)
        u2, v2 = u + 0.5 * h * v, v + 0.5 * h * a1
        a2 = accel(u2, v2)
        u3, v3 = u + 0.5 * h * v2, v + 0.5 * h * a2
        a3 = accel(u3, v3)
        u4, v4 = u + h * v3, v + h * a3
        a4 = accel(u4, v4)
        u = u + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return u


def weighted_target(ref: Reference, model: dict) -> np.ndarray:
    """sqrt(w_m) * f(y_m) over the full grid as a D-way tensor."""
    y = np.meshgrid(*ref.nodes, indexing="ij")
    if model["name"] == "ishigami":
        values = ishigami(y, model.get("a", 7.0), model.get("b", 0.1))
    elif model["name"] == "duffing":
        values = duffing(y, model.get("t_final", 4.0), model.get("step", 1e-3))
    else:
        raise ValueError(f"no reference for model {model['name']!r}")
    root_w = np.ones(())
    for w in ref.weights:
        root_w = np.multiply.outer(root_w, np.sqrt(w))
    return root_w * values


def qj_rows(ref: Reference, idx0: np.ndarray) -> np.ndarray:
    """Rows of Q_J = (kron Q^(d))[:, J] at grid points given by 0-based indices."""
    rows = np.ones((idx0.shape[0], ref.alpha0.shape[0]))
    for d, q in enumerate(ref.q):
        rows *= q[idx0[:, d]][:, ref.alpha0[:, d]]
    return rows


def structured_optimal(ref: Reference, b: np.ndarray) -> float:
    """Optimal relative error from c = Q_J^T b, by one mode product per dimension."""
    c = b
    for q in ref.q:
        c = np.tensordot(c, q, axes=([0], [0]))  # contracts the leading axis, appends N_d
    c_j = c[tuple(ref.alpha0.T)]
    b_sq = float(np.sum(b * b))
    return math.sqrt(max(b_sq - float(c_j @ c_j), 0.0) / b_sq)


def dense_optimal(ref: Reference, b: np.ndarray) -> float:
    """Optimal relative error from kronlev.oracle.solve_full on the reference system."""
    from kronlev import oracle

    total = b.size
    per_dim = np.unravel_index(np.arange(total), ref.shape)
    idx0 = np.column_stack(per_dim)
    matrix = np.ones((total, ref.alpha0.shape[0]))
    weights = np.ones(total)
    for d, factor in enumerate(ref.factors):
        matrix *= factor[idx0[:, d]][:, ref.alpha0[:, d]]
        weights *= ref.weights[d][idx0[:, d]]
    system = oracle.FullSystem(matrix, b.reshape(-1), weights, ref.shape)
    return oracle.solve_full(system).relative_error


def reference_optimal(ref: Reference, model: dict, dense_limit: int) -> float:
    b = weighted_target(ref, model)
    if b.size <= dense_limit:
        return dense_optimal(ref, b)
    return structured_optimal(ref, b)


def _matches(value: float, reference: float) -> bool:
    """Within REL_TOL relative of the reference; false if either is NaN."""
    return abs(value - reference) <= REL_TOL * abs(reference)


def check_experiment(report_path, stdout: str, expected_rows: int, n: int, k: int, optimal_ref: float):
    failures = []
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
        with open(report_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if len(rows) != expected_rows:
        failures.append(f"report has {len(rows)} rows, expected {expected_rows}")
    optimal = summary.get("optimal_relative_error")
    if not isinstance(optimal, float) or not math.isfinite(optimal):
        return failures + [f"optimal_relative_error {optimal!r} is not a finite number"]
    if not _matches(optimal, optimal_ref):
        failures.append(f"optimal error {optimal!r} differs from the reference {optimal_ref!r}")
    for row in rows:
        err = float(row["relative_error"])
        if not math.isfinite(err) or err < optimal * (1.0 - ERROR_SLACK):
            failures.append(f"{row['method']} trial {row['trial']}: error {err!r} below optimal")
        if float(row["optimal_relative_error"]) != optimal or int(row["N"]) != n or int(row["K"]) != k:
            failures.append(f"{row['method']} trial {row['trial']}: inconsistent columns")
    return failures


def check_solve(stdout: str, optimal_ref: float):
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    err, optimal = summary.get("relative_error"), summary.get("optimal_relative_error")
    if not all(isinstance(v, float) and math.isfinite(v) for v in (err, optimal)):
        return [f"relative errors {err!r}, {optimal!r} are not finite numbers"]
    failures = []
    if err < optimal * (1.0 - ERROR_SLACK):
        failures.append(f"error {err!r} below optimal {optimal!r}")
    if not _matches(optimal, optimal_ref):
        failures.append(f"optimal error {optimal!r} differs from the reference {optimal_ref!r}")
    return failures


def read_sample(path):
    """(0-based indices, coordinates, point mass, mu mass) of a sample CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = (data.shape[1] - 2) // 2
    return data[:, :d].astype(np.int64) - 1, data[:, d:2 * d], data[:, -2], data[:, -1]


def check_sample(ref: Reference, sample, count: int, rows=None):
    """Indices in range, coordinates and masses equal to the reference ones.

    Each comparison asks that every value lie within tolerance, so a NaN
    in the output fails it.
    """
    idx0, coords, point_mass, mu_mass = sample
    if idx0.shape[0] != count:
        return [f"sample has {idx0.shape[0]} rows, expected {count}"]
    if np.any(idx0 < 0) or np.any(idx0 >= np.asarray(ref.shape)):
        return ["sampled index outside the grid"]
    failures = []
    nodes = np.column_stack([ref.nodes[d][idx0[:, d]] for d in range(idx0.shape[1])])
    if not np.all(np.abs(coords - nodes) <= VALUE_TOL):
        failures.append("coordinates differ from the grid nodes")
    mu_ref = np.prod([ref.weights[d][idx0[:, d]] for d in range(idx0.shape[1])], axis=0)
    if not np.all(np.abs(mu_mass - mu_ref) <= VALUE_TOL * mu_ref):
        failures.append("mu_mass differs from the product of node weights")
    if rows is None:
        rows = qj_rows(ref, idx0)
    nu_ref = np.sum(rows * rows, axis=1) / rows.shape[1]
    if not np.all(np.abs(point_mass - nu_ref) <= VALUE_TOL * nu_ref):
        failures.append("point_mass differs from the leverage mixture of the factor QRs")
    return failures


def _product_peak(y):
    return 1.0 / (1.0 + (y - 0.25) ** 2)


def sketch_error_ratios(ref: Reference, sample, rows: np.ndarray, size: int) -> list:
    """Relative error over optimal of sketches carved from drawn points.

    Consecutive blocks of ``size`` drawn points form the sketches, each row
    scaled by 1/sqrt(size * point_mass) as in the package's solver.  The
    target is the separable product peak prod_d 1/(1 + (y_d - 1/4)^2): its
    c = Q_J^T b and ||b|| are products of per-dimension factors, so each
    sketch's exact full-grid error ||z - c||^2 + ||b||^2 - ||c||^2 costs
    O(N) after the solve, with no pass over the grid.
    """
    idx0, _, point_mass, _ = sample
    b_dims = [np.sqrt(w) * _product_peak(y) for y, w in zip(ref.nodes, ref.weights)]
    c = np.ones(ref.alpha0.shape[0])
    b_rows = np.ones(idx0.shape[0])
    for d, (q, b_d) in enumerate(zip(ref.q, b_dims)):
        c *= (q.T @ b_d)[ref.alpha0[:, d]]
        b_rows *= b_d[idx0[:, d]]
    b_sq = math.prod(float(b_d @ b_d) for b_d in b_dims)
    optimal_sq = b_sq - float(c @ c)
    ratios = []
    for start in range(0, idx0.shape[0] - size + 1, size):
        block = slice(start, start + size)
        scale = 1.0 / np.sqrt(size * point_mass[block])
        z = np.linalg.lstsq(scale[:, None] * rows[block], scale * b_rows[block], rcond=None)[0]
        gap = z - c
        ratios.append(math.sqrt((float(gap @ gap) + optimal_sq) / optimal_sq))
    return ratios
