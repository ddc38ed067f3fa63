"""Dense brute-force ground truth for desk-scale problems.

Everything here materializes the full design matrix and works on it
directly with standard dense factorizations, with no attention paid to
performance beyond simple size guards.  The point is to provide an
independent reference against which the structured paths (the sampler and
the full-grid reduction in :mod:`kronlev.sketch`) are checked: exact
leverage scores, the full least squares solution, the explicit
row-selection sketch operator, and the Gram-embedding and aliasing
diagnostics.  Outside the tests, only ``kronlev oracle`` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .factor import FactorMatrix
from .indexset import MultiIndexSet
from .sketch import Sketch, TargetFunction

__all__ = [
    "FullSystem",
    "FullSolution",
    "build_full",
    "exact_leverage",
    "solve_full",
    "flat_row_index",
    "sketch_operator",
    "gram_statistic",
    "aliasing_statistic",
]

MAX_DENSE_ROWS = 10**6
_VB_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FullSystem:
    """Dense weighted design matrix, right-hand side, and row weights.

    Rows are ordered lexicographically over the grid with dimension 1
    varying slowest, the same convention used for Kronecker column
    numbering.
    """

    matrix: np.ndarray       # (M, N)
    rhs: np.ndarray          # (M,) sqrt(w_m) * b(y_m)
    row_weights: np.ndarray  # (M,) product measure masses w_m
    grid_shape: tuple[int, ...]


@dataclass(frozen=True)
class FullSolution:
    x: np.ndarray
    relative_error: float
    rank_deficient: bool


def build_full(
    index_set: MultiIndexSet,
    factors: Sequence[FactorMatrix],
    target: Optional[TargetFunction] = None,
    *,
    b_values: Optional[np.ndarray] = None,
) -> FullSystem:
    """Materialize the column subset of the Kronecker product matrix.

    ``b_values`` may supply precomputed function values on the grid in
    lexicographic order, otherwise ``target`` is evaluated everywhere.
    """
    shape = tuple(f.matrix.shape[0] for f in factors)
    total = int(np.prod(shape))
    if total > MAX_DENSE_ROWS:
        raise ValueError(f"full grid has {total} rows, beyond the dense guard {MAX_DENSE_ROWS}")
    per_dim = np.unravel_index(np.arange(total), shape)
    cols = np.asarray(index_set.indices, dtype=np.int64) - 1
    matrix = np.ones((total, len(index_set)))
    weights = np.ones(total)
    for d, f in enumerate(factors):
        matrix *= f.matrix[per_dim[d]][:, cols[:, d]]
        weights *= f.grid.weights[per_dim[d]]
    if b_values is not None:
        values = np.asarray(b_values, dtype=float)
        if values.shape != (total,):
            raise ValueError("b_values must hold one value per grid row")
    elif target is not None:
        coords = np.column_stack([f.grid.nodes[per_dim[d]] for d, f in enumerate(factors)])
        values = target(coords)
    else:
        raise ValueError("provide target or b_values")
    return FullSystem(matrix, np.sqrt(weights) * values, weights, shape)


def _orthonormal_range(matrix: np.ndarray):
    q, r = np.linalg.qr(matrix)
    diag = np.abs(np.diag(r))
    return q, diag, diag.max()


def exact_leverage(
    system: FullSystem,
    mode: str = "plain",
    b: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalized leverage scores of the full matrix (or its b-augmented span).

    ``plain`` uses the design matrix alone and insists on full column rank.
    ``vb-augmented`` appends the right-hand side (default: the system's own)
    as an extra column; if that column lies in the range of the matrix up to
    a 1e-10 diagonal tolerance, the rank and scores fall back to plain.
    """
    if mode == "plain":
        q, diag, top = _orthonormal_range(system.matrix)
        if np.any(diag <= 1e-12 * top):
            raise ValueError("design matrix is rank deficient")
        return (q**2).sum(axis=1) / q.shape[1]
    if mode != "vb-augmented":
        raise ValueError("mode must be 'plain' or 'vb-augmented'")
    rhs = system.rhs if b is None else np.asarray(b, dtype=float)
    augmented = np.column_stack([system.matrix, rhs])
    q, diag, top = _orthonormal_range(augmented)
    rank = q.shape[1] if diag[-1] > _VB_RANK_TOL * top else q.shape[1] - 1
    u = q[:, :rank]
    return (u**2).sum(axis=1) / rank


def solve_full(system: FullSystem) -> FullSolution:
    """Dense minimum-norm least squares solve with the optimal relative error."""
    a, b = system.matrix, system.rhs
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    error = float(np.linalg.norm(a @ x - b) / np.linalg.norm(b))
    return FullSolution(x, error, rank < a.shape[1])


def flat_row_index(indices0: np.ndarray, grid_shape: Sequence[int]) -> np.ndarray:
    """Lexicographic row ids (0-based) of grid points given as index rows."""
    idx0 = np.asarray(indices0, dtype=np.int64)
    return np.ravel_multi_index(tuple(idx0.T), tuple(grid_shape))


def sketch_operator(sketch: Sketch, system: FullSystem) -> np.ndarray:
    """The explicit K x M row-selection operator S with S A = A-tilde.

    Row k holds sqrt(v_k / w_{m_k}) at the sampled row's position, so that
    applying S to the weighted design matrix reproduces the assembled
    sketched system exactly.
    """
    rows = flat_row_index(sketch.indices0, system.grid_shape)
    total = int(np.prod(system.grid_shape))
    s = np.zeros((sketch.size, total))
    scale = np.sqrt(sketch.weights / system.row_weights[rows])
    s[np.arange(sketch.size), rows] = scale
    return s


def gram_statistic(u_basis: np.ndarray, system: FullSystem, sketch: Sketch) -> float:
    """Spectral norm of (G_tau - I) for an orthonormal range basis.

    ``u_basis`` must have Euclidean-orthonormal columns spanning the range
    of the weighted design matrix; the tau inner products divide out the
    row weights so they act on the underlying functions.
    """
    rows = flat_row_index(sketch.indices0, system.grid_shape)
    scale = sketch.weights / system.row_weights[rows]
    u_rows = u_basis[rows]
    gram = u_rows.T @ (scale[:, None] * u_rows)
    gram -= np.eye(gram.shape[0])
    return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def aliasing_statistic(
    u_basis: np.ndarray,
    system: FullSystem,
    residual: np.ndarray,
    sketch: Sketch,
) -> float:
    """Squared tau-projection of the orthogonal residual onto the basis.

    ``residual`` is the weighted full residual vector b - A x*; its
    tau-inner products with each basis column are squared and summed.
    """
    rows = flat_row_index(sketch.indices0, system.grid_shape)
    scale = sketch.weights / system.row_weights[rows]
    coeffs = (scale * residual[rows]) @ u_basis[rows]
    return float(np.dot(coeffs, coeffs))
