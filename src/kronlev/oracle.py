"""Dense brute-force ground truth for desk-scale problems.

Everything here materializes the full design matrix and works on it
directly with standard dense factorizations, with no attention paid to
performance beyond simple size guards.  The point is to provide an
independent reference against which the structured paths (the sampler and
the full-grid reduction in :mod:`kronlev.sketch`) are checked: exact
leverage scores, the full least squares solution, the explicit
row-selection sketch operator, and the Gram-embedding and aliasing
diagnostics.  Only the tests and demo 02 use it: ``kronlev oracle`` reads
its leverage scores from J's record (``sketch.leverage_scores``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .factor import _RANK_RTOL, FactorMatrix
from .indexset import MultiIndexSet, _check_fit
from .sketch import Sketch, TargetFunction

__all__ = [
    "FullSystem",
    "FullSolution",
    "build_full",
    "exact_leverage",
    "solve_full",
    "flat_row_index",
    "gram_statistic",
    "aliasing_statistic",
]

MAX_DENSE_ROWS = 10**6


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
    _check_fit(index_set, [f.matrix.shape[1] for f in factors])
    shape = tuple(f.matrix.shape[0] for f in factors)
    total = math.prod(shape)
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


def exact_leverage(system: FullSystem) -> np.ndarray:
    """Normalized leverage scores of the full design matrix.

    Insists on full column rank (R diagonal above _RANK_RTOL of its largest entry).
    """
    q, r = np.linalg.qr(system.matrix)
    diag = np.abs(np.diag(r))
    if np.any(diag <= _RANK_RTOL * diag.max()):
        raise ValueError("design matrix is rank deficient")
    return (q**2).sum(axis=1) / q.shape[1]


def solve_full(system: FullSystem) -> FullSolution:
    """Dense minimum-norm least squares solve with the optimal relative error."""
    a, b = system.matrix, system.rhs
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=_RANK_RTOL)
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
    total = math.prod(system.grid_shape)
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
