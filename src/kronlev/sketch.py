"""Sketched least squares trials and the full-grid reduction they are judged by.

A sketch is K iid grid points drawn from a sampling method, each carrying
the unbiasing weight v_k = (1/K) * mu(Y_k) / nu(Y_k).  The full problem is
reduced once by the per-dimension QR factors, and ``trial_error`` solves a
sketch from products of their Q entries, with no basis evaluation and no
pass over the grid; ``assemble`` builds the sketch from basis values and is
the reference it is tested against.  Sample-size lower bounds from the
residual guarantees are provided as a calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg import solve_triangular

from .factor import FactorMatrix, factor_qr
from .grid_basis import BasisSpec, Grid1D, eval_basis_matrix
from .indexset import MultiIndexSet
from .sampler import SamplerMethod, mu_mass_many, point_mass_many, sample_indices

__all__ = [
    "TargetFunction",
    "Sketch",
    "SketchedSystem",
    "Solution",
    "FullGridReduction",
    "draw_sketch",
    "assemble",
    "solve",
    "reduce_full_grid",
    "full_relative_error",
    "trial_error",
    "sample_size",
]

SAMPLE_SIZE_BOUNDS = ("instance-Vb", "instance-V", "expectation", "truncation", "embedding")

_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class TargetFunction:
    """Deterministic map from grid-point coordinates to data values.

    ``fn`` must accept an (n, D) coordinate array and return n values; the
    same input must always produce the same output.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return np.asarray(self.fn(coords), dtype=float).reshape(coords.shape[0])


@dataclass(frozen=True)
class Sketch:
    """K sampled grid points with their unbiasing weights."""

    indices0: np.ndarray  # (K, D) 0-based node indices
    coords: np.ndarray    # (K, D) resolved coordinates
    weights: np.ndarray   # (K,) v_k, all finite and > 0

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SketchedSystem:
    """The sqrt(v_k)-scaled design matrix and right-hand side."""

    matrix: np.ndarray  # (K, N)
    rhs: np.ndarray     # (K,)


@dataclass(frozen=True)
class Solution:
    """Least squares solution of a sketched system."""

    x: np.ndarray
    rank_deficient: bool


def draw_sketch(
    method: SamplerMethod,
    count: int,
    seed: Union[int, np.random.Generator, None],
) -> Sketch:
    """Draw K iid points from the method and attach unbiasing weights."""
    if count < 1:
        raise ValueError("sketch size must be >= 1")
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    idx0 = sample_indices(method, rng, count)
    mass = point_mass_many(method, idx0)
    if np.any(mass <= 0.0):
        # a sampled point always has positive mass under its own law
        raise RuntimeError("sampled a grid point with zero point mass (internal fault)")
    weights = mu_mass_many(method.grids, idx0) / mass / count
    coords = np.column_stack([g.nodes[idx0[:, d]] for d, g in enumerate(method.grids)])
    return Sketch(idx0, coords, weights)


def assemble(
    index_set: MultiIndexSet,
    bases: Sequence[BasisSpec],
    sketch: Sketch,
    target: TargetFunction,
) -> SketchedSystem:
    """Evaluate sqrt(v_k) * a_alpha(Y_k) and sqrt(v_k) * b(Y_k).

    The multivariate basis value is the product over dimensions of the
    univariate basis functions picked by each multi-index; the sqrt(w_m)
    row weighting of the full problem lives inside v_k, not here.
    """
    if len(bases) != index_set.dimension:
        raise ValueError("one basis spec per dimension is required")
    root_v = np.sqrt(sketch.weights)
    cols = np.asarray(index_set.indices, dtype=np.int64) - 1
    mat = np.ones((sketch.size, len(index_set)))
    for d, basis in enumerate(bases):
        values = eval_basis_matrix(basis, sketch.coords[:, d])
        mat *= values[:, cols[:, d]]
    mat *= root_v[:, None]
    rhs = root_v * target(sketch.coords)
    return SketchedSystem(mat, rhs)


def solve(system: SketchedSystem) -> Solution:
    """QR-based least squares; rank-deficient sketches get the minimum-norm solution.

    Only R of [A, b] is formed: its last column holds Q^T b.  Rank
    deficiency (R diagonal below 1e-12 of its largest entry, or fewer rows
    than columns) is a flagged outcome, not an error.
    """
    a, b = system.matrix, system.rhs
    k, n = a.shape
    deficient = k < n
    if not deficient:
        r = np.linalg.qr(np.column_stack([a, b]), mode="r")
        diag = np.abs(np.diag(r[:n, :n]))
        deficient = bool(np.any(diag <= _RANK_RTOL * diag.max())) if diag.size else True
        if not deficient:
            x = solve_triangular(r[:n, :n], r[:n, n])
    if deficient:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    return Solution(x, deficient)


@dataclass(frozen=True)
class FullGridReduction:
    """The full-grid least squares problem reduced through per-dimension QR.

    With A^(d) = Q^(d) R^(d) and L the downward closure of the index set J
    (L = J when J is monotone lower), the weighted design matrix factors as
    A = Q_L R_{L,J}, where Q_L = (kron Q^(d))[:, L] has orthonormal columns.
    With c = Q_L^T b and r = b - Q_L c, every x has
    ||A x - b||^2 = ||R_{L,J} x - c||^2 + ||r||^2.
    """

    q: tuple[np.ndarray, ...]  # Q^(d)[:, :box_d], (M_d, box_d) per dimension
    lower: np.ndarray     # (|L|, D) 0-based rows of L, J's members first
    r_lj: np.ndarray      # (|L|, N) Hadamard product of per-dimension R blocks
    basis: np.ndarray     # (|L|, N) U, orthonormal basis of range(R_{L,J}); I for lower J
    grids: tuple[Grid1D, ...]
    b: np.ndarray         # (M_1, ..., M_D) sqrt(w) * target over the grid
    c: np.ndarray         # (|L|,)
    residual_sq: float    # ||r||^2, from r computed explicitly
    b_sq: float           # ||b||^2
    optimal_error: float  # min over x of ||A x - b|| / ||b||


def reduce_full_grid(
    index_set: MultiIndexSet,
    factors: Sequence[FactorMatrix],
    b_values: np.ndarray,
) -> FullGridReduction:
    """Reduce the full weighted problem by D mode products each way.

    ``b_values`` holds the target on the full grid in lexicographic order
    (dimension 1 slowest).  The cost is O(M^D max N_d), with no M-row
    matrix; a factor that ``factor_qr`` rejects as rank deficient raises.
    """
    members = set(index_set.indices)
    closure = {beta for alpha in members for beta in product(*(range(1, a + 1) for a in alpha))}
    lower = np.asarray(list(index_set.indices) + sorted(closure - members)) - 1
    cols, box = lower[: len(index_set)], index_set.bounding_box
    qs, r_lj, root_w = [], np.ones((len(lower), len(cols))), np.ones(())
    for d, f in enumerate(factors):
        decomposition = factor_qr(f)
        qs.append(decomposition.q[:, : box[d]])
        r_lj *= decomposition.r[np.ix_(lower[:, d], cols[:, d])]
        root_w = np.multiply.outer(root_w, np.sqrt(f.grid.weights))
    b = root_w * np.asarray(b_values, dtype=float).reshape(root_w.shape)
    coeffs = b
    for q in qs:
        coeffs = np.tensordot(coeffs, q, axes=([0], [0]))  # contracts M_d, appends N_d
    c = coeffs[tuple(lower.T)]
    projected = np.zeros(box)
    projected[tuple(lower.T)] = c
    for q in qs:
        projected = np.tensordot(projected, q, axes=([0], [1]))  # contracts N_d, appends M_d
    r = b - projected
    # the part of c outside range(R_{L,J}): exactly zero when J is lower, as
    # Householder QR leaves the square triangular R_{J,J} as it is
    basis = np.linalg.qr(r_lj)[0]
    gap = c - basis @ (basis.T @ c)
    b_sq, residual_sq = float(np.vdot(b, b)), float(np.vdot(r, r))
    optimal = math.sqrt((residual_sq + float(gap @ gap)) / b_sq)
    grids = tuple(f.grid for f in factors)
    return FullGridReduction(tuple(qs), lower, r_lj, basis, grids, b, c, residual_sq, b_sq, optimal)


def _relative_error(reduction: FullGridReduction, fit: np.ndarray) -> float:
    """||Q_L fit - b|| / ||b|| for coordinates ``fit`` in the columns of Q_L."""
    gap = fit - reduction.c
    return math.sqrt((float(gap @ gap) + reduction.residual_sq) / reduction.b_sq)


def full_relative_error(reduction: FullGridReduction, x: np.ndarray) -> float:
    """||A x - b||_2 / ||b||_2 over the full grid, in O(|L| N) from the reduction."""
    return _relative_error(reduction, reduction.r_lj @ np.asarray(x, dtype=float))


def trial_error(reduction: FullGridReduction, sketch: Sketch) -> tuple[float, bool]:
    """Full-grid relative error and rank flag of the sketch's least squares fit.

    Sketch row k is sqrt(v_k / mu(m_k)) prod_d Q^(d)[m_{k,d}, L] U, in the
    basis U of range(R_{L,J}): the fit of ``assemble`` + ``solve`` when the
    sketch has full rank, with the rank judged in orthonormal coordinates.
    """
    rows = sketch.indices0
    g = math.prod(q[m][:, l] for q, m, l in zip(reduction.q, rows.T, reduction.lower.T))
    mu = mu_mass_many(reduction.grids, rows)
    # a zero-weight node has v_k = 0, and its row stays zero
    scale = np.sqrt(np.divide(sketch.weights, mu, out=np.zeros_like(mu), where=mu > 0))
    g *= scale[:, None]
    solution = solve(SketchedSystem(g @ reduction.basis, scale * reduction.b[tuple(rows.T)]))
    return _relative_error(reduction, reduction.basis @ solution.x), solution.rank_deficient


def sample_size(bound: str, n: int, epsilon: float, delta: float) -> int:
    """Smallest sketch size certified by the named residual guarantee.

    ``instance-Vb`` needs epsilon in (0, 1/2); ``instance-V`` and
    ``embedding`` need epsilon in (0, 1); ``expectation``/``truncation``
    accept any epsilon > 0.  All bounds need delta in (0, 1).
    """
    if bound not in SAMPLE_SIZE_BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; expected one of {SAMPLE_SIZE_BOUNDS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if bound == "instance-Vb":
        if not 0.0 < epsilon < 0.5:
            raise ValueError("instance-Vb requires epsilon in (0, 1/2)")
        value = 3.0 * math.log(4.0 * (n + 1) / delta) / epsilon**2 * (n + 1)
    elif bound == "instance-V":
        if not 0.0 < epsilon < 1.0:
            raise ValueError("instance-V requires epsilon in (0, 1)")
        value = (n / epsilon) * max(
            2.0 / (delta * (1.0 - epsilon) ** 2),
            3.0 * math.log(4.0 * n / delta) / epsilon,
        )
    elif bound == "embedding":
        if not 0.0 < epsilon < 1.0:
            raise ValueError("embedding requires epsilon in (0, 1)")
        value = 3.0 * math.log(4.0 * n / delta) / epsilon**2 * n
    else:
        if epsilon <= 0.0:
            raise ValueError("expectation/truncation require epsilon > 0")
        value = 2.0 * n * (1.0 / epsilon + 3.0 * math.log(2.0 * n / delta))
    return int(math.ceil(value))

