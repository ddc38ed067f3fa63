"""Sketched least squares trials and the full-grid reduction they are judged by.

A sketch is K iid grid points drawn from a sampling method, each recorded
with its point mass nu(Y_k) and measure mu(Y_k); its unbiasing weight is
v_k = (1/K) * mu(Y_k) / nu(Y_k).  The full problem is reduced once by the
per-dimension QR factors, and ``trial_error`` solves the rows a method drew
from products of their Q entries scaled by 1/sqrt(K nu), with no basis
evaluation and no pass over the grid; for the two mixture methods the same
Q-row gather gives nu.  The reduction builds J's record, ``_Subspace``,
once per call: its closure L, basis U and the factors' column tables that
every Kronecker-row product here reads.  A trial admits a method built on
the reduction's factors and, if it is a mixture, on the reduction's J, the
same objects.  ``leverage_scores`` reads a record of its own for J's exact
leverage scores over the whole grid: range(A_J) = range(Q_L U), so row m's
normalized score is ||Q_L(m) U||^2 / N (``_leverage``), formed a block of
rows at a time with no dense design matrix.

The target enters the reduction either as its values on the whole grid or,
when it is a sum of r products of one-dimensional functions, as a
``SeparableValues`` of per-dimension tables.  Then the reduction walks L's
prefixes in O(r D M max N_d + r^2 D |L| max N_d), with no array of the grid's
or J's bounding box's size, and a trial sums the terms at its K rows.

A trial holds one (K, N) array, its sketch rows: ``factor._kron_rows``
builds them from the record's Q columns of L, in place a cache-sized block
of rows at a time, they are scaled in place, and ``solve`` only reads them.
Every other array of a trial is K-long, N x N or a block; only a non-lower J
adds the rows' product with U.  Freed (K, N) temporaries would go back to
the operating system on every trial and be faulted in again by the next.

A trial is three stages: ``_sketch_rows`` gathers and scales the rows,
``solve`` fits them and ``_relative_error`` judges the fit.  ``solve`` holds
the policy: the corrected semi-normal equations, which the well-conditioned
Q-coordinate sketch admits, when K >= N and ``factor._gram_factor`` gives the
Gram's upper Cholesky factor R, two ``factor._cholesky_solve`` calls on it;
otherwise SVD least squares, which gives the numerical rank and the
minimum-norm fit.  The two back ends of the factor and the solves (LAPACK
dpotrf and dpotrs from numpy's bundled OpenBLAS, or np.linalg.cholesky and
blocked back substitution) are chosen in ``factor``, not here.
``reduce_full_grid``, ``full_relative_error``, ``trial_error`` and
``leverage_scores`` each pin numpy's OpenBLAS to one thread themselves
(``factor._one_blas_thread``), so their bits do not depend on the caller's
BLAS thread count.
``assemble`` builds the sketch from basis values and is the reference it
is tested against.  Sample-size lower bounds from the residual guarantees
are provided as a calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .factor import (_RANK_RTOL, FactorMatrix, _cholesky_solve, _gram_factor, _kron_rows,
                     _one_blas_thread, _row_blocks)
from .grid_basis import BasisSpec, eval_basis_matrix
from .indexset import MultiIndexSet, _check_fit, _missing_below
from .sampler import SamplerMethod, _check_rows, _mixture_mass, point_mass_many, sample_indices

__all__ = [
    "TargetFunction",
    "SeparableValues",
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
    "leverage_scores",
    "sample_size",
]

SAMPLE_SIZE_BOUNDS = ("instance-Vb", "instance-V", "expectation", "truncation", "embedding")
# Most grid rows that leverage_scores walks, and that a model taken as grid
# values (``experiments.prepare_problem``) is evaluated on.  At 10^7 rows the
# scores take about 4 s on one core and ``kronlev oracle``'s dump of them about
# 300 MB of CSV; the grid values take 80 MB, and at about 120 us per RK4 step
# on 20^3 points (``config._MAX_STEPS``) Duffing's default 4000 steps take
# about 10 minutes, an hour at 400^3 rows
_MAX_GRID_ROWS = 10**7


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


@dataclass(frozen=True, eq=False)
class SeparableValues:
    """Grid values f(y) = sum_r prod_d g_{r,d}(y_d), held as the tables of each g_{r,d}.

    ``terms[r][d]`` is g_{r,d} on dimension d's M_d nodes.  It stands in for
    the (M_1, ..., M_D) array of grid values without forming it: ``shape`` is
    that array's, and indexing with a tuple of D index arrays gives the values
    at those points, each term's factors multiplied in dimension order and the
    terms added in order, which is how a pointwise evaluation of the same
    terms rounds.
    """

    terms: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        terms = tuple(tuple(np.asarray(g, dtype=float) for g in term) for term in self.terms)
        if not terms or not terms[0]:
            raise ValueError("a separable target needs a term over at least one dimension")
        shapes = tuple(g.shape for g in terms[0])
        if any(len(s) != 1 for s in shapes) or any(
            tuple(g.shape for g in term) != shapes for term in terms
        ):
            raise ValueError("every term needs one 1-D table per dimension, of one length")
        object.__setattr__(self, "terms", terms)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.terms[0])

    def __getitem__(self, points: tuple) -> np.ndarray:
        products = [reduce(np.multiply, [g[m] for g, m in zip(term, points)]) for term in self.terms]
        return reduce(np.add, products)


@dataclass(frozen=True)
class Sketch:
    """K sampled grid points with their coordinates, point masses and measure masses.

    It holds no sketch rows: ``assemble`` evaluates them from the
    coordinates, and ``trial_error`` gathers them from ``indices0``.
    """

    indices0: np.ndarray    # (K, D) 0-based node indices
    coords: np.ndarray      # (K, D) resolved coordinates
    point_mass: np.ndarray  # (K,) nu(Y_k) under the sampling method, all > 0
    mu_mass: np.ndarray     # (K,) mu(Y_k) of the product measure, all >= 0

    @property
    def size(self) -> int:
        return self.indices0.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The unbiasing weights v_k = mu(Y_k) / nu(Y_k) / K."""
        return self.mu_mass / self.point_mass / self.size


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
    """Draw K iid points from the method with their coordinates and masses."""
    if count < 1:
        raise ValueError("sketch size must be >= 1")
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    idx0 = sample_indices(method, rng, count)
    mass = point_mass_many(method, idx0)
    if np.any(mass <= 0.0):
        # a sampled point always has positive mass under its own law
        raise RuntimeError("sampled a grid point with zero point mass (internal fault)")
    coords = np.column_stack([g.nodes[idx0[:, d]] for d, g in enumerate(method.grids)])
    mu = reduce(np.multiply, [g.weights[idx0[:, d]] for d, g in enumerate(method.grids)])
    return Sketch(idx0, coords, mass, mu)


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
    _check_fit(index_set, [basis.count for basis in bases])
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
    """Least squares by corrected semi-normal equations, with an SVD fallback.

    The fast path solves R^T R x = a^T b with the Gram's Cholesky factor R
    and takes one refinement step from the residual b - a x (Bjorck, 1987).
    It is taken only when the system has at least as many rows as columns
    and ``_gram_factor`` gives R.  Every other system goes to one SVD least
    squares call, which gives the numerical rank (singular values above
    _RANK_RTOL of the largest) and the minimum-norm solution of that rank.
    Rank deficiency is a flagged outcome, not an error; a non-finite system
    raises ValueError.
    """
    a, b = system.matrix, system.rhs
    k, n = a.shape
    r = _gram_factor(a) if 0 < n <= k else None
    if r is not None:
        x = _cholesky_solve(r, a.T @ b)  # a.T @ ... is a new array, free to overwrite
        x = x + _cholesky_solve(r, a.T @ (b - a @ x))
        if not np.all(np.isfinite(x)):  # a finite system gives a finite x here
            raise ValueError("the sketched system must be finite")
        return Solution(x, False)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("the sketched system must be finite")
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=_RANK_RTOL)
    return Solution(x, bool(rank < n))


@dataclass(frozen=True, eq=False)
class _Subspace:
    """J's columns of the Kronecker product, J's lower closure L and U: the record a reduction holds.

    J must fit its factors: one entry per factor, and J's bounding box within
    their column counts (``indexset._check_fit``).  L is every index at or
    below a member of J; ``lower`` holds its 0-based rows, J's members in J's
    order, then the rest of the closure, found by one walk down from J's
    members (``indexset._missing_below``), in lexicographic order.  So
    ``lower[:n]`` are J's rows, and L = J exactly when J is monotone lower.
    ``q_columns`` and ``r_columns`` are the tables ``factor._kron_rows`` reads
    for the Q rows over L and for R_{L,J} = (kron_d R^(d))[L, J].  ``basis`` is
    U, the Q of the QR of R_{L,J}, formed on one BLAS thread; it is None for a
    lower J, whose U = I.  Each of the three is formed at its first read and
    kept.  J and the factors are held by reference, not copied.
    """

    index_set: MultiIndexSet
    factors: tuple[FactorMatrix, ...]
    lower: np.ndarray  # (|L|, D) int64

    @property
    def n(self) -> int:
        """N = |J|."""
        return len(self.index_set)

    @cached_property
    def q_columns(self) -> tuple[np.ndarray, ...]:
        """Each factor's Q at L's columns, (M_d, |L|); J's come first."""
        return tuple(np.take(f.q, self.lower[:, d], axis=1) for d, f in enumerate(self.factors))

    @cached_property
    def r_columns(self) -> tuple[np.ndarray, ...]:
        """Each factor's R at J's columns, (N_d, N)."""
        return tuple(np.take(f.r, self.lower[: self.n, d], axis=1) for d, f in enumerate(self.factors))

    @cached_property
    def basis(self) -> Optional[np.ndarray]:
        """(|L|, N) U, or None when J is lower."""
        if len(self.lower) == self.n:
            return None
        with _one_blas_thread():
            return np.linalg.qr(_kron_rows(self.r_columns, self.lower))[0]


def _subspace(index_set: MultiIndexSet, factors: Sequence[FactorMatrix]) -> _Subspace:
    """A new record of J on these factors, L walked; a J that does not fit them raises ValueError."""
    factors = tuple(factors)
    _check_fit(index_set, [f.matrix.shape[1] for f in factors])
    lower = np.asarray(list(index_set.indices) + sorted(_missing_below(index_set)), dtype=np.int64)
    return _Subspace(index_set, factors, lower - 1)


def _leverage(subspace: _Subspace, gather: np.ndarray) -> np.ndarray:
    """||g U||^2 / N of a Q-row gather g over L: J's normalized leverage scores at g's rows.

    range(A_J) = range(Q_L U), and Q_L U has orthonormal columns, so this is
    the squared row norm of an orthonormal basis of range(A_J), over N.  For a lower J, U = I
    and it is ``_mixture_mass``, the nu of leverage-lower.
    """
    return _mixture_mass(gather if subspace.basis is None else gather @ subspace.basis)


def leverage_scores(index_set: MultiIndexSet, factors: Sequence[FactorMatrix]) -> Iterator[np.ndarray]:
    """J's normalized leverage scores over the whole grid, one ``_row_blocks`` block at a time.

    The blocks run over the grid's rows in lexicographic order (dimension 1
    slowest), and no array is larger than a block: each block's scores are
    ``_leverage`` of its rows' gather from the record's Q columns of L, on one
    BLAS thread, so their bits do not depend on the caller's thread count.
    The pin holds from the first block until the walk ends or the iterator is
    closed.  The call itself refuses, with ValueError and before any work, a grid of
    more than ``_MAX_GRID_ROWS`` rows; then it builds J's record, so a J that
    does not fit its factors, or whose closure passes the walk bound, raises
    here too, not at the first block.
    """
    shape = tuple(len(f.grid) for f in factors)
    if math.prod(shape) > _MAX_GRID_ROWS:
        raise ValueError(f"full grid has {math.prod(shape)} rows, beyond the score bound {_MAX_GRID_ROWS}")
    subspace = _subspace(index_set, factors)

    def blocks():
        with _one_blas_thread():
            for block in _row_blocks(math.prod(shape), len(subspace.lower)):
                rows = np.column_stack(np.unravel_index(np.arange(block.start, block.stop), shape))
                yield _leverage(subspace, _kron_rows(subspace.q_columns, rows))

    return blocks()


@dataclass(frozen=True, eq=False)
class FullGridReduction:
    """The full-grid least squares problem reduced through per-dimension QR.

    With A^(d) = Q^(d) R^(d) and L the downward closure of the index set J
    (L = J when J is monotone lower), the weighted design matrix factors as
    A = Q_L R_{L,J}, where Q_L = (kron Q^(d))[:, L] has orthonormal columns.
    With c = Q_L^T b and r = b - Q_L c, every x has
    ||A x - b||^2 = ||R_{L,J} x - c||^2 + ||r||^2.

    J, its factors, L, the factors' column tables and a non-lower J's basis U
    are ``subspace``, the record of J that ``reduce_full_grid`` builds for
    this reduction alone (``_Subspace``); no method holds it.  R_{L,J} itself
    is not held.  A trial reads the record's Q columns of L, the factors' grid
    weights, and U.  The grid's b = sqrt(w) * values is not stored: a trial
    forms b at its rows from ``values``, which is held by reference and not
    copied.  That is either the caller's array of grid values, which must not
    be mutated while the reduction is in use, or the caller's
    ``SeparableValues``, whose tables are read at the rows.
    """

    subspace: _Subspace
    # the unweighted target, by reference: an (M_1, ..., M_D) array or its terms
    values: Union[np.ndarray, SeparableValues]
    c: np.ndarray         # (|L|,)
    residual_sq: float    # ||r||^2, from r or its separable parts, computed explicitly
    b_sq: float           # ||b||^2
    optimal_error: float  # min over x of ||A x - b|| / ||b||


def _check_b_sq(b_sq: float) -> None:
    """Refuse a target whose ||b||^2 is not finite, or not above zero.

    A separable target's ||b||^2 can fall below zero by rounding where its terms cancel.
    """
    if not math.isfinite(b_sq):
        raise ValueError("b_values must be finite")
    if not b_sq > 0.0:
        raise ValueError("b_values are zero wherever the grid weight is positive")


def _project_grid(
    values: np.ndarray,
    root_w: Sequence[np.ndarray],
    qs: Sequence[np.ndarray],
    lower: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """(c, ||b||^2, ||r||^2) of b = sqrt(w) * values, in one grid-sized array.

    b is formed as a (M_1 ... M_{D-1}, M_D) matrix, one ``_row_blocks`` block
    at a time: a row's weight is ((sqrt w_1 * sqrt w_2) * ...) * sqrt w_{D-1},
    so every entry has the bits of the full outer product of the sqrt(w^(d))
    times the values.  The last backward mode product is taken out of b in
    place, a block at a time, so b becomes r and Q_L c never exists whole;
    every block of a cut reads one C-ordered copy of Q_D^T, so r keeps its bits.
    """
    prefix = reduce(np.multiply.outer, root_w[:-1], np.ones(1)).reshape(-1)
    b = np.empty((prefix.size, len(root_w[-1])))
    rows, blocks = values.reshape(b.shape), _row_blocks(*b.shape)
    for block in blocks:
        np.multiply.outer(prefix[block], root_w[-1], out=b[block])
        b[block] *= rows[block]
    b_sq = float(np.vdot(b, b))
    _check_b_sq(b_sq)
    coeffs = b.reshape(values.shape)
    for q in qs:
        # np.tensordot moves axis 0 last by a strided view, not a copy
        coeffs = np.tensordot(coeffs, q, axes=([0], [0]))  # contracts M_d, appends N_d
    c = coeffs[tuple(lower.T)]
    projected = np.zeros(coeffs.shape)
    projected[tuple(lower.T)] = c
    for q in qs[:-1]:
        projected = np.tensordot(projected, q, axes=([0], [1]))  # contracts N_d, appends M_d
    # (M_1 ... M_{D-1}, N_D): the strided view np.tensordot would take
    projected = np.moveaxis(projected, 0, -1).reshape(len(b), -1)
    # a lone row is never cut, and takes a matrix-vector kernel that rounds by layout
    last = np.ascontiguousarray(qs[-1].T) if len(b) > 1 else qs[-1].T
    for block in blocks:
        b[block] -= np.dot(projected[block], last)
    return c, b_sq, float(np.vdot(b, b))


def _project_separable(
    values: SeparableValues,
    root_w: Sequence[np.ndarray],
    qs: Sequence[np.ndarray],
    lower: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """(c, ||b||^2, ||r||^2) of b = sum_r kron_d beta_{r,d}, by one walk over L's prefixes.

    With beta_{r,d} = sqrt(w^(d)) g_{r,d}, p_d = Q_d^T beta_d, t_d = beta_d - Q_d p_d
    and A_d the Hadamard product of beta_k beta_k^T over k > d, ||b||^2 = sum(A_0).  A
    prefix (alpha_1, ..., alpha_{d-1}) of L's members carries u = prod_{k<d} p_k[:, alpha_k],
    and c at a member is sum_r u.  The part of b leaving L at dimension d below u has the
    squared norm u^T (t_d t_d^T o A_d) u plus (u o p_d[:, a])^T A_d (u o p_d[:, a]) over
    the a < N_d that extend u out of L: positive semidefinite forms, so ||r||^2 is no
    difference of larger sums.  O(r D M max N_d + r^2 D |L| max N_d) work, and no array
    exceeds r |L| max N_d.
    """
    betas = [np.stack([term[d] for term in values.terms]) * w for d, w in enumerate(root_w)]
    grams = [beta @ beta.T for beta in betas]
    b_sq = float(reduce(np.multiply, grams).sum())
    _check_b_sq(b_sq)
    # L's rows sorted once, so each prefix's members are one run; a prefix of
    # depth d + 1 starts where column d changes or a shorter prefix starts
    order = np.lexsort(lower.T[::-1])
    ranked, starts = lower[order], np.arange(len(lower)) == 0
    # one row of u per prefix of this depth, in lexicographic order, and each sorted row's prefix
    u, node, residual_sq = np.ones((1, len(grams[0]))), np.zeros(len(lower), dtype=np.intp), 0.0
    for d, (beta, q) in enumerate(zip(betas, qs)):
        tail = reduce(np.multiply, grams[d + 1 :], np.ones_like(grams[0]))  # A_d
        p = beta @ q  # (r, N_d)
        t = beta - p @ q.T  # (r, M_d)
        starts[1:] |= ranked[1:, d] != ranked[:-1, d]
        parent, a = node[starts], ranked[starts, d]
        missing = np.ones((len(u), q.shape[1]), dtype=bool)
        missing[parent, a] = False
        out = (u[:, None, :] * p.T)[missing]  # u o p_d[:, a] for each a that leaves L
        residual_sq += np.einsum("ir,rs,is->", u, t @ t.T * tail, u)
        residual_sq += np.einsum("ir,rs,is->", out, tail, out)
        u, node = u[parent] * p.T[a], np.cumsum(starts) - 1
    c = np.empty(len(lower))
    c[order] = reduce(np.add, u.T, np.zeros(len(u)))[node]  # the terms added in order
    return c, b_sq, max(float(residual_sq), 0.0)  # each form is nonnegative but for rounding


def reduce_full_grid(
    index_set: MultiIndexSet,
    factors: Sequence[FactorMatrix],
    b_values: Union[np.ndarray, SeparableValues],
) -> FullGridReduction:
    """Reduce the full weighted problem by D mode products each way.

    ``b_values`` holds the finite target, nonzero at some node of positive
    weight: either its values on the full grid in lexicographic order
    (dimension 1 slowest), which are not written, or its ``SeparableValues``.
    The factors' own Q and R are used, so nothing is factored here.  Grid
    values cost O(M^D max N_d), with no M-row matrix and one grid-sized
    working array; r separable terms cost O(r D M max N_d + r^2 D |L| max N_d),
    with no array above r |L| max N_d.  J, L and U are J's record on these
    factors (``_subspace``), built here once per call, and the part of c
    outside range(U) joins the optimum's residual.  The projection runs on
    one BLAS thread, as a threaded dot or matrix product rounds by thread
    count.
    """
    subspace = _subspace(index_set, factors)
    factors, lower = subspace.factors, subspace.lower
    root_w = tuple(np.sqrt(f.grid.weights) for f in factors)
    shape = tuple(len(w) for w in root_w)
    if isinstance(b_values, SeparableValues):
        values, project = b_values, _project_separable
    else:
        values, project = np.asarray(b_values, dtype=float), _project_grid
        if values.size == math.prod(shape):
            values = values.reshape(shape)
    if values.shape != shape:
        raise ValueError("b_values must hold one value per grid row")
    qs = [f.q[:, :n_d] for f, n_d in zip(factors, index_set.bounding_box)]
    with _one_blas_thread():
        c, b_sq, residual_sq = project(values, root_w, qs, lower)
        basis = subspace.basis
        # for a lower J, range(R_{L,J}) is all of R^N: no part of c lies outside it
        gap = np.zeros(0) if basis is None else c - basis @ (basis.T @ c)
        gap_sq = float(gap @ gap)  # a dot of over 10^4 entries is split by thread count
    optimal = math.sqrt((residual_sq + gap_sq) / b_sq)
    return FullGridReduction(subspace, values, c, residual_sq, b_sq, optimal)


def _relative_error(reduction: FullGridReduction, fit: np.ndarray) -> float:
    """||Q_L fit - b|| / ||b|| for coordinates ``fit`` in the columns of Q_L."""
    gap = fit - reduction.c
    return math.sqrt((float(gap @ gap) + reduction.residual_sq) / reduction.b_sq)


def full_relative_error(reduction: FullGridReduction, x: np.ndarray) -> float:
    """||A x - b||_2 / ||b||_2 over the full grid, forming R_{L,J} x in O(|L| N D) on each call.

    R_{L,J} is formed in the ``_row_blocks`` of L's rows from the record's R columns of J
    (``_Subspace.r_columns``), on one BLAS thread, with the whole product's bits.
    """
    subspace, x = reduction.subspace, np.asarray(x, dtype=float)
    lower, tables = subspace.lower, subspace.r_columns
    with _one_blas_thread():
        fit = [_kron_rows(tables, lower[block]) @ x for block in _row_blocks(len(lower), subspace.n)]
    return _relative_error(reduction, np.concatenate(fit))


def _sketch_rows(
    reduction: FullGridReduction, method: SamplerMethod, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g, s): the sketch rows and right-hand side of the rows ``method`` drew.

    ``rows`` are the (K, D) 0-based points of ``sample_indices``.  Row k of g is
    prod_d Q^(d)[m_{k,d}, L] U / sqrt(K nu(m_k)), in the basis U of range(R_{L,J})
    (the identity when J is lower), and s_k = b(m_k) / sqrt(K nu(m_k)).  The one
    Q-row gather over L, from the record's ``q_columns``, is scaled in place.
    J's rows lead L's (``_Subspace``), so a mixture method's nu is
    ``_mixture_mass`` of its first N columns, as in ``point_mass_many``, which
    gives the others' nu.
    The method must be built on the reduction's factors, the same objects,
    and a mixture method on the reduction's J, the same object; any other
    method, one on an equal J that is another object included, and rows that
    are not an integer (K >= 1, D) array on the grid or of zero mass, raise
    ValueError.
    """
    subspace, index_set = reduction.subspace, method.index_set
    factors, n, basis = subspace.factors, subspace.n, subspace.basis
    # a FactorMatrix equals only itself, but an equal J that is another object equals J
    if method.factors != factors or not (index_set is None or index_set is subspace.index_set):
        raise ValueError("the method is not built on the reduction's factors and index set")
    rows = _check_rows(rows, method.grid_shape)
    if len(rows) < 1:
        raise ValueError("a trial needs K >= 1 rows")
    g = _kron_rows(subspace.q_columns, rows)
    nu = point_mass_many(method, rows) if index_set is None else _mixture_mass(g[:, :n])
    if not np.all(nu > 0.0):
        raise ValueError("a row has zero point mass under the method")
    scale = 1.0 / np.sqrt(len(rows) * nu)
    g *= scale[:, None]
    if basis is not None:
        g = g @ basis
    # b at the drawn rows, its weight multiplied in the order reduce_full_grid
    # uses; SeparableValues sum their terms there
    weight = reduce(np.multiply, [np.sqrt(f.grid.weights[m]) for f, m in zip(factors, rows.T)])
    return g, scale * (weight * reduction.values[tuple(rows.T)])


def trial_error(
    reduction: FullGridReduction, method: SamplerMethod, rows: np.ndarray
) -> tuple[float, bool]:
    """Full-grid relative error and rank flag of the fit on the rows ``method`` drew.

    ``_sketch_rows`` gathers the rows in Q coordinates, ``solve`` fits them and
    ``_relative_error`` judges the fit: the fit of ``assemble`` + ``solve`` when
    the sketch has full rank, its rank judged in orthonormal coordinates, where
    ``solve`` takes its semi-normal path.  The trial runs on one BLAS thread,
    so its bits do not depend on the caller's thread count.  The methods and
    rows that ``_sketch_rows`` refuses raise ValueError.
    """
    with _one_blas_thread():
        solution = solve(SketchedSystem(*_sketch_rows(reduction, method, rows)))
        basis = reduction.subspace.basis
        fit = solution.x if basis is None else basis @ solution.x
        return _relative_error(reduction, fit), solution.rank_deficient


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

