"""Sketched least squares trials and the full-grid reduction they are judged by.

A sketch is K iid grid points drawn from a sampling method, each recorded
with its point mass nu(Y_k) and measure mu(Y_k); its unbiasing weight is
v_k = (1/K) * mu(Y_k) / nu(Y_k).  The full problem is reduced once by the
per-dimension QR factors, and ``trial_error`` solves the rows a method drew
from products of their Q entries scaled by 1/sqrt(K nu), with no basis
evaluation and no pass over the grid; for the two mixture methods the same
Q-row gather gives nu.

A trial holds one (K, N) array, its sketch rows: ``factor._kron_rows``
builds them in place a cache-sized block of rows at a time, they are
scaled in place, and ``solve`` only reads them.  Every other array of a
trial is K-long, N x N or a block; only a non-lower J adds the rows'
product with U.  Freed (K, N) temporaries would go back to the operating
system on every trial and be faulted in again by the next.

``solve`` uses the corrected semi-normal equations, which the
well-conditioned Q-coordinate sketch admits, and otherwise SVD least
squares, which gives the numerical rank and the minimum-norm fit.  The
Cholesky system is solved by LAPACK dpotrs from the OpenBLAS that numpy
bundles, called through ctypes; where numpy bundles none, by blocked back
substitution.
``assemble`` builds the sketch from basis values and is the reference it
is tested against.  Sample-size lower bounds from the residual guarantees
are provided as a calculator.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .factor import _ROW_BLOCK_BYTES, FactorMatrix, _kron_rows
from .grid_basis import BasisSpec, eval_basis_matrix
from .indexset import MultiIndexSet, is_monotone_lower
from .sampler import SamplerMethod, _check_rows, mu_mass_many, point_mass_many, sample_indices

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

# Singular values at or below this fraction of the largest count as zero in
# solve's rank flag and minimum-norm fit.
_RANK_RTOL = 1e-12
# Smallest min|L_ii| / max|L_ii| of the Gram's Cholesky factor that solve
# trusts; below it the SVD decides the rank.  Rank-deficient square sketches
# reach 5e-5 (at 1e-6 some passed with a wrong flag); sketches ten rows
# above square measured above 3e-2.
_SEMI_NORMAL_RTOL = 1e-3
_SOLVE_BLOCK = 32  # rows per diagonal block of _back_substitute
_GRID_BLOCK_BYTES = _ROW_BLOCK_BYTES  # bytes of b per block of rows in reduce_full_grid

# Symbols of the ILP64 OpenBLAS that numpy bundles in "numpy.libs"; np.linalg,
# the only BLAS kronlev calls, runs on it.  Only the "64_" names are looked up,
# so no 32-bit-integer build is handed 64-bit integers.
_OPENBLAS_THREADS = "scipy_openblas_{}_num_threads64_"  # "get", "set"
_OPENBLAS_DPOTRS = "scipy_LAPACKE_dpotrs_work64_"
_LAPACK_COL_MAJOR = 102
_DPOTRS_ARGS = [  # layout, uplo, n, nrhs, a, lda, b, ldb
    ctypes.c_int,
    ctypes.c_char,
    ctypes.c_int64,
    ctypes.c_int64,
    np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"),
    ctypes.c_int64,
    np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),
    ctypes.c_int64,
]


class _OpenBlas(NamedTuple):
    """What kronlev calls in numpy's bundled OpenBLAS."""

    controls: tuple  # (get, set) thread-count functions, one pair per library
    dpotrs: Optional[Callable]  # LAPACKE_dpotrs_work, or None


@cache
def _openblas() -> _OpenBlas:
    """Thread controls and dpotrs of numpy's bundled OpenBLAS, from one scan.

    The scan takes about 0.2 ms.  ``reduce_full_grid`` makes it during set-up,
    as it enters ``_one_blas_thread``, so no trial pays for it.
    """
    controls, dpotrs = [], None
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get, put = (getattr(lib, _OPENBLAS_THREADS.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
        found = getattr(lib, _OPENBLAS_DPOTRS, None)
        if dpotrs is None and found is not None:
            found.argtypes, found.restype = _DPOTRS_ARGS, ctypes.c_int64
            dpotrs = found
    return _OpenBlas(tuple(controls), dpotrs)


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the count.

    The thread count changes the rounding of a trial's solve and of the
    full-grid reduction's products, and small products run faster on one
    thread.
    The count is process-wide, so enter this once around all the trials of
    a run, not in each worker; with no OpenBLAS found the block runs unpinned.
    """
    controls = _openblas().controls
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


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
    return Sketch(idx0, coords, mass, mu_mass_many(method.grids, idx0))


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
    """Least squares by corrected semi-normal equations, with an SVD fallback.

    The fast path forms the Gram a^T a and its Cholesky factor L, solves
    L L^T x = a^T b and takes one refinement step from the residual b - a x
    (Bjorck, 1987).  It is taken only when the system has at least as many
    rows as columns, Cholesky succeeds, and min|L_ii| / max|L_ii| is at
    least _SEMI_NORMAL_RTOL.  Every other system goes to one SVD least
    squares call, which gives the numerical rank (singular values above
    _RANK_RTOL of the largest) and the minimum-norm solution of that rank.
    Rank deficiency is a flagged outcome, not an error; a non-finite system
    raises ValueError.
    """
    a, b = system.matrix, system.rhs
    k, n = a.shape
    x = _semi_normal(a, b) if 0 < n <= k else None
    if x is not None:
        if not np.all(np.isfinite(x)):  # a finite system gives a finite x here
            raise ValueError("the sketched system must be finite")
        return Solution(x, False)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("the sketched system must be finite")
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=_RANK_RTOL)
    return Solution(x, bool(rank < n))


def _semi_normal(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """x minimizing ||a x - b|| from the Cholesky factor of a^T a, or None.

    None when Cholesky fails or its diagonal ratio is below _SEMI_NORMAL_RTOL:
    the Gram squares the condition number, so only a well-conditioned a is
    solved here.  L L^T x = z is one dpotrs call of numpy's OpenBLAS
    (_cholesky_solve); where numpy bundles none, it is _back_substitute on L
    with its rows and columns reversed, which is upper triangular, then on L^T.
    """
    try:
        lower = np.linalg.cholesky(a.T @ a)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(lower)
    if not diag.min() >= _SEMI_NORMAL_RTOL * diag.max():  # also catches NaN
        return None
    dpotrs = _openblas().dpotrs

    def normal_solve(rhs):
        z = a.T @ rhs
        if dpotrs is not None:
            return _cholesky_solve(dpotrs, lower, z)
        y = _back_substitute(lower[::-1, ::-1], z[::-1])[::-1]
        return _back_substitute(lower.T, y)

    x = normal_solve(b)
    return x + normal_solve(b - a @ x)


def _cholesky_solve(dpotrs: Callable, lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with lower lower^T x = rhs, by one call of LAPACKE_dpotrs_work.

    Read column-major, a C-ordered lower factor is its transpose, the upper
    factor that dpotrs takes with uplo "U", so a C-contiguous float64 factor
    is neither copied nor transposed; any other is copied first.  x is a new
    array: ``rhs`` is not written.  A factor that is not square, or an rhs
    that does not match it, raises ValueError; a nonzero info RuntimeError.
    """
    lower = np.ascontiguousarray(lower, dtype=np.float64)
    if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
        raise ValueError(f"the Cholesky factor must be square, not of shape {lower.shape}")
    n = lower.shape[0]
    x = np.array(rhs, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"the right-hand side must have shape ({n},), not {x.shape}")
    info = dpotrs(_LAPACK_COL_MAJOR, b"U", n, 1, lower, max(n, 1), x, max(n, 1))
    if info != 0:
        raise RuntimeError(f"LAPACK dpotrs failed with info = {info}")
    return x


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with r x = y for upper-triangular r with a nonzero diagonal.

    Bottom-up over blocks of _SOLVE_BLOCK rows: each diagonal block goes to
    np.linalg.solve, whose LU of a triangular block neither pivots nor
    fills, and one matvec takes the solved part out of the rows above.
    """
    x = np.array(y, dtype=float)
    for stop in range(len(x), 0, -_SOLVE_BLOCK):
        start = max(stop - _SOLVE_BLOCK, 0)
        x[start:stop] = np.linalg.solve(r[start:stop, start:stop], x[start:stop])
        x[:start] -= r[:start, start:stop] @ x[start:stop]
    return x


@dataclass(frozen=True)
class FullGridReduction:
    """The full-grid least squares problem reduced through per-dimension QR.

    With A^(d) = Q^(d) R^(d) and L the downward closure of the index set J
    (L = J when J is monotone lower), the weighted design matrix factors as
    A = Q_L R_{L,J}, where Q_L = (kron Q^(d))[:, L] has orthonormal columns.
    With c = Q_L^T b and r = b - Q_L c, every x has
    ||A x - b||^2 = ||R_{L,J} x - c||^2 + ||r||^2.

    A trial reads the Q and grid weights of ``factors``.  The grid's
    b = sqrt(w) * values is not stored: ``values`` is the caller's array,
    held by reference and not copied, so it must not be mutated while the
    reduction is in use; a trial forms b at its rows.
    """

    factors: tuple[FactorMatrix, ...]
    lower: np.ndarray     # (|L|, D) 0-based rows of L, J's members first
    r_lj: np.ndarray      # (|L|, N) Hadamard product of per-dimension R blocks
    # (|L|, N) U, an orthonormal basis of range(R_{L,J}), stored only when J
    # is not lower; for lower J it is None, as U = I
    basis: Optional[np.ndarray]
    values: np.ndarray    # (M_1, ..., M_D) the unweighted target, by reference
    c: np.ndarray         # (|L|,)
    residual_sq: float    # ||r||^2, from r computed explicitly
    b_sq: float           # ||b||^2
    optimal_error: float  # min over x of ||A x - b|| / ||b||


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of about _GRID_BLOCK_BYTES over ``rows`` rows of ``width`` floats.

    Block sizes differ by at most one row, so no block is a one-row sliver,
    which np.dot would hand to a matrix-vector kernel that rounds differently.
    """
    count = min(rows, max(1, -(-rows * width * 8 // _GRID_BLOCK_BYTES)))
    edges = [i * rows // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def _project_grid(
    values: np.ndarray,
    root_w: Sequence[np.ndarray],
    qs: Sequence[np.ndarray],
    lower: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """(c, ||b||^2, ||r||^2) of b = sqrt(w) * values, in one grid-sized array.

    b is formed as a (M_1 ... M_{D-1}, M_D) matrix a block of rows at a time:
    a row's weight is ((sqrt w_1 * sqrt w_2) * ...) * sqrt w_{D-1}, so every
    entry has the bits of the full outer product of the sqrt(w^(d)) times the
    values.  The last backward mode product is taken out of b in place, a
    block of rows at a time, so b becomes r and Q_L c never exists whole.
    """
    prefix = reduce(np.multiply.outer, root_w[:-1], np.ones(1)).reshape(-1)
    b = np.empty((prefix.size, len(root_w[-1])))
    rows, blocks = values.reshape(b.shape), _row_blocks(*b.shape)
    for block in blocks:
        np.multiply.outer(prefix[block], root_w[-1], out=b[block])
        b[block] *= rows[block]
    b_sq = float(np.vdot(b, b))
    if not math.isfinite(b_sq):
        raise ValueError("b_values must be finite")
    if b_sq == 0.0:
        raise ValueError("b_values are zero wherever the grid weight is positive")
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
    for block in blocks:
        b[block] -= np.dot(projected[block], qs[-1].T)
    return c, b_sq, float(np.vdot(b, b))


def reduce_full_grid(
    index_set: MultiIndexSet,
    factors: Sequence[FactorMatrix],
    b_values: np.ndarray,
) -> FullGridReduction:
    """Reduce the full weighted problem by D mode products each way.

    ``b_values`` holds the finite target on the full grid in lexicographic
    order (dimension 1 slowest), nonzero at some node of positive weight; it
    is not written.  The factors' own Q and R are used, so nothing is
    factored here.  The cost is O(M^D max N_d), with no M-row matrix and one
    grid-sized working array.  The grid work runs on one BLAS thread, as a
    threaded dot product or matrix product rounds by thread count.
    An index set of another dimension than the factors raises ValueError.
    """
    factors = tuple(factors)
    if index_set.dimension != len(factors):
        raise ValueError("index set dimension does not match the number of factors")
    root_w = tuple(np.sqrt(f.grid.weights) for f in factors)
    shape = tuple(len(w) for w in root_w)
    values = np.asarray(b_values, dtype=float)
    if values.size != math.prod(shape):
        raise ValueError("b_values must hold one value per grid row")
    values = values.reshape(shape)
    lower = list(index_set.indices)
    if not is_monotone_lower(index_set):  # a lower J is its own closure
        members = set(lower)
        closure = {beta for alpha in members for beta in product(*(range(1, a + 1) for a in alpha))}
        lower += sorted(closure - members)
    lower = np.asarray(lower) - 1
    cols, box = lower[: len(index_set)], index_set.bounding_box
    qs = [f.q[:, :n_d] for f, n_d in zip(factors, box)]
    r_lj = _kron_rows([f.r for f in factors], lower, cols)
    with _one_blas_thread():
        c, b_sq, residual_sq = _project_grid(values, root_w, qs, lower)
    if len(lower) == len(index_set):
        # J is lower: R_{L,J} is square and invertible, so range(R_{L,J}) is
        # all of R^N and no part of c lies outside it
        basis, gap_sq = None, 0.0
    else:
        basis = np.linalg.qr(r_lj)[0]
        gap = c - basis @ (basis.T @ c)
        gap_sq = float(gap @ gap)
    optimal = math.sqrt((residual_sq + gap_sq) / b_sq)
    return FullGridReduction(factors, lower, r_lj, basis, values, c, residual_sq, b_sq, optimal)


def _relative_error(reduction: FullGridReduction, fit: np.ndarray) -> float:
    """||Q_L fit - b|| / ||b|| for coordinates ``fit`` in the columns of Q_L."""
    gap = fit - reduction.c
    return math.sqrt((float(gap @ gap) + reduction.residual_sq) / reduction.b_sq)


def full_relative_error(reduction: FullGridReduction, x: np.ndarray) -> float:
    """||A x - b||_2 / ||b||_2 over the full grid, in O(|L| N) from the reduction."""
    return _relative_error(reduction, reduction.r_lj @ np.asarray(x, dtype=float))


def trial_error(
    reduction: FullGridReduction, method: SamplerMethod, rows: np.ndarray
) -> tuple[float, bool]:
    """Full-grid relative error and rank flag of the fit on the rows ``method`` drew.

    ``rows`` are the (K, D) 0-based points of ``sample_indices``.  Sketch row
    k is prod_d Q^(d)[m_{k,d}, L] U / sqrt(K nu(m_k)), in the basis U of
    range(R_{L,J}) (the identity when J is lower): the fit of ``assemble`` +
    ``solve`` when the sketch has full rank, with the rank judged in
    orthonormal coordinates, where the sketch is well conditioned and
    ``solve`` takes its semi-normal path.  The Q-row gather over L is formed
    once.  L lists J's members first, in a mixture method's index order, so
    a mixture method's nu is the squared norm of its first N columns over N,
    with the bits of ``point_mass_many``, which gives the other methods' nu.
    The gather is scaled in place, so a lower J's trial holds one (K, N)
    array next to ``solve``'s N x N Gram and Cholesky factor.
    The method must be built on the reduction's factors, the same objects,
    and a mixture method on its index set; any other method, and rows that
    are not an integer (K >= 1, D) array on the grid or of zero mass, raise
    ValueError.
    """
    factors, n, basis = reduction.factors, reduction.r_lj.shape[1], reduction.basis
    own_rows = method.index_array is None or np.array_equal(method.index_array, reduction.lower[:n])
    if [id(f) for f in method.factors] != [id(f) for f in factors] or not own_rows:
        raise ValueError("the method is not built on the reduction's factors and index set")
    rows = _check_rows(rows, method.grid_shape)
    if len(rows) < 1:
        raise ValueError("a trial needs K >= 1 rows")
    g = _kron_rows([f.q for f in factors], rows, reduction.lower)
    if method.index_array is None:
        nu = point_mass_many(method, rows)
    else:
        nu = np.einsum("ij,ij->i", g[:, :n], g[:, :n]) / n
    if not np.all(nu > 0.0):
        raise ValueError("a row has zero point mass under the method")
    scale = 1.0 / np.sqrt(len(rows) * nu)
    g *= scale[:, None]
    if basis is not None:
        g = g @ basis
    # b at the drawn rows, its weight multiplied in the order reduce_full_grid uses
    weight = reduce(np.multiply, [np.sqrt(f.grid.weights[m]) for f, m in zip(factors, rows.T)])
    b = weight * reduction.values[tuple(rows.T)]
    solution = solve(SketchedSystem(g, scale * b))
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

