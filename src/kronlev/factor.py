"""Per-dimension design matrices, their QR factors and the alias tables of their leverage rows.

For one dimension with grid (y_m, w_m) and basis functions a_1..a_N, the
factor matrix has entries sqrt(w_m) * a_n(y_m).  A factor matrix factors
itself once, when it is built: its thin QR yields columns that are discrete
orthonormal functions, and squaring the Q entries gives, per column k, a
probability vector over the grid nodes (the (k,d) leverage scores).  The
factor keeps a Vose alias table of each of those rows, so a draw costs O(1)
after O(M) setup, and their uniform mixture over k.  Every sampler and the
full-grid reduction read these same Q, R and tables, and pin numpy's bundled
OpenBLAS (``_openblas``) to one thread with ``_one_blas_thread``.

This is the one module that binds LAPACK and branches on whether numpy's
OpenBLAS was found: the Gram's Cholesky factor of a sketched solve
(``_gram_factor``) and its solves (``_cholesky_solve``) call dpotrf and
dpotrs through ctypes, or else np.linalg.cholesky and ``_back_substitute``.
``sketch.solve`` decides when to call them.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid_basis import BasisSpec, Grid1D, eval_basis_matrix

__all__ = [
    "FactorMatrix",
    "build_factor",
]

# The rank test of factor_qr, solve and exact_leverage: a QR diagonal entry or
# singular value at or below this fraction of the largest counts as zero.
_RANK_RTOL = 1e-12
# Bytes per block of rows of a long pass over rows; a block stays in cache.
_ROW_BLOCK_BYTES = 1 << 17


# Functions of the ILP64 OpenBLAS that numpy bundles in "numpy.libs"; np.linalg,
# the only BLAS kronlev calls, runs on it.  Only the "64_" names are looked up,
# so no 32-bit-integer build is handed 64-bit integers.  Each entry is one field
# of _OpenBlas, all found in one library: (symbol, argument types, result type).
_LAPACK_COL_MAJOR = 102
_OPENBLAS_SYMBOLS = {
    "get_threads": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
    "set_threads": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
    "dpotrf": (  # layout, uplo, n, a, lda
        "scipy_LAPACKE_dpotrf_work64_",
        [ctypes.c_int, ctypes.c_char, ctypes.c_int64,
         np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"), ctypes.c_int64],
        ctypes.c_int64,
    ),
    "dpotrs": (  # layout, uplo, n, nrhs, a, lda, b, ldb
        "scipy_LAPACKE_dpotrs_work64_",
        [ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_int64,
         np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"), ctypes.c_int64,
         np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"), ctypes.c_int64],
        ctypes.c_int64,
    ),
}
_OpenBlas = NamedTuple("_OpenBlas", [(field, Callable) for field in _OPENBLAS_SYMBOLS])


@cache
def _openblas() -> Optional[_OpenBlas]:
    """The first OpenBLAS in numpy.libs that exports every _OPENBLAS_SYMBOLS entry, or None.

    The scan takes about 0.2 ms.  The first ``_one_blas_thread`` of a command
    makes it during set-up, so no trial pays for it.
    """
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        found = {field: getattr(lib, symbol, None) for field, (symbol, _, _) in _OPENBLAS_SYMBOLS.items()}
        if all(function is not None for function in found.values()):
            for field, (_, args, result) in _OPENBLAS_SYMBOLS.items():
                found[field].argtypes, found[field].restype = args, result
            return _OpenBlas(**found)
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the count.

    The thread count changes the rounding of a trial's solve, of U's QR and
    of the full-grid reduction's products, and small products run faster on
    one thread.  ``sketch._Subspace.basis``, ``sketch.reduce_full_grid``,
    ``sketch.full_relative_error``, ``sketch.trial_error`` and
    ``sketch.leverage_scores`` enter this themselves; ``_gram_factor`` and
    ``_cholesky_solve`` below do not, and run on the count of their caller
    (``trial_error``'s pin in a trial).
    The count is process-wide, so enter this once around all the trials of
    a run, before any process is forked for them: a forked child inherits
    the count of 1 and must not set it, because after a fork any call that
    sets the count restarts OpenBLAS's thread pool, whose new thread then
    spins for about 0.1 s of CPU.  For the same reason a count that is
    already 1 is left alone, so a block nested in a pinned one sets nothing.
    With no OpenBLAS found the block runs unpinned.
    """
    found = _openblas()
    count = 1 if found is None else found.get_threads()
    if count != 1:
        found.set_threads(1)
    try:
        yield
    finally:
        if count != 1:
            found.set_threads(count)


# Smallest min|L_ii| / max|L_ii| of the Gram's Cholesky factor that solve
# trusts; below it the SVD decides the rank.  Rank-deficient square sketches
# reach 5e-5 (at 1e-6 some passed with a wrong flag); sketches ten rows
# above square measured above 3e-2.
_SEMI_NORMAL_RTOL = 1e-3
_SOLVE_BLOCK = 32  # rows per diagonal block of _back_substitute


def _gram_factor(a: np.ndarray) -> Optional[np.ndarray]:
    """The Gram's Cholesky factor R (R^T R = a^T a) in an upper triangle, or None.

    None when Cholesky fails or min|R_ii| / max|R_ii| is below _SEMI_NORMAL_RTOL,
    as the Gram squares the condition number.  With numpy's OpenBLAS, dpotrf "L"
    factors the C-ordered Gram in place: read column-major, the symmetric Gram
    is itself, and L over its lower triangle is R in C order.  Otherwise R is
    np.linalg.cholesky's L transposed.  Both give R's upper triangle the same
    bits; the strict lower one is not read.
    """
    r = np.ascontiguousarray(a.T @ a, dtype=np.float64)  # the Gram until it is factored
    found, n = _openblas(), len(r)
    if found is None:
        try:
            r = np.linalg.cholesky(r).T
        except np.linalg.LinAlgError:
            return None
    else:
        info = found.dpotrf(_LAPACK_COL_MAJOR, b"L", n, r, max(n, 1))
        if info < 0:
            raise RuntimeError(f"LAPACK dpotrf failed with info = {info}")
        if info > 0:  # a leading minor is not positive definite
            return None
    diag = np.diagonal(r)
    return r if diag.min() >= _SEMI_NORMAL_RTOL * diag.max() else None  # NaN fails too


def _cholesky_solve(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x with R^T R x = z for R from ``_gram_factor``: one dpotrs call, which writes x over z.

    Without numpy's OpenBLAS, _back_substitute on R^T with its rows and
    columns reversed, which is upper triangular, then on R.
    """
    found = _openblas()
    if found is None:
        y = _back_substitute(r.T[::-1, ::-1], z[::-1])[::-1]
        return _back_substitute(r, y)
    n, x = len(r), np.asarray(z, dtype=np.float64)
    info = found.dpotrs(_LAPACK_COL_MAJOR, b"L", n, 1, r, max(n, 1), x, max(n, 1))
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


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """sqrt(weight)-scaled basis values on one dimension's grid, with its QR and sampling tables.

    Construction factors the matrix once; a rank-deficient matrix raises
    ``ValueError``.  A factor equals only itself: methods and reductions
    share factors by reference, and identity is what they compare.
    """

    matrix: np.ndarray  # (M_d, N_d)
    grid: Grid1D
    basis: BasisSpec
    # the thin QR: q (M_d, N_d) with orthonormal columns, r (N_d, N_d) upper
    # triangular with a positive diagonal; the Vose tables prob, alias
    # (N_d, M_d) of the leverage rows q[:, k]**2, and the marginal (M_d,),
    # their mean over k
    q: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    prob: np.ndarray = field(init=False, repr=False)
    alias: np.ndarray = field(init=False, repr=False)
    marginal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q, r = factor_qr(self.matrix)
        prob, alias, marginal = leverage_table(q)
        for name, value in dict(q=q, r=r, prob=prob, alias=alias, marginal=marginal).items():
            object.__setattr__(self, name, value)


def build_factor(grid: Grid1D, basis: BasisSpec) -> FactorMatrix:
    """The factored M_d x N_d matrix sqrt(w_m) a_n(y_m); zero-weight nodes give zero rows."""
    support = int(np.count_nonzero(grid.weights))
    if support < basis.count:
        raise ValueError(
            f"grid has {support} nodes of positive weight but basis needs {basis.count}; "
            "a factor with fewer nonzero rows than columns cannot have full column rank"
        )
    values = eval_basis_matrix(basis, grid.nodes)
    return FactorMatrix(np.sqrt(grid.weights)[:, None] * values, grid, basis)


def factor_qr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR ``(q, r)`` with positive R diagonal; rejects rank deficiency."""
    q, r = np.linalg.qr(matrix)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    r = signs[:, None] * r
    diag = np.abs(np.diag(r))
    running_max = np.maximum.accumulate(diag)
    bad = np.nonzero(diag <= _RANK_RTOL * running_max)[0]
    if bad.size:
        raise ValueError(f"factor matrix is rank deficient at column {bad[0] + 1}")
    return q, r


def leverage_table(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked alias tables ``(prob, alias)`` of the leverage rows, and their ``marginal``.

    The factor matrix already carries sqrt(w_m), so the weighted score
    w_m * q_k(y_m)^2 is just the squared Q entry.
    """
    table = (q ** 2).T
    prob, alias = map(np.stack, zip(*(build_alias(row) for row in table)))
    return prob, alias, table.mean(axis=0)


def _kron_rows(tables, rows: np.ndarray) -> np.ndarray:
    """Entries prod_d tables[d][rows[i, d], j] of a Kronecker product's columns, C-ordered.

    Each tables[d] is the (M_d, N) table of dimension d's factor at the
    product's columns: a mixture method's Q at J's (``sampler.SamplerMethod``),
    or the reduction record's Q at L's and R at J's (``sketch._Subspace``).
    The result is the only (K, N) array formed: it starts as the first
    dimension's row take, and every later dimension is multiplied in a block
    of about _ROW_BLOCK_BYTES of rows at a time, so its row takes stay in
    cache.  Each entry has the bits of ((x_1 * x_2) * ...) * x_D, as any cut
    keeps an elementwise product's; the 64-row floor of ``_row_blocks`` would
    make a block 2.8 MB at N = 5456.  A row out of range raises IndexError.
    """
    out = tables[0][rows[:, 0]]
    step = max(1, _ROW_BLOCK_BYTES // (8 * out.shape[1]))
    for start in range(0, len(out), step):
        block = slice(start, start + step)
        for d in range(1, len(tables)):
            out[block] *= tables[d][rows[block, d]]
    return out


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices over ``rows`` rows of ``width`` floats: the one cut of a long pass over rows.

    Every block but the last holds the most rows, in multiples of 64, that fit
    in _ROW_BLOCK_BYTES, or 64 where fewer fit; a lone last row joins the block
    before.  So memory stays bounded, the cuts fall on 64-row kernel tiles, and
    no block is the one row np.dot hands to a matrix-vector kernel, which rounds
    apart.  The tests pin the bits each caller keeps under these cuts.
    """
    step = max(1, _ROW_BLOCK_BYTES // (8 * width * 64)) * 64
    edges = [0, *range(step, rows - 1, step), rows]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:]) if stop > start]


def build_alias(probabilities) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias tables ``(prob, alias)`` for a finite distribution (O(M) construction)."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a nonempty 1D probability vector")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    total = p.sum()
    if not (1 - 1e-9 <= total <= 1 + 1e-9):
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    m = p.size
    # the loop runs on Python floats, which round as float64 does, and is
    # faster than indexing numpy scalars one at a time
    scaled = (p * (m / total)).tolist()
    prob = [1.0] * m
    alias = list(range(m))
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    for i in small + large:
        prob[i] = 1.0
        alias[i] = i
    return np.array(prob, dtype=np.float64), np.array(alias, dtype=np.int64)


def sample_nu_kd(
    prob: np.ndarray, alias: np.ndarray, k: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """0-based node indices, entry i drawn from row ``k[i]`` of the stacked alias tables."""
    k = np.asarray(k)
    num_rows, num_nodes = prob.shape
    if np.any(k < 0) or np.any(k >= num_rows):
        raise ValueError(f"k outside [0, {num_rows - 1}]")
    buckets = rng.integers(0, num_nodes, size=k.shape)
    accept = rng.random(size=k.shape)
    return np.where(accept < prob[k, buckets], buckets, alias[k, buckets])
