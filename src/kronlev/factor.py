"""Per-dimension design matrices, QR factors, leverage tables, alias samplers.

For one dimension with grid (y_m, w_m) and basis functions a_1..a_N, the
factor matrix has entries sqrt(w_m) * a_n(y_m).  Its thin QR yields columns
that are discrete orthonormal functions; squaring the Q entries gives, per
column k, a probability vector over the grid nodes (the (k,d) leverage
scores).  Each of those rows gets a Vose alias table so a draw costs O(1)
after O(M) setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid_basis import BasisSpec, Grid1D, eval_basis_matrix

__all__ = [
    "FactorMatrix",
    "FactorDecomposition",
    "LeverageTable1D",
    "build_factor",
    "factor_qr",
    "leverage_table",
    "build_alias",
    "sample_nu_kd",
]

_RANK_RTOL = 1e-12
# Largest Gram off-diagonal accepted as orthogonal by column normalization.
_GRAM_TOL = 1e-10


@dataclass(frozen=True)
class FactorMatrix:
    """sqrt(weight)-scaled basis values on one dimension's grid."""

    matrix: np.ndarray  # (M_d, N_d)
    grid: Grid1D
    basis: BasisSpec


@dataclass(frozen=True)
class FactorDecomposition:
    """Thin QR of a factor matrix, R diagonal normalized positive."""

    q: np.ndarray  # (M_d, N_d), orthonormal columns
    r: np.ndarray  # (N_d, N_d), upper triangular, positive diagonal


@dataclass(frozen=True)
class LeverageTable1D:
    """The (k,d) leverage scores ell_{k,m} plus per-k alias tables.

    ``table[k-1, m-1] = w_m * q_k(y_m)^2``; every row is a probability
    vector.  ``prob``/``alias`` stack the per-row alias tables so batched
    draws with mixed k values stay vectorized.
    """

    table: np.ndarray  # (N_d, M_d)
    prob: np.ndarray = field(init=False, repr=False, compare=False)
    alias: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.table, dtype=float)
        if np.any(rows < 0):
            raise ValueError("leverage scores must be nonnegative")
        sums = rows.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise ValueError("each leverage row must sum to 1")
        prob, alias = zip(*(build_alias(row) for row in rows))
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "prob", np.stack(prob))
        object.__setattr__(self, "alias", np.stack(alias))

    @property
    def num_functions(self) -> int:
        return self.table.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.table.shape[1]

    def marginal(self) -> np.ndarray:
        """Uniform mixture over k: the dimension's induced distribution."""
        return self.table.mean(axis=0)


def build_factor(grid: Grid1D, basis: BasisSpec) -> FactorMatrix:
    """Assemble the M_d x N_d factor matrix sqrt(w_m) a_n(y_m); zero-weight nodes give zero rows."""
    support = int(np.count_nonzero(grid.weights))
    if support < basis.count:
        raise ValueError(
            f"grid has {support} nodes of positive weight but basis needs {basis.count}; "
            "a factor with fewer nonzero rows than columns cannot have full column rank"
        )
    values = eval_basis_matrix(basis, grid.nodes)
    return FactorMatrix(np.sqrt(grid.weights)[:, None] * values, grid, basis)


def factor_qr(factor: FactorMatrix) -> FactorDecomposition:
    """Householder QR with positive R diagonal; rejects rank deficiency."""
    q, r = np.linalg.qr(factor.matrix)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    r = signs[:, None] * r
    diag = np.abs(np.diag(r))
    running_max = np.maximum.accumulate(diag)
    bad = np.nonzero(diag <= _RANK_RTOL * running_max)[0]
    if bad.size:
        raise ValueError(f"factor matrix is rank deficient at column {bad[0] + 1}")
    return FactorDecomposition(q, r)


def leverage_table(decomposition: FactorDecomposition) -> LeverageTable1D:
    """Per-(k, m) leverage scores from the orthonormal factor columns.

    The factor matrix already carries sqrt(w_m), so the weighted score
    w_m * q_k(y_m)^2 is just the squared Q entry.
    """
    return LeverageTable1D((decomposition.q ** 2).T)


def normalized_column_table(factor: FactorMatrix) -> LeverageTable1D:
    """Leverage table using column normalization instead of a full QR.

    Valid only when the factor columns are mutually orthogonal; the Gram
    off-diagonals are checked against 1e-10, never assumed.
    """
    a = factor.matrix
    gram = a.T @ a
    off = gram - np.diag(np.diag(gram))
    if np.max(np.abs(off)) > _GRAM_TOL:
        raise ValueError(
            f"factor columns are not orthogonal (max Gram off-diagonal {np.max(np.abs(off)):.2e})"
        )
    norms = np.sqrt(np.diag(gram))
    return LeverageTable1D(((a / norms) ** 2).T)


def _kron_rows(mats, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries prod_d mats[d][rows[i, d], cols[j, d]] of a Kronecker product, C-ordered."""
    out = np.ones((rows.shape[0], cols.shape[0]))
    for d, x in enumerate(mats):
        out *= np.take(x, cols[:, d], axis=1)[rows[:, d]]
    return out


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
    scaled = p * (m / total)
    prob = np.ones(m)
    alias = np.arange(m)
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
    return prob, alias


def sample_nu_kd(tables: LeverageTable1D, k: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """0-based node indices, entry i drawn from the 0-based leverage row ``k[i]``."""
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k >= tables.num_functions):
        raise ValueError(f"k outside [0, {tables.num_functions - 1}]")
    buckets = rng.integers(0, tables.num_nodes, size=k.shape)
    accept = rng.random(size=k.shape)
    return np.where(accept < tables.prob[k, buckets], buckets, tables.alias[k, buckets])
