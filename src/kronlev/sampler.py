"""Row-sampling distributions over a tensor-product grid.

Four methods draw multivariate grid points and evaluate their point masses:

* ``uniform`` — every grid point equally likely.
* ``tensor-product`` — per dimension, pick a column uniformly and draw a
  node from its leverage row; the law is the product of the per-dimension
  induced distributions (the full Kronecker matrix's leverage scores).
* ``orthogonal-columns`` — pick a member of the index set uniformly, then
  per dimension draw from the chosen column's leverage row.  It admits any
  index set but requires orthogonal factor columns, whose normalized
  columns are Q, so it then samples the exact leverage scores.
* ``leverage-lower`` — the same two-stage draw for a monotone lower index
  set and any factor: it samples the *exact* leverage scores of the
  column-subset design matrix.

A method holds its factors and reads the Q and leverage tables that each
factor built from its own QR; none factors anything here.

Point masses are evaluated on demand: the mixture sum over the index set
is the squared row norm of the points' Q-row gather, costs O(N*D) per
query, runs in blocks of points so its memory does not grow with the query
count, and nothing is precomputed over the full grid.  A trial
(``sketch.trial_error``) takes the mixture masses from its own gather
instead, which has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# factor_qr is imported but never called here, as each factor is QR'd when it
# is built; the benchmark's tracer asserts that it patches this binding.
from .factor import FactorMatrix, _kron_rows, factor_qr, sample_nu_kd
from .grid_basis import Grid1D
from .indexset import MultiIndexSet, is_monotone_lower

__all__ = [
    "METHOD_TAGS",
    "SamplerMethod",
    "make_method",
    "sample_indices",
    "point_mass_many",
    "mu_mass_many",
]

# Append-only: a method's position is its random stream id (experiments.METHOD_IDS).
METHOD_TAGS = ("uniform", "tensor-product", "orthogonal-columns", "leverage-lower")

# Points per block of the mixture sum: bounds its (block, N) products at any
# query count.
_MASS_CHUNK = 4096
# Largest Gram off-diagonal at which orthogonal-columns accepts a factor.
_GRAM_TOL = 1e-10


@dataclass(frozen=True)
class SamplerMethod:
    """A sampling distribution read from per-dimension factors and, for a mixture, an index set."""

    tag: str
    factors: tuple[FactorMatrix, ...]
    index_array: Optional[np.ndarray]  # (N, D) 0-based rows of the index set, mixtures only

    @property
    def grids(self) -> tuple[Grid1D, ...]:
        return tuple(f.grid for f in self.factors)

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(f.grid) for f in self.factors)


def make_method(
    tag: str,
    factors: Sequence[FactorMatrix],
    index_set: Optional[MultiIndexSet] = None,
) -> SamplerMethod:
    """Initialize a sampling method from per-dimension factor matrices.

    ``leverage-lower`` insists the index set is monotone lower and
    ``orthogonal-columns`` that every factor has orthogonal columns; both
    requirements are verified here, not assumed.
    """
    if tag not in METHOD_TAGS:
        raise ValueError(f"unknown sampler method {tag!r}; expected one of {METHOD_TAGS}")
    factors = tuple(factors)
    if tag in ("uniform", "tensor-product"):
        return SamplerMethod(tag, factors, None)
    if index_set is None:
        raise ValueError(f"method {tag!r} requires a multi-index set")
    if index_set.dimension != len(factors):
        raise ValueError("index set dimension does not match the number of factors")
    for d, (n_d, f) in enumerate(zip(index_set.bounding_box, factors)):
        if n_d > f.matrix.shape[1]:
            raise ValueError(
                f"index set needs {n_d} columns in dimension {d + 1}, factor has {f.matrix.shape[1]}"
            )
    if tag == "leverage-lower" and not is_monotone_lower(index_set):
        raise ValueError("leverage-lower sampling requires a monotone lower index set")
    if tag == "orthogonal-columns":
        for f in factors:
            gram = f.matrix.T @ f.matrix
            off = np.max(np.abs(gram - np.diag(np.diag(gram))))
            if off > _GRAM_TOL:
                raise ValueError(
                    f"factor columns are not orthogonal (max Gram off-diagonal {off:.2e})"
                )
    index_array = np.asarray(index_set.indices, dtype=np.int64) - 1
    return SamplerMethod(tag, factors, index_array)


def _check_rows(idx0, shape: Sequence[int]) -> np.ndarray:
    """``idx0`` as int64, once checked to be an integer (K, D) array of 0-based rows on the grid."""
    idx0 = np.asarray(idx0)
    if not np.issubdtype(idx0.dtype, np.integer):
        raise ValueError(f"grid rows must be integers, not {idx0.dtype}")
    if idx0.ndim != 2 or idx0.shape[1] != len(shape):
        raise ValueError("points must be rows of one index per dimension of the grid")
    if np.any(idx0 < 0) or np.any(idx0 >= np.asarray(shape)):
        raise ValueError("grid point index out of bounds")
    return idx0.astype(np.int64, copy=False)


def sample_indices(method: SamplerMethod, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid grid points; returns 0-based node indices (size, D)."""
    D = method.dimension
    out = np.empty((size, D), dtype=np.int64)
    if method.tag == "uniform":
        for d, m_d in enumerate(method.grid_shape):
            out[:, d] = rng.integers(0, m_d, size=size)
        return out
    if method.tag == "tensor-product":
        for d, f in enumerate(method.factors):
            k = rng.integers(0, f.leverage.num_functions, size=size)
            out[:, d] = sample_nu_kd(f.leverage, k, rng)
        return out
    # two-stage draw: uniform member of the index set, then its leverage rows
    member = rng.integers(0, method.index_array.shape[0], size=size)
    for d, f in enumerate(method.factors):
        out[:, d] = sample_nu_kd(f.leverage, method.index_array[member, d], rng)
    return out


def point_mass_many(method: SamplerMethod, idx0: np.ndarray) -> np.ndarray:
    """Probability of each grid point (rows of 0-based indices) under the method.

    For the mixture methods the Q-row gather G[k, alpha] =
    prod_d Q^(d)[m_{k,d}, alpha_d] over the index set is formed in blocks of
    _MASS_CHUNK points, and nu_k = ||G[k, :]||^2 / N; each block is freed
    before the next is formed, so one block is held.
    """
    idx0 = _check_rows(idx0, method.grid_shape)
    if method.tag == "uniform":
        mass = np.full(idx0.shape[0], 1.0 / np.prod(method.grid_shape))
    elif method.tag == "tensor-product":
        mass = np.ones(idx0.shape[0])
        for d, f in enumerate(method.factors):
            mass *= f.leverage.marginal()[idx0[:, d]]
    else:
        mass = np.empty(idx0.shape[0])
        for start in range(0, idx0.shape[0], _MASS_CHUNK):
            block = slice(start, start + _MASS_CHUNK)
            gather = None  # free the previous block before the next is formed
            gather = _kron_rows([f.q for f in method.factors], idx0[block], method.index_array)
            mass[block] = np.einsum("ij,ij->i", gather, gather)
        mass /= method.index_array.shape[0]
    return mass


def mu_mass_many(grids: Sequence[Grid1D], idx0: np.ndarray) -> np.ndarray:
    """Product-measure mass of each grid point (rows of 0-based indices)."""
    idx0 = _check_rows(idx0, [len(g) for g in grids])
    mass = np.ones(idx0.shape[0])
    for d, grid in enumerate(grids):
        mass *= grid.weights[idx0[:, d]]
    return mass
