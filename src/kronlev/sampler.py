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

A method is its law over the grid: it holds its factors, and reads the
alias tables and marginal that each factor built from its own QR.  A mixture
method also holds its index set J, and reads only J's 0-based members and
each factor's Q at J's columns, each taken at its first read and kept.  J's
lower closure L and basis U judge a fit on the full grid, so they belong to
``sketch.reduce_full_grid``, and a trial pairs a method with a reduction by
the identity of their factors and J.

Point masses are evaluated on demand: the mixture sum over the index set
is the squared row norm of the points' Q-row gather (``_mixture_mass``),
costs O(N*D) per query, runs in ``factor._row_blocks`` so its memory does not
grow with the query count, and nothing is precomputed over the full grid.
A trial (``sketch.trial_error``) applies ``_mixture_mass`` to its own
gather instead, and ``sketch._leverage`` applies it to a gather's product
with a non-lower J's basis U for J's exact leverage scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .factor import FactorMatrix, _kron_rows, _row_blocks, sample_nu_kd
from .grid_basis import Grid1D
from .indexset import MultiIndexSet, _check_fit, is_monotone_lower

__all__ = [
    "METHOD_TAGS",
    "SamplerMethod",
    "make_method",
    "sample_indices",
    "point_mass_many",
]

# Append-only: a method's position is its random stream id (experiments.run_trials).
METHOD_TAGS = ("uniform", "tensor-product", "orthogonal-columns", "leverage-lower")

# Largest Gram off-diagonal at which orthogonal-columns accepts a factor.
_GRAM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SamplerMethod:
    """A sampling distribution read from per-dimension factors and, for a mixture, an index set."""

    tag: str
    factors: tuple[FactorMatrix, ...]
    index_set: Optional[MultiIndexSet]  # J, mixtures only

    @cached_property
    def members(self) -> np.ndarray:
        """J's members as (N, D) int64 0-based columns, in J's order."""
        return np.asarray(self.index_set.indices, dtype=np.int64) - 1

    @cached_property
    def q_columns(self) -> tuple[np.ndarray, ...]:
        """Each factor's Q at J's columns, (M_d, N)."""
        return tuple(np.take(f.q, self.members[:, d], axis=1) for d, f in enumerate(self.factors))

    @property
    def grids(self) -> tuple[Grid1D, ...]:
        return tuple(f.grid for f in self.factors)

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
    ``orthogonal-columns`` that every factor has orthogonal columns; a mixture
    method's J must then fit its factors (``indexset._check_fit``).  The lower
    test stops at J's first gap, and nothing walks L.
    """
    if tag not in METHOD_TAGS:
        raise ValueError(f"unknown sampler method {tag!r}; expected one of {METHOD_TAGS}")
    factors = tuple(factors)
    if tag in ("uniform", "tensor-product"):
        return SamplerMethod(tag, factors, None)
    if index_set is None:
        raise ValueError(f"method {tag!r} requires a multi-index set")
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
    _check_fit(index_set, [f.matrix.shape[1] for f in factors])
    return SamplerMethod(tag, factors, index_set)


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
    out = np.empty((size, len(method.factors)), dtype=np.int64)
    if method.tag == "uniform":
        for d, m_d in enumerate(method.grid_shape):
            out[:, d] = rng.integers(0, m_d, size=size)
        return out
    if method.tag == "tensor-product":
        for d, f in enumerate(method.factors):
            k = rng.integers(0, f.prob.shape[0], size=size)
            out[:, d] = sample_nu_kd(f.prob, f.alias, k, rng)
        return out
    # two-stage draw: uniform member of the index set, then its leverage rows
    cols = method.members
    member = rng.integers(0, len(cols), size=size)
    for d, f in enumerate(method.factors):
        out[:, d] = sample_nu_kd(f.prob, f.alias, cols[member, d], rng)
    return out


def _mixture_mass(gather: np.ndarray) -> np.ndarray:
    """nu_k = ||G[k, :]||^2 / N of a Q-row gather G over an index set of N members."""
    return np.einsum("ij,ij->i", gather, gather) / gather.shape[1]


def point_mass_many(method: SamplerMethod, idx0: np.ndarray) -> np.ndarray:
    """Probability of each grid point (rows of 0-based indices) under the method.

    For the mixture methods the Q-row gather G[k, alpha] =
    prod_d Q^(d)[m_{k,d}, alpha_d] over the index set is formed one ``_row_blocks``
    block at a time, from the method's Q columns of J, and reduced by ``_mixture_mass``.
    The uniform mass divides by the grid's exact size, which may exceed 2^63.
    """
    idx0 = _check_rows(idx0, method.grid_shape)
    if method.tag == "uniform":
        mass = np.full(idx0.shape[0], 1.0 / math.prod(method.grid_shape))
    elif method.tag == "tensor-product":
        mass = np.ones(idx0.shape[0])
        for d, f in enumerate(method.factors):
            mass *= f.marginal[idx0[:, d]]
    else:
        mass = np.empty(idx0.shape[0])
        for block in _row_blocks(len(idx0), len(method.members)):
            mass[block] = _mixture_mass(_kron_rows(method.q_columns, idx0[block]))
    return mass
