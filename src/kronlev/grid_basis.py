"""One-dimensional grids (nodes + probability weights) and univariate bases.

A grid discretizes one input dimension as a finite probability measure;
the default is the Gauss-Legendre rule on [-1, 1] with its quadrature
weights normalized to sum to 1.  Basis evaluation covers plain monomials
and Legendre polynomials orthonormal under the uniform probability measure
on [-1, 1].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "BasisSpec",
    "gauss_legendre_grid",
    "gauss_legendre_uniform_grid",
    "eval_basis_matrix",
]

BASIS_KINDS = ("monomial", "legendre-orthonormal")

# Weight-sum gate: user grids within this of 1 are accepted as-is, never
# silently renormalized.
_WEIGHT_SUM_TOL = 1e-8
# Most nodes of a Gauss-Legendre rule: each Newton pass costs O(M^2), and
# the rule took 1.1 s at 10^4 nodes on a 2-core VM.
_MAX_NODES = 10**4


def _size(value, what: str) -> int:
    """A Python or numpy integer >= 1; floats and booleans are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def _node_count(value, what: str) -> int:
    """A ``_size`` of at most ``_MAX_NODES``: the node count of a Gauss-Legendre rule."""
    size = _size(value, what)
    if size > _MAX_NODES:
        raise ValueError(f"{what} must be at most {_MAX_NODES}, got {size}")
    return size


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Nodes and probability weights of a discrete measure on the line."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1D arrays")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1 (not renormalizing)")

    def __len__(self):
        return self.nodes.size


@dataclass(frozen=True)
class BasisSpec:
    """Univariate basis family and the number of functions used from it."""

    kind: str
    count: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")
        _size(self.count, "count")


def _legendre(y: np.ndarray, n: int):
    """P_0(y), ..., P_{n-1}(y) by the three-term recurrence, one array at a time."""
    p_prev, p = np.zeros_like(y), np.ones_like(y)
    yield p
    for k in range(n - 1):
        p_prev, p = p, ((2 * k + 1) * y * p - k * p_prev) / (k + 1)
        yield p


def gauss_legendre_grid(num_nodes: int) -> Grid1D:
    """Gauss-Legendre rule on [-1, 1] as a probability measure.

    Nodes are the roots of the degree-M Legendre polynomial, found by Newton
    iteration from the Chebyshev-angle initial guess; weights are the
    quadrature weights divided by 2.  Converged when every Newton correction
    |P_M/P'_M| is below 1e-14; raises after 100 sweeps otherwise.  More
    than ``_MAX_NODES`` nodes are refused before the first sweep.
    """
    M = _node_count(num_nodes, "num_nodes")
    if M == 1:
        return Grid1D(np.zeros(1), np.ones(1))
    i = np.arange(1, M + 1)
    y = np.cos(np.pi * (4 * i - 1) / (4 * M + 2))
    # a pass stops once the previous correction was small: dp is P'_M at the converged nodes
    step = np.inf
    for _ in range(101):
        p_prev, p = deque(_legendre(y, M + 1), maxlen=2)
        dp = M * (y * p - p_prev) / (y * y - 1.0)
        if np.max(np.abs(step)) <= 1e-14:
            break
        step = p / dp
        y = y - step
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed to converge for M={M}")
    # cos gives descending nodes; flip, then symmetrize so the rule is
    # exactly even (the midpoint of an odd rule lands on exactly 0.0)
    y = y[::-1]
    dp = dp[::-1]
    y = 0.5 * (y - y[::-1])
    w = 1.0 / ((1.0 - y * y) * dp * dp)  # quadrature weight 2/((1-y^2)P'^2), halved
    w = 0.5 * (w + w[::-1])
    return Grid1D(y, w)


def gauss_legendre_uniform_grid(num_nodes: int) -> Grid1D:
    """Gauss-Legendre nodes carrying *uniform* weights 1/M.

    This is the discrete measure used by the reference relative-error
    studies: the grid nodes come from the quadrature rule but every node
    counts equally.
    """
    base = gauss_legendre_grid(num_nodes)
    return Grid1D(base.nodes, np.full(len(base), 1.0 / len(base)))


def eval_basis_matrix(spec: BasisSpec, y: np.ndarray) -> np.ndarray:
    """All basis values at the points ``y``; shape (len(y), count).

    The Legendre variant returns sqrt(2j-1) * P_{j-1}(y), orthonormal with
    respect to the uniform probability measure on [-1, 1].
    """
    y = np.asarray(y, dtype=float)
    n = spec.count
    out = np.empty((y.size, n))
    if spec.kind == "monomial":
        out[:, 0] = 1.0
        for j in range(1, n):
            out[:, j] = out[:, j - 1] * y
        return out
    for j, p in enumerate(_legendre(y, n)):
        out[:, j] = p
    return out * np.sqrt(2.0 * np.arange(n) + 1.0)
