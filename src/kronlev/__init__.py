"""Exact leverage-score row sampling for Kronecker-structured least squares.

The design matrices handled here are monotone-lower column subsets of a
Kronecker product of per-dimension factor matrices.  The package builds the
multi-index sets that define the subsets, samples grid rows from the exact
leverage-score distribution in O(D) per draw, solves the sketched least
squares problems and computes their full-grid errors through the
per-dimension QR factors.

This namespace is the structured library, the names that the demos and the
README import.  Every other public name is imported from its own module.
The dense brute-force oracle, ``kronlev.oracle``, is the tests' independent
reference; no command loads it.
"""

__version__ = "0.1.0"

from .grid_basis import BasisSpec, gauss_legendre_grid, gauss_legendre_uniform_grid
from .indexset import (
    IndexSetSpec,
    MultiIndexSet,
    build_index_set,
    canonicalize_to_lower,
    is_monotone_lower,
)
from .factor import build_factor
from .sampler import make_method
from .sketch import (
    TargetFunction,
    assemble,
    draw_sketch,
    full_relative_error,
    reduce_full_grid,
    sample_size,
    solve,
    trial_error,
)
from .experiments import evaluate_on_grid, ishigami
