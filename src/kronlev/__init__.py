"""Exact leverage-score row sampling for Kronecker-structured least squares.

The design matrices handled here are monotone-lower column subsets of a
Kronecker product of per-dimension factor matrices.  The package builds the
multi-index sets that define the subsets, samples grid rows from the exact
leverage-score distribution in O(D) per draw, solves the sketched least
squares problems and computes their full-grid errors through the
per-dimension QR factors, and ships a dense brute-force oracle plus an
experiment harness for relative-error studies.
"""

__version__ = "0.1.0"

from .grid_basis import (
    BasisSpec,
    Grid1D,
    eval_basis_matrix,
    gauss_legendre_grid,
    gauss_legendre_uniform_grid,
)
from .indexset import (
    IndexSetSpec,
    MultiIndexSet,
    build_index_set,
    canonicalize_to_lower,
    is_monotone_lower,
)
from .factor import FactorMatrix, build_factor
from .sampler import SamplerMethod, make_method
from .sketch import (
    Sketch,
    SketchedSystem,
    Solution,
    TargetFunction,
    assemble,
    draw_sketch,
    full_relative_error,
    reduce_full_grid,
    sample_size,
    solve,
    trial_error,
)
from .oracle import (
    FullSystem,
    aliasing_statistic,
    build_full,
    exact_leverage,
    gram_statistic,
    solve_full,
)
from .experiments import (
    TrialReport,
    emit_cdf,
    emit_cdf_svg,
    evaluate_on_grid,
    grid_values,
    ishigami,
    run_trials,
)
