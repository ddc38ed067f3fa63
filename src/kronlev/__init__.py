"""Exact leverage-score row sampling for Kronecker-structured least squares.

The design matrices handled here are monotone-lower column subsets of a
Kronecker product of per-dimension factor matrices.  The package builds the
multi-index sets that define the subsets, samples grid rows from the exact
leverage-score distribution in O(D) per draw, assembles and solves the
sketched least squares problems, computes full-grid errors through the
per-dimension QR factors, and ships a dense brute-force oracle plus an
experiment harness for relative-error studies.
"""

__version__ = "0.1.0"

from .grid_basis import (
    BasisSpec,
    Grid1D,
    eval_basis,
    eval_basis_matrix,
    gauss_legendre_grid,
    gauss_legendre_uniform_grid,
)
from .indexset import (
    IndexSetSpec,
    MultiIndexSet,
    bounding_box,
    build_index_set,
    canonicalize_to_lower,
    is_monotone_lower,
    lexicographic_column_index,
    linear_index,
)
from .factor import (
    DiscreteSampler,
    FactorDecomposition,
    FactorMatrix,
    LeverageTable1D,
    build_alias,
    build_factor,
    draw,
    factor_qr,
    leverage_table,
    sample_nu_kd,
)
from .sampler import (
    GridPoint,
    SamplerMethod,
    make_method,
    mu_mass,
    point_mass,
    sample_point,
)
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
    truncate,
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
    duffing_qoi,
    emit_cdf,
    emit_cdf_svg,
    evaluate_on_grid,
    ishigami,
    run_trials,
)
