"""One table of the library's refusals, each checked by its exact exception and whole message.

Module-level cached builders make each row's small problem once.  A row
builds its arguments inside its own test, so a broken builder fails that row
alone.  The file imports numpy, kronlev and ``helpers`` alone, so it runs where
no test extra is installed.
"""

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np
import pytest

import kronlev.grid_basis
import kronlev.indexset
import kronlev.sketch
from kronlev.config import ConfigError, ProblemSetup, load_json, parse_problem
from kronlev.configs import packaged_config_path
from kronlev.experiments import (TrialReport, duffing_qoi_batch, emit_cdf, emit_cdf_svg, evaluate_on_grid,
                                 make_target, prepare_problem, _tabulated_values)
from kronlev.factor import FactorMatrix, _kron_rows, build_alias, build_factor, sample_nu_kd
from kronlev.grid_basis import BASIS_KINDS, BasisSpec, Grid1D, gauss_legendre_grid, gauss_legendre_uniform_grid
from kronlev.indexset import FAMILIES, IndexSetSpec, MultiIndexSet, _missing_below, build_index_set
from kronlev.oracle import FullSystem, build_full, exact_leverage
from kronlev.sampler import METHOD_TAGS, make_method, point_mass_many, sample_indices
from kronlev.sketch import (SAMPLE_SIZE_BOUNDS, SeparableValues, SketchedSystem, TargetFunction, _subspace, assemble,
                            draw_sketch, leverage_scores, reduce_full_grid, sample_size, solve, trial_error)
from helpers import (FALLBACK_SYSTEMS, SMOOTH, count_calls, legendre_factors, monomial_factors, other_problem,
                     random_systems, total_degree, zero_weight_factors)


@dataclass(frozen=True)
class Refusal:
    """``call(*args)`` raises exactly ``kind`` with the text ``line``, and prints nothing.

    ``args`` is the argument tuple, or the function that builds it wherever
    building it runs kronlev.  With ``prefix`` the text need only start with
    ``line``, whose end is numpy's.  ``patches`` (target: value) hold during
    the call, and none of the functions in ``unstarted`` is called: the work
    the refusal comes before.
    """

    call: Callable
    args: object
    kind: type
    line: str
    patches: dict = field(default_factory=dict)
    unstarted: tuple = ()
    prefix: bool = False


def row(id, call, args, kind, line, **fields):
    return pytest.param(Refusal(call, args, kind, line, **fields), id=id)


@cache
def lower():
    return total_degree(2, 2)


@cache
def gapped():
    return MultiIndexSet(2, ((1, 1), (3, 1), (2, 3), (1, 2)))  # not lower: the reduction holds a basis U


@cache
def problem(index_set=None):
    """(J, factors, reduction) of J, by default ``lower()``, over two 8-node Legendre factors of 3 columns."""
    index_set, factors = lower() if index_set is None else index_set, legendre_factors(2, 8, 3)
    return index_set, factors, reduce_full_grid(index_set, factors, np.linspace(1.0, 2.0, 64))


@cache
def zero_weight_problem():
    """(J, factors, reduction) over ``helpers.zero_weight_factors``."""
    index_set, factors = total_degree(2, 2), zero_weight_factors()
    return index_set, factors, reduce_full_grid(index_set, factors, np.ones(49))


def trial(tag, rows, build=problem):
    """The arguments of a trial of ``tag``'s method on the J and factors ``build`` gives."""
    return lambda: (build()[2], make_method(tag, build()[1], build()[0]), rows())


def other_problems_trial(case, seed):
    """A trial of rows drawn on one problem, reduced on ``helpers.other_problem``'s other J or factors."""
    drawn_on, factors, index_set, reduced_on = other_problem(case)
    method = make_method("leverage-lower", factors, drawn_on)
    rows = sample_indices(method, np.random.default_rng(seed), 24)
    return reduce_full_grid(index_set, reduced_on, np.linspace(1.0, 2.0, 144)), method, rows


def equal_index_set_trial(other, index_set=None, tag="leverage-lower"):
    index_set, factors, reduction = problem(index_set)
    assert other == index_set and other is not index_set
    rows = sample_indices(make_method(tag, factors, index_set), np.random.default_rng(3), 12)
    return reduction, make_method(tag, factors, other), rows


def non_finite_system(case, entry, bad):
    a, b = random_systems(40, 6)[0] if case == "semi-normal" else FALLBACK_SYSTEMS[case]()
    (a if entry == "a" else b)[1] = bad
    return (SketchedSystem(a, b),)


def separable_non_finite(bad, kind):
    first = np.linspace(1.0, 2.0, 5)
    if bad == "overflow":  # finite tables whose product is not
        first, second = first * 1e200, np.full(5, 1e200)
    else:
        first[3], second = bad, np.ones(5)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (SeparableValues(((first, second), (np.ones(5), np.ones(5)))) if kind == "separable"
                  else np.multiply.outer(first, second) + 1.0)
    return total_degree(2, 2), legendre_factors(2, 5, 3), values


def separable_zero(case, kind):
    if case == "zero-weight-node":  # nonzero only at the first node, which has no weight
        grid = Grid1D(np.array([-1.0, 0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.25, 0.5]))
        factors, first = [build_factor(grid, BasisSpec("legendre-orthonormal", 2))] * 2, np.eye(4)[0]
    else:
        factors = legendre_factors(2, 5, 3)
        first = np.zeros(5) if case == "zero-tables" else np.linspace(1.0, 2.0, 5)
    second = np.ones(len(first))
    terms = [(first, second), (-first, second)] if case == "cancelling-terms" else [(first, second)]
    values = SeparableValues(tuple(terms)) if kind == "separable" else sum(np.multiply.outer(*t) for t in terms)
    return total_degree(2, 1), factors, values


def zero_grid_target(where):
    # the relative error divides by ||b||, which is 0 in both cases
    grid = Grid1D(np.array([-0.5, 0.0, 0.5]), np.array([0.5, 0.5, 0.0]))
    values = np.zeros((3, 3))
    if where == "off-the-weight":
        values[2, :] = values[:, 2] = 1.0  # only where one node has weight 0
    return total_degree(2, 1), [build_factor(grid, BasisSpec("monomial", 2))] * 2, values.ravel()


# each entry point that reads J, given J and two factors of 3 columns on 4 nodes
FIT_ENTRY_POINTS = {
    "make_method": lambda index_set, factors: make_method("leverage-lower", factors, index_set),
    "reduce_full_grid-grid": lambda index_set, factors: reduce_full_grid(index_set, factors, np.ones(16)),
    "reduce_full_grid-separable": lambda index_set, factors: reduce_full_grid(
        index_set, factors, SeparableValues(((np.ones(4), np.ones(4)),))),
    "build_full": lambda index_set, factors: build_full(index_set, factors, b_values=np.ones(16)),
    "assemble": lambda index_set, factors: assemble(
        index_set, [f.basis for f in factors], draw_sketch(make_method("uniform", factors), 5, 0), SMOOTH),
}
NON_INTEGERS = [2.5, 3.9, 3.0, True, np.float64(4.0), np.bool_(True)]
INTEGER_ROWS = [np.array([[0, 1], [2, 3], [3, 1]]) + 0.7, np.array([[0.0, 1.0]]), np.array([[True, False]])]
NOT_ITS_METHOD = "the method is not built on the reduction's factors and index set"

LIBRARY_REFUSALS = [
    # grid_basis: a size is an integer >= 1, and a Gauss-Legendre rule has at most 10^4 nodes
    *[row(f"{build.__name__}-{size!r}", build, (size,), ValueError, f"num_nodes must be an integer >= 1, got {size!r}")
      for build in (gauss_legendre_grid, gauss_legendre_uniform_grid) for size in [0, -3, *NON_INTEGERS]],
    *[row(f"{build.__name__}-past-the-node-bound", build, (10**4 + 1,), ValueError,
          "num_nodes must be at most 10000, got 10001", unstarted=(kronlev.grid_basis._legendre,))
      for build in (gauss_legendre_grid, gauss_legendre_uniform_grid)],
    *[row(f"basis-count-{count!r}", BasisSpec, ("monomial", count), ValueError,
          f"count must be an integer >= 1, got {count!r}") for count in [0, *NON_INTEGERS, "3"]],
    row("basis-kind-unknown", BasisSpec, ("chebyshev", 3), ValueError,
        f"unknown basis kind 'chebyshev'; expected one of {BASIS_KINDS}"),
    *[row(f"grid-{id}", Grid1D, (nodes, weights), ValueError, line) for id, nodes, weights, line in [
        ("unsorted", [0.0, -1.0], [0.5, 0.5], "nodes must be strictly increasing"),
        ("negative-weight", [-1.0, 1.0], [1.5, -0.5], "weights must be nonnegative"),
        ("weights-shorter", [-1.0, 0.0, 1.0], [0.5, 0.5], "nodes and weights must be equal-length 1D arrays"),
        ("weights-longer", [-1.0, 0.0, 1.0], [0.25] * 4, "nodes and weights must be equal-length 1D arrays"),
        ("weight-sum", [-1.0, 1.0], [0.5, 0.6], f"weights sum to {np.float64(1.1)!r}, not 1 (not renormalizing)"),
        ("nan-weight", [-1.0, 0.0, 1.0], [np.nan, 0.5, 0.5], "nodes and weights must be finite"),
        ("inf-node", [-1.0, 0.0, np.inf], [0.25, 0.5, 0.25], "nodes and weights must be finite"),
    ]],
    # indexset: the spec, the members of a set, and the walk bound (lowered here)
    *[row(f"spec-{id}", lambda change: IndexSetSpec(**{"dimension": 2, "family": "wlp-ball", "order": 2, **change}),
          (change,), ValueError, line) for id, change, line in [
        ("dimension-0", {"dimension": 0}, "dimension must be >= 1"),
        ("unknown-family", {"family": "ball"}, f"unknown family 'ball'; expected one of {FAMILIES}"),
        ("p-nan", {"p": math.nan}, "p must be in {0} U (0, inf) U {inf}"),
        ("weights-short", {"weights": (1.0,)}, "weights length must equal dimension"),
        ("weights-long", {"weights": (1.0,) * 3}, "weights length must equal dimension"),
        ("order-nan", {"order": math.nan}, "order must be finite and >= 0"),
        ("order-inf", {"order": math.inf}, "order must be finite and >= 0"),
        ("weights-below-1", {"weights": (0.5, 0.5)}, "at least one weight must equal 1"),
        ("weight-above-1", {"weights": (1.5, 1.0)}, "weights must lie in (0, 1]"),
    ]],
    row("l0-ball-infinite", build_index_set, lambda: (IndexSetSpec(3, "wlp-ball", 1, p=0.0),), ValueError,
        "the 1-centered l^0 ball is infinite for order >= 1"),
    *[row(f"explicit-list-{id}", build_index_set, lambda indices=indices: (
          IndexSetSpec(2, "explicit-list", indices=indices),), ValueError, line) for id, indices, line in [
        ("empty", (), "multi-index set must be nonempty"),
        ("short-index", ((1, 1), (1,)), "bad multi-index (1,): need 2 entries, all >= 1"),
        ("zero-entry", ((1, 1), (1, 0)), "bad multi-index (1, 0): need 2 entries, all >= 1"),
        ("duplicate", ((1, 1), (1, 1)), "duplicate index (1, 1)"),
    ]],
    # the total-degree-3 ball in 3 dimensions has 20 members, and the closure of
    # {(1,1,1), (3,3,3)} the 27 of the 3^3 box
    row("ball-past-the-walk-bound", build_index_set, lambda: (IndexSetSpec(3, "wlp-ball", 3),), ValueError,
        "the set has more than 19 members; it is not enumerated", patches={"kronlev.indexset._MAX_MEMBERS": 19}),
    row("closure-past-the-walk-bound", lambda j: list(_missing_below(j)),
        lambda: (MultiIndexSet(3, ((1, 1, 1), (3, 3, 3))),), ValueError,
        "the lower closure of J has more than 26 members; it is not walked",
        patches={"kronlev.indexset._MAX_MEMBERS": 26}),
    # factor: a factor of full column rank, Vose tables of a probability vector, a row in range
    row("factor-more-columns-than-rows", build_factor, lambda: (gauss_legendre_grid(2), BasisSpec("monomial", 3)),
        ValueError, "grid has 2 nodes of positive weight but basis needs 3; "
        "a factor with fewer nonzero rows than columns cannot have full column rank"),
    row("factor-duplicate-column", lambda f: FactorMatrix(np.c_[f.matrix[:, :2], f.matrix[:, 1]], f.grid, f.basis),
        lambda: monomial_factors(1, 5, 3), ValueError,
        "factor matrix is rank deficient at column 3"),
    *[row(f"alias-{id}", build_alias, (p,), ValueError, line) for id, p, line in [
        ("negative", [0.5, -0.5], "probabilities must be nonnegative"),
        ("zero", [0.0, 0.0], f"probabilities sum to {np.float64(0.0)!r}, not 1"),
        ("sum-below-1", [0.3, 0.3], f"probabilities sum to {np.float64(0.6)!r}, not 1"),
        ("empty", [], "need a nonempty 1D probability vector"),
    ]],
    *[row(f"sample-nu-k-{k}", sample_nu_kd, lambda k=k: (monomial_factors(1, 5, 2)[0].prob,
          monomial_factors(1, 5, 2)[0].alias, np.array([0, k]), np.random.default_rng(0)), ValueError,
          "k outside [0, 1]") for k in (-1, 2)],
    # in blocks of two rows, row 7 reads row 3 of a 3-row table, in the first and the last dimension
    *[row(f"kron-rows-off-the-table-d{d}", _kron_rows,
          lambda d=d: ([np.ones((3, 4))] * 3, np.where(np.arange(30).reshape(10, 3) == 21 + d, 3, 0)),
          IndexError, "index 3 is out of bounds for axis 0 with size 3", prefix=True,
          patches={"kronlev.factor._ROW_BLOCK_BYTES": 8 * 4 * 2}) for d in (0, 2)],
    # sampler: the method's preconditions and the points it is asked about
    row("method-unknown", make_method, lambda: ("levered", monomial_factors(2, 5, 2)), ValueError,
        f"unknown sampler method 'levered'; expected one of {METHOD_TAGS}"),
    *[row(f"method-{tag}-without-a-set", make_method, lambda tag=tag: (tag, monomial_factors(2, 5, 2)), ValueError,
          f"method '{tag}' requires a multi-index set") for tag in ("orthogonal-columns", "leverage-lower")],
    row("method-leverage-lower-on-a-gap", make_method,
        lambda: ("leverage-lower", monomial_factors(2, 5, 2), MultiIndexSet(2, ((1, 1), (2, 2)))), ValueError,
        "leverage-lower sampling requires a monotone lower index set"),
    row("problem-method-leverage-lower-on-a-gap", lambda problem: problem.method("leverage-lower"),
        lambda: (ProblemSetup(MultiIndexSet(2, ((1, 1), (2, 2))), tuple(monomial_factors(2, 5, 2)), None),),
        ConfigError,
        "leverage-lower sampling requires a monotone lower index set"),
    row("method-orthogonal-columns-on-monomials", make_method,
        lambda: ("orthogonal-columns", monomial_factors(2, 5, 3), total_degree(2, 2)), ValueError,
        "factor columns are not orthogonal (max Gram off-diagonal 3.33e-01)"),
    # monomial columns are not orthogonal: the method is refused, and nothing walks L or gathers R_{L,J} for U
    row("method-orthogonal-columns-forms-no-r-lj", lambda problem: make_method(
        "orthogonal-columns", problem.factors, problem.index_set), lambda: (parse_problem({
            **load_json(packaged_config_path("ishigami-g7")), "basis": {"kind": "monomial"},
            "grid": {"grid": "gauss-legendre", "M": 20},
            "index_set": {"dimension": 3, "family": "explicit-list",
                          "indices": [[1, 1, 1], [3, 1, 1], [1, 2, 2], [2, 1, 3]]}}),),
        ValueError, "factor columns are not orthogonal (max Gram off-diagonal 3.33e-01)",
        unstarted=(_kron_rows, _missing_below)),
    row("point-mass-off-the-grid", point_mass_many,
        lambda: (make_method("uniform", monomial_factors(2, 5, 3)), [[5, 0]]), ValueError,
        "grid point index out of bounds"),
    # refused, not cast: cast, [[1.9, 0.2]] would read as [[1, 0]]
    *[row(f"point-mass-{tag}-{id}", point_mass_many, lambda tag=tag, bad=bad: (
          make_method(tag, problem()[1], lower()), bad), ValueError, f"grid rows must be integers, not {dtype}")
      for tag in METHOD_TAGS for id, bad, dtype in [
        ("list", [[1.9, 0.2]], "float64"), ("float", [[1.0, 0.0]], "float64"), ("bool", [[True, False]], "bool")]],
    # sketch: a sketch size, a finite system, a reduction's target and J's fit to its factors
    row("draw-sketch-count-0", draw_sketch, lambda: (make_method("uniform", monomial_factors(1, 3, 2)), 0, 1),
        ValueError, "sketch size must be >= 1"),
    *[row(f"solve-{case}-{entry}-{bad}", solve, partial(non_finite_system, case, entry, bad), ValueError,
          "the sketched system must be finite", unstarted=(np.linalg.lstsq,))
      for case in ("semi-normal", "past-the-bound", "fewer-rows") for entry in "ab" for bad in (np.nan, np.inf)],
    *[row(f"sample-size-{id}", sample_size, args, ValueError, line) for id, args, line in [
        ("embedding-n-0", ("embedding", 0, 0.5, 0.1), "n must be >= 1"),
        ("embedding-epsilon-1", ("embedding", 4, 1.0, 0.1), "embedding requires epsilon in (0, 1)"),
        ("embedding-epsilon-above-1", ("embedding", 4, 1.5, 0.1), "embedding requires epsilon in (0, 1)"),
        ("instance-Vb-epsilon-half", ("instance-Vb", 3, 0.5, 0.5), "instance-Vb requires epsilon in (0, 1/2)"),
        ("delta-above-1", ("expectation", 1, 1.0, 1.5), "delta must be in (0, 1)"),
        ("expectation-epsilon-0", ("expectation", 1, 0.0, 0.5), "expectation/truncation require epsilon > 0"),
        ("instance-V-epsilon-1", ("instance-V", 1, 1.0, 0.5), "instance-V requires epsilon in (0, 1)"),
        ("unknown-bound", ("chernoff", 1, 0.5, 0.5), f"unknown bound 'chernoff'; expected one of {SAMPLE_SIZE_BOUNDS}"),
    ]],
    row("separable-no-term", SeparableValues, ((),), ValueError,
        "a separable target needs a term over at least one dimension"),
    row("separable-term-over-no-dimension", SeparableValues, (((),),), ValueError,
        "a separable target needs a term over at least one dimension"),
    row("separable-table-missing", SeparableValues, (((np.ones(5), np.ones(5)), (np.ones(5),)),), ValueError,
        "every term needs one 1-D table per dimension, of one length"),
    row("separable-table-off-the-grid", reduce_full_grid,
        lambda: (total_degree(2, 1), legendre_factors(2, 5, 3), SeparableValues(((np.ones(5), np.ones(4)),))),
        ValueError, "b_values must hold one value per grid row"),
    row("grid-values-off-the-grid", reduce_full_grid,
        lambda: (total_degree(2, 2), monomial_factors(2, 4, 3), np.ones(15)), ValueError,
        "b_values must hold one value per grid row"),
    *[row(f"grid-values-{bad}", reduce_full_grid, lambda bad=bad: (total_degree(2, 2), monomial_factors(2, 4, 3),
          np.where(np.arange(16) == 5, bad, 1.0)), ValueError, "b_values must be finite")
      for bad in (np.nan, np.inf, -np.inf)],
    *[row(f"{kind}-values-{bad}", reduce_full_grid, partial(separable_non_finite, bad, kind), ValueError,
          "b_values must be finite") for bad in ("nan", "inf", "-inf", "overflow") for kind in ("separable", "grid")],
    *[row(f"{kind}-values-{case}", reduce_full_grid, partial(separable_zero, case, kind), ValueError,
          "b_values are zero wherever the grid weight is positive")
      for case in ("zero-tables", "zero-weight-node", "cancelling-terms") for kind in ("separable", "grid")],
    *[row(f"grid-values-zero-{where}", reduce_full_grid, partial(zero_grid_target, where), ValueError,
          "b_values are zero wherever the grid weight is positive") for where in ("everywhere", "off-the-weight")],
    *[row(f"{entry}-{id}", FIT_ENTRY_POINTS[entry], lambda degree=degree: (total_degree(*degree),
          legendre_factors(2, 4, 3)), ValueError, line) for entry in FIT_ENTRY_POINTS for id, degree, line in [
        ("box-too-large", (2, 3), "index set needs 4 columns in dimension 1, factor has 3"),
        ("wrong-dimension", (3, 1), "index set dimension does not match the number of factors"),
    ]],
    *[row(f"reduce-full-grid-D{dimension}-on-{count}-factors", reduce_full_grid, lambda dimension=dimension,
          count=count: (total_degree(dimension, 2), legendre_factors(count, 6, 3), np.ones(6**count)), ValueError,
          "index set dimension does not match the number of factors") for dimension, count in [(2, 3), (3, 2)]],
    # 8 x 8 rows, one past a lowered bound: J's record is not built and L is not walked
    row("leverage-scores-past-the-row-bound", leverage_scores, lambda: problem()[:2], ValueError,
        "full grid has 64 rows, beyond the score bound 63", patches={"kronlev.sketch._MAX_GRID_ROWS": 63},
        unstarted=(_subspace, _missing_below)),
    # a trial: the method on the reduction's factors and J (the same objects), then
    # its rows, all judged before the one gather of Q rows
    *[row(f"trial-{tag}-rows-{'x'.join(map(str, shape))}", trial_error,
          trial(tag, lambda s=shape: np.zeros(s, np.int64)), ValueError,
          "a trial needs K >= 1 rows" if shape == (0, 2) else
          "points must be rows of one index per dimension of the grid", unstarted=(_kron_rows,))
      for shape in [(0, 2), (5,), (5, 1), (5, 3), (2, 5, 2)] for tag in METHOD_TAGS],
    *[row(f"trial-{tag}-row-{bad}", trial_error, trial(tag, lambda bad=bad: np.array([[0, 1], [2, bad], [3, 3]])),
          ValueError, "grid point index out of bounds", unstarted=(_kron_rows,))
      for bad in (-1, 8) for tag in METHOD_TAGS],
    *[row(f"trial-{tag}-rows-{bad.dtype}-{i}", trial_error, trial(tag, lambda bad=bad: bad), ValueError,
          f"grid rows must be integers, not {bad.dtype}", unstarted=(_kron_rows,))
      for i, bad in enumerate(INTEGER_ROWS) for tag in METHOD_TAGS],
    *[row(f"trial-{tag}-zero-mass", trial_error, trial(tag, lambda: np.array([[0, 1], [6, 2], [3, 4]]),
          zero_weight_problem), ValueError, "a row has zero point mass under the method") for tag in METHOD_TAGS[1:]],
    # a method not built on the reduction's factors and J, the same objects; the uniform-weight
    # grid of the Gauss-Legendre nodes has the grid's shape, but its leverage tables would give nu
    *[row(f"trial-{id}", trial_error, args, ValueError, NOT_ITS_METHOD, unstarted=(_kron_rows,)) for id, args in [
        *[(f"{tag}-method-on-another-grid", lambda tag=tag: (
            problem()[2], make_method(tag, legendre_factors(2, 9, 3), lower()), np.zeros((4, 2), int)))
          for tag in METHOD_TAGS],
        *[(f"{tag}-method-on-the-gauss-legendre-weights", lambda tag=tag: (
            reduce_full_grid(total_degree(2, 3), legendre_factors(2, 8, 4, gauss_legendre_uniform_grid), np.ones(64)),
            make_method(tag, legendre_factors(2, 8, 4), total_degree(2, 3)), np.zeros((40, 2), np.int64)))
          for tag in ("uniform", "tensor-product", "leverage-lower")],
        *[(f"rows-drawn-on-{case}-seed-{seed}", partial(other_problems_trial, case, seed))
          for case in ("other-index-set", "other-factors") for seed in range(5)],
        ("on-equal-factors-of-other-objects", lambda: (problem()[2], make_method(
            "uniform", [build_factor(gauss_legendre_grid(8), problem()[1][0].basis)] * 2), np.zeros((12, 2), int))),
        ("on-an-equal-rebuilt-index-set", lambda: equal_index_set_trial(total_degree(2, 2))),
        *[(f"{tag}-on-a-{other.__name__}-of-J", lambda j=j, other=other, tag=tag: equal_index_set_trial(
            other(j()), j(), tag)) for j, tag in [(lower, "leverage-lower"), (gapped, "orthogonal-columns")]
          for other in (dataclasses.replace, copy.copy, copy.deepcopy)],
    ]],
    # oracle: the dense guard, b, and a design of full rank
    row("build-full-dense-guard", build_full, lambda: (total_degree(3, 1), monomial_factors(3, 101, 2),
        TargetFunction("zero", lambda c: np.zeros(len(c)))), ValueError,
        "full grid has 1030301 rows, beyond the dense guard 1000000"),
    *[row(f"build-full-b-values-{size}", lambda *args: build_full(*args[:2], b_values=args[2]),
          lambda size=size: (total_degree(2, 1), monomial_factors(2, 4, 2), np.ones(size)), ValueError,
          "b_values must hold one value per grid row") for size in (15, 17)],
    row("build-full-without-b", build_full, lambda: (total_degree(2, 1), monomial_factors(2, 4, 2)), ValueError,
        "provide target or b_values"),
    row("exact-leverage-rank-deficient", exact_leverage, lambda: (FullSystem(
        np.ones((6, 2)), np.ones(6), np.full(6, 1 / 6), (6,)),), ValueError, "design matrix is rank deficient"),
    # experiments: the Duffing step rules and blow-up, the models, a grid-valued model's row
    # bound (before it is evaluated or its file read), and the CDF of no trials
    row("duffing-blow-up", lambda y: duffing_qoi_batch(y, step=1e-2), ([0.0, 0.0, 100.0],), RuntimeError,
        "Duffing integration blew up (non-finite state)"),
    *[row(f"duffing-t-{t_final}-step-{step}", lambda t_final, step: duffing_qoi_batch([0.0] * 3, t_final, step),
          (t_final, step), ValueError, line) for t_final, step, line in [
        (4.0, 0.0, "step must be in (0, t_final], got 0.0"),
        (4.0, 10.0, "step must be in (0, t_final], got 10.0"),
        (-4.0, 1e-3, "t_final must be positive, got -4.0"),
        (0.0, 1e-3, "t_final must be positive, got 0.0"),
        (math.nan, 1e-3, "t_final must be finite, got nan"),
        (math.inf, 1e-3, "t_final must be finite, got inf"),
        (4.0, math.nan, "step must be in (0, t_final], got nan"),
        (4.0, math.inf, "step must be in (0, t_final], got inf"),
        (4.0, -1e-3, "step must be in (0, t_final], got -0.001"),
        (4.0, 1e-300, "step must be at least t_final / 10000000, got 1e-300"),
    ]],
    row("make-target-unknown", make_target, ({"name": "borehole"},), ValueError, "unknown model 'borehole'"),
    row("make-target-tabulated", make_target, ({"name": "tabulated", "path": "values.txt"},), ValueError,
        "a tabulated model has no target function; prepare_problem reads its file"),
    # the problem of a grid-valued model: 4^3 rows, one past a lowered bound
    *[row(f"prepare-problem-{model['name']}-past-the-row-bound", prepare_problem,
          lambda model=model: (ProblemSetup(total_degree(3, 1), tuple(legendre_factors(3, 4, 2)), model),), ValueError,
          "full grid has 64 rows, beyond the grid-value bound 63", patches={"kronlev.experiments._MAX_GRID_ROWS": 63},
          unstarted=(evaluate_on_grid, _tabulated_values))
      for model in ({"name": "duffing", "t_final": 4.0, "step": 1e-3}, {"name": "tabulated", "path": "missing.txt"})],
    # a path in a missing directory: the writer refuses before it opens the file
    *[row(f"{writer.__name__}-of-no-trials", writer, lambda: (TrialReport(
          methods=("uniform",), trials=0, errors={"uniform": []}, rank_flags={"uniform": []}, optimal_error=0.1,
          subspace_size=6, sample_count=24), "missing/cdf"), ValueError, "report holds no trials")
      for writer in (emit_cdf, emit_cdf_svg)],
]


@pytest.mark.parametrize("refusal", LIBRARY_REFUSALS)
def test_a_refused_call_raises_its_exact_exception(refusal, monkeypatch, capfd):
    # a kronlev object in a row is built in its test, never at collection
    assert callable(refusal.args) or not any(type(arg).__module__.startswith("kronlev") for arg in refusal.args)
    args = refusal.args() if callable(refusal.args) else refusal.args
    for target, value in refusal.patches.items():
        monkeypatch.setattr(target, value)
    calls = count_calls(monkeypatch, *refusal.unstarted)
    # numpy's overflow and invalid-value warnings on a non-finite b are not the refusal
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Exception) as raised:
        refusal.call(*args)
    text = str(raised.value)
    assert (type(raised.value), text[: len(refusal.line)] if refusal.prefix else text) == (refusal.kind, refusal.line)
    assert calls == []
    assert capfd.readouterr() == ("", "")
