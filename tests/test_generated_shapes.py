"""Generated problem shapes: the dense oracle and the bits checked where no fixed test looks.

A ``Shape`` is plain data: D grids (Gauss-Legendre, GL-uniform or random
nodes), a basis per dimension, J (the lower closure of a few points, or that
closure with one member taken out, which may leave J not lower) and a target
(a random member of J's span plus noise of a drawn size).  ``shapes()``
draws them with D 1-4, M_d 2-9 and a basis box of at most ``MAX_BOX``
columns; ``problem`` builds one.

The oracle half checks each drawn shape against the dense reference: the
leverage scores that ``sketch.leverage_scores`` reads from J's record, the
exact methods' point masses, the optimum and the trials.  It runs once with
numpy's OpenBLAS as found and once with ``factor._openblas`` patched to None,
which takes the solve's numpy back end.  A tolerance is 32 kappa eps,
kappa the condition number of the dense design matrix (of the assembled
sketch, for a trial), so at least 32 eps: a fixed relative tolerance fails on
correct code, where an optimum sits at rounding level or a monomial factor
over random nodes is ill conditioned.  Each shape also checks that its
methods and its reduction hold J's one record.  Of 3000 drawn shapes, 3 at
D = 4 went past it, each where the dense QR of ``exact_leverage`` drifts
with the row count; ``DRIFT`` checks one of them against the exact leverage.

The bits half takes ``FIXED_SHAPES`` and compares the bytes of
``reduce_full_grid`` and ``trial_error`` across BLAS thread counts (1 and 2,
set in this process) and row cuts (one block against a small
``factor._ROW_BLOCK_BYTES``).
"""

import hashlib
import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronlev.factor as factor_module
from kronlev.factor import build_factor
from kronlev.grid_basis import (
    BASIS_KINDS,
    BasisSpec,
    Grid1D,
    eval_basis_matrix,
    gauss_legendre_grid,
    gauss_legendre_uniform_grid,
)
from kronlev.indexset import IndexSetSpec, build_index_set
from kronlev.oracle import build_full, exact_leverage, solve_full
from kronlev.sampler import METHOD_TAGS, make_method, point_mass_many, sample_indices
from kronlev.sketch import (
    TargetFunction,
    assemble,
    draw_sketch,
    full_relative_error,
    leverage_scores,
    reduce_full_grid,
    solve,
    trial_error,
)

EPS = np.finfo(float).eps
GRID_KINDS = ("gauss-legendre", "gl-uniform", "random-nodes")


class Shape(NamedTuple):
    grids: tuple  # (kind, M_d) per dimension
    bases: tuple  # (kind, N_d) per dimension
    members: tuple  # J's multi-indices
    noise: float  # the size of the target's part outside J's span
    seed: int  # random nodes and weights, the target, the trials' rows


def grid(kind, m, rng):
    if kind == "gauss-legendre":
        return gauss_legendre_grid(m)
    if kind == "gl-uniform":
        return gauss_legendre_uniform_grid(m)
    # gaps of 0.5-1.5 spread over [-1, 1], so no two nodes nearly meet
    nodes = np.cumsum(rng.uniform(0.5, 1.5, m))
    weights = rng.uniform(0.5, 1.5, m)
    return Grid1D(2.0 * (nodes - nodes[0]) / (nodes[-1] - nodes[0]) - 1.0, weights / weights.sum())


# The largest basis box, prod_d N_d: it bounds N and so the dense oracle's columns
MAX_BOX = 343


@st.composite
def shapes(draw):
    dimension = draw(st.integers(1, 4))
    grids = tuple((draw(st.sampled_from(GRID_KINDS)), draw(st.integers(2, 9))) for _ in range(dimension))
    # counted down from the largest the box admits, so a shape shrinks to square
    # factors where it can and J the whole box
    bases, box = [], 1
    for _, m in grids:
        top = min(m, MAX_BOX // box)
        bases.append((draw(st.sampled_from(BASIS_KINDS)), top - draw(st.integers(0, top - 1))))
        box *= bases[-1][1]
    bases = tuple(bases)
    below = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for _, n in bases]), min_size=1, max_size=4))
    points = [[n - k for (_, n), k in zip(bases, offsets)] for offsets in below]
    members = sorted({beta for alpha in points for beta in product(*(range(1, a + 1) for a in alpha))})
    if len(members) > 1 and draw(st.booleans()):
        del members[draw(st.integers(0, len(members) - 1))]
    noise = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    return Shape(grids, bases, tuple(members), noise, draw(st.integers(0, 2**16)))


class Problem(NamedTuple):
    index_set: object
    factors: list
    values: np.ndarray  # the target on the grid, lexicographic
    target: TargetFunction  # the same values, looked up at a point's nodes
    methods: dict  # tag -> method, for every method the shape admits


def problem(shape):
    rng = np.random.default_rng(shape.seed)
    factors = [build_factor(grid(kind, m, rng), BasisSpec(basis, n))
               for (kind, m), (basis, n) in zip(shape.grids, shape.bases)]
    index_set = build_index_set(IndexSetSpec(len(factors), "explicit-list", indices=shape.members))
    # a random member of J's span, unweighted, plus noise on every node
    columns = np.ones((math.prod(m for _, m in shape.grids), len(index_set)))
    per_dim = np.unravel_index(np.arange(len(columns)), [m for _, m in shape.grids])
    cols = np.asarray(index_set.indices) - 1
    for d, f in enumerate(factors):
        columns *= eval_basis_matrix(f.basis, f.grid.nodes)[per_dim[d]][:, cols[:, d]]
    values = columns @ rng.standard_normal(len(index_set)) + shape.noise * rng.standard_normal(len(columns))
    table = values.reshape([m for _, m in shape.grids])
    target = TargetFunction("table", lambda c: table[tuple(
        np.searchsorted(f.grid.nodes, c[:, d]) for d, f in enumerate(factors))])
    methods = {}
    for tag in METHOD_TAGS:
        try:
            methods[tag] = make_method(tag, factors, index_set)
        except ValueError:  # leverage-lower on a J that is not lower, orthogonal-columns on other factors
            pass
    return Problem(index_set, factors, values, target, methods)


def exact_methods(p):
    """The methods whose point mass is the design matrix's leverage score."""
    box = math.prod(f.matrix.shape[1] for f in p.factors)
    grid_size = math.prod(f.matrix.shape[0] for f in p.factors)
    exact = {"leverage-lower", "orthogonal-columns"}
    exact |= {"tensor-product"} if len(p.index_set) == box else set()
    exact |= {"uniform"} if len(p.index_set) == grid_size else set()
    return [tag for tag in p.methods if tag in exact]


def check_against_the_oracle(shape):
    """Leverage, optimum and trials of one shape, each within 32 kappa eps of its dense reference."""
    p = problem(shape)
    full = build_full(p.index_set, p.factors, b_values=p.values)
    kappa = np.linalg.cond(full.matrix)
    rows = np.stack(np.unravel_index(np.arange(len(full.rhs)), full.grid_shape), axis=1)
    scores = exact_leverage(full)
    # the scores read from J's record, lower or not, and the exact methods' point masses
    structured = np.concatenate(list(leverage_scores(p.index_set, p.factors)))
    assert np.max(np.abs(structured - scores)) <= 32 * kappa * EPS * scores.max()
    for tag in exact_methods(p):
        masses = point_mass_many(p.methods[tag], rows)
        assert np.max(np.abs(masses - scores)) <= 32 * kappa * EPS * scores.max(), tag
    reduction = reduce_full_grid(p.index_set, p.factors, p.values)
    # a mixture method holds the reduction's J, the same object
    assert all(method.index_set is None or method.index_set is reduction.subspace.index_set
               for method in p.methods.values())
    assert abs(reduction.optimal_error - solve_full(full).relative_error) <= 32 * kappa * EPS
    for tag, method in p.methods.items():
        sketch = draw_sketch(method, 3 * len(p.index_set), shape.seed)
        error, deficient = trial_error(reduction, method, sketch.indices0)
        system = assemble(p.index_set, [f.basis for f in p.factors], sketch, p.target)
        if not system.matrix.any(axis=0).all():
            continue  # a column of zeros: test_a_sketch_zero_in_a_column_is_flagged_rank_deficient
        solution = solve(system)
        assert deficient == solution.rank_deficient, tag
        if not deficient:  # a rank-deficient sketch's minimum-norm fit depends on the coordinates
            expected = full_relative_error(reduction, solution.x)
            assert abs(error - expected) <= 32 * np.linalg.cond(system.matrix) * EPS * max(expected, 1.0), tag


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(shape=shapes())
def test_generated_shapes_agree_with_the_dense_oracle(shape):
    found = factor_module._openblas()
    for binding in (found, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factor_module, "_openblas", lambda: binding)
            check_against_the_oracle(shape)


def rational_leverage(matrix):
    """a_m^T (A^T A)^{-1} a_m / N of each row, exact on the matrix's float entries, then rounded."""
    a = [[Fraction(x) for x in row] for row in matrix.tolist()]
    n = len(a[0])
    # Gauss-Jordan elimination of [A^T A | I] gives the inverse Gram
    table = [[sum(row[i] * row[j] for row in a) for j in range(n)] + [Fraction(i == j) for j in range(n)]
             for i in range(n)]
    for col in range(n):
        table[col] = [x / table[col][col] for x in table[col]]
        for r in range(n):
            if r != col:
                table[r] = [x - table[r][col] * y for x, y in zip(table[r], table[col])]
    inverse = [row[n:] for row in table]
    return np.array([float(sum(row[i] * inverse[i][j] * row[j] for i in range(n) for j in range(n)) / n)
                     for row in a])


# A shape of D = 4 on 1080 rows, one of 3 in a probe of 3000 drawn shapes
# where exact_leverage, the dense QR's row norms, was 157 kappa eps of the
# largest score from the exact leverage: the QR's error grows with the row
# count.  The point mass and the scores read from J's record stay within
# 32 kappa eps of the exact leverage.
DRIFT = Shape(
    (("gl-uniform", 6), ("gl-uniform", 5), ("gl-uniform", 9), ("gl-uniform", 4)),
    (("legendre-orthonormal", 1), ("monomial", 1), ("legendre-orthonormal", 9), ("legendre-orthonormal", 2)),
    ((1, 1, 1, 1), (1, 1, 1, 2)),
    1e-6,
    65536,
)


def test_point_mass_is_the_exact_leverage_where_the_dense_qr_drifts():
    p = problem(DRIFT)
    full = build_full(p.index_set, p.factors, b_values=p.values)
    kappa, exact = np.linalg.cond(full.matrix), rational_leverage(full.matrix)
    rows = np.stack(np.unravel_index(np.arange(len(full.rhs)), full.grid_shape), axis=1)
    assert exact_methods(p) == ["leverage-lower"]
    masses = point_mass_many(p.methods["leverage-lower"], rows)
    assert np.max(np.abs(masses - exact)) <= 32 * kappa * EPS * exact.max()
    structured = np.concatenate(list(leverage_scores(p.index_set, p.factors)))
    assert np.max(np.abs(structured - exact)) <= 32 * kappa * EPS * exact.max()


# The rows of a tensor-product draw all fall on the middle node of a 3-node
# Gauss-Legendre grid, where J's one column, Legendre P_1, is zero.  In Q
# coordinates the column gathers rounding noise, which the relative
# min/max diagonal gate of a one-column Gram cannot refuse.
ZERO_COLUMN = Shape(
    (("gauss-legendre", 3), ("random-nodes", 5), ("gl-uniform", 5)),
    (("legendre-orthonormal", 2), ("monomial", 1), ("monomial", 1)),
    ((2, 1, 1),),
    1.0,
    301,
)


@pytest.mark.xfail(strict=True, reason="a sketch whose one column is zero passes the Cholesky gate in Q coordinates")
def test_a_sketch_zero_in_a_column_is_flagged_rank_deficient():
    p = problem(ZERO_COLUMN)
    method = p.methods["tensor-product"]
    sketch = draw_sketch(method, 3, ZERO_COLUMN.seed)
    assert not assemble(p.index_set, [f.basis for f in p.factors], sketch, p.target).matrix.any()
    reduction = reduce_full_grid(p.index_set, p.factors, p.values)
    assert trial_error(reduction, method, sketch.indices0) == (1.0, True)


# Fixed shapes for the bits, in the strategy's terms.  The drawn grids have
# at most 49 rows in the last mode product, which no budget cuts, so "wide"
# has 70 rows of 300 values: one block under a huge budget, 64 rows and 6
# under the default or a small one.  J's box takes every column of the last
# factor, so Q_D enters whole, and the target lies in J's span, so the
# optimum is at rounding level and shows any rounding of r.  Its 21,000
# values are above OpenBLAS's 10^4-element split of a dot product: with the
# reduction unpinned, seed 8's ||b||^2 rounds apart at one and two threads
# (seed 7's happened to round alike).
FIXED_SHAPES = {
    "wide": Shape(
        (("gauss-legendre", 70), ("gauss-legendre", 300)),
        (("legendre-orthonormal", 3), ("legendre-orthonormal", 3)),
        tuple((a, b) for a in range(1, 4) for b in range(1, 4) if a + b <= 4),
        0.0,
        8,
    ),
    "D3-non-lower": Shape(
        (("random-nodes", 7), ("gl-uniform", 6), ("gauss-legendre", 7)),
        (("monomial", 5), ("legendre-orthonormal", 4), ("legendre-orthonormal", 7)),
        tuple(alpha for alpha in product(range(1, 6), range(1, 5), range(1, 8))
              if sum(alpha) <= 8 and alpha != (2, 2, 2)),
        1e-6,
        11,
    ),
    "D2-lower": Shape(
        (("gauss-legendre", 7), ("gauss-legendre", 7)),
        (("legendre-orthonormal", 7), ("legendre-orthonormal", 7)),
        tuple(alpha for alpha in product(range(1, 8), repeat=2) if sum(alpha) <= 8),
        1.0,
        3,
    ),
}


def fingerprints():
    """Per fixed shape: the reduction's c, ||b||^2, ||r||^2 and optimum, and each method's trial, as text."""
    out = {}
    for name, shape in FIXED_SHAPES.items():
        p = problem(shape)
        reduction = reduce_full_grid(p.index_set, p.factors, p.values)
        out[name] = [hashlib.sha256(reduction.c.tobytes()).hexdigest(), reduction.b_sq.hex(),
                     reduction.residual_sq.hex(), reduction.optimal_error.hex()]
        for tag, method in p.methods.items():
            rows = sample_indices(method, np.random.default_rng(shape.seed), 3 * len(p.index_set))
            error, deficient = trial_error(reduction, method, rows)
            out[name].append(f"{tag} {error.hex()} {deficient}")
    return out


def test_fixed_shapes_keep_their_bits_across_blas_threads_and_row_cuts(openblas, monkeypatch):
    by_threads = []
    for count in (1, 2):
        openblas.set_threads(count)
        by_threads.append(fingerprints())
        assert openblas.get_threads() == count
    cuts = []
    # one block for every pass; then 64-row blocks, and one row per _kron_rows block
    for block_bytes in (1 << 40, 1):
        monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", block_bytes)
        cuts.append(fingerprints())
    assert by_threads[1] == by_threads[0]
    assert cuts == [by_threads[0]] * 2
