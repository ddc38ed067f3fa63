import itertools
import math

import numpy as np
import pytest

from kronlev.indexset import IndexSetSpec, build_index_set
from kronlev.oracle import (
    FullSystem,
    aliasing_statistic,
    build_full,
    exact_leverage,
    flat_row_index,
    gram_statistic,
    solve_full,
)
from kronlev.sampler import make_method
from kronlev.sketch import Sketch, SketchedSystem, TargetFunction, draw_sketch, solve
from helpers import monomial_factors, total_degree


def full_box(shape):
    return build_index_set(
        IndexSetSpec(dimension=len(shape), family="explicit-list",
                     indices=tuple(itertools.product(*(range(1, n + 1) for n in shape))))
    )


SMOOTH = TargetFunction("smooth", lambda c: np.exp(c.sum(axis=1)))
ZERO = TargetFunction("zero", lambda c: np.zeros(c.shape[0]))


def full_grid_sketch(system):
    """Deterministic sketch containing every grid row with v = mu weights.

    Each of the K rows gets point mass 1/K, so v = mu / (1/K) / K = mu up to rounding.
    """
    shape = system.grid_shape
    idx0 = np.array(list(itertools.product(*(range(s) for s in shape))), dtype=np.int64)
    coords = np.zeros(idx0.shape, dtype=float)
    point_mass = np.full(idx0.shape[0], 1.0 / idx0.shape[0])
    return Sketch(idx0, coords, point_mass, system.row_weights.copy())


class TestBuildFull:
    def test_full_box_equals_kronecker_product(self):
        factors = monomial_factors(2, 4, 2)
        system = build_full(full_box((2, 2)), factors, SMOOTH)
        kron = np.kron(factors[0].matrix, factors[1].matrix)
        assert np.max(np.abs(system.matrix - kron)) < 1e-14

    def test_column_subset_selects_kronecker_columns(self):
        factors = monomial_factors(2, 5, 3)
        index_set = total_degree(2, 2)
        system = build_full(index_set, factors, SMOOTH)
        kron = np.kron(factors[0].matrix, factors[1].matrix)
        for n, alpha in enumerate(index_set.indices):
            # Kronecker column number over the 3x3 box, dimension 1 slowest
            col = np.ravel_multi_index(tuple(a - 1 for a in alpha), (3, 3))
            assert np.max(np.abs(system.matrix[:, n] - kron[:, col])) < 1e-14

    def test_one_dimension_is_column_restriction(self):
        factors = monomial_factors(1, 6, 4)
        index_set = total_degree(1, 2)
        system = build_full(index_set, factors, SMOOTH)
        assert np.array_equal(system.matrix, factors[0].matrix[:, :3])

    def test_row_count_is_grid_product(self):
        factors = monomial_factors(3, 20, 8)
        system = build_full(total_degree(3, 7), factors, ZERO)
        assert system.matrix.shape == (8000, 120)


class TestExactLeverage:
    def test_square_invertible_gives_uniform_scores(self):
        factors = monomial_factors(1, 4, 4)
        scores = exact_leverage(build_full(total_degree(1, 3), factors, ZERO))
        assert np.max(np.abs(scores - 0.25)) < 1e-12

    def test_scores_sum_to_one(self):
        system = build_full(total_degree(2, 2), monomial_factors(2, 5, 3), SMOOTH)
        assert abs(exact_leverage(system).sum() - 1.0) < 1e-10

    def test_product_identity_on_full_box(self):
        # leverage of a Kronecker product factors into per-dimension scores
        factors = monomial_factors(2, 4, 2)
        system = build_full(full_box((2, 2)), factors, ZERO)
        scores = exact_leverage(system)
        per_dim = [(f.q ** 2).sum(axis=1) / 2 for f in factors]
        for m1, m2 in itertools.product(range(4), repeat=2):
            row = flat_row_index(np.array([[m1, m2]]), (4, 4))[0]
            assert scores[row] == pytest.approx(per_dim[0][m1] * per_dim[1][m2], abs=1e-12)


class TestSolveFull:
    def test_consistent_system_has_zero_error(self):
        factors = monomial_factors(2, 5, 3)
        index_set = total_degree(2, 2)
        base = build_full(index_set, factors, ZERO)
        from kronlev.oracle import FullSystem

        x0 = np.arange(1.0, 7.0)
        system = FullSystem(base.matrix, base.matrix @ x0, base.row_weights, base.grid_shape)
        solution = solve_full(system)
        assert solution.relative_error < 1e-12
        assert np.max(np.abs(solution.x - x0)) < 1e-10
        assert not solution.rank_deficient

    def test_residual_orthogonal_to_range(self):
        system = build_full(total_degree(2, 3), monomial_factors(2, 6, 4), SMOOTH)
        solution = solve_full(system)
        residual = system.rhs - system.matrix @ solution.x
        assert np.max(np.abs(system.matrix.T @ residual)) < 1e-10

    def test_rank_flag_agrees_with_the_sketch_solve(self):
        # sigma_min / sigma_max = 2e-12 is above the one rank threshold, 1e-12, and
        # below numpy's default lstsq threshold eps * max(M, N) = 4.4e-12 at 20000 rows
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((20000, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a, b = (u * [1.0, 1e-6, 2e-12]) @ v.T, rng.standard_normal(20000)
        full = solve_full(FullSystem(a, b, np.full(20000, 1.0 / 20000), (20000,)))
        sketched = solve(SketchedSystem(a, b))
        assert full.rank_deficient == sketched.rank_deficient
        assert not full.rank_deficient


class TestPropLowerBasis:
    def test_kronecker_q_columns_span_range(self):
        # product Q columns gathered over a lower set span the range of A
        factors = monomial_factors(2, 5, 3)
        index_set = total_degree(2, 2)
        system = build_full(index_set, factors, ZERO)
        qs = [f.q for f in factors]
        cols = []
        for alpha in index_set.indices:
            cols.append(np.kron(qs[0][:, alpha[0] - 1], qs[1][:, alpha[1] - 1]))
        q = np.column_stack(cols)
        assert np.max(np.abs(q.T @ q - np.eye(len(index_set)))) < 1e-12
        assert np.max(np.abs(q @ (q.T @ system.matrix) - system.matrix)) < 1e-10


@pytest.fixture(scope="module")
def gram_setup():
    factors = monomial_factors(2, 5, 3)
    index_set = total_degree(2, 2)
    system = build_full(index_set, factors, SMOOTH)
    u = np.linalg.qr(system.matrix)[0]
    method = make_method("leverage-lower", factors, index_set)
    return system, u, method


@pytest.fixture(scope="module")
def aliasing_setup():
    factors = monomial_factors(2, 5, 3)
    index_set = total_degree(2, 2)
    system = build_full(index_set, factors, SMOOTH)
    u = np.linalg.qr(system.matrix)[0]
    solution = solve_full(system)
    residual = system.rhs - system.matrix @ solution.x
    method = make_method("leverage-lower", factors, index_set)
    return system, u, residual, method


class TestGramStatistic:

    def test_exact_on_deterministic_full_sketch(self, gram_setup):
        system, u, _ = gram_setup
        assert gram_statistic(u, system, full_grid_sketch(system)) < 1e-10

    def test_nonnegative_and_large_for_tiny_sketch(self, gram_setup):
        system, u, method = gram_setup
        sketch = draw_sketch(method, 1, 0)
        assert gram_statistic(u, system, sketch) >= 0.0

    def test_concentrates_for_large_sketches(self, gram_setup):
        system, u, method = gram_setup
        stats = [gram_statistic(u, system, draw_sketch(method, 4000, s)) for s in range(5)]
        assert max(stats) < 0.2


class TestAliasingStatistic:

    def test_zero_when_b_in_range(self, aliasing_setup):
        system, u, _, method = aliasing_setup
        sketch = draw_sketch(method, 30, 1)
        assert aliasing_statistic(u, system, np.zeros_like(system.rhs), sketch) < 1e-12

    def test_zero_on_deterministic_full_sketch(self, aliasing_setup):
        system, u, residual, _ = aliasing_setup
        assert aliasing_statistic(u, system, residual, full_grid_sketch(system)) < 1e-10

    def test_expectation_identity(self, aliasing_setup):
        # E[statistic] = (N/K) ||b_perp||^2 over sketches
        system, u, residual, method = aliasing_setup
        k = 25
        n = u.shape[1]
        rng = np.random.default_rng(31)
        values = np.array(
            [aliasing_statistic(u, system, residual, draw_sketch(method, k, rng))
             for _ in range(4000)]
        )
        expected = n / k * float(residual @ residual)
        stderr = values.std() / math.sqrt(values.size)
        assert abs(values.mean() - expected) < 3 * stderr
