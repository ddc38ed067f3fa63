import math

import numpy as np
import pytest

from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, Grid1D, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set
from kronlev.oracle import build_full, sketch_operator, solve_full
from kronlev.sampler import METHOD_TAGS, make_method
from kronlev.experiments import evaluate_on_grid
from kronlev.sketch import (
    SketchedSystem,
    TargetFunction,
    assemble,
    draw_sketch,
    full_relative_error,
    reduce_full_grid,
    sample_size,
    solve,
    trial_error,
)


def total_degree(dimension, order):
    return build_index_set(
        IndexSetSpec(dimension=dimension, family="wlp-ball", order=order,
                     weights=(1.0,) * dimension)
    )


def monomial_factors(dimension, m, n):
    return [build_factor(gauss_legendre_grid(m), BasisSpec("monomial", n))] * dimension


SMOOTH = TargetFunction("smooth", lambda c: np.exp(c[:, 0]) * np.cos(2.0 * c[:, 1]))


class TestDrawSketch:
    def test_uniform_weights_closed_form(self):
        # dmu/dnu = M * w_m for uniform sampling on a weighted grid
        factors = monomial_factors(1, 3, 2)
        method = make_method("uniform", factors)
        sketch = draw_sketch(method, 50, 4)
        w = factors[0].grid.weights[sketch.indices0[:, 0]]
        assert np.max(np.abs(sketch.weights - 3.0 * w / 50)) < 1e-15

    def test_fixed_seed_reproducible(self):
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        method = make_method("leverage-lower", factors, index_set)
        a = draw_sketch(method, 30, 99)
        b = draw_sketch(method, 30, 99)
        assert np.array_equal(a.indices0, b.indices0)
        assert np.array_equal(a.weights, b.weights)

    def test_weight_sum_is_unbiased(self):
        # E[sum v_k] = 1 (tau-unbiasedness with f == 1)
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        method = make_method("leverage-lower", factors, index_set)
        rng = np.random.default_rng(2024)
        sums = np.array([draw_sketch(method, 8, rng).weights.sum() for _ in range(10**4)])
        stderr = sums.std() / math.sqrt(sums.size)
        assert abs(sums.mean() - 1.0) < 3 * stderr

    def test_bad_count(self):
        method = make_method("uniform", monomial_factors(1, 3, 2))
        with pytest.raises(ValueError):
            draw_sketch(method, 0, 1)


class TestAssemble:
    def test_single_cell(self):
        index_set = total_degree(1, 0)
        factors = monomial_factors(1, 3, 1)
        method = make_method("uniform", factors)
        sketch = draw_sketch(method, 1, 0)
        system = assemble(index_set, [BasisSpec("monomial", 1)], sketch,
                          TargetFunction("one", lambda c: np.ones(c.shape[0])))
        assert system.matrix.shape == (1, 1)
        assert system.matrix[0, 0] == pytest.approx(math.sqrt(sketch.weights[0]))
        assert system.rhs[0] == pytest.approx(math.sqrt(sketch.weights[0]))

    def test_product_basis_values(self):
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        method = make_method("leverage-lower", factors, index_set)
        sketch = draw_sketch(method, 20, 8)
        system = assemble(index_set, [BasisSpec("monomial", 3)] * 2, sketch, SMOOTH)
        assert system.matrix.shape[1] == len(index_set)
        # recompute one entry per dimension independently
        for n, alpha in enumerate(index_set.indices):
            y = sketch.coords[3]
            expected = math.sqrt(sketch.weights[3])
            expected *= y[0] ** (alpha[0] - 1) * y[1] ** (alpha[1] - 1)
            assert system.matrix[3, n] == pytest.approx(expected, rel=1e-12)

    def test_equals_explicit_row_selection_operator(self):
        # the assembled system is exactly S applied to the weighted full system
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 4, 3)
        method = make_method("leverage-lower", factors, index_set)
        sketch = draw_sketch(method, 25, 3)
        assembled = assemble(index_set, [BasisSpec("monomial", 3)] * 2, sketch, SMOOTH)
        full = build_full(index_set, factors, SMOOTH)
        s = sketch_operator(sketch, full)
        assert np.max(np.abs(s @ full.matrix - assembled.matrix)) < 1e-13
        assert np.max(np.abs(s @ full.rhs - assembled.rhs)) < 1e-13


class TestSolve:
    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 3.0])
        solution = solve(SketchedSystem(np.eye(3), rhs))
        assert np.allclose(solution.x, rhs, atol=1e-14)
        assert not solution.rank_deficient

    def test_planted_solution_recovered(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((40, 6))
        x0 = rng.standard_normal(6)
        solution = solve(SketchedSystem(a, a @ x0))
        assert np.max(np.abs(solution.x - x0)) < 1e-10
        assert np.linalg.norm(a @ solution.x - a @ x0) < 1e-10

    def test_normal_equation_residual_bound(self):
        # for a full-rank inconsistent system the solve must satisfy the
        # normal equations to high relative accuracy
        rng = np.random.default_rng(23)
        a = rng.standard_normal((60, 8))
        b = rng.standard_normal(60)
        solution = solve(SketchedSystem(a, b))
        lhs = np.linalg.norm(a.T @ (a @ solution.x - b))
        assert lhs <= 1e-8 * np.linalg.norm(a.T @ b)

    def test_zero_column_flags_rank(self):
        a = np.ones((5, 2))
        a[:, 1] = 0.0
        solution = solve(SketchedSystem(a, np.ones(5)))
        assert solution.rank_deficient
        assert solution.x[1] == 0.0  # minimum-norm puts nothing on the dead column

    def test_underdetermined_minimum_norm(self):
        a = np.array([[1.0, 0.0, 0.0]])
        solution = solve(SketchedSystem(a, np.array([2.0])))
        assert solution.rank_deficient
        assert np.allclose(solution.x, [2.0, 0.0, 0.0])

    def test_pythagorean_identity_at_full_solution(self):
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        full = build_full(index_set, factors, SMOOTH)
        best = solve_full(full)
        method = make_method("leverage-lower", factors, index_set)
        sketch = draw_sketch(method, 40, 5)
        solution = solve(assemble(index_set, [BasisSpec("monomial", 3)] * 2, sketch, SMOOTH))
        lhs = np.linalg.norm(full.matrix @ solution.x - full.rhs) ** 2
        rhs = (
            np.linalg.norm(full.matrix @ best.x - full.rhs) ** 2
            + np.linalg.norm(full.matrix @ (solution.x - best.x)) ** 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)


def reduction_of(index_set, factors, target):
    return reduce_full_grid(index_set, factors, evaluate_on_grid(target, [f.grid for f in factors]))


NON_LOWER = build_index_set(
    IndexSetSpec(dimension=2, family="explicit-list", indices=((1, 1), (3, 1), (2, 3), (1, 2)))
)


class TestFullRelativeError:
    def test_zero_coefficients_give_one(self):
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        reduction = reduction_of(index_set, factors, SMOOTH)
        assert full_relative_error(reduction, np.zeros(6)) == pytest.approx(1.0)

    @pytest.mark.parametrize("index_set", [total_degree(2, 2), NON_LOWER], ids=["lower", "non-lower"])
    @pytest.mark.parametrize("coefficients", ["optimal", "arbitrary"])
    def test_matches_dense_oracle(self, index_set, coefficients):
        factors = monomial_factors(2, 6, 3)
        full = build_full(index_set, factors, SMOOTH)
        if coefficients == "optimal":
            x = solve_full(full).x
        else:
            x = np.linspace(-1.0, 1.0, len(index_set))
        dense = np.linalg.norm(full.matrix @ x - full.rhs) / np.linalg.norm(full.rhs)
        reduced = full_relative_error(reduction_of(index_set, factors, SMOOTH), x)
        assert reduced == pytest.approx(dense, rel=1e-12)

    def test_rank_deficient_factor_rejected(self):
        # a zero-weight node leaves two nonzero rows for three basis columns
        grid = Grid1D(np.array([-0.5, 0.0, 0.5]), np.array([0.5, 0.5, 0.0]))
        factors = [build_factor(grid, BasisSpec("monomial", 3))] * 2
        with pytest.raises(ValueError, match="rank deficient"):
            reduce_full_grid(total_degree(2, 2), factors, np.ones(9))


def reference_trial(index_set, factors, reduction, sketch, target):
    """The trial by basis evaluation: assemble, solve, full-grid error."""
    solution = solve(assemble(index_set, [f.basis for f in factors], sketch, target))
    return full_relative_error(reduction, solution.x), solution.rank_deficient


class TestTrialError:
    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_matches_assembled_sketch(self, tag):
        index_set = total_degree(2, 3)
        factors = [build_factor(gauss_legendre_grid(7), BasisSpec("legendre-orthonormal", 4))] * 2
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method(tag, factors, index_set)
        for seed in range(5):
            sketch = draw_sketch(method, 4 * len(index_set), seed)
            error, deficient = trial_error(reduction, sketch)
            expected = reference_trial(index_set, factors, reduction, sketch, SMOOTH)
            assert error == pytest.approx(expected[0], rel=1e-12)
            assert deficient == expected[1]

    @pytest.mark.parametrize(
        "index_set,count",
        [(NON_LOWER, 20), (total_degree(2, 4), 60)],
        ids=["non-lower-uniform", "monomial-order-4"],
    )
    def test_matches_assembled_sketch_off_the_orthonormal_case(self, index_set, count):
        factors = monomial_factors(2, 8, max(index_set.bounding_box))
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method("uniform", factors, index_set)
        for seed in range(5):
            sketch = draw_sketch(method, count, seed)
            error, deficient = trial_error(reduction, sketch)
            expected = reference_trial(index_set, factors, reduction, sketch, SMOOTH)
            assert error == pytest.approx(expected[0], rel=1e-12)
            assert deficient == expected[1]

    def test_zero_weight_node_gives_zero_rows(self):
        # uniform draws reach the zero-weight end nodes, where v_k = mu = 0
        grid = Grid1D(np.linspace(-0.9, 0.9, 6), np.array([0.0, 0.25, 0.25, 0.25, 0.25, 0.0]))
        factors = [build_factor(grid, BasisSpec("monomial", 3))] * 2
        index_set = total_degree(2, 2)
        reduction = reduction_of(index_set, factors, SMOOTH)
        sketch = draw_sketch(make_method("uniform", factors), 40, 6)
        assert np.any(sketch.weights == 0.0)
        error, deficient = trial_error(reduction, sketch)
        expected = reference_trial(index_set, factors, reduction, sketch, SMOOTH)
        assert error == pytest.approx(expected[0], rel=1e-12)
        assert deficient == expected[1]

    def test_fewer_rows_than_columns_is_flagged(self):
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method("leverage-lower", factors, index_set)
        for seed in range(5):
            sketch = draw_sketch(method, 4, seed)
            _, deficient = trial_error(reduction, sketch)
            assert deficient
            assert reference_trial(index_set, factors, reduction, sketch, SMOOTH)[1]


class TestSampleSize:
    def test_instance_vb_worked_example(self):
        assert sample_size("instance-Vb", 3, 0.25, 0.5) == 666

    def test_instance_v_formula(self):
        n, eps, delta = 6, 0.5, 0.1
        expected = math.ceil(
            (n / eps) * max(2 / (delta * (1 - eps) ** 2), 3 * math.log(4 * n / delta) / eps)
        )
        assert sample_size("instance-V", n, eps, delta) == expected

    def test_expectation_formula(self):
        n, eps, delta = 10, 0.5, 0.1
        expected = math.ceil(2 * n * (1 / eps + 3 * math.log(2 * n / delta)))
        assert sample_size("expectation", n, eps, delta) == expected
        assert sample_size("truncation", n, eps, delta) == expected

    def test_embedding_formula(self):
        n, eps, delta = 120, 0.5, 0.2
        expected = math.ceil(3 * math.log(4 * n / delta) / eps**2 * n)
        assert sample_size("embedding", n, eps, delta) == expected

    @pytest.mark.parametrize("bound", ["instance-Vb", "instance-V", "expectation", "embedding"])
    def test_monotone_in_epsilon_and_delta(self, bound):
        # instance-V is only monotone in epsilon up to 1/3: its
        # 2/(delta (1-eps)^2) branch diverges again as eps -> 1
        eps_cap = {"instance-Vb": 0.49, "instance-V": 1.0 / 3.0}.get(bound, 0.99)
        eps_grid = np.linspace(0.05, eps_cap, 12)
        sizes = [sample_size(bound, 8, e, 0.1) for e in eps_grid]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        delta_grid = np.linspace(0.01, 0.99, 12)
        sizes = [sample_size(bound, 8, 0.3, d) for d in delta_grid]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_instance_v_not_monotone_near_one(self):
        assert sample_size("instance-V", 8, 0.9, 0.1) > sample_size("instance-V", 8, 1 / 3, 0.1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sample_size("instance-Vb", 3, 0.5, 0.5)  # epsilon must be < 1/2
        with pytest.raises(ValueError):
            sample_size("expectation", 1, 1.0, 1.5)  # delta outside (0, 1)
        with pytest.raises(ValueError):
            sample_size("expectation", 1, 0.0, 0.5)
        with pytest.raises(ValueError):
            sample_size("instance-V", 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            sample_size("chernoff", 1, 0.5, 0.5)

