import dataclasses
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from kronlev.factor import FactorMatrix, build_factor
from kronlev.grid_basis import BasisSpec, Grid1D, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set, is_monotone_lower
from kronlev.oracle import build_full, sketch_operator, solve_full
from kronlev.sampler import METHOD_TAGS, make_method, mu_mass_many, point_mass_many
import kronlev.sketch as sketch_module
from kronlev.config import load_json, parse_problem
from kronlev.configs import packaged_config_path
from kronlev.experiments import evaluate_on_grid, grid_values
from kronlev.sketch import (
    _GRID_BLOCK_BYTES,
    _SOLVE_BLOCK,
    SketchedSystem,
    TargetFunction,
    _back_substitute,
    _one_blas_thread,
    _row_blocks,
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

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_records_each_points_masses(self, tag):
        index_set = total_degree(2, 3)
        factors = [build_factor(gauss_legendre_grid(7), BasisSpec("legendre-orthonormal", 4))] * 2
        method = make_method(tag, factors, index_set)
        sketch = draw_sketch(method, 60, 5)
        rows = sketch.indices0
        assert sketch.size == 60
        assert np.array_equal(sketch.point_mass, point_mass_many(method, rows))
        assert np.array_equal(sketch.mu_mass, mu_mass_many(method.grids, rows))
        assert np.array_equal(sketch.weights, sketch.mu_mass / sketch.point_mass / sketch.size)
        nodes = factors[0].grid.nodes
        assert np.array_equal(sketch.coords, nodes[rows])

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

    def test_rank_deficient_sketch_takes_the_minimum_norm_fallback(self):
        # a column that repeats another leaves an R diagonal at rounding level,
        # which back substitution would blow up
        rng = np.random.default_rng(41)
        a = rng.standard_normal((120, 40))
        a[:, 35] = a[:, 3]
        b = rng.standard_normal(120)
        solution = solve(SketchedSystem(a, b))
        assert solution.rank_deficient
        np.testing.assert_array_equal(solution.x, np.linalg.lstsq(a, b, rcond=None)[0])

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


def r_of_augmented(n, seed):
    """R of the QR of a random (4n+4) x (n+1) matrix: [R_A, Q^T b] as ``solve`` forms it."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((4 * n + 4, n + 1)), mode="r")


class TestBackSubstitute:
    @pytest.mark.parametrize("n", [1, _SOLVE_BLOCK - 1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1, 221])
    def test_matches_scipy_triangular_solve(self, n):
        for seed in range(5):
            r = np.ascontiguousarray(r_of_augmented(n, seed)[:n, :n])
            y = np.random.default_rng(100 + seed).standard_normal(n)
            expected = solve_triangular(r, y)
            x = _back_substitute(r, y)
            assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_solves_the_slices_solve_passes(self):
        n = 2 * _SOLVE_BLOCK + 5
        r = r_of_augmented(n, 7)
        before = r.copy()
        matrix, rhs = r[:n, :n], r[:n, n]
        assert not matrix.flags.c_contiguous and not rhs.flags.c_contiguous
        x = _back_substitute(matrix, rhs)
        np.testing.assert_array_equal(r, before)  # the rhs view is not written
        assert np.max(np.abs(matrix @ x - rhs)) <= 1e-14 * np.max(np.abs(rhs))


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
        # a factor QRs itself when built, so no reduction can be handed a
        # rank-deficient one; build_factor rejects too few nonzero rows, so
        # duplicate a column instead
        f = build_factor(gauss_legendre_grid(5), BasisSpec("monomial", 3))
        broken = f.matrix.copy()
        broken[:, 2] = broken[:, 1]
        with pytest.raises(ValueError, match="rank deficient"):
            FactorMatrix(broken, f.grid, f.basis)

    @pytest.mark.parametrize("where", ["everywhere", "off-the-weight"])
    def test_zero_target_rejected(self, where):
        # the relative error divides by ||b||, which is 0 in both cases
        grid = Grid1D(np.array([-0.5, 0.0, 0.5]), np.array([0.5, 0.5, 0.0]))
        factors = [build_factor(grid, BasisSpec("monomial", 2))] * 2
        values = np.zeros((3, 3))
        if where == "off-the-weight":
            values[2, :] = values[:, 2] = 1.0  # only where one node has weight 0
        with pytest.raises(ValueError, match="zero wherever the grid weight is positive"):
            reduce_full_grid(total_degree(2, 1), factors, values.ravel())


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

    def test_lower_set_skips_the_identity_basis(self):
        # for lower J, U from the QR of the square triangular R_{J,J} is I,
        # so solving without it changes no bit of the error
        index_set = total_degree(2, 4)
        factors = monomial_factors(2, 8, 5)
        reduction = reduction_of(index_set, factors, SMOOTH)
        assert reduction.basis is None
        assert reduction_of(NON_LOWER, factors, SMOOTH).basis is not None
        basis = np.linalg.qr(reduction.r_lj)[0]
        assert np.array_equal(basis, np.eye(len(index_set)))
        with_basis = dataclasses.replace(reduction, basis=basis)
        method = make_method("leverage-lower", factors, index_set)
        for seed in range(5):
            sketch = draw_sketch(method, 60, seed)
            assert trial_error(reduction, sketch) == trial_error(with_basis, sketch)

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


def old_reduction(index_set, factors, b_values):
    """(b, c, ||b||^2, ||r||^2) by the earlier whole-grid formula, kept as the reference.

    It forms the M^D weight tensor by outer products, b from it, c by
    np.tensordot mode products, the whole projection Q_L c the same way and
    r = b - Q_L c as a separate array.
    """
    reduction = reduce_full_grid(index_set, factors, b_values)
    root_w = reduce(np.multiply.outer, [np.sqrt(f.grid.weights) for f in factors])
    b = root_w * np.asarray(b_values, dtype=float).reshape(root_w.shape)
    coeffs = b
    for q in reduction.q:
        coeffs = np.tensordot(coeffs, q, axes=([0], [0]))
    c = coeffs[tuple(reduction.lower.T)]
    projected = np.zeros(index_set.bounding_box)
    projected[tuple(reduction.lower.T)] = c
    for q in reduction.q:
        projected = np.tensordot(projected, q, axes=([0], [1]))
    r = b - projected
    return b, c, float(np.vdot(b, b)), float(np.vdot(r, r))


def legendre_factors(dimension, m, n):
    return [build_factor(gauss_legendre_grid(m), BasisSpec("legendre-orthonormal", n))] * dimension


def explicit(*indices):
    return build_index_set(
        IndexSetSpec(dimension=len(indices[0]), family="explicit-list", indices=indices)
    )


WAVE = TargetFunction("wave", lambda c: np.exp(0.5 * c.sum(axis=1)) * np.cos(2.0 * c[:, 0]))

# (index set, factors): D=1 is one row of M_1 values in the block layout; at
# D=4 the 7^3 = 343 rows of 7 values are cut into 20 blocks of 17 or 18 rows
BLOCK_CASES = {
    "D1-lower": (total_degree(1, 5), legendre_factors(1, 37, 6)),
    "D1-non-lower": (explicit((1,), (3,), (6,)), legendre_factors(1, 37, 6)),
    "D4-lower": (total_degree(4, 3), legendre_factors(4, 7, 4)),
    "D4-non-lower": (
        explicit((1, 1, 1, 1), (2, 1, 1, 1), (1, 3, 1, 1), (1, 1, 2, 2), (2, 1, 1, 3)),
        legendre_factors(4, 7, 4),
    ),
}


class TestReduceFullGrid:
    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sketch_module, "_GRID_BLOCK_BYTES", 1000)

    def test_row_blocks_tile_the_rows_evenly(self, monkeypatch):
        blocks = _row_blocks(3600, 60)  # the D=3, M=60 grid as 3600 rows of 60
        sizes = [block.stop - block.start for block in blocks]
        assert len(blocks) == math.ceil(3600 * 60 * 8 / _GRID_BLOCK_BYTES) > 1
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 3600
        assert [block.start for block in blocks[1:]] == [block.stop for block in blocks[:-1]]
        assert _row_blocks(1, 37) == [slice(0, 1)]
        monkeypatch.setattr(sketch_module, "_GRID_BLOCK_BYTES", 1000)
        assert len(_row_blocks(343, 7)) == 20

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=list(BLOCK_CASES))
    def test_matches_dense_oracle_in_row_blocks(self, case, small_blocks):
        index_set, factors = BLOCK_CASES[case]
        reduction = reduction_of(index_set, factors, WAVE)
        full = build_full(index_set, factors, WAVE)
        dense = solve_full(full)
        assert reduction.optimal_error == pytest.approx(dense.relative_error, rel=1e-12)
        method = make_method("uniform", factors)
        norm_b = np.linalg.norm(full.rhs)
        for seed in range(3):
            sketch = draw_sketch(method, 4 * len(index_set), seed)
            error, deficient = trial_error(reduction, sketch)
            solution = solve(assemble(index_set, [f.basis for f in factors], sketch, WAVE))
            expected = np.linalg.norm(full.matrix @ solution.x - full.rhs) / norm_b
            assert error == pytest.approx(expected, rel=1e-12)
            assert deficient == solution.rank_deficient

    @pytest.mark.parametrize(
        "index_set,factors,block_bytes",
        [
            (total_degree(3, 7), legendre_factors(3, 20, 8), None),  # the packaged grid
            (total_degree(3, 7), legendre_factors(3, 60, 8), None),  # 14 blocks of 257-258 rows
            (total_degree(4, 3), legendre_factors(4, 7, 4), 1000),
            (NON_LOWER, legendre_factors(2, 50, 3), 1000),
            (total_degree(1, 5), legendre_factors(1, 37, 6), None),
        ],
        ids=["D3-M20", "D3-M60", "D4-M7", "D2-non-lower", "D1"],
    )
    def test_bits_equal_the_whole_grid_formula(self, monkeypatch, index_set, factors, block_bytes):
        # row blocks of the last mode product round like one whole product
        # for these widths; OpenBLAS's SkylakeX kernels did not for M_D > 192
        if block_bytes is not None:
            monkeypatch.setattr(sketch_module, "_GRID_BLOCK_BYTES", block_bytes)
        b_values = evaluate_on_grid(WAVE, [f.grid for f in factors])
        with _one_blas_thread():
            b, c, b_sq, residual_sq = old_reduction(index_set, factors, b_values)
        reduction = reduce_full_grid(index_set, factors, b_values)
        assert np.array_equal(reduction.c, c)
        assert (reduction.b_sq, reduction.residual_sq) == (b_sq, residual_sq)
        rhs = []
        monkeypatch.setattr(sketch_module, "solve", lambda system: rhs.append(system.rhs) or solve(system))
        tags = METHOD_TAGS if is_monotone_lower(index_set) else ("uniform", "tensor-product")
        for tag in tags:
            sketch = draw_sketch(make_method(tag, factors, index_set), 2 * len(index_set), 5)
            trial_error(reduction, sketch)
            scale = 1.0 / np.sqrt(sketch.size * sketch.point_mass)
            assert np.array_equal(rhs.pop(), scale * b[tuple(sketch.indices0.T)])

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError, match="one value per grid row"):
            reduce_full_grid(total_degree(2, 2), monomial_factors(2, 4, 3), np.ones(15))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        values = np.ones(16)
        values[5] = bad
        with pytest.raises(ValueError, match="finite"):
            reduce_full_grid(total_degree(2, 2), monomial_factors(2, 4, 3), values)

    def test_holds_one_grid_array_besides_its_input(self):
        config = load_json(packaged_config_path("ishigami-g7"))
        config["grid"]["M"] = 60
        problem = parse_problem(config)
        b_values = grid_values(problem.model, problem.grids)
        before = b_values.copy()
        reduce_full_grid(problem.index_set, problem.factors, b_values)  # warm caches
        tracemalloc.start()
        try:
            reduction = reduce_full_grid(problem.index_set, problem.factors, b_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # b (which becomes r) is the one grid array; the rest is 1/M of it
        assert peak <= 1.5 * b_values.nbytes
        assert np.array_equal(b_values, before)
        assert np.shares_memory(reduction.values, b_values)


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

