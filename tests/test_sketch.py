import ctypes
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronlev.factor as factor_module
from kronlev.factor import (
    _SEMI_NORMAL_RTOL,
    _SOLVE_BLOCK,
    _back_substitute,
    _kron_rows,
    _row_blocks,
    build_factor,
)
from kronlev.grid_basis import BasisSpec, Grid1D, gauss_legendre_grid, gauss_legendre_uniform_grid
from kronlev.indexset import IndexSetSpec, MultiIndexSet, _missing_below, build_index_set, is_monotone_lower
from kronlev.oracle import build_full, sketch_operator, solve_full
from kronlev.sampler import METHOD_TAGS, make_method, point_mass_many, sample_indices
import kronlev.sketch as sketch_module
from kronlev.config import load_json, parse_experiment, parse_problem
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.experiments import evaluate_on_grid, make_target
from kronlev.sketch import (
    _RANK_RTOL,
    SeparableValues,
    Sketch,
    SketchedSystem,
    TargetFunction,
    _one_blas_thread,
    _subspace,
    assemble,
    draw_sketch,
    full_relative_error,
    reduce_full_grid,
    sample_size,
    solve,
    trial_error,
)
from helpers import (FALLBACK_SYSTEMS, SMOOTH, count_calls, legendre_factors, monomial_factors, other_problem,
                     random_systems, scaled_orthogonal_columns, total_degree, zero_weight_factors)


def kron_entries(mats, rows, cols):
    """prod_d mats[d][rows[i, d], cols[j, d]], from column takes made here rather than J's record's."""
    return _kron_rows([np.take(x, cols[:, d], axis=1) for d, x in enumerate(mats)], rows)


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
        factors = legendre_factors(2, 7, 4)
        method = make_method(tag, factors, index_set)
        sketch = draw_sketch(method, 60, 5)
        rows = sketch.indices0
        assert sketch.size == 60
        assert np.array_equal(sketch.point_mass, point_mass_many(method, rows))
        weights = factors[0].grid.weights  # mu is the product of the node weights
        assert np.array_equal(sketch.mu_mass, weights[rows[:, 0]] * weights[rows[:, 1]])
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


def qr_solve(a, b):
    """(x, rank flag) by Householder QR of [a, b] with the 1e-12 rank test.

    Rank-deficient and underdetermined systems get the minimum-norm solution.
    ``solve`` judges rank by the SVD instead; this test on the R diagonal is
    the independent reference its flag is checked against.
    """
    k, n = a.shape
    if k >= n:
        r = np.linalg.qr(np.column_stack([a, b]), mode="r")
        diag = np.abs(np.diag(r[:n, :n]))
        if diag.size and not np.any(diag <= _RANK_RTOL * diag.max()):
            return _back_substitute(r[:n, :n], r[:n, n]), False
    return np.linalg.lstsq(a, b, rcond=None)[0], True


def cholesky_breaks_down():
    # full rank by the QR test (R diagonal ratio 1e-9), but 1 + 1e-18 rounds
    # to 1 in the Gram, which is then singular
    a = np.array([[1.0, 1.0], [0.0, 1e-9], [0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="^Matrix is not positive definite$"):
        np.linalg.cholesky(a.T @ a)
    return a, np.array([1.0, 2.0, 3.0]), False


def rotated_condition_1e3():
    # a full Gram: the semi-normal solution alone is off by about 6e-12, one
    # refinement step brings it to 3e-14
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((60, 20)))[0]
    v = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    return [((u * np.geomspace(1.0, 1e-3, 20)) @ v.T, rng.standard_normal(60))]


SEMI_NORMAL_CASES = {
    **{f"random-{k}x{n}": lambda k=k, n=n: random_systems(k, n)
       for k, n in [(6, 1), (40, 6), (200, 50), (480, 120)]},
    "just-inside-the-bound": lambda: [scaled_orthogonal_columns(1.1 * _SEMI_NORMAL_RTOL)],
    "condition-1e3": rotated_condition_1e3,
}

FALLBACK_CASES = {
    "past-the-bound": lambda: (*FALLBACK_SYSTEMS["past-the-bound"](), False),
    "cholesky-fails": cholesky_breaks_down,
    "fewer-rows": lambda: (*FALLBACK_SYSTEMS["fewer-rows"](), True),
}


SOLVE_PATHS = ("dpotrs", "back-substitute")


def on_each_solve_path(cases):
    """(case, path) parameters; the dpotrs path keeps the case's own id."""
    return [
        pytest.param(case, path, id=case if path == "dpotrs" else f"{case}-{path}")
        for path in SOLVE_PATHS
        for case in cases
    ]


def take_solve_path(monkeypatch, path):
    """Make solve's semi-normal path run by ``path``; a list that gets "dpotrf" or "dpotrs" at each call.

    For "back-substitute" the OpenBLAS lookup finds nothing, as on a numpy
    that bundles no OpenBLAS.
    """
    calls = []
    if path == "back-substitute":
        found = None
    else:
        found = factor_module._openblas()
        if found is None:
            pytest.skip("numpy bundles no OpenBLAS")

        def counting(name, function):
            def counted(*args):
                calls.append(name)
                return function(*args)

            return counted

        found = found._replace(
            dpotrs=counting("dpotrs", found.dpotrs), dpotrf=counting("dpotrf", found.dpotrf)
        )
    monkeypatch.setattr(factor_module, "_openblas", lambda: found)
    return calls


def kahan(n, theta):
    """The n x n Kahan matrix: upper triangular, with an R diagonal that hides its rank."""
    s, c = math.sin(theta), math.cos(theta)
    return (s ** np.arange(n))[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


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

    @pytest.mark.parametrize("case,path", on_each_solve_path(SEMI_NORMAL_CASES))
    def test_semi_normal_path_matches_lstsq(self, case, path, monkeypatch):
        systems = SEMI_NORMAL_CASES[case]()
        expected = [np.linalg.lstsq(a, b, rcond=None)[0] for a, b in systems]
        lapack_calls = take_solve_path(monkeypatch, path)
        calls = count_calls(monkeypatch, np.linalg.qr, np.linalg.lstsq, np.linalg.solve)
        for (a, b), x in zip(systems, expected):
            solution = solve(SketchedSystem(a, b))
            assert not solution.rank_deficient
            assert np.linalg.norm(solution.x - x) <= 1e-13 * np.linalg.norm(x)
            if path == "dpotrs":  # one factorization, then L L^T x = z twice, one call each
                assert (lapack_calls, calls) == (["dpotrf"] + ["dpotrs"] * 2, [])
            else:  # four back substitutions, one solve per 32-row block
                blocks = -(-a.shape[1] // _SOLVE_BLOCK)
                assert (lapack_calls, calls) == ([], ["solve"] * 4 * blocks)
            lapack_calls.clear()
            calls.clear()

    @pytest.mark.parametrize("case,path", on_each_solve_path(FALLBACK_CASES))
    def test_fallback_is_the_svd_least_squares(self, case, path, monkeypatch):
        a, b, deficient = FALLBACK_CASES[case]()
        expected = np.linalg.lstsq(a, b, rcond=_RANK_RTOL)[0]
        qr_x, qr_flag = qr_solve(a, b)
        lapack_calls = take_solve_path(monkeypatch, path)
        calls = count_calls(monkeypatch, np.linalg.qr, np.linalg.lstsq, np.linalg.solve)
        solution = solve(SketchedSystem(a, b))
        assert solution.rank_deficient == qr_flag == deficient
        np.testing.assert_array_equal(solution.x, expected)
        assert np.linalg.norm(solution.x - qr_x) <= 1e-12 * np.linalg.norm(qr_x)
        # a system with at least as many rows as columns is factored first
        factored = path == "dpotrs" and a.shape[0] >= a.shape[1]
        assert (lapack_calls, calls) == (["dpotrf"] * factored, ["lstsq"])

    def test_kahan_system_is_flagged(self):
        # R diagonal ratio 1.9e-3 without pivoting, sigma_min / sigma_max 4.5e-16:
        # the R-diagonal test calls it full rank and back substitution
        # returns |x| = 3.3e14
        a = np.vstack([kahan(90, 1.2), np.zeros((10, 90))])
        b = np.random.default_rng(0).standard_normal(100)
        r_diag = np.abs(np.diag(np.linalg.qr(a, mode="r")))
        assert r_diag.min() > 1e-3 * r_diag.max()
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=_RANK_RTOL)
        assert rank == 89
        solution = solve(SketchedSystem(a, b))
        assert solution.rank_deficient
        np.testing.assert_array_equal(solution.x, x)
        assert np.linalg.norm(solution.x) < 1e4

    def test_well_conditioned_trial_calls_no_fallback(self, monkeypatch):
        index_set = total_degree(2, 4)
        factors = legendre_factors(2, 10, 5)
        reduction = reduction_of(index_set, factors, SMOOTH)
        calls = count_calls(monkeypatch, np.linalg.qr, np.linalg.lstsq)
        for tag in ("uniform", "tensor-product", "leverage-lower"):
            method = make_method(tag, factors, index_set)
            rows = sample_indices(method, np.random.default_rng(3), 4 * len(index_set))
            assert not trial_error(reduction, method, rows)[1]
        assert calls == []
        solve(SketchedSystem(np.ones((3, 2)), np.ones(3)))  # the count works
        assert calls == ["lstsq"]

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


class TestBundledOpenBlas:
    def test_one_set_up_scan_finds_dpotrs_and_the_thread_controls(self, monkeypatch):
        # a numpy whose OpenBLAS renames these symbols fails here rather than
        # taking the slow path
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not list(libs.glob("*scipy_openblas64*")):
            pytest.skip("numpy bundles no scipy-openblas64")
        index_set, factors = total_degree(2, 4), legendre_factors(2, 10, 5)
        nodes = factors[0].grid.nodes
        method = make_method("leverage-lower", factors, index_set)
        rows = sample_indices(method, np.random.default_rng(1), 4 * len(index_set))
        calls = count_calls(monkeypatch, ctypes.CDLL)
        # the grid values and SMOOTH's one separable term each make the scan at set-up
        for values in (
            evaluate_on_grid(SMOOTH, [f.grid for f in factors]),
            SeparableValues(((np.exp(nodes), np.cos(2.0 * nodes)),)),
        ):
            factor_module._openblas.cache_clear()
            reduction = reduce_full_grid(index_set, factors, values)
            assert factor_module._openblas.cache_info().misses == 1
            assert factor_module._openblas() is not None
            calls.clear()
            trial_error(reduction, method, rows)
            assert factor_module._openblas.cache_info().misses == 1
            assert calls == []

    def test_concurrent_solves_have_the_serial_bytes(self, dpotrs):
        rng = np.random.default_rng(8)
        systems = [
            (rng.standard_normal((160, 40)), rng.standard_normal(160)) for _ in range(4 * 50)
        ]
        start = threading.Barrier(4, timeout=60)

        def worker(part):
            start.wait()
            return [solve(SketchedSystem(a, b)).x.tobytes() for a, b in systems[part::4]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads between and inside solves
        try:
            with _one_blas_thread():
                serial = [solve(SketchedSystem(a, b)).x.tobytes() for a, b in systems]
                with ThreadPoolExecutor(max_workers=4) as pool:
                    parts = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for part, solved in enumerate(parts):
            assert solved == serial[part::4]


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

    @pytest.mark.parametrize("box,gap", [((27, 19), (1, 19)), ((6, 43), None)], ids=["L513", "L258"])
    def test_row_blocks_keep_the_bits_of_the_whole_product(self, box, gap, monkeypatch):
        # blocks of 64 rows.  Without (1, 19), J is not lower and L is the 27 x 19
        # box with (1, 19) last: its one-row block, whose row has 26 nonzeros, joins
        # the block before.  The 6 x 43 box ends in a block of two rows.
        index_set = explicit(*(alpha for alpha in product(*(range(1, n + 1) for n in box)) if alpha != gap))
        factors = [build_factor(gauss_legendre_uniform_grid(n + 2), BasisSpec("legendre-orthonormal", n)) for n in box]
        reduction = reduction_of(index_set, factors, SMOOTH)
        n = len(index_set)
        assert len(reduction.subspace.lower) == math.prod(box)
        monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", 8 * n * 70)
        assert len(_row_blocks(len(reduction.subspace.lower), n)) >= 2
        fits, relative_error = [], sketch_module._relative_error

        def spy(reduction, fit):
            fits.append(fit)
            return relative_error(reduction, fit)

        monkeypatch.setattr(sketch_module, "_relative_error", spy)
        whole = kron_entries([f.r for f in factors], reduction.subspace.lower, reduction.subspace.lower[:n])
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(n)
            full_relative_error(reduction, x)
            with _one_blas_thread():
                assert fits.pop().tobytes() == (whole @ x).tobytes()


def reference_trial(index_set, factors, reduction, sketch, target):
    """The trial by basis evaluation: assemble, solve, full-grid error."""
    solution = solve(assemble(index_set, [f.basis for f in factors], sketch, target))
    return full_relative_error(reduction, solution.x), solution.rank_deficient


class TestTrialError:
    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_matches_assembled_sketch(self, tag):
        index_set = total_degree(2, 3)
        factors = legendre_factors(2, 7, 4)
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method(tag, factors, index_set)
        for seed in range(5):
            sketch = draw_sketch(method, 4 * len(index_set), seed)
            error, deficient = trial_error(reduction, method, sketch.indices0)
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
            error, deficient = trial_error(reduction, method, sketch.indices0)
            expected = reference_trial(index_set, factors, reduction, sketch, SMOOTH)
            assert error == pytest.approx(expected[0], rel=1e-12)
            assert deficient == expected[1]

    def test_lower_set_skips_the_identity_basis(self):
        # for lower J, U from the QR of the square triangular R_{J,J} is I,
        # so solving without it changes no bit of the error
        index_set = total_degree(2, 4)
        factors = monomial_factors(2, 8, 5)
        reduction = reduction_of(index_set, factors, SMOOTH)
        assert reduction.subspace.basis is None
        assert reduction_of(NON_LOWER, factors, SMOOTH).subspace.basis is not None
        r_jj = kron_entries([f.r for f in factors], reduction.subspace.lower, reduction.subspace.lower)
        basis = np.linalg.qr(r_jj)[0]
        assert np.array_equal(basis, np.eye(len(index_set)))
        method = make_method("leverage-lower", factors, index_set)
        assert method.index_set is reduction.subspace.index_set
        draws = [sample_indices(method, np.random.default_rng(seed), 60) for seed in range(5)]
        without = [trial_error(reduction, method, rows) for rows in draws]
        vars(reduction.subspace)["basis"] = basis  # where the reduction's record keeps U once read
        try:
            assert [trial_error(reduction, method, rows) for rows in draws] == without
        finally:
            vars(reduction.subspace)["basis"] = None

    def test_zero_weight_node_gives_zero_rows(self):
        # uniform draws reach the zero-weight end nodes, where v_k = mu = 0
        grid = Grid1D(np.linspace(-0.9, 0.9, 6), np.array([0.0, 0.25, 0.25, 0.25, 0.25, 0.0]))
        factors = [build_factor(grid, BasisSpec("monomial", 3))] * 2
        index_set = total_degree(2, 2)
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method("uniform", factors)
        sketch = draw_sketch(method, 40, 6)
        assert np.any(sketch.weights == 0.0)
        error, deficient = trial_error(reduction, method, sketch.indices0)
        expected = reference_trial(index_set, factors, reduction, sketch, SMOOTH)
        assert error == pytest.approx(expected[0], rel=1e-12)
        assert deficient == expected[1]

    @pytest.mark.parametrize("tag", ["leverage-lower", "uniform"])
    def test_holds_one_sketch_array(self, tag):
        index_set, factors = total_degree(3, 9), legendre_factors(3, 20, 10)  # duffing-g9's sizes
        reduction = reduction_of(index_set, factors, WAVE)
        method = make_method(tag, factors, index_set)
        n = len(index_set)
        # the packaged size, and a larger K; a trial takes nu from its gather
        # or the uniform mass, so point_mass_many's row blocks do not run here
        for k in (4 * n, 4097):
            warm = sample_indices(method, np.random.default_rng(1), k)
            trial_error(reduction, method, warm)  # warm caches
            rows = sample_indices(method, np.random.default_rng(2), k)
            tracemalloc.start()
            try:
                trial_error(reduction, method, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the sketch rows are the one (K, N) array; solve adds its Gram and
            # Cholesky factor, and the rest is row blocks and K- or N-long vectors
            assert peak <= 1.5 * k * n * 8 + 2 * n * n * 8

    def test_solves_on_one_blas_thread(self, openblas, monkeypatch):
        # a library call made at 2 BLAS threads solves on one, then restores 2
        index_set, factors = total_degree(2, 3), legendre_factors(2, 7, 4)
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method("leverage-lower", factors, index_set)
        rows = sample_indices(method, np.random.default_rng(1), 4 * len(index_set))
        counts = []
        monkeypatch.setattr(
            sketch_module, "solve", lambda system: counts.append(openblas.get_threads()) or solve(system)
        )
        before = openblas.get_threads()
        openblas.set_threads(2)
        try:
            trial_error(reduction, method, rows)
            after = openblas.get_threads()
        finally:
            openblas.set_threads(before)
        assert counts == [1]
        assert after == 2

    def test_fewer_rows_than_columns_is_flagged(self):
        index_set = total_degree(2, 2)
        factors = monomial_factors(2, 5, 3)
        reduction = reduction_of(index_set, factors, SMOOTH)
        method = make_method("leverage-lower", factors, index_set)
        for seed in range(5):
            sketch = draw_sketch(method, 4, seed)
            _, deficient = trial_error(reduction, method, sketch.indices0)
            assert deficient
            assert reference_trial(index_set, factors, reduction, sketch, SMOOTH)[1]


class TestRankFlag:
    """solve's flag equals the QR rank test, computed here on the same gathered system."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        systems = []
        monkeypatch.setattr(
            sketch_module, "solve", lambda system: systems.append(system) or solve(system)
        )
        return systems

    @staticmethod
    def random_target_reduction(problem):
        # a trial's rows, and so its flag, do not depend on the target values
        values = np.random.default_rng(3).standard_normal(math.prod(len(g) for g in problem.grids))
        return reduce_full_grid(problem.index_set, problem.factors, values)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list_packaged_configs())
    def test_packaged_solve_runs(self, name, recorded):
        experiment = parse_experiment(load_json(packaged_config_path(name)))
        problem = experiment.problem
        reduction = self.random_target_reduction(problem)
        for method in experiment.methods:
            for seed in range(3):
                rows = sample_indices(method, np.random.default_rng(seed), experiment.sample_count)
                deficient = trial_error(reduction, method, rows)[1]
                system = recorded.pop()
                x, expected = qr_solve(system.matrix, system.rhs)
                assert deficient == expected
                assert np.linalg.norm(solve(system).x - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.slow
    def test_square_sketches_with_repeated_rows(self, recorded):
        problem = parse_problem(load_json(packaged_config_path("ishigami-g7")))
        n = len(problem.index_set)
        reduction = self.random_target_reduction(problem)

        def flag(method, count, seed, rows=slice(None)):
            drawn = sample_indices(method, np.random.default_rng(seed), count)
            deficient = trial_error(reduction, method, drawn[rows])[1]
            system = recorded.pop()
            assert deficient == qr_solve(system.matrix, system.rhs)[1]
            return deficient

        flags = []
        for tag in ("uniform", "tensor-product", "leverage-lower"):
            method = problem.method(tag)
            # K = N: the draws repeat rows, so many of these sketches lose rank
            flags += [flag(method, n, seed) for seed in range(30)]
            # N - 1 draws and the first one again
            assert flag(method, n - 1, 100, rows=np.r_[np.arange(n - 1), 0])
        assert 0 < sum(flags) < len(flags)


def spy_trial(monkeypatch):
    """Unscaled copies of the gathers ``trial_error`` forms, and the systems it solves."""
    gathers, systems = [], []

    def gather(*args):
        rows = _kron_rows(*args)
        gathers.append(rows.copy())
        return rows

    monkeypatch.setattr(sketch_module, "_kron_rows", gather)
    monkeypatch.setattr(sketch_module, "solve", lambda system: systems.append(system) or solve(system))
    return gathers, systems


class TestSharedGather:
    """A trial's one Q-row gather gives the mixture point masses and the sketch rows."""

    @pytest.mark.parametrize("name", list_packaged_configs())
    def test_mass_matches_the_table_product_mixture(self, name, monkeypatch):
        problem = parse_problem(load_json(packaged_config_path(name)))
        method, n = problem.method("leverage-lower"), len(problem.index_set)
        reduction = TestRankFlag.random_target_reduction(problem)
        rows = sample_indices(method, np.random.default_rng(11), 4 * n)
        gathers, systems = spy_trial(monkeypatch)
        trial_error(reduction, method, rows)
        [gather], [system] = gathers, systems
        mass = np.einsum("ij,ij->i", gather, gather) / n
        np.testing.assert_array_equal(mass, point_mass_many(method, rows))
        # scaled in place for the solve by those masses
        scale = 1.0 / np.sqrt(len(rows) * mass)
        np.testing.assert_array_equal(system.matrix, gather * scale[:, None])
        # the earlier formula: the mixture of products of the squared-Q tables
        tables = [np.square(f.q) for f in method.factors]
        earlier = kron_entries(tables, rows, method.members).sum(axis=1) / n
        assert np.max(np.abs(mass - earlier) / earlier) <= 1e-14

    def test_mass_on_a_non_lower_set_is_point_mass_many(self, monkeypatch):
        # the gather spans the closure L, and nu sums J's N columns, which come first
        factors = legendre_factors(2, 8, 4)
        reduction = reduction_of(NON_LOWER, factors, WAVE)
        method, n = make_method("orthogonal-columns", factors, NON_LOWER), len(NON_LOWER)
        rows = sample_indices(method, np.random.default_rng(4), 4 * n)
        gathers, systems = spy_trial(monkeypatch)
        trial_error(reduction, method, rows)
        [gather], [system] = gathers, systems
        assert gather.shape == (len(rows), len(reduction.subspace.lower)) and len(reduction.subspace.lower) > n
        mass = np.einsum("ij,ij->i", gather[:, :n], gather[:, :n]) / n
        np.testing.assert_array_equal(mass, point_mass_many(method, rows))
        scale = 1.0 / np.sqrt(len(rows) * mass)
        np.testing.assert_array_equal(system.matrix, (gather * scale[:, None]) @ reduction.subspace.basis)

    @pytest.mark.parametrize("case", ["D3-small", "ishigami-g7"])
    def test_one_gather_serves_the_mass_and_the_fit(self, case, monkeypatch):
        if case == "ishigami-g7":
            problem = parse_problem(load_json(packaged_config_path(case)))
            index_set, factors = problem.index_set, problem.factors
            values = evaluate_on_grid(make_target(problem.model), problem.grids)
            reduction = reduce_full_grid(index_set, factors, values)
        else:
            index_set, factors = total_degree(3, 3), legendre_factors(3, 8, 4)
            reduction = reduction_of(index_set, factors, WAVE)
        method = make_method("leverage-lower", factors, index_set)
        k = 4 * len(index_set)
        calls = count_calls(monkeypatch, _kron_rows)
        for seed in range(5):
            sketch = draw_sketch(method, k, seed)
            rows = sample_indices(method, np.random.default_rng(seed), k)
            np.testing.assert_array_equal(rows, sketch.indices0)  # the stream draw_sketch uses
            # the trial from the sketch's masses, with its rows gathered apart
            scale = 1.0 / np.sqrt(k * sketch.point_mass)
            a = kron_entries([f.q for f in factors], rows, reduction.subspace.lower) * scale[:, None]
            weight = reduce(np.multiply, [np.sqrt(f.grid.weights)[m] for f, m in zip(factors, rows.T)])
            b = weight * reduction.values[tuple(rows.T)]
            expected = solve(SketchedSystem(a, scale * b))
            calls.clear()
            error, deficient = trial_error(reduction, method, rows)
            assert calls == ["_kron_rows"]
            assert error == sketch_module._relative_error(reduction, expected.x)
            assert deficient == expected.rank_deficient

    @pytest.mark.parametrize("case", ["other-index-set", "other-factors"])
    def test_rows_kept_for_another_problem_are_solved_by_its_own_method(self, case):
        # drawn on total degree 2 over 12-node Gauss-Legendre factors (N = 6),
        # reduced on a lower set of the same size, or on the same set over
        # the uniform-weight grid of the same nodes: the drawing method's
        # trial is refused (``test_refusals.py``), while the problem's own
        # method solves the same points
        drawn_on, factors, index_set, reduced_on = other_problem(case)
        reduction = reduction_of(index_set, reduced_on, WAVE)
        assert reduction.subspace.basis is None and len(index_set) == len(drawn_on)
        method = make_method("leverage-lower", factors, drawn_on)
        own = make_method("leverage-lower", reduced_on, index_set)
        for seed in range(5):
            rows = sample_indices(method, np.random.default_rng(seed), 24)
            coords = np.column_stack([g.nodes[rows[:, d]] for d, g in enumerate(own.grids)])
            mu = own.grids[0].weights[rows[:, 0]] * own.grids[1].weights[rows[:, 1]]
            sketch = Sketch(rows, coords, point_mass_many(own, rows), mu)
            error, deficient = trial_error(reduction, own, rows)
            expected = reference_trial(index_set, reduced_on, reduction, sketch, WAVE)
            assert error == pytest.approx(expected[0], rel=1e-12)
            assert deficient == expected[1]

    def test_one_gather_per_trial_at_every_size(self, monkeypatch):
        factors, lower = legendre_factors(2, 8, 4), total_degree(2, 3)
        reduction = reduction_of(lower, factors, WAVE)
        cases = [(make_method(tag, factors, lower), reduction) for tag in METHOD_TAGS]
        cases.append(
            (make_method("orthogonal-columns", factors, NON_LOWER), reduction_of(NON_LOWER, factors, WAVE))
        )
        calls = count_calls(monkeypatch, _kron_rows)
        # K of one point-mass block, and of two: a lone last row joins the block before
        step = _row_blocks(1 << 20, len(lower))[0].stop
        assert [len(_row_blocks(k, len(lower))) for k in (step, step + 2)] == [1, 2]
        for method, reduction in cases:
            for k in (step, step + 2):
                rows = sample_indices(method, np.random.default_rng(1), k)
                calls.clear()
                trial_error(reduction, method, rows)
                assert calls == ["_kron_rows"]


class TestColumnTables:
    """A reduction's record of J and a mixture method each take their factor columns once."""

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "non-lower"])
    def test_tables_are_the_factor_columns_of_l_and_j_taken_once(self, lower):
        index_set = total_degree(2, 3) if lower else NON_LOWER
        factors = [build_factor(gauss_legendre_grid(9), BasisSpec("legendre-orthonormal", n)) for n in (4, 5)]
        subspace = _subspace(index_set, factors)
        method = make_method("orthogonal-columns", factors, index_set)
        rows, n = subspace.lower, subspace.n
        assert (len(rows) == n) == lower
        assert method.members.tobytes() == rows[:n].tobytes() and method.members.dtype == rows.dtype
        tables = {(subspace, "q_columns"): (rows, "q"), (subspace, "r_columns"): (rows[:n], "r"),
                  (method, "q_columns"): (rows[:n], "q")}
        for (owner, name), (cols, attr) in tables.items():
            first = getattr(owner, name)
            assert len(first) == len(factors)
            for d, (table, f) in enumerate(zip(first, factors)):
                expected = np.take(getattr(f, attr), cols[:, d], axis=1)
                assert table.shape == expected.shape and table.dtype == expected.dtype
                assert table.tobytes() == expected.tobytes()
            assert getattr(owner, name) is first
        assert method.members is method.members

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "non-lower"])
    def test_a_second_trial_and_mass_take_no_factor_columns(self, lower, monkeypatch):
        index_set = total_degree(2, 3) if lower else NON_LOWER
        factors = legendre_factors(2, 8, 4)
        reduction = reduction_of(index_set, factors, WAVE)
        method = make_method("leverage-lower" if lower else "orthogonal-columns", factors, index_set)
        rows = sample_indices(method, np.random.default_rng(3), 4 * len(index_set))
        first = trial_error(reduction, method, rows), point_mass_many(method, rows)
        full_relative_error(reduction, np.ones(len(index_set)))
        taken, take = [], np.take

        def spy(a, *args, **kwargs):
            if any(a is f.q or a is f.r for f in factors):
                taken.append(a)
            return take(a, *args, **kwargs)

        monkeypatch.setattr(np, "take", spy)
        second = trial_error(reduction, method, rows), point_mass_many(method, rows)
        full_relative_error(reduction, np.ones(len(index_set)))
        assert taken == []
        assert second[0] == first[0] and second[1].tobytes() == first[1].tobytes()
        # the spy sees a take of a factor's columns where a new record or method first forms its tables
        record = _subspace(index_set, factors)
        assert record is not reduction.subspace
        record.q_columns
        assert len(taken) == 2
        make_method(method.tag, factors, index_set).q_columns
        assert len(taken) == 4


class TestSubspace:
    def test_the_basis_has_one_set_of_bits_at_one_and_two_blas_threads(self, openblas):
        # total order 15 in D = 3 less (1, 2, 1): |L| = 816, N = 815.  A bare QR
        # of this R_{L,J} rounds apart at one and two threads; the record's
        # QR runs on one, then gives the caller's count back
        total = total_degree(3, 15)
        index_set = MultiIndexSet(3, tuple(alpha for alpha in total.indices if alpha != (1, 2, 1)))
        factors = monomial_factors(3, 20, 16)
        bases = []
        for count in (1, 2):
            openblas.set_threads(count)
            subspace = _subspace(index_set, factors)
            assert openblas.get_threads() == count
            assert (len(subspace.lower), subspace.n) == (816, 815)
            assert subspace.basis.shape == (816, 815)
            bases.append(subspace.basis.tobytes())
        assert bases[0] == bases[1]


class TestTrialInputs:
    """A trial takes the rows its checks admit (its refusals are rows of ``test_refusals.py``)."""

    @pytest.mark.parametrize("tag", ["tensor-product", "orthogonal-columns", "leverage-lower"])
    def test_rows_of_positive_mass_beside_a_node_of_weight_0_are_solved(self, tag):
        # a Gauss-Legendre grid and one more node of weight 0, whose Q row and
        # leverage scores are 0; the factor columns stay orthonormal
        factors, index_set = zero_weight_factors(), total_degree(2, 2)
        reduction = reduction_of(index_set, factors, WAVE)
        trial_error(reduction, make_method(tag, factors, index_set), np.array([[0, 1], [5, 2], [3, 4]]))

    @pytest.mark.parametrize("tag", ["uniform", "tensor-product", "leverage-lower"])
    def test_the_problems_own_methods_solve_rows_drawn_on_other_factors(self, tag):
        # total degree 3 in 2-D, Legendre on 8 nodes: the reduction on the
        # uniform-weight grid; the rows drawn on the Gauss-Legendre grid of the
        # same nodes, whose methods the trial refuses
        index_set, drawn_on = total_degree(2, 3), legendre_factors(2, 8, 4)
        reduced_on = legendre_factors(2, 8, 4, gauss_legendre_uniform_grid)
        reduction = reduction_of(index_set, reduced_on, WAVE)
        rows = sample_indices(make_method("uniform", drawn_on), np.random.default_rng(5), 40)
        trial_error(reduction, make_method(tag, reduced_on, index_set), rows)


class TestIdentityEquality:
    """Factors, grids, methods, subspaces, reductions and separable values equal only themselves."""

    @staticmethod
    def build(kind):
        grid = gauss_legendre_grid(5)
        factors = [build_factor(grid, BasisSpec("legendre-orthonormal", 3))] * 2
        index_set = total_degree(2, 2)
        values = SeparableValues(((np.exp(grid.nodes), np.cos(grid.nodes)),))
        if kind == "Grid1D":
            return grid
        if kind == "FactorMatrix":
            return factors[0]
        if kind == "SamplerMethod":
            return make_method("leverage-lower", factors, index_set)
        if kind == "_Subspace":
            return _subspace(index_set, factors)
        if kind == "FullGridReduction":
            return reduce_full_grid(index_set, factors, values)
        return values

    @pytest.mark.parametrize(
        "kind",
        ["Grid1D", "FactorMatrix", "SamplerMethod", "_Subspace", "FullGridReduction", "SeparableValues"],
    )
    def test_equal_objects_compare_unequal_without_raising(self, kind):
        first, second = self.build(kind), self.build(kind)
        assert type(first).__name__ == kind
        assert (first == second) is False and (first != second) is True
        assert first == first
        assert len({first, second, first}) == 2

    def test_a_trial_solves_on_the_reductions_own_factors_and_index_set(self):
        # a method on equal factors or an equal J that are other objects is
        # refused (``test_refusals.py``); the reduction's own objects solve
        index_set = total_degree(2, 2)
        factors = legendre_factors(2, 8, 3)
        reduction = reduction_of(index_set, factors, WAVE)
        rows = sample_indices(make_method("uniform", factors), np.random.default_rng(3), 12)
        trial_error(reduction, make_method("uniform", factors), rows)
        own = make_method("leverage-lower", factors, index_set)
        error, rank_deficient = trial_error(reduction, own, sample_indices(own, np.random.default_rng(3), 12))
        assert reduction.optimal_error <= error < 1.0 and not rank_deficient


def old_reduction(index_set, factors, b_values):
    """(b, c, ||b||^2, ||r||^2) by the earlier whole-grid formula, kept as the reference.

    It forms the M^D weight tensor by outer products, b from it, c by
    np.tensordot mode products, the whole projection Q_L c the same way and
    r = b - Q_L c as a separate array.
    """
    reduction = reduce_full_grid(index_set, factors, b_values)
    root_w = reduce(np.multiply.outer, [np.sqrt(f.grid.weights) for f in factors])
    b = root_w * np.asarray(b_values, dtype=float).reshape(root_w.shape)
    qs = [f.q[:, :n_d] for f, n_d in zip(factors, index_set.bounding_box)]
    coeffs = b
    for q in qs:
        coeffs = np.tensordot(coeffs, q, axes=([0], [0]))
    c = coeffs[tuple(reduction.subspace.lower.T)]
    projected = np.zeros(index_set.bounding_box)
    projected[tuple(reduction.subspace.lower.T)] = c
    for q in qs:
        projected = np.tensordot(projected, q, axes=([0], [1]))
    r = b - projected
    return b, c, float(np.vdot(b, b)), float(np.vdot(r, r))


def explicit(*indices):
    return build_index_set(
        IndexSetSpec(dimension=len(indices[0]), family="explicit-list", indices=indices)
    )


WAVE = TargetFunction("wave", lambda c: np.exp(0.5 * c.sum(axis=1)) * np.cos(2.0 * c[:, 0]))

# (index set, factors): D=1 is one row of M_1 values in the block layout; at
# D=4 the 7^3 = 343 rows of 7 values are cut, under small_blocks, into five
# blocks of 64 rows and one of 23
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
        monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", 1000)  # blocks of 64 rows

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=list(BLOCK_CASES))
    def test_matches_dense_oracle_in_row_blocks(self, case, small_blocks):
        index_set, factors = BLOCK_CASES[case]
        rows = math.prod(len(f.grid) for f in factors[:-1])
        assert len(_row_blocks(rows, len(factors[-1].grid))) == (1 if len(factors) == 1 else 6)
        reduction = reduction_of(index_set, factors, WAVE)
        full = build_full(index_set, factors, WAVE)
        dense = solve_full(full)
        assert reduction.optimal_error == pytest.approx(dense.relative_error, rel=1e-12)
        method = make_method("uniform", factors)
        norm_b = np.linalg.norm(full.rhs)
        for seed in range(3):
            sketch = draw_sketch(method, 4 * len(index_set), seed)
            error, deficient = trial_error(reduction, method, sketch.indices0)
            solution = solve(assemble(index_set, [f.basis for f in factors], sketch, WAVE))
            expected = np.linalg.norm(full.matrix @ solution.x - full.rhs) / norm_b
            assert error == pytest.approx(expected, rel=1e-12)
            assert deficient == solution.rank_deficient

    @pytest.mark.parametrize(
        "index_set,factors,block_bytes,blocks",
        [
            (total_degree(3, 7), legendre_factors(3, 20, 8), None, 1),  # the packaged grid
            (total_degree(3, 7), legendre_factors(3, 60, 8), None, 15),  # 14 of 256 rows, one of 16
            (total_degree(4, 3), legendre_factors(4, 7, 4), 1000, 6),
            (NON_LOWER, legendre_factors(2, 150, 3), 1000, 3),
            (total_degree(1, 5), legendre_factors(1, 37, 6), None, 1),
        ],
        ids=["D3-M20", "D3-M60", "D4-M7", "D2-non-lower", "D1"],
    )
    def test_bits_equal_the_whole_grid_formula(self, monkeypatch, index_set, factors, block_bytes, blocks):
        # row blocks of the last mode product round like one whole product
        # for these widths; OpenBLAS's SkylakeX kernels did not for M_D > 192
        if block_bytes is not None:
            monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", block_bytes)
        rows = math.prod(len(f.grid) for f in factors[:-1])
        assert len(_row_blocks(rows, len(factors[-1].grid))) == blocks
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
            method = make_method(tag, factors, index_set)
            sketch = draw_sketch(method, 2 * len(index_set), 5)
            trial_error(reduction, method, sketch.indices0)
            scale = 1.0 / np.sqrt(sketch.size * sketch.point_mass)
            assert np.array_equal(rhs.pop(), scale * b[tuple(sketch.indices0.T)])

    def test_a_non_lower_optimum_has_one_set_of_bits_at_one_and_two_blas_threads(self, openblas):
        # J = {(1, 1), (101, 101)}: |L| = 10201, and OpenBLAS splits a dot of
        # over 10^4 entries by thread count, so ||c - U U^T c||^2 rounds apart
        # at one and two threads unless the reduction takes it on one
        m = 101
        index_set, factors = explicit((1, 1), (m, m)), legendre_factors(2, m, m)
        targets = [np.random.default_rng(seed).standard_normal(m * m) for seed in range(5)]
        optima = []
        for count in (1, 2):
            openblas.set_threads(count)
            optima.append([reduce_full_grid(index_set, factors, b).optimal_error.hex() for b in targets])
            assert openblas.get_threads() == count
        assert optima[0] == optima[1]

    @pytest.mark.parametrize("columns", [6, 4], ids=["Q-slice", "Q-whole"])
    @pytest.mark.parametrize("shape,blocks", [((129, 300), 2), ((31, 31, 257), 15)], ids=["M300", "M257"])
    def test_row_blocks_keep_the_bits_of_one_block_on_a_wide_last_mode(self, monkeypatch, shape, blocks, columns):
        # 64-row blocks of the last mode product against one block, at M_D > 192;
        # 129 and 961 rows end in a 65-row block, which takes in the lone last row.
        # J's box takes 4 of each factor's columns: Q_D enters as a strided slice
        # of 6 columns, or whole.  r is caught at the np.vdot that gives ||r||^2
        factors = [build_factor(gauss_legendre_grid(m), BasisSpec("legendre-orthonormal", columns)) for m in shape]
        index_set = total_degree(len(shape), 3)
        b_values = evaluate_on_grid(WAVE, [f.grid for f in factors])
        rows, width = math.prod(shape[:-1]), shape[-1]
        fields, vdot = [], np.vdot
        monkeypatch.setattr(np, "vdot", lambda u, v: fields.append(u.tobytes()) or vdot(u, v))
        for block_bytes, count in ((1 << 40, 1), (1, blocks)):
            monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", block_bytes)
            assert len(_row_blocks(rows, width)) == count
            reduction = reduce_full_grid(index_set, factors, b_values)
            fields += [reduction.c.tobytes(), reduction.b_sq, reduction.residual_sq]
        # b, r, c, ||b||^2 and ||r||^2 of each cut
        assert len(fields) == 10 and fields[:5] == fields[5:]

    def test_holds_one_grid_array_besides_its_input(self):
        config = load_json(packaged_config_path("ishigami-g7"))
        config["grid"]["M"] = 60
        problem = parse_problem(config)
        b_values = evaluate_on_grid(make_target(problem.model), problem.grids)
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


def first_gap(index_set):
    """The first neighbour alpha - e_d that J lacks, over J's members in order, or None."""
    members = set(index_set.indices)
    for alpha in index_set.indices:
        for d, a in enumerate(alpha):
            beta = alpha[:d] + (a - 1,) + alpha[d + 1:]
            if a > 1 and beta not in members:
                return beta
    return None


def box_closure(members):
    """Every index below a member, enumerated over each member's whole box."""
    return {beta for alpha in members for beta in product(*(range(1, a + 1) for a in alpha))}


def box_closure_rows(index_set):
    """L as J's members in J's order, then the rest of the closure lexicographically."""
    members = set(index_set.indices)
    return list(index_set.indices) + sorted(box_closure(members) - members)


@st.composite
def explicit_sets(draw):
    """Explicit sets with D <= 5 and entries <= 6: as drawn (mostly not lower), closed
    (lower), or closed with one member taken out (lower only when it was maximal).
    A closure of more than 500 members is not taken, so no R_{L,J} is large."""
    dimension = draw(st.integers(1, 5))
    members = draw(st.sets(st.tuples(*[st.integers(1, 6)] * dimension), min_size=1, max_size=8))
    shape = draw(st.sampled_from(["drawn", "closed", "closed-less-one"]))
    closure = box_closure(members)
    if shape != "drawn" and len(closure) <= 500:
        members = sorted(closure)
        if shape == "closed-less-one" and len(members) > 1:
            del members[draw(st.integers(0, len(members) - 1))]
    return build_index_set(IndexSetSpec(dimension, "explicit-list", indices=tuple(members)))


class TestLowerClosure:
    @settings(max_examples=150, deadline=None)
    @given(index_set=explicit_sets())
    def test_walk_down_agrees_with_neighbour_loop_and_box_closure(self, index_set):
        dimension = index_set.dimension
        gap = first_gap(index_set)
        lower = gap is None
        assert is_monotone_lower(index_set) == lower
        assert next(_missing_below(index_set), None) == gap
        factors = legendre_factors(dimension, 12, 6)
        peak = 1.0 / (1.0 + (factors[0].grid.nodes - 0.25) ** 2)
        reduction = reduce_full_grid(index_set, factors, SeparableValues(((peak,) * dimension,)))
        expected = np.asarray(box_closure_rows(index_set)) - 1
        assert reduction.subspace.lower.dtype == expected.dtype
        assert np.array_equal(reduction.subspace.lower, expected)
        if lower:
            assert reduction.subspace.basis is None
        else:
            with _one_blas_thread():
                basis = np.linalg.qr(kron_entries([f.r for f in factors], expected, expected[: len(index_set)]))[0]
            assert reduction.subspace.basis.shape == basis.shape
            assert reduction.subspace.basis.tobytes() == basis.tobytes()


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
