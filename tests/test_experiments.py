import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from kronlev.config import load_json, parse_experiment, parse_problem
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.experiments import (
    duffing_qoi,
    duffing_qoi_batch,
    emit_cdf,
    emit_cdf_svg,
    evaluate_on_grid,
    grid_table_target,
    ishigami,
    make_target,
    run_trials,
    write_report_csv,
)
from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set
from kronlev.oracle import build_full, solve_full
from kronlev.sketch import TargetFunction, reduce_full_grid


class TestIshigami:
    def test_half_pi_points(self):
        # sin(pi/2) = 1 and the third term vanishes at y3 = 0
        assert ishigami(np.array([0.5, 0.5, 0.0]))[0] == pytest.approx(8.0)

    def test_first_and_third_terms_vanish_at_zero(self):
        y = np.array([[0.0, 0.3, 0.9]])
        expected = 7.0 * math.sin(math.pi * 0.3) ** 2
        assert ishigami(y)[0] == pytest.approx(expected, rel=1e-14)

    def test_all_half(self):
        expected = 8.0 + 0.1 * (math.pi / 2) ** 4
        assert ishigami(np.array([0.5, 0.5, 0.5]))[0] == pytest.approx(expected)
        assert expected == pytest.approx(8.6088, abs=5e-5)

    def test_parameters_scale_terms(self):
        y = np.array([[0.25, 0.5, 0.5]])
        a2 = ishigami(y, a=2.0, b_param=0.0)[0]
        assert a2 == pytest.approx(math.sin(math.pi / 4) + 2.0)


class TestDuffing:
    def test_step_halving_converged(self):
        u1 = duffing_qoi([0.0, 0.0, 0.0], step=1e-3)
        u2 = duffing_qoi([0.0, 0.0, 0.0], step=5e-4)
        assert abs(u1 - u2) <= 1e-6

    def test_linearized_limit_is_cosine(self):
        # y = (0, -20, -2) zeroes the damping and cubic coefficients, so
        # u(t) = cos(2 pi t) exactly
        u = duffing_qoi([0.0, -20.0, -2.0], step=1e-3)
        assert abs(u - 1.0) <= 1e-6

    def test_batch_matches_scalar(self):
        y = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
        batch = duffing_qoi_batch(y, step=2e-3)
        for i in range(2):
            assert batch[i] == pytest.approx(duffing_qoi(y[i], step=2e-3), abs=1e-14)

    def test_blow_up_reported(self):
        with pytest.raises(RuntimeError, match="blew up"):
            duffing_qoi([0.0, 0.0, 100.0], step=1e-2)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            duffing_qoi([0.0, 0.0, 0.0], step=0.0)


class TestTargets:
    def test_grid_table_round_trip(self):
        grids = [gauss_legendre_grid(4), gauss_legendre_grid(3)]
        coords = np.array(list(itertools.product(grids[0].nodes, grids[1].nodes)))
        values = np.arange(12.0)
        target = grid_table_target(grids, values, "t")
        assert np.array_equal(target(coords), values)

    def test_grid_table_rejects_off_grid(self):
        grids = [gauss_legendre_grid(4)]
        target = grid_table_target(grids, np.arange(4.0), "t")
        with pytest.raises(ValueError, match="off the grid"):
            target(np.array([[0.123]]))

    def test_tabulated_model_from_file(self, tmp_path):
        grids = [gauss_legendre_grid(3), gauss_legendre_grid(3)]
        values = np.linspace(0.0, 1.0, 9)
        path = tmp_path / "values.txt"
        np.savetxt(path, values)
        target = make_target({"name": "tabulated", "path": str(path)}, grids)
        assert np.allclose(evaluate_on_grid(target, grids), values)

    def test_evaluate_on_grid_lexicographic_order(self):
        from kronlev.sketch import TargetFunction

        grids = [gauss_legendre_grid(3), gauss_legendre_grid(2)]

        def f(c):
            return c[:, 0] * 10 + c[:, 1]

        values = evaluate_on_grid(TargetFunction("f", f), grids)
        expected = [f(np.array([[a, b]]))[0] for a in grids[0].nodes for b in grids[1].nodes]
        assert np.allclose(values, expected)


def experiment_config(**overrides):
    config = {
        "dimension": 3,
        "grid": {"grid": "gauss-legendre-uniform", "M": 4},
        "basis": {"kind": "legendre-orthonormal"},
        "index_set": {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 2,
                      "weights": [1.0, 1.0, 1.0]},
        "model": {"name": "ishigami", "a": 7.0, "b": 0.1},
        "methods": ["uniform", "leverage-lower"],
        "trials": 3,
        "sample_multiplier": 4,
        "seed": 11,
    }
    config.update(overrides)
    return parse_experiment(config)


class TestRunTrials:
    def test_deterministic_for_fixed_seed(self):
        a = run_trials(experiment_config())
        b = run_trials(experiment_config())
        assert a.errors == b.errors
        assert a.optimal_error == b.optimal_error

    def test_thread_count_does_not_change_results(self):
        a = run_trials(experiment_config(), threads=1)
        b = run_trials(experiment_config(), threads=4)
        assert a.errors == b.errors

    def test_errors_dominated_by_optimal(self):
        report = run_trials(experiment_config(trials=5))
        for tag in report.methods:
            assert all(err >= report.optimal_error - 1e-10 for err in report.errors[tag])

    def test_sample_count_multiplier(self):
        report = run_trials(experiment_config())
        assert report.sample_count == 4 * report.subspace_size

    def test_explicit_sample_count(self):
        cfg = experiment_config(sample_count=37, sample_multiplier=None)
        assert run_trials(cfg).sample_count == 37

    def test_adding_a_method_does_not_perturb_existing_draws(self):
        a = run_trials(experiment_config(methods=["uniform"]))
        b = run_trials(experiment_config(methods=["uniform", "tensor-product"]))
        assert a.errors["uniform"] == b.errors["uniform"]

    def test_square_factor_makes_tensor_product_uniform(self):
        # M_d = G + 1 gives square per-dimension factors: the tensor-product
        # law degenerates to uniform, so the two error samples should look
        # statistically identical
        cfg = experiment_config(
            grid={"grid": "gauss-legendre-uniform", "M": 3},
            methods=["uniform", "tensor-product"],
            trials=100,
        )
        report = run_trials(cfg)
        stat = ks_2samp(report.errors["uniform"], report.errors["tensor-product"])
        assert stat.pvalue > 0.01


@pytest.fixture(scope="module")
def grid_values():
    """Target values per (model, grid); the packaged configs share one Duffing grid."""
    cache = {}

    def values(problem):
        key = json.dumps([problem.model, problem.echo["grid"]], sort_keys=True)
        if key not in cache:
            target = make_target(problem.model, problem.grids)
            cache[key] = evaluate_on_grid(target, problem.grids)
        return cache[key]

    return values


def monomial_order_14(_):
    index_set = build_index_set(
        IndexSetSpec(dimension=2, family="wlp-ball", order=14, weights=(1.0, 1.0))
    )
    factors = [build_factor(gauss_legendre_grid(40), BasisSpec("monomial", 15))] * 2
    target = TargetFunction("smooth", lambda c: np.exp(c[:, 0]) * np.cos(2.0 * c[:, 1]))
    return index_set, factors, evaluate_on_grid(target, [f.grid for f in factors])


def explicit_non_lower(grid_values):
    indices = [[1, 1, 1], [3, 1, 1], [1, 2, 2], [2, 1, 3], [1, 1, 2]]
    cfg = experiment_config(
        index_set={"dimension": 3, "family": "explicit-list", "indices": indices},
        methods=["uniform"],
    )
    problem = cfg.problem
    return problem.index_set, problem.factors, grid_values(problem)


def packaged(name):
    def case(grid_values):
        problem = parse_problem(load_json(packaged_config_path(name)))
        return problem.index_set, problem.factors, grid_values(problem)

    return case


OPTIMAL_CASES = [
    pytest.param(packaged(name), 1e-12, id=name, marks=pytest.mark.slow)
    for name in list_packaged_configs()
] + [
    pytest.param(explicit_non_lower, 1e-12, id="explicit-non-lower"),
    pytest.param(monomial_order_14, 1e-6, id="monomial-order-14"),
]


@pytest.mark.parametrize("case,tolerance", OPTIMAL_CASES)
def test_optimal_matches_dense_oracle(case, tolerance, grid_values):
    index_set, factors, b_values = case(grid_values)
    dense = solve_full(build_full(index_set, factors, b_values=b_values)).relative_error
    reduced = reduce_full_grid(index_set, factors, b_values).optimal_error
    assert reduced == pytest.approx(dense, rel=tolerance)


@pytest.fixture(scope="module")
def report():
    return run_trials(experiment_config(trials=4))


class TestReports:

    def test_cdf_rows_and_levels(self, report, tmp_path):
        path = tmp_path / "cdf.csv"
        emit_cdf(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,sorted_error,cdf_level"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 4 * len(report.methods)
        for tag in report.methods:
            errs = [float(row[1]) for row in body if row[0] == tag]
            levels = [float(row[2]) for row in body if row[0] == tag]
            assert errs == sorted(errs)
            assert levels == [0.25, 0.5, 0.75, 1.0]
            assert all(0 < lv <= 1 for lv in levels)

    def test_report_csv_round_trips_floats(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,trial,relative_error,optimal_relative_error,N,K"
        first = lines[1].split(",")
        assert float(first[2]) == report.errors[report.methods[0]][0]

    def test_svg_written(self, report, tmp_path):
        path = tmp_path / "cdf.svg"
        emit_cdf_svg(report, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == len(report.methods)
        assert "optimal" in text


@pytest.mark.slow
class TestIshigamiOptimalValues:
    def test_g7_uniform_weight_convention(self):
        # frozen from an independent dense Kronecker construction
        cfg = experiment_config(
            grid={"grid": "gauss-legendre-uniform", "M": 20},
            index_set={"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 7,
                       "weights": [1.0, 1.0, 1.0]},
            trials=1,
            methods=["leverage-lower"],
        )
        report = run_trials(cfg)
        assert report.optimal_error == pytest.approx(7.0382e-2, rel=1e-3)

    def test_g7_quadrature_weight_convention(self):
        cfg = experiment_config(
            grid={"grid": "gauss-legendre", "M": 20},
            index_set={"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 7,
                       "weights": [1.0, 1.0, 1.0]},
            trials=1,
            methods=["leverage-lower"],
        )
        report = run_trials(cfg)
        assert report.optimal_error == pytest.approx(6.7769e-2, rel=1e-3)
