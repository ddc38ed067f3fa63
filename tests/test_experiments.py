import json
import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

import kronlev.experiments
import kronlev.factor
import kronlev.grid_basis
import kronlev.sketch
from kronlev.config import load_json, parse_experiment, parse_problem
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.experiments import (
    METHOD_IDS,
    duffing_qoi_batch,
    emit_cdf,
    emit_cdf_svg,
    evaluate_on_grid,
    grid_values,
    ishigami,
    make_target,
    run_trials,
    write_report_csv,
)
from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set
from kronlev.oracle import build_full, solve_full
from kronlev.sketch import TargetFunction, reduce_full_grid, trial_error


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
        u1 = duffing_qoi_batch([0.0, 0.0, 0.0], step=1e-3)[0]
        u2 = duffing_qoi_batch([0.0, 0.0, 0.0], step=5e-4)[0]
        assert abs(u1 - u2) <= 1e-6

    def test_linearized_limit_is_cosine(self):
        # y = (0, -20, -2) zeroes the damping and cubic coefficients, so
        # u(t) = cos(2 pi t) exactly
        u = duffing_qoi_batch([0.0, -20.0, -2.0], step=1e-3)[0]
        assert abs(u - 1.0) <= 1e-6

    def test_batch_matches_scalar(self):
        # each row integrates on its own: the batch equals one-row calls
        y = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
        batch = duffing_qoi_batch(y, step=2e-3)
        for i in range(2):
            assert batch[i] == pytest.approx(duffing_qoi_batch(y[i], step=2e-3)[0], abs=1e-14)

    def test_blow_up_reported(self):
        with pytest.raises(RuntimeError, match="blew up"):
            duffing_qoi_batch([0.0, 0.0, 100.0], step=1e-2)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            duffing_qoi_batch([0.0, 0.0, 0.0], step=0.0)


def duffing_reference(y, t_final=4.0, step=1e-3):
    """The RK4 loop as first written: ``u**3`` and fresh arrays per stage."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    w1 = 2.0 * np.pi * (1.0 + 0.2 * y[:, 0])
    w2 = 0.05 * (1.0 + 0.05 * y[:, 1])
    w3 = -0.5 * (1.0 + 0.5 * y[:, 2])
    damping = 2.0 * w1 * w2
    stiffness = w1 * w1

    def accel(u, v):
        return -damping * v - stiffness * (u + w3 * u**3)

    u = np.ones(y.shape[0])
    v = np.zeros(y.shape[0])
    steps = int(round(t_final / step))
    h = t_final / steps
    for _ in range(steps):
        k1u, k1v = v, accel(u, v)
        k2u, k2v = v + 0.5 * h * k1v, accel(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
        k3u, k3v = v + 0.5 * h * k2v, accel(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
        k4u, k4v = v + h * k3v, accel(u + h * k3u, v + h * k3v)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u


class TestDuffingKernel:
    def test_matches_reference_loop_on_duffing_g9_nodes(self):
        # the cube by multiplication and the folded constants change only
        # rounding, which 4000 steps must not amplify past 1e-13
        grids = parse_problem(load_json(packaged_config_path("duffing-g9"))).grids
        shape = tuple(len(g) for g in grids)
        rows = np.linspace(0, int(np.prod(shape)) - 1, 50).astype(np.int64)
        per_dim = np.unravel_index(rows, shape)
        y = np.column_stack([g.nodes[per_dim[d]] for d, g in enumerate(grids)])
        got = duffing_qoi_batch(y, t_final=4.0, step=1e-3)
        assert np.max(np.abs(got - duffing_reference(y))) <= 1e-13

    @pytest.mark.parametrize(
        "t_final,step",
        [(4.0, 10.0), (-4.0, 1e-3), (0.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
         (4.0, math.nan), (4.0, math.inf), (4.0, -1e-3)],
    )
    def test_rejects_degenerate_integration(self, t_final, step):
        with pytest.raises(ValueError, match="t_final"):
            duffing_qoi_batch([0.0, 0.0, 0.0], t_final=t_final, step=step)

    def test_concurrent_calls_match_serial(self):
        # each call owns its stage buffers: threads running the kernel at
        # once on same-sized inputs (more threads than cores, frequent
        # switches) must not mix state
        rng = np.random.default_rng(7)
        inputs = [rng.uniform(-1.0, 1.0, size=(240, 3)) for _ in range(4)]
        serial = [duffing_qoi_batch(y, step=2e-3).tobytes() for y in inputs]
        results = [None] * len(inputs)
        barrier = threading.Barrier(len(inputs))

        def work(i):
            barrier.wait(timeout=60)
            results[i] = duffing_qoi_batch(inputs[i], step=2e-3).tobytes()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    def test_grid_evaluation_repeats_bytes(self):
        grids = [gauss_legendre_grid(5)] * 3
        target = make_target({"name": "duffing", "t_final": 4.0, "step": 1e-3})
        first = evaluate_on_grid(target, grids)
        assert evaluate_on_grid(target, grids).tobytes() == first.tobytes()


class TestTargets:
    def test_tabulated_model_from_file(self, tmp_path):
        grids = [gauss_legendre_grid(3), gauss_legendre_grid(3)]
        values = np.linspace(0.0, 1.0, 9)
        path = tmp_path / "values.txt"
        np.savetxt(path, values)
        assert np.allclose(grid_values({"name": "tabulated", "path": str(path)}, grids), values)

    def test_tabulated_model_has_no_target_function(self):
        with pytest.raises(ValueError, match="grid_values"):
            make_target({"name": "tabulated", "path": "values.txt"})

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


def count_calls(monkeypatch, *originals):
    """A list that gets a function's name at each call.

    Calls are counted through every kronlev binding of the function and its
    own module's, so ``np.linalg.qr`` is counted where kronlev calls it.
    """
    calls = []
    for original in originals:
        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "kronlev" or name.startswith("kronlev.") or name == original.__module__:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return calls


class TestRunTrials:
    def test_trials_evaluate_no_basis_and_assemble_nothing(self, monkeypatch):
        # trials read the reduction's Q factors, so once the factors exist no
        # basis is evaluated again and no sketch is assembled
        experiment = experiment_config(
            grid={"grid": "gauss-legendre", "M": 4}, methods=list(METHOD_IDS)
        )
        calls = count_calls(
            monkeypatch, kronlev.grid_basis.eval_basis_matrix, kronlev.sketch.assemble
        )
        report = run_trials(experiment)
        assert calls == []
        assert [len(report.errors[tag]) for tag in METHOD_IDS] == [3] * 4
        build_factor(gauss_legendre_grid(3), BasisSpec("monomial", 2))  # the count works
        assert calls == ["eval_basis_matrix"]

    def test_each_dimension_is_factored_once(self, monkeypatch):
        # a factor QRs itself and builds its alias tables when the config is
        # parsed; the samplers and the full-grid reduction read those
        calls = count_calls(monkeypatch, kronlev.factor.factor_qr, kronlev.factor.leverage_table)
        config = load_json(packaged_config_path("ishigami-g7"))
        config["trials"] = 2
        report = run_trials(parse_experiment(config))
        assert report.methods == ("uniform", "tensor-product", "leverage-lower")
        assert sorted(calls) == ["factor_qr"] * 3 + ["leverage_table"] * 3

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

    def test_worker_threads_are_capped_at_the_core_count(self, monkeypatch):
        peak = []

        def counting(reduction, sketch):
            peak.append(threading.active_count())
            return trial_error(reduction, sketch)

        config = load_json(packaged_config_path("ishigami-g7"))
        config["trials"] = 20
        serial = run_trials(parse_experiment(config))
        monkeypatch.setattr(kronlev.experiments, "trial_error", counting)
        capped = run_trials(parse_experiment(config), threads=16)
        assert len(peak) == 60
        assert max(peak) <= (os.cpu_count() or 1) + 1
        assert capped.errors == serial.errors

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


@pytest.fixture
def blas_controls():
    """The bundled OpenBLAS thread controls, set to two threads for the test."""
    controls = kronlev.sketch._blas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    before = blas_counts(controls)
    for _, put in controls:
        put(2)
    assert blas_counts(controls) == [2] * len(controls)
    yield controls
    for (_, put), count in zip(controls, before):
        put(count)


def blas_counts(controls):
    return [get() for get, _ in controls]


def record_blas_counts(monkeypatch, controls, fail=False):
    """Make every trial of ``run_trials`` record the BLAS thread counts it runs under."""
    seen = []

    def recording(reduction, sketch):
        seen.append(blas_counts(controls))
        if fail:
            raise RuntimeError("trial failed")
        return trial_error(reduction, sketch)

    monkeypatch.setattr(kronlev.experiments, "trial_error", recording)
    return seen


class TestOneBlasThread:
    def test_trials_run_on_one_thread_and_the_counts_are_restored(self, blas_controls, monkeypatch):
        seen = record_blas_counts(monkeypatch, blas_controls)
        run_trials(experiment_config(), threads=2)
        assert len(seen) == 6
        assert all(counts == [1] * len(blas_controls) for counts in seen)
        assert blas_counts(blas_controls) == [2] * len(blas_controls)

    def test_counts_are_restored_when_a_trial_raises(self, blas_controls, monkeypatch):
        seen = record_blas_counts(monkeypatch, blas_controls, fail=True)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_trials(experiment_config(), threads=2)
        assert seen and seen[0] == [1] * len(blas_controls)
        assert blas_counts(blas_controls) == [2] * len(blas_controls)

    def test_without_controls_the_trials_run_unpinned(self, blas_controls, monkeypatch):
        pinned = run_trials(experiment_config(), threads=2)
        monkeypatch.setattr(kronlev.sketch, "_blas_thread_controls", lambda: ())
        seen = record_blas_counts(monkeypatch, blas_controls)
        unpinned = run_trials(experiment_config(), threads=2)
        assert seen == [[2] * len(blas_controls)] * 6
        assert unpinned.errors == pinned.errors
        assert unpinned.optimal_error == pinned.optimal_error


@pytest.fixture(scope="module")
def cached_grid_values():
    """Target values per (model, grid); the packaged configs share one Duffing grid."""
    cache = {}

    def values(problem):
        key = json.dumps([problem.model, [g.nodes.tolist() for g in problem.grids]], sort_keys=True)
        if key not in cache:
            cache[key] = grid_values(problem.model, problem.grids)
        return cache[key]

    return values


def monomial_order_14(_):
    index_set = build_index_set(
        IndexSetSpec(dimension=2, family="wlp-ball", order=14, weights=(1.0, 1.0))
    )
    factors = [build_factor(gauss_legendre_grid(40), BasisSpec("monomial", 15))] * 2
    target = TargetFunction("smooth", lambda c: np.exp(c[:, 0]) * np.cos(2.0 * c[:, 1]))
    return index_set, factors, evaluate_on_grid(target, [f.grid for f in factors])


def explicit_non_lower(cached_grid_values):
    indices = [[1, 1, 1], [3, 1, 1], [1, 2, 2], [2, 1, 3], [1, 1, 2]]
    cfg = experiment_config(
        index_set={"dimension": 3, "family": "explicit-list", "indices": indices},
        methods=["uniform"],
    )
    problem = cfg.problem
    return problem.index_set, problem.factors, cached_grid_values(problem)


def packaged(name):
    def case(cached_grid_values):
        problem = parse_problem(load_json(packaged_config_path(name)))
        return problem.index_set, problem.factors, cached_grid_values(problem)

    return case


OPTIMAL_CASES = [
    pytest.param(packaged(name), 1e-12, id=name, marks=pytest.mark.slow)
    for name in list_packaged_configs()
] + [
    pytest.param(explicit_non_lower, 1e-12, id="explicit-non-lower"),
    pytest.param(monomial_order_14, 1e-6, id="monomial-order-14"),
]


@pytest.mark.parametrize("case,tolerance", OPTIMAL_CASES)
def test_optimal_matches_dense_oracle(case, tolerance, cached_grid_values):
    index_set, factors, b_values = case(cached_grid_values)
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
