"""Tests of the benchmark's own code: span arithmetic, patching, references.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
import workloads
from tracer import FULL_TARGETS, Tracer, self_times

import kronlev
import kronlev.cli
from kronlev.configs import packaged_config_path

ROOT = Path(__file__).resolve().parents[2]


def tiny_config(tmp_path, **changes):
    config = json.loads(packaged_config_path("ishigami-g7").read_text())
    config.update(trials=3, **changes)
    config["grid"]["M"] = 10
    config["index_set"]["order"] = 3
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    return config, path


def kronlev_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "kronlev" or name.startswith("kronlev.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (0, -1, 1, "root", 0.0, 10.0, {}),
        (1, 0, 1, "a", 1.0, 4.0, {}),
        (2, 0, 1, "b", 5.0, 7.0, {}),
        (3, 1, 1, "a.child", 2.0, 3.0, {}),
        (4, 0, 2, "c", 6.0, 8.0, {}),  # overlaps b: the root loses [5, 8] once
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0}


def test_traced_run_restores_every_binding_and_keeps_report_bytes(tmp_path):
    _, path = tiny_config(tmp_path)
    before = kronlev_bindings()
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    args = ["experiment", "--config", str(path), "--threads", "2", "--out"]
    assert kronlev.cli.main(args + [str(plain)]) == 0
    tracer = Tracer(FULL_TARGETS)
    with tracer:
        assert kronlev.experiments.draw_sketch is not before[("kronlev.sketch", "draw_sketch")]
        assert kronlev.sampler.factor_qr is not before[("kronlev.factor", "factor_qr")]
        assert kronlev.cli.main(args + [str(traced)]) == 0
    after = kronlev_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced.read_bytes() == plain.read_bytes()
    assert {s[3] for s in tracer.spans} >= {"sketch.draw_sketch", "sketch.solve", "cli.main"}


def test_missing_function_records_zero_calls(tmp_path):
    _, path = tiny_config(tmp_path)
    targets = {"kronlev.experiments": {"_no_such_function": None, "run_trials": None}}
    with Tracer(targets) as tracer:
        kronlev.cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert [s[3] for s in tracer.spans] == ["experiments.run_trials"]


def test_layer_metrics_count_the_traced_work(tmp_path):
    config, path = tiny_config(tmp_path)
    started = time.monotonic()
    with Tracer(FULL_TARGETS) as tracer:
        kronlev.cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    command = {"kind": "experiment", "started": started, "record": {"spans": tracer.spans}}
    values = metrics.layer_metrics([command], threads=1)
    pipelines = len(config["methods"]) * config["trials"]
    k = int(round(config["sample_multiplier"] * workloads.subspace_size(config)))
    assert values["experiments.trial_samples"] == pipelines
    assert values["sampler.draws"] == pipelines * k
    assert values["sketch.full_error_rows"] == pipelines * 10**3
    assert 0.0 < values["sketch.stage_cover_frac"] <= 1.0
    assert set(values) | {"trace.overhead_frac"} == set(metrics.PER_LAYER)


def test_reference_matches_the_package_and_its_two_optimal_paths_agree(tmp_path):
    config, path = tiny_config(tmp_path)
    ref = checks.reference_problem(config)
    problem = kronlev.config.parse_problem(config)
    for ours, theirs in zip(ref.factors, problem.factors):
        np.testing.assert_allclose(ours, theirs.matrix, rtol=0, atol=1e-13)
    b = checks.weighted_target(ref, config["model"])
    dense, structured = checks.dense_optimal(ref, b), checks.structured_optimal(ref, b)
    assert structured == pytest.approx(dense, rel=1e-12)
    report = kronlev.experiments.run_trials(kronlev.config.parse_experiment(config))
    assert report.optimal_error == pytest.approx(dense, rel=checks.REL_TOL)


def test_sample_checks_pass_on_package_draws_and_catch_wrong_or_nan_values(tmp_path):
    config = workloads.prepare("sample-td7", ROOT, 0).config
    config = dict(config, dimension=3, index_set={"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 3})
    path, out = tmp_path / "td.json", tmp_path / "s.csv"
    path.write_text(json.dumps(config))
    args = ["sample", "--config", str(path), "--method", "leverage-lower", "--count", "400", "--seed", "5"]
    assert kronlev.cli.main(args + ["--out", str(out)]) == 0
    ref = checks.reference_problem(config)
    sample = checks.read_sample(out)
    assert checks.check_sample(ref, sample, 400) == []
    ratios = checks.sketch_error_ratios(ref, sample, checks.qj_rows(ref, sample[0]), 80)
    assert len(ratios) == 5 and all(r >= 1.0 for r in ratios)
    idx0, coords, point_mass, mu_mass = sample
    wrong = (idx0, coords, point_mass * (1 + 1e-9), mu_mass)
    assert checks.check_sample(ref, wrong, 400) == [
        "point_mass differs from the leverage mixture of the factor QRs"
    ]
    nan_coords, nan_mu = coords.copy(), mu_mass.copy()
    nan_coords[7, 1] = nan_mu[3] = np.nan
    assert checks.check_sample(ref, (idx0, nan_coords, point_mass, nan_mu), 400) == [
        "coordinates differ from the grid nodes",
        "mu_mass differs from the product of node weights",
    ]


def test_each_kind_reports_its_own_rate():
    group = {"setup_s": 1.0, "work_s": 2.0, "wall_s": 4.0, "peak_rss_mb": 50.0, "lev_err_ratio_p50": 1.1}
    trials = metrics.run_end_to_end([dict(group, pipelines=6)], "experiment")
    draws = metrics.run_end_to_end([dict(group, draws=100)], "sample")
    shared = {"setup_s": 1.0, "wall_s": 4.0, "peak_rss_mb": 50.0, "lev_err_ratio_p50": 1.1}
    assert trials == dict(shared, trials_per_s=3.0)
    assert draws == dict(shared, draws_per_s=50.0)
