import json
import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import kronlev.cli
import kronlev.config
import kronlev.indexset
from kronlev.cli import main
from kronlev.config import (
    ConfigError,
    load_json,
    parse_experiment,
    parse_index_set,
    parse_problem,
)
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.experiments import evaluate_on_grid, make_target
from kronlev.factor import build_factor, factor_qr, leverage_table
from kronlev.sketch import draw_sketch
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid, gauss_legendre_uniform_grid
from kronlev.indexset import IndexSetSpec, build_index_set
from helpers import count_calls, python_env, run_capped


def expected_sample_csv(config_path, tag, count, seed):
    """The text of ``kronlev sample``, formed row by row from the drawn sketch."""
    sketch = draw_sketch(parse_problem(load_json(config_path)).method(tag), count, seed)
    lines = ["m_1,m_2,m_3,y_1,y_2,y_3,point_mass,mu_mass"]
    for k in range(count):
        cells = [str(i + 1) for i in sketch.indices0[k].tolist()]
        cells += [repr(c) for c in sketch.coords[k].tolist()]
        cells += [repr(float(sketch.point_mass[k])), repr(float(sketch.mu_mass[k]))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def problem_dict(**overrides):
    config = {
        "dimension": 2,
        "grid": {"grid": "gauss-legendre", "M": 5},
        "basis": {"kind": "monomial"},
        "index_set": {"dimension": 2, "family": "wlp-ball", "p": 1.0, "order": 2,
                      "weights": [1.0, 1.0]},
    }
    config.update(overrides)
    return config


class TestParseProblem:
    def test_minimal(self):
        problem = parse_problem(problem_dict())
        assert problem.index_set.dimension == 2
        assert len(problem.index_set) == 6
        assert [len(g) for g in problem.grids] == [5, 5]
        assert [f.basis.count for f in problem.factors] == [3, 3]

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_problem(problem_dict(gridd={"grid": "gauss-legendre"}))

    def test_unknown_grid_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_problem(problem_dict(grid={"grid": "gauss-legendre", "M": 5, "kind": 1}))

    def test_unknown_grid_kind(self):
        with pytest.raises(ConfigError, match="unknown grid kind"):
            parse_problem(problem_dict(grid={"grid": "uniform", "M": 5}))

    def test_missing_required(self):
        bad = problem_dict()
        del bad["basis"]
        with pytest.raises(ConfigError, match="missing required"):
            parse_problem(bad)

    def test_per_dimension_grid_sizes(self):
        problem = parse_problem(problem_dict(grid={"grid": "gauss-legendre", "M": [5, 7]}))
        assert [len(g) for g in problem.grids] == [5, 7]

    def test_grid_size_list_length_checked(self):
        with pytest.raises(ConfigError, match="2 entries"):
            parse_problem(problem_dict(grid={"grid": "gauss-legendre", "M": [5, 7, 9]}))

    def test_grid_from_file(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"nodes": [-0.5, 0.0, 0.5, 0.8, 0.9],
                                         "weights": [0.2, 0.2, 0.2, 0.2, 0.2]}))
        problem = parse_problem(
            problem_dict(grid={"grid": "file", "path": str(grid_path)}), tmp_path
        )
        assert np.allclose(problem.grids[0].weights, 0.2)

    def test_dimension_mismatch_with_index_set(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_problem(problem_dict(dimension=3))

    def test_model_dimension_check(self):
        with pytest.raises(ConfigError, match="requires dimension 3"):
            parse_problem(problem_dict(model={"name": "ishigami"}))

    def test_basis_count_must_cover_box(self):
        with pytest.raises(ConfigError, match="bounding box"):
            parse_problem(problem_dict(basis={"kind": "monomial", "count": 2}))

    def test_grid_must_support_basis(self):
        with pytest.raises(ConfigError, match="full column rank"):
            parse_problem(problem_dict(grid={"grid": "gauss-legendre", "M": 2}))

    def test_unknown_model(self):
        config = problem_dict(dimension=2)
        config["model"] = {"name": "borehole"}
        with pytest.raises(ConfigError, match="unknown model"):
            parse_problem(config)

    @pytest.mark.parametrize("model,message", [
        ({"t_final": -4.0}, "duffing model t_final must be positive, got -4.0"),
        ({"step": 10.0}, "duffing model step must be in (0, t_final], got 10.0"),
        ({"step": 3e-7}, "duffing model step must be at least t_final / 10000000, got 3e-07"),
    ], ids=["t_final", "step", "step-count"])
    def test_duffing_step_rule_is_one_message_each(self, model, message):
        # the integrator's rule, refused with these messages before the model runs;
        # 4e6 steps of t_final 4 are admitted
        config = load_json(packaged_config_path("duffing-g7"))
        config["model"].update(step=1e-6)
        assert parse_problem(config).model["step"] == 1e-6
        config["model"].update(model)
        with pytest.raises(ConfigError) as raised:
            parse_problem(config)
        assert str(raised.value) == message


class TestParseIndexSet:
    def test_round_trip(self):
        spec = IndexSetSpec(dimension=3, family="wlp-ball", order=7.0, p=1.0,
                            weights=(1.0, 1.0, 1.0))
        obj = {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 7.0,
               "weights": [1.0, 1.0, 1.0]}
        assert parse_index_set(obj) == build_index_set(spec)

    def test_documented_form(self):
        got = parse_index_set(
            {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 7, "weights": [1, 1, 1]}
        )
        assert len(got) == 120

    def test_explicit_list_form(self):
        got = parse_index_set({"family": "explicit-list", "indices": [[1, 1], [2, 1]]})
        assert got.indices == ((1, 1), (2, 1))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_index_set({"dimension": 2, "family": "wlp-ball", "order": 1, "radius": 2})

    @pytest.mark.parametrize("p", ["inf", "Infinity", math.inf],
                             ids=["string-inf", "string-Infinity", "json-Infinity"])
    def test_infinity_spelling(self, p):
        got = parse_index_set({"dimension": 2, "family": "wlp-ball", "p": p, "order": 2})
        assert len(got) == 9


class TestGridFile:
    def parse(self, tmp_path, grid):
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        config = problem_dict(grid={"grid": "file", "path": "grid.json"},
                              index_set={"dimension": 2, "family": "wlp-ball", "order": 1})
        return parse_problem(config, tmp_path).grids[0]

    def test_round_trip(self, tmp_path):
        g = gauss_legendre_grid(4)
        back = self.parse(tmp_path, {"nodes": g.nodes.tolist(), "weights": g.weights.tolist()})
        assert np.array_equal(back.nodes, g.nodes)
        assert np.array_equal(back.weights, g.weights)

    def test_rejects_weight_sum_off_by_more_than_gate(self, tmp_path):
        with pytest.raises(ConfigError, match="not 1"):
            self.parse(tmp_path, {"nodes": [0.0, 1.0], "weights": [0.5, 0.5 + 1e-6]})

    def test_accepts_tiny_imbalance(self, tmp_path):
        g = self.parse(tmp_path, {"nodes": [0.0, 1.0], "weights": [0.5, 0.5 + 1e-10]})
        assert len(g) == 2

    def test_rejects_unknown_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            self.parse(tmp_path, {"nodes": [0.0], "weights": [1.0], "kind": "x"})

    def test_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ConfigError, match="finite"):
            self.parse(tmp_path, {"nodes": [0.0, math.inf], "weights": [0.5, 0.5]})


class TestParseExperiment:
    def base(self, **overrides):
        config = problem_dict(
            dimension=3,
            index_set={"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 2,
                       "weights": [1.0, 1.0, 1.0]},
            model={"name": "ishigami"},
            methods=["uniform"],
            trials=2,
            sample_multiplier=4,
            seed=3,
        )
        config.update(overrides)
        return config

    def test_round_trip(self):
        experiment = parse_experiment(self.base())
        assert experiment.sample_count == 4 * 10

    def test_requires_model(self):
        config = self.base()
        del config["model"]
        with pytest.raises(ConfigError, match="requires a model"):
            parse_experiment(config)

    @pytest.mark.parametrize("key", ["methods", "trials", "seed"])
    def test_requires_methods_trials_and_seed(self, key):
        config = self.base()
        del config[key]
        with pytest.raises(ConfigError, match=f"^experiment config missing required key '{key}'$"):
            parse_experiment(config)

    def test_rejects_both_count_and_multiplier(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_experiment(self.base(sample_count=10))

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError, match="^unknown sampler method 'leveraged'; expected one of "):
            parse_experiment(self.base(methods=["leveraged"]))

    def test_rejects_bad_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_experiment(self.base(trials=0))

    def test_rejects_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_experiment(self.base(seed=-1))

    @pytest.mark.parametrize(
        "key,value",
        [("dimension", True), ("trials", True), ("sample_count", True), ("seed", True),
         ("seed", False)],
    )
    def test_rejects_json_booleans_as_integers(self, key, value):
        # json.load turns true/false into bool, a subclass of int
        config = self.base(**{key: value})
        if key == "sample_count":
            del config["sample_multiplier"]
        with pytest.raises(ConfigError, match=f"{key} must be a"):
            parse_experiment(config)


class TestPackagedConfigs:
    def test_all_eight_present(self):
        names = list_packaged_configs()
        assert names == sorted(
            ["ishigami-g7", "ishigami-g9", "ishigami-hc15", "ishigami-hc18",
             "duffing-g7", "duffing-g9", "duffing-hc15", "duffing-hc18"]
        )

    def test_all_parse(self):
        for name in list_packaged_configs():
            experiment = parse_experiment(load_json(packaged_config_path(name)))
            assert experiment.trials == 100
            assert experiment.sample_count == 4 * len(experiment.problem.index_set)

    def test_expected_subspace_sizes(self):
        sizes = {"ishigami-g7": 120, "ishigami-g9": 220,
                 "ishigami-hc15": 110, "ishigami-hc18": 134}
        for name, n in sizes.items():
            experiment = parse_experiment(load_json(packaged_config_path(name)))
            assert len(experiment.problem.index_set) == n

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            packaged_config_path("ishigami-g8")


class TestSharedFactors:
    """Dimensions with one grid spec and basis share one grid and one factor object."""

    @pytest.mark.parametrize("name", list_packaged_configs())
    def test_packaged_dimensions_share_one_factor_with_the_bits_of_their_own(self, name, monkeypatch):
        config = load_json(packaged_config_path(name))
        calls = count_calls(monkeypatch, gauss_legendre_grid, factor_qr, leverage_table)
        problem = parse_problem(config)
        assert sorted(calls) == ["factor_qr", "gauss_legendre_grid", "leverage_table"]
        monkeypatch.undo()
        shared = problem.factors[0]
        assert all(f is shared for f in problem.factors)
        assert all(g is f.grid for g, f in zip(problem.grids, problem.factors))
        grid = {"gauss-legendre": gauss_legendre_grid, "gauss-legendre-uniform": gauss_legendre_uniform_grid}
        for count in problem.index_set.bounding_box:
            own = build_factor(grid[config["grid"]["grid"]](config["grid"]["M"]),
                               BasisSpec(config["basis"]["kind"], count))
            for field in ("matrix", "q", "r", "prob", "alias", "marginal"):
                assert getattr(shared, field).tobytes() == getattr(own, field).tobytes(), field
            assert shared.grid.nodes.tobytes() == own.grid.nodes.tobytes()
            assert shared.grid.weights.tobytes() == own.grid.weights.tobytes()

    @pytest.mark.parametrize("sizes,counts", [
        ([12, 20, 12], None),
        ([12, 20, 12], [3, 3, 4]),
        (12, [3, 4, 3]),
        ([12, 12, 20], [4, 3, 4]),
    ], ids=["M-12-20-12", "M-12-20-12-count-3-3-4", "M-12-count-3-4-3", "M-12-12-20-count-4-3-4"])
    def test_repeated_grid_and_basis_pairs_are_shared(self, sizes, counts):
        basis = {"kind": "legendre-orthonormal"}
        if counts is not None:
            basis["count"] = counts
        problem = parse_problem(problem_dict(
            dimension=3, grid={"grid": "gauss-legendre", "M": sizes}, basis=basis,
            index_set={"dimension": 3, "family": "wlp-ball", "order": 2},
        ))
        sizes = sizes if isinstance(sizes, list) else [sizes] * 3
        pairs = list(zip(sizes, [f.basis.count for f in problem.factors]))
        assert [len(g) for g in problem.grids] == sizes
        for i, j in product(range(3), repeat=2):
            assert (problem.grids[i] is problem.grids[j]) == (sizes[i] == sizes[j])
            assert (problem.factors[i] is problem.factors[j]) == (pairs[i] == pairs[j])

    @pytest.mark.parametrize("path", ["grid.json", ["grid.json", "./grid.json"]], ids=["scalar", "list"])
    def test_a_grid_file_named_in_every_dimension_is_read_once(self, tmp_path, monkeypatch, path):
        (tmp_path / "grid.json").write_text(json.dumps({"nodes": [-0.5, 0.0, 0.5],
                                                        "weights": [0.25, 0.5, 0.25]}))
        calls = count_calls(monkeypatch, kronlev.config._parse_grid_file)
        problem = parse_problem(problem_dict(grid={"grid": "file", "path": path},
                                             index_set={"dimension": 2, "family": "wlp-ball", "order": 1}),
                                tmp_path)
        assert calls == ["_parse_grid_file"]
        assert problem.grids[0] is problem.grids[1]
        assert problem.factors[0] is problem.factors[1]

    @pytest.mark.parametrize("grid,error", [
        (None, "grid file not found: {path}"),
        ({"nodes": [0.0, 1.0], "weights": [0.5, 0.25]}, f"bad grid file {{path}}: weights sum to {np.float64(0.75)!r}, not 1 (not renormalizing)"),
        ({"nodes": [0.0, 1.0]}, "grid file {path} missing required keys: ['weights']"),
    ], ids=["missing", "weight-sum", "missing-key"])
    def test_a_bad_grid_file_named_in_every_dimension_is_a_config_error(self, tmp_path, capsys, grid, error):
        path = tmp_path / "grid.json"
        if grid is not None:
            path.write_text(json.dumps(grid))
        config = problem_dict(grid={"grid": "file", "path": ["grid.json", "grid.json"]},
                              index_set={"dimension": 2, "family": "wlp-ball", "order": 1})
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["sample", "--config", str(tmp_path / "config.json"), "--method", "uniform",
                "--count", "3", "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: " + error.format(path=path) + "\n"


@pytest.fixture()
def tiny_config(tmp_path):
    config = {
        "dimension": 3,
        "grid": {"grid": "gauss-legendre-uniform", "M": 4},
        "basis": {"kind": "legendre-orthonormal"},
        "index_set": {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 2,
                      "weights": [1.0, 1.0, 1.0]},
        "model": {"name": "ishigami", "a": 7.0, "b": 0.1},
        "methods": ["uniform", "leverage-lower"],
        "trials": 2,
        "sample_multiplier": 4,
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# (id, argv, experiment methods) of every command that builds the factors
_COMMANDS_ON_THE_GRID = [
    ("sample-uniform", ["sample", "--method", "uniform", "--count", "3", "--seed", "1"], None),
    ("sample-leverage-lower",
     ["sample", "--method", "leverage-lower", "--count", "3", "--seed", "1"], None),
    ("solve", ["solve", "--method", "uniform", "--K", "40", "--seed", "1"], None),
    ("oracle", ["oracle", "--dump", "lev.csv"], None),
    ("experiment-uniform", ["experiment", "--out", "r.csv"], ["uniform"]),
    ("experiment-both", ["experiment", "--out", "r.csv"], ["uniform", "leverage-lower"]),
]
# (id suffix, config patch, error) of a grid that cannot carry the basis
_GRIDS_TOO_SMALL = [
    # a zero-weight node leaves two nonzero factor rows for three monomials
    ("", {"grid": {"grid": "file", "path": "grid.json"}, "basis": {"kind": "monomial"}},
     "grid has 2 nodes of positive weight"),
    # 60 nodes carry 45 monomials in exact arithmetic but not in floating point
    ("-rank-deficient",
     {"grid": {"grid": "gauss-legendre-uniform", "M": 60},
      "basis": {"kind": "monomial", "count": 45}},
     "factor matrix is rank deficient at column 42\n"),
]

_INDEX_SET = {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 2,
              "weights": [1.0, 1.0, 1.0]}
_TABULATED = {"model": {"name": "tabulated", "path": "values.txt"}}
# (id, method, config patch, error message) of a method the problem does not admit
_METHOD_PRECONDITIONS = [
    ("non-lower", "leverage-lower",
     {"index_set": {"family": "explicit-list", "indices": [[1, 1, 1], [2, 1, 1], [1, 1, 3]]}},
     "monotone lower"),
    ("non-orthogonal", "orthogonal-columns", {"basis": {"kind": "monomial"}}, "not orthogonal"),
    ("unknown", "leveraged", {}, "unknown sampler method"),
]


class TestCli:
    def test_indexset_summary(self, tiny_config, capsys):
        assert main(["indexset", "--config", str(tiny_config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"N": 10, "bounding_box": [3, 3, 3], "monotone_lower": True}

    def test_indexset_summary_of_a_far_gap(self, tmp_path, capsys):
        # the lower test stops at the first gap, not after the closure's 6.4e7 members
        path = tmp_path / "far-gap.json"
        path.write_text(json.dumps(
            {"index_set": {"family": "explicit-list", "indices": [[1, 1, 1], [400, 400, 400]]}}
        ))
        assert main(["indexset", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"N": 2, "bounding_box": [400, 400, 400], "monotone_lower": False}

    def test_missing_config_is_exit_2(self, capsys):
        assert main(["indexset", "--config", "no-such-file.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 3}))
        assert main(["indexset", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text,error", [
        ('{"dimension": 3,', "is not valid JSON"),
        ("[1, 2, 3]", "must hold a JSON object"),
    ], ids=["not-json", "json-list"])
    def test_config_file_that_is_not_a_json_object_is_exit_2(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["indexset", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: config file {path} ")
        assert error in captured.err

    def test_solve_without_a_model_is_exit_2(self, tiny_config, tmp_path, capsys):
        config = json.loads(tiny_config.read_text())
        del config["model"]
        path = tmp_path / "no-model.json"
        path.write_text(json.dumps(config))
        argv = ["solve", "--config", str(path), "--method", "uniform", "--K", "40", "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: solve requires a model in the config\n"

    def test_a_closed_stdout_is_status_1_with_nothing_on_stderr(self):
        # 20000 rows are about 2 MB, far more than a pipe holds, so the command is
        # still writing when its reader goes away
        argv = ["sample", "--config", str(packaged_config_path("ishigami-g7")),
                "--method", "leverage-lower", "--count", "20000", "--seed", "1"]
        process = subprocess.Popen([sys.executable, "-m", "kronlev.cli", *argv], env=python_env(),
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert process.stdout.readline() == b"m_1,m_2,m_3,y_1,y_2,y_3,point_mass,mu_mass\n"
            process.stdout.close()
            stderr = process.stderr.read()
            assert process.wait(timeout=600) == 1
        finally:
            process.kill()
            process.wait()
        assert stderr == b""

    def test_sample_csv(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = main([
            "sample", "--config", str(tiny_config), "--method", "leverage-lower",
            "--count", "6", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["K"] == 6
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m_1,m_2,m_3,y_1,y_2,y_3,point_mass,mu_mass"
        assert len(lines) == 7
        cells = lines[1].split(",")
        assert 1 <= int(cells[0]) <= 4
        assert float(cells[6]) > 0

    def test_sample_deterministic_bytes(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["sample", "--config", str(tiny_config), "--method", "uniform",
                  "--count", "10", "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("tag", ["uniform", "tensor-product", "leverage-lower"])
    def test_sample_csv_is_the_drawn_sketch(self, tiny_config, tmp_path, capsys, tag):
        out = tmp_path / "samples.csv"
        main(["sample", "--config", str(tiny_config), "--method", tag,
              "--count", "25", "--seed", "11", "--out", str(out)])
        assert out.read_text() == expected_sample_csv(tiny_config, tag, 25, 11)

    @pytest.mark.parametrize("count", [3, 4, 5, 9])
    def test_sample_csv_written_in_blocks_is_the_whole_text(self, tiny_config, tmp_path, capsys,
                                                             monkeypatch, count):
        monkeypatch.setattr(kronlev.cli, "_CSV_BLOCK", 4)
        out = tmp_path / "samples.csv"
        argv = ["sample", "--config", str(tiny_config), "--method", "leverage-lower",
                "--count", str(count), "--seed", "11"]
        main(argv + ["--out", str(out)])
        capsys.readouterr()
        main(argv)
        expected = expected_sample_csv(tiny_config, "leverage-lower", count, 11)
        assert out.read_text() == expected
        assert capsys.readouterr().out == expected

    def test_solve_summary(self, tiny_config, capsys):
        code = main([
            "solve", "--config", str(tiny_config), "--method", "leverage-lower",
            "--K", "40", "--seed", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"relative_error", "optimal_relative_error", "K", "N", "rank_flag"}
        assert payload["relative_error"] >= payload["optimal_relative_error"] - 1e-10
        assert payload["N"] == 10

    def test_oracle_dump(self, tiny_config, tmp_path, capsys):
        dump = tmp_path / "leverage.csv"
        assert main(["oracle", "--config", str(tiny_config), "--dump", str(dump)]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "row,leverage_score"
        scores = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert scores.size == 64
        assert abs(scores.sum() - 1.0) < 1e-10

    def test_experiment_writes_files(self, tiny_config, tmp_path, capsys):
        out, cdf, svg = (tmp_path / n for n in ("report.csv", "cdf.csv", "cdf.svg"))
        code = main([
            "experiment", "--config", str(tiny_config), "--out", str(out),
            "--cdf", str(cdf), "--svg", str(svg),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 2
        assert out.exists() and cdf.exists() and svg.exists()

    def test_experiment_threads_and_seed_override_deterministic(self, tiny_config, tmp_path):
        outs = []
        for name, threads in (("r1.csv", "1"), ("r2.csv", "3")):
            out = tmp_path / name
            main(["experiment", "--config", str(tiny_config), "--out", str(out),
                  "--threads", threads, "--seed", "123"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--out", "{tmp}/r.csv", "--threads", "0"],
            ["experiment", "--out", "{tmp}/r.csv", "--threads", "-4"],
            ["experiment", "--out", "{tmp}/r.csv", "--seed", "-1"],
            ["sample", "--method", "uniform", "--count", "0", "--seed", "1"],
            ["sample", "--method", "uniform", "--count", "-1", "--seed", "1"],
            ["sample", "--method", "uniform", "--count", "3", "--seed", "-1"],
            ["solve", "--method", "uniform", "--K", "0", "--seed", "1"],
            ["solve", "--method", "uniform", "--K", "40", "--seed", "-1"],
            ["solve", "--method", "uniform", "--K", "abc", "--seed", "1"],
        ],
        ids=["threads-0", "threads-neg", "experiment-seed-neg", "count-0", "count-neg",
             "sample-seed-neg", "K-0", "solve-seed-neg", "K-not-integer"],
    )
    def test_out_of_range_integer_option_is_exit_2(self, tiny_config, tmp_path, capsys, argv):
        argv = [argv[0], "--config", str(tiny_config)] + [
            arg.format(tmp=tmp_path) for arg in argv[1:]
        ]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "model",
        [
            {"name": "duffing", "t_final": 4.0, "step": 10.0},
            {"name": "duffing", "t_final": -4.0},
            {"name": "duffing", "t_final": 0.0},
            {"name": "duffing", "step": -1e-3},
            {"name": "duffing", "t_final": float("nan")},
            {"name": "duffing", "step": float("inf")},
            {"name": "duffing", "step": True},
            {"name": "ishigami", "a": float("nan")},
            {"name": "ishigami", "a": float("inf")},
            {"name": "ishigami", "b": "0.1"},
        ],
        ids=["duffing-step-10", "duffing-t-neg", "duffing-t-0", "duffing-step-neg",
             "duffing-t-nan", "duffing-step-inf", "duffing-step-bool", "ishigami-a-nan",
             "ishigami-a-inf", "ishigami-b-string"],
    )
    def test_bad_model_parameter_is_exit_2(self, tiny_config, tmp_path, capsys, model):
        # json.dumps writes NaN and Infinity, which json.load reads back
        config = json.loads(tiny_config.read_text())
        config["model"] = model
        path = tmp_path / "bad-model.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: " + model["name"] + " model" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,patch,values,message",
        [
            ("indexset", {"index_set": dict(_INDEX_SET, order=True)}, None, "index_set order"),
            ("indexset", {"index_set": dict(_INDEX_SET, order="2")}, None, "index_set order"),
            ("indexset", {"index_set": dict(_INDEX_SET, p="2")}, None, "index_set p"),
            ("indexset", {"index_set": dict(_INDEX_SET, weights=["1", "0.5", "1"])}, None,
             "index_set weights"),
            ("indexset", {"index_set": {"dimension": 2.9, "family": "wlp-ball", "order": 2}},
             None, "index_set dimension"),
            ("indexset", {"index_set": {"family": "explicit-list",
                                        "indices": [[1, 1, 1], [1, 2.5, 1]]}},
             None, "index_set entry"),
            ("indexset", {"index_set": {"family": "explicit-list", "indices": [[True] * 3]}},
             None, "index_set entry"),
            ("indexset", {"index_set": {"family": "explicit-list",
                                        "indices": [[1.9, 1, 1], [1, 1, 1]]}},
             None, "index_set entry"),
            ("sample", {"grid": {"grid": "gauss-legendre-uniform", "M": 6.7}}, None,
             "grid M"),
            ("sample", {"grid": {"grid": "gauss-legendre-uniform", "M": [True, 6, 6]}}, None,
             "grid M"),
            ("sample", {"basis": {"kind": "legendre-orthonormal", "count": 3.9}}, None,
             "basis count"),
            ("experiment", {"sample_multiplier": True}, None, "sample_multiplier"),
            ("experiment", {"sample_multiplier": "4"}, None, "sample_multiplier"),
            ("experiment", {"sample_multiplier": math.nan}, None, "sample_multiplier"),
            ("experiment", {"sample_multiplier": math.inf}, None, "sample_multiplier"),
            ("experiment", {"sample_multiplier": 1e308}, None, "sample_multiplier * N"),
            ("experiment", {"methods": ["uniform", "uniform"]}, None, "methods must be distinct"),
            ("experiment", {"methods": "uniform"}, None, "methods must be a"),
            ("experiment", _TABULATED, None, "tabulated model file"),
            ("experiment", _TABULATED, [0.5] * 63, "must hold 64 values"),
            ("experiment", _TABULATED, [0.5] * 63 + [math.nan], "non-finite"),
            ("indexset", {"index_set": dict(_INDEX_SET, order=-1)}, None,
             "bad index_set: order must be finite and >= 0"),
            ("indexset", {"index_set": dict(_INDEX_SET, weights=[0.5, 0.5, 0.5])}, None,
             "bad index_set: at least one weight must equal 1"),
            ("sample", {"grid": 5}, None, "grid spec must be a JSON object"),
            ("sample", {"basis": {"kind": "chebyshev"}}, None, "unknown basis kind 'chebyshev'"),
            ("experiment", {"model": {"name": "tabulated", "path": 5}}, None,
             "tabulated model path must be a path string"),
            ("experiment", {"sample_multiplier": 0}, None, "sample_multiplier must be positive"),
            ("experiment", {"sample_multiplier": -4}, None, "sample_multiplier must be positive"),
        ],
        ids=["order-bool", "order-string", "p-string", "weights-strings", "dimension-float",
             "entry-float", "entry-bool", "entry-float-collides", "M-float", "M-bool",
             "count-float", "multiplier-bool", "multiplier-string", "multiplier-nan",
             "multiplier-inf", "multiplier-overflow", "methods-duplicate", "methods-string", "tabulated-missing",
             "tabulated-count", "tabulated-nan", "order-negative", "weights-below-1", "grid-number",
             "basis-kind-unknown", "tabulated-path-number", "multiplier-0", "multiplier-neg"],
    )
    def test_bad_config_value_is_exit_2(
        self, tiny_config, tmp_path, capsys, command, patch, values, message
    ):
        config = json.loads(tiny_config.read_text())
        config.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        if values is not None:
            (tmp_path / "values.txt").write_text("".join(f"{v!r}\n" for v in values))
        args = {
            "indexset": [],
            "sample": ["--method", "uniform", "--count", "3", "--seed", "1"],
            "experiment": ["--out", str(tmp_path / "r.csv")],
        }[command]
        assert main([command, "--config", str(path)] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "command,tag,patch,message",
        [
            pytest.param(command, *case[1:], id=f"{command}-{case[0]}")
            for command in ("sample", "solve", "experiment")
            for case in _METHOD_PRECONDITIONS
        ],
    )
    def test_method_precondition_is_exit_2_before_the_model_is_evaluated(
        self, tiny_config, tmp_path, capsys, monkeypatch, command, tag, patch, message
    ):
        def no_model(*args):
            raise AssertionError("the model was evaluated before the method was checked")

        monkeypatch.setattr("kronlev.experiments.evaluate_on_grid", no_model)
        # the Ishigami model is taken by its terms, not on the grid
        monkeypatch.setattr("kronlev.experiments._ishigami_terms", no_model)
        config = json.loads(tiny_config.read_text())
        config.update(patch, methods=[tag])
        path = tmp_path / "bad-method.json"
        path.write_text(json.dumps(config))
        args = {
            "sample": ["--method", tag, "--count", "3", "--seed", "1"],
            "solve": ["--method", tag, "--K", "40", "--seed", "1"],
            "experiment": ["--out", str(tmp_path / "r.csv")],
        }[command]
        assert main([command, "--config", str(path)] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert not (tmp_path / "r.csv").exists()

    def test_an_unknown_method_is_one_config_error_line_in_every_command(self, tiny_config, tmp_path, capsys):
        # the sampler judges a tag read from the config as it judges --method
        config = json.loads(tiny_config.read_text())
        config["methods"] = ["leveraged"]
        path = tmp_path / "leveraged.json"
        path.write_text(json.dumps(config))
        errors = []
        for args in (["experiment", "--out", str(tmp_path / "r.csv")],
                     ["solve", "--method", "leveraged", "--K", "40", "--seed", "1"],
                     ["sample", "--method", "leveraged", "--count", "3", "--seed", "1"]):
            assert main(args[:1] + ["--config", str(path)] + args[1:]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == [errors[0]] * 3
        assert errors[0].startswith("config error: unknown sampler method 'leveraged'; expected one of ")
        assert errors[0].count("\n") == 1 and errors[0].endswith("\n")

    def test_tabulated_path_is_relative_to_the_config_file(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        config = json.loads(tiny_config.read_text())
        problem = parse_problem(config)
        values = evaluate_on_grid(make_target(problem.model, problem.grids), problem.grids)
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "values.txt").write_text("".join(f"{float(v)!r}\n" for v in values))
        config.update(_TABULATED)
        (tmp_path / "cfg" / "tabulated.json").write_text(json.dumps(config))
        config["model"] = {"name": "tabulated", "path": str(tmp_path / "cfg" / "values.txt")}
        (tmp_path / "absolute.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        solve_args = ["--method", "leverage-lower", "--K", "40", "--seed", "2"]
        assert main(["solve", "--config", str(tmp_path / "absolute.json")] + solve_args) == 0
        expected = capsys.readouterr().out
        assert main(["solve", "--config", "cfg/tabulated.json"] + solve_args) == 0
        assert capsys.readouterr().out == expected
        # the same values as the model's, which is reduced by its terms instead
        # of on the grid, so the two differ only in rounding
        assert main(["solve", "--config", str(tiny_config)] + solve_args) == 0
        model, tabulated = json.loads(capsys.readouterr().out), json.loads(expected)
        assert model.keys() == tabulated.keys()
        for key, value in model.items():
            assert value == pytest.approx(tabulated[key], rel=1e-13, abs=0.0)

    def test_missing_grid_file_is_exit_2(self, tiny_config, tmp_path, capsys):
        config = json.loads(tiny_config.read_text())
        config["grid"] = {"grid": "file", "path": "no-such-grid.json"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["--method", "uniform", "--count", "3", "--seed", "1"]
        assert main(["sample", "--config", str(path)] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: grid file not found: ")

    @pytest.mark.parametrize("where,key", [
        ("top-level", "trials"), ("index-set", "order"), ("grid-file", "nodes"),
    ])
    def test_repeated_key_is_exit_2(self, where, key, tiny_config, tmp_path, capsys):
        # json.load alone keeps the last value: {"trials": 5, "trials": 100} would run 100 trials
        config = json.loads(tiny_config.read_text())
        grid = {"nodes": [-0.5, 0.0, 0.5, 0.75], "weights": [0.25] * 4}
        if where == "grid-file":
            config["grid"] = {"grid": "file", "path": "grid.json"}
        text, grid_text = json.dumps(config), json.dumps(grid)
        if where == "top-level":
            text = text.replace('"trials": 2', '"trials": 5, "trials": 2')
        elif where == "index-set":
            text = text.replace('"index_set": {', '"index_set": {"order": 1, ')
        else:
            grid_text = grid_text.replace('"nodes": ', '"nodes": [0.0], "nodes": ')
        path, grid_path = tmp_path / "config.json", tmp_path / "grid.json"
        path.write_text(text)
        grid_path.write_text(grid_text)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        named = grid_path if where == "grid-file" else path
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert f"{named} repeats the key {key!r}" in captured.err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_empty_tabulated_file_is_one_config_error(self, tiny_config, tmp_path, capsys):
        # with warnings as errors, a warning from the reader would turn into
        # an exit-1 runtime error instead of the config error
        config = json.loads(tiny_config.read_text())
        config.update(_TABULATED)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (tmp_path / "values.txt").write_text("")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: tabulated model file ")
        assert len(captured.err.splitlines()) == 1

    def test_commands_without_the_model_do_not_read_tabulated_values(
        self, tiny_config, tmp_path, capsys
    ):
        config = json.loads(tiny_config.read_text())
        config.update(_TABULATED)  # values.txt does not exist
        path = tmp_path / "tabulated.json"
        path.write_text(json.dumps(config))
        assert main(["indexset", "--config", str(path)]) == 0
        assert main(["sample", "--config", str(path), "--method", "uniform",
                     "--count", "3", "--seed", "1"]) == 0
        assert main(["oracle", "--config", str(path), "--dump", str(tmp_path / "lev.csv")]) == 0

    @pytest.mark.parametrize("argv,methods,grid,error", [
        pytest.param(argv, methods, grid, error, id=command + case)
        for case, grid, error in _GRIDS_TOO_SMALL
        for command, argv, methods in _COMMANDS_ON_THE_GRID
    ])
    def test_grid_too_small_for_the_basis_is_exit_2(
        self, argv, methods, grid, error, tiny_config, tmp_path, capsys
    ):
        (tmp_path / "grid.json").write_text(
            json.dumps({"nodes": [-0.5, 0.0, 0.5], "weights": [0.5, 0.5, 0.0]}))
        config = json.loads(tiny_config.read_text())
        config.update(grid)
        if methods:
            config["methods"] = methods
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {error}")
        assert not any(tmp_path.glob("*.csv"))

    def test_runtime_error_is_exit_1(self, tmp_path, monkeypatch, capsys):
        # a valid config whose J's closure passes the walk bound, lowered here
        # from 10^6 to J's 2 members, makes the oracle subcommand fail at
        # runtime, not at config parsing, and before the dump is opened
        config = {
            "dimension": 3,
            "grid": {"grid": "gauss-legendre", "M": 5},
            "basis": {"kind": "monomial"},
            "index_set": {"dimension": 3, "family": "explicit-list", "indices": [[1, 1, 1], [1, 1, 3]]},
        }
        path = tmp_path / "gapped.json"
        path.write_text(json.dumps(config))
        monkeypatch.setattr(kronlev.indexset, "_MAX_MEMBERS", 2)
        assert main(["oracle", "--config", str(path), "--dump", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr() == (
            "", "error: the lower closure of J has more than 2 members; it is not walked\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("dimension,m", [(20, 6), (64, 2)], ids=["D20-M6", "D64-M2"])
    def test_oracle_stops_at_the_dense_guard_before_any_grid_array(self, tmp_path, capsys, dimension, m):
        # 6^20 rows would take 26 PiB as one float column, and 2^64 rows overflow
        # numpy's shapes: the bound on the scores' rows must come before either
        # is asked for, and before J's record is built or the dump is opened
        config = {
            "dimension": dimension,
            "grid": {"grid": "gauss-legendre", "M": m},
            "basis": {"kind": "legendre-orthonormal"},
            "index_set": {"dimension": dimension, "family": "wlp-ball", "p": 1.0, "order": 1,
                          "weights": [1.0] * dimension},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        assert main(["oracle", "--config", str(path), "--dump", str(tmp_path / "x.csv")]) == 1
        rows = m**dimension
        assert capsys.readouterr().err == (
            f"error: full grid has {rows} rows, beyond the score bound 10000000\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("count,error", [
        (None, "grid has 20 nodes of positive weight but basis needs 1000001; "),
        (20, "basis count is smaller than the index set bounding box\n"),
    ], ids=["grid", "basis-count"])
    @pytest.mark.parametrize("name", ["ishigami-g7", "ishigami-hc18"])
    def test_a_box_the_grid_cannot_carry_exits_2_before_j_is_walked(self, tmp_path, name, count, error):
        # At order 10^6 the ball has about 1.7e17 members and the cross about 1e8, so a
        # walk of J before the grid check does not end within the timeout
        config = load_json(packaged_config_path(name))
        config["index_set"]["order"] = 10**6
        if count is not None:
            config["basis"]["count"] = count
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_capped(["solve", "--config", str(path), "--method", "uniform", "--K", "10", "--seed", "1"])
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(f"config error: {error}")

    @pytest.mark.parametrize("name", ["ishigami-g7", "ishigami-hc18"])
    def test_indexset_of_more_than_a_million_members_exits_2(self, tmp_path, name):
        # indexset must walk J to report N, so the walk stops after 10^6 members
        # instead of enumerating the ball's 1.7e17 or the cross's 1e8
        config = load_json(packaged_config_path(name))
        config["index_set"]["order"] = 10**6
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_capped(["indexset", "--config", str(path)])
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "config error: bad index_set: the set has more than 1000000 members; it is not enumerated\n"
        )

    FAR_GAP = {"family": "explicit-list", "indices": [[1, 1, 1], [200, 200, 200]]}
    SOLVE = ["solve", "--method", "uniform", "--K", "8", "--seed", "1"]
    WALKED = "error: the lower closure of J has more than 1000000 members; it is not walked\n"

    @pytest.mark.parametrize("name,patch,argv,code,error", [
        ("duffing-g7", {"model": {"name": "duffing", "step": 1e-300}}, SOLVE, 2,
         "config error: duffing model step must be at least t_final / 10000000, got 1e-300\n"),
        ("ishigami-g7", {"grid": {"grid": "gauss-legendre-uniform", "M": 200}, "index_set": FAR_GAP},
         SOLVE, 1, WALKED),
        # the Legendre columns are orthogonal on the Gauss-Legendre rule, so
        # the parse admits orthogonal-columns, which reads J alone: the run's
        # reduction walks L, and a sample draws from J's two members
        ("ishigami-g7", {"grid": {"grid": "gauss-legendre", "M": 200}, "index_set": FAR_GAP,
                         "methods": ["orthogonal-columns"]},
         ["experiment", "--out", "report.csv"], 1, WALKED),
        ("ishigami-g7", {"grid": {"grid": "gauss-legendre", "M": 200}, "index_set": FAR_GAP},
         ["sample", "--method", "orthogonal-columns", "--count", "8", "--seed", "1"], 0, ""),
        # the scores are read from J's record, whose walk of L stops before the dump is opened
        ("ishigami-g7", {"grid": {"grid": "gauss-legendre-uniform", "M": 200}, "index_set": FAR_GAP},
         ["oracle", "--dump", "far-gap.csv"], 1, WALKED),
    ], ids=["duffing-step", "far-gap", "far-gap-experiment", "far-gap-sample", "far-gap-oracle"])
    def test_a_run_past_its_bound_ends_with_the_bounds_message(self, tmp_path, name, patch, argv, code, error):
        # 4e300 RK4 steps, or a walk towards J's closure of 8e6 members and its
        # 11.9 GiB table on the 200-node grid.  Each exits with its bound's
        # message whichever method the run holds
        config = load_json(packaged_config_path(name))
        config.update(patch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_capped([argv[0], "--config", str(path), *argv[1:]], cwd=tmp_path)
        assert (result.returncode, result.stderr) == (code, error)
        if code:
            assert result.stdout == "" and not any(tmp_path.glob("*.csv"))
        else:  # the header and one line per draw
            lines = result.stdout.splitlines()
            assert len(lines) == 9 and lines[0].startswith("m_1,m_2,m_3,")

    @pytest.mark.parametrize("argv", [SOLVE, ["experiment", "--out", "report.csv", "--cdf", "cdf.csv"]],
                             ids=["solve", "experiment"])
    def test_a_grid_valued_model_past_the_row_bound_exits_1_before_it_is_evaluated(self, tmp_path, argv):
        # duffing-g7 at M = 400: 6.4e7 grid points, whose 4000 RK4 steps
        # would take about an hour and whose values would take 512 MB
        config = load_json(packaged_config_path("duffing-g7"))
        config["grid"]["M"] = 400
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_capped([argv[0], "--config", str(path), *argv[1:]], cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: full grid has 64000000 rows, beyond the grid-value bound 10000000\n"
        )
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("m,code,error", [
        (215, 2, "config error: tabulated model file "),
        (216, 1, "error: full grid has 10077696 rows, beyond the grid-value bound 10000000\n"),
    ], ids=["215-cubed", "216-cubed"])
    def test_a_tabulated_model_is_bounded_before_its_file_is_read(self, tmp_path, capsys, m, code, error):
        # 215^3 rows are within the bound, so the missing file is read; 216^3 are not
        config = load_json(packaged_config_path("ishigami-g7"))
        config.update(grid={"grid": "gauss-legendre-uniform", "M": m},
                      model={"name": "tabulated", "path": "missing.txt"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path), *self.SOLVE[1:]]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(error)

    def test_an_exception_without_text_is_named_by_its_type(self, tiny_config, monkeypatch, capsys):
        def out_of_memory(problem, workers=1):
            raise MemoryError()

        monkeypatch.setattr(kronlev.cli, "prepare_problem", out_of_memory)
        argv = ["solve", "--config", str(tiny_config), "--method", "uniform", "--K", "40", "--seed", "1"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: MemoryError\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_duffing_blow_up_is_one_error_line_at_each_worker_count(
        self, tmp_path, monkeypatch, capsys, threads
    ):
        # at --threads 2 the forked share's blow-up is raised again by the caller
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = load_json(packaged_config_path("duffing-g7"))
        config["model"].update(t_final=400.0, step=1.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(path), "--out", str(out), "--threads", threads]) == 1
        assert capsys.readouterr() == ("", "error: Duffing integration blew up (non-finite state)\n")
        assert not out.exists()

    def test_a_set_beyond_the_walk_bound_is_a_config_error_of_each_parser(self, monkeypatch):
        # a box the grid carries, so parse_problem reaches the walk; the bound
        # is lowered below ishigami-g7's 120 members to keep the test small
        config = load_json(packaged_config_path("ishigami-g7"))
        monkeypatch.setattr(kronlev.indexset, "_MAX_MEMBERS", 119)
        message = "^bad index_set: the set has more than 119 members; it is not enumerated$"
        for parse in (parse_problem, parse_experiment, lambda c: parse_index_set(c["index_set"])):
            with pytest.raises(ConfigError, match=message):
                parse(config)
        monkeypatch.setattr(kronlev.indexset, "_MAX_MEMBERS", 120)
        assert len(parse_problem(config).index_set) == 120

    @pytest.mark.slow
    def test_solve_above_dense_guard_matches_experiment(self, tmp_path, capsys):
        # 101^3 = 1,030,301 rows, above the dense oracle's 10^6-row guard
        config = load_json(packaged_config_path("ishigami-g7"))
        config["grid"]["M"] = 101
        config["methods"] = ["leverage-lower"]
        config["trials"] = 1
        path = tmp_path / "m101.json"
        path.write_text(json.dumps(config))
        code = main([
            "solve", "--config", str(path), "--method", "leverage-lower",
            "--K", "480", "--seed", "5",
        ])
        assert code == 0
        solved = json.loads(capsys.readouterr().out)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 0
        experiment = json.loads(capsys.readouterr().out)
        assert solved["relative_error"] >= solved["optimal_relative_error"]
        assert solved["optimal_relative_error"] == experiment["optimal_relative_error"]

    # (packaged config, its changes, command and arguments): each is run in this
    # process at BLAS counts 1 and 2, {count} taking the count
    DUFFING_M22 = {"grid": {"grid": "gauss-legendre-uniform", "M": 22},
                   "model": {"name": "duffing", "t_final": 0.1, "step": 0.01}, "trials": 10}
    BLAS_COUNT_CASES = {
        "experiment-ishigami-g7": ("ishigami-g7", {}, ["experiment", "--out", "report.csv", "--cdf", "cdf.csv"]),
        # 22^3 = 10,648 grid values: OpenBLAS splits a dot product of more than
        # 10^4 elements across its threads, so an unpinned reduction's ||b||^2
        # and ||r||^2 round by thread count and move every reported error
        "experiment-duffing-g7-m22": ("duffing-g7", DUFFING_M22,
                                      ["experiment", "--out", "report.csv", "--cdf", "cdf.csv"]),
        "solve-duffing-g7-m22": ("duffing-g7", DUFFING_M22,
                                 ["solve", "--method", "leverage-lower", "--K", "480", "--seed", "3"]),
        # duffing-g9 (N = 220, K = 880) at its packaged size and seed: an
        # unpinned trial rounds differently on two BLAS threads
        "experiment-duffing-g9": ("duffing-g9", {"trials": 40},
                                  ["experiment", "--out", "report.csv", "--cdf", "cdf.csv", "--threads", "{count}"]),
        "solve-duffing-g9": ("duffing-g9", {}, ["solve", "--method", "uniform", "--K", "880", "--seed", "1"]),
        # the scores are read from J's record on one BLAS thread, whatever the caller's count
        "oracle-ishigami-g7": ("ishigami-g7", {}, ["oracle", "--dump", "leverage.csv"]),
    }

    @pytest.mark.parametrize("case", list(BLAS_COUNT_CASES))
    def test_stdout_and_files_keep_their_bytes_at_one_and_two_blas_threads(
        self, openblas, tmp_path, monkeypatch, capsys, case
    ):
        name, changes, argv = self.BLAS_COUNT_CASES[case]
        config = {**load_json(packaged_config_path(name)), **changes}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        outputs = []
        for count in (1, 2):
            written = tmp_path / f"blas-{count}"
            written.mkdir()
            monkeypatch.chdir(written)  # the files are named relative to it, in stdout too
            openblas.set_threads(count)
            assert main([argv[0], "--config", str(path), *(arg.format(count=count) for arg in argv[1:])]) == 0
            assert openblas.get_threads() == count
            outputs.append((capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(written.iterdir())}))
        assert outputs[0] == outputs[1]

    def test_solve_imports_no_scipy(self):
        # scipy is a test dependency only: importing it costs every command about 0.35 s
        script = (
            "import json, sys, kronlev.cli\n"
            "code = kronlev.cli.main(sys.argv[1:])\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))\n"
            "sys.exit(code)\n"
        )
        argv = ["solve", "--config", str(packaged_config_path("ishigami-g7")),
                "--method", "leverage-lower", "--K", "480", "--seed", "1"]
        result = run_capped(argv, script=script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert set(json.loads(lines[0])) == {
            "relative_error", "optimal_relative_error", "K", "N", "rank_flag"
        }
        assert json.loads(lines[-1]) == []

    def test_oracle_dumps_a_grid_above_a_million_rows_in_bounded_memory(self, tmp_path):
        # ishigami-g7 at M = 101: 1,030,301 rows, which the dense oracle refuses; the
        # scores are read from J's record a block of rows at a time, so the process
        # peaks at about 33 MB, where one dense 1030301 x 120 matrix takes 989 MB
        config = load_json(packaged_config_path("ishigami-g7"))
        config["grid"] = {"grid": "gauss-legendre-uniform", "M": 101}
        path, dump = tmp_path / "m101.json", tmp_path / "m101.csv"
        path.write_text(json.dumps(config))
        script = (
            "import kronlev.cli\n"
            "code = kronlev.cli.main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n"
        )
        result = run_capped(["oracle", "--config", str(path), "--dump", str(dump)], script=script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert json.loads(lines[0]) == {"path": str(dump), "rows": 101**3, "N": 120}
        assert int(lines[-1]) <= 200 * 1024  # ru_maxrss is in KiB on Linux
        text = dump.read_text().splitlines()
        assert len(text) == 1030302 and text[0] == "row,leverage_score"
        assert [int(line.split(",")[0]) for line in text[1:]] == list(range(1, 101**3 + 1))
        assert abs(math.fsum(float(line.split(",")[1]) for line in text[1:]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_commands_on_one_worker_import_no_process_pool(self, command, tmp_path):
        # concurrent.futures and multiprocessing are imported only where a
        # process is forked; at start-up they cost about 6 ms and bring in logging
        config = load_json(packaged_config_path("ishigami-g7"))
        config["trials"] = 2
        path = tmp_path / "ishigami-g7.json"
        path.write_text(json.dumps(config))
        if command == "solve":
            argv = ["solve", "--method", "leverage-lower", "--K", "480", "--seed", "1"]
        else:
            argv = ["experiment", "--out", str(tmp_path / "report.csv"), "--threads", "1"]
        script = (
            "import json, sys, kronlev.cli\n"
            "code = kronlev.cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('concurrent', 'multiprocessing'))))\n"
            "sys.exit(code)\n"
        )
        result = run_capped([*argv, "--config", str(path)], script=script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert json.loads(lines[0])["N"] == 120
        assert json.loads(lines[-1]) == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "kronlev" in capsys.readouterr().out
