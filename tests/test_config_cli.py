import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronlev
import kronlev.cli
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
from kronlev.sketch import draw_sketch
from kronlev.grid_basis import gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set


def run_python(args, **env):
    """stdout of a new Python process that imports this kronlev, with ``env`` added."""
    src = str(Path(kronlev.__file__).parents[1])
    env = dict(
        os.environ,
        **env,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, timeout=600,
    ).stdout


def run_cli_with_blas_threads(blas_threads, argv):
    """stdout of ``kronlev`` run in a new process with OPENBLAS_NUM_THREADS set."""
    return run_python(["-m", "kronlev.cli", *argv], OPENBLAS_NUM_THREADS=blas_threads)


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

    def test_rejects_both_count_and_multiplier(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_experiment(self.base(sample_count=10))

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
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

    def test_missing_config_is_exit_2(self, capsys):
        assert main(["indexset", "--config", "no-such-file.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 3}))
        assert main(["indexset", "--config", str(path)]) == 2

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
        ],
        ids=["threads-0", "threads-neg", "experiment-seed-neg", "count-0", "count-neg",
             "sample-seed-neg", "K-0", "solve-seed-neg"],
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
        ],
        ids=["order-bool", "order-string", "p-string", "weights-strings", "dimension-float",
             "entry-float", "entry-bool", "entry-float-collides", "M-float", "M-bool",
             "count-float", "multiplier-bool", "multiplier-string", "multiplier-nan",
             "multiplier-inf", "multiplier-overflow", "methods-duplicate", "methods-string", "tabulated-missing",
             "tabulated-count", "tabulated-nan"],
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
            # experiment reads its methods from the config, whose parser rejects unknown tags
            if not (command == "experiment" and case[0] == "unknown")
        ],
    )
    def test_method_precondition_is_exit_2_before_the_model_is_evaluated(
        self, tiny_config, tmp_path, capsys, monkeypatch, command, tag, patch, message
    ):
        def no_grid_values(*args):
            raise AssertionError("the model was evaluated before the method was checked")

        monkeypatch.setattr("kronlev.experiments.grid_values", no_grid_values)
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
        monkeypatch.chdir(tmp_path)
        solve_args = ["--method", "leverage-lower", "--K", "40", "--seed", "2"]
        assert main(["solve", "--config", str(tiny_config)] + solve_args) == 0
        expected = capsys.readouterr().out
        assert main(["solve", "--config", "cfg/tabulated.json"] + solve_args) == 0
        assert capsys.readouterr().out == expected

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

    def test_runtime_error_is_exit_1(self, tmp_path, capsys):
        # a valid config whose grid exceeds the dense-oracle guard makes the
        # oracle subcommand fail at runtime, not at config parsing
        config = {
            "dimension": 3,
            "grid": {"grid": "gauss-legendre", "M": 101},
            "basis": {"kind": "monomial"},
            "index_set": {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 1,
                          "weights": [1.0, 1.0, 1.0]},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(config))
        assert main(["oracle", "--config", str(path), "--dump", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

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

    @pytest.mark.slow
    def test_experiment_bytes_independent_of_blas_threads(self, tmp_path):
        config = str(packaged_config_path("ishigami-g7"))
        outputs = []
        for blas_threads in ("1", "2"):
            out, cdf = tmp_path / f"report-{blas_threads}.csv", tmp_path / f"cdf-{blas_threads}.csv"
            run_cli_with_blas_threads(blas_threads, [
                "experiment", "--config", config, "--out", str(out), "--cdf", str(cdf),
            ])
            outputs.append((out.read_bytes(), cdf.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bytes_independent_of_blas_threads_above_10_4_grid_rows(self, tmp_path):
        # 22^3 = 10,648 rows: OpenBLAS splits a dot product of more than 10^4
        # elements across its threads, so unpinned ||b||^2 and ||r||^2 round
        # by thread count and move every reported error
        config = load_json(packaged_config_path("ishigami-g7"))
        config["grid"]["M"] = 22
        config["trials"] = 10
        path = tmp_path / "ishigami-g7-m22.json"
        path.write_text(json.dumps(config))
        outputs = []
        for blas_threads in ("1", "2"):
            out, cdf = tmp_path / f"report-{blas_threads}.csv", tmp_path / f"cdf-{blas_threads}.csv"
            run_cli_with_blas_threads(blas_threads, [
                "experiment", "--config", str(path), "--out", str(out), "--cdf", str(cdf),
            ])
            solved = run_cli_with_blas_threads(blas_threads, [
                "solve", "--config", str(path), "--method", "leverage-lower", "--K", "480",
                "--seed", "3",
            ])
            outputs.append((out.read_bytes(), cdf.read_bytes(), solved))
        assert outputs[0] == outputs[1]

    @pytest.mark.slow
    def test_experiment_bytes_independent_of_blas_and_worker_threads_at_n_220(self, tmp_path):
        # duffing-g9 (N=220, K=880) at its packaged size and seed: a trial's
        # QR of an 880x221 matrix rounds differently on two BLAS threads
        config = load_json(packaged_config_path("duffing-g9"))
        config["trials"] = 40
        path = tmp_path / "duffing-g9.json"
        path.write_text(json.dumps(config))
        outputs = []
        for threads in ("1", "2"):
            out, cdf = tmp_path / f"report-{threads}.csv", tmp_path / f"cdf-{threads}.csv"
            run_cli_with_blas_threads(threads, [
                "experiment", "--config", str(path), "--out", str(out), "--cdf", str(cdf),
                "--threads", threads,
            ])
            outputs.append((out.read_bytes(), cdf.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.slow
    def test_solve_bytes_independent_of_blas_threads(self):
        argv = ["solve", "--config", str(packaged_config_path("duffing-g9")),
                "--method", "uniform", "--K", "880", "--seed", "1"]
        assert run_cli_with_blas_threads("1", argv) == run_cli_with_blas_threads("2", argv)

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
        lines = run_python(["-c", script, *argv]).decode().splitlines()
        assert set(json.loads(lines[0])) == {
            "relative_error", "optimal_relative_error", "K", "N", "rank_flag"
        }
        assert json.loads(lines[-1]) == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "kronlev" in capsys.readouterr().out
