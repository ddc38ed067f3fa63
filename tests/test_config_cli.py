import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronlev
from kronlev.cli import main
from kronlev.config import (
    ConfigError,
    load_json,
    parse_experiment,
    parse_problem,
)
from kronlev.configs import list_packaged_configs, packaged_config_path


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
        assert problem.dimension == 2
        assert len(problem.index_set) == 6
        assert [len(g) for g in problem.grids] == [5, 5]
        assert [b.count for b in problem.bases] == [3, 3]

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
        assert experiment.resolved_sample_count() == 4 * 10

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
            assert experiment.resolved_sample_count() == 4 * len(experiment.problem.index_set)

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
        src = str(Path(kronlev.__file__).parents[1])
        outputs = []
        for blas_threads in ("1", "2"):
            out, cdf = tmp_path / f"report-{blas_threads}.csv", tmp_path / f"cdf-{blas_threads}.csv"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=blas_threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            subprocess.run(
                [sys.executable, "-m", "kronlev.cli", "experiment", "--config", config,
                 "--out", str(out), "--cdf", str(cdf)],
                env=env, check=True, capture_output=True, timeout=600,
            )
            outputs.append((out.read_bytes(), cdf.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "kronlev" in capsys.readouterr().out
