import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
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
        with pytest.raises(KeyError, match="^\"no packaged config 'ishigami-g8'; available: \\['duffing-g7', "):
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


TINY = {
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


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def tiny(**changes):
    return {**TINY, **changes}


def packaged(name, **changes):
    return {**load_json(packaged_config_path(name)), **changes}


@dataclass(frozen=True)
class Refusal:
    """A command line the CLI refuses, and the one stderr line it refuses it with.

    The command runs with ``--config`` naming config.json, which holds
    ``config`` (a dict as JSON, a str as it is, None: no file), beside
    ``files`` (name: text); ``{tmp}`` in ``line`` is their directory.  With
    ``prefix`` the line need only start with ``line``, whose end is a message
    of the OS, json or numpy; with ``usage`` argparse's usage line comes
    first.  ``patches`` (target: value) hold during the run.  Unless
    ``evaluated``, the model is not evaluated before the refusal.
    """

    argv: tuple
    code: int
    line: str
    config: object = None
    files: dict = field(default_factory=dict)
    patches: dict = field(default_factory=dict)
    prefix: bool = False
    usage: bool = False
    evaluated: bool = False


def row(id, argv, code, line, config=TINY, marks=(), **fields):
    return pytest.param(Refusal(tuple(argv), code, line, config, **fields), id=id, marks=marks)


def out_of_memory(problem, workers=1):
    raise MemoryError()


def no_grid(num_nodes):
    raise AssertionError("a grid was built before the refusal")


SAMPLE = ("sample", "--method", "uniform", "--count", "3", "--seed", "1")
SOLVE = ("solve", "--method", "uniform", "--K", "40", "--seed", "1")
EXPERIMENT = ("experiment", "--out", "r.csv")
ORACLE = ("oracle", "--dump", "lev.csv")
# the argv of each command that builds the factors, and its config's methods
ON_THE_GRID = {
    "sample-uniform": (SAMPLE, None),
    "sample-leverage-lower": (("sample", "--method", "leverage-lower", "--count", "3", "--seed", "1"), None),
    "solve": (SOLVE, None),
    "oracle": (ORACLE, None),
    "experiment-uniform": (EXPERIMENT, ["uniform"]),
    "experiment-both": (EXPERIMENT, ["uniform", "leverage-lower"]),
}
INDEX_SET = TINY["index_set"]
TABULATED = {"name": "tabulated", "path": "values.txt"}
NO_FULL_RANK = "a factor with fewer nonzero rows than columns cannot have full column rank"
# J = {(1, 1, 1), (5, 5, 5)}, whose closure of 125 members passes a walk bound of 100
FAR_GAP = {"family": "explicit-list", "indices": [[1, 1, 1], [5, 5, 5]]}
WALK_BOUND = {"kronlev.indexset._MAX_MEMBERS": 100}
WALKED = "error: the lower closure of J has more than 100 members; it is not walked"
# a grid file named in both dimensions of a two-dimensional problem
TWO_GRID_FILES = problem_dict(grid={"grid": "file", "path": ["grid.json", "grid.json"]},
                              index_set={"dimension": 2, "family": "wlp-ball", "order": 1})

REFUSALS = [
    # the config file
    row("missing-config", ["indexset"], 2, "config error: config file not found: {tmp}/config.json", None),
    row("invalid-config", ["indexset"], 2, "config error: index_set missing required keys: ['family', 'order']",
        {"dimension": 3}),
    row("config-not-json", ["indexset"], 2, "config error: config file {tmp}/config.json is not valid JSON: ",
        '{"dimension": 3,', prefix=True),
    row("config-json-list", ["indexset"], 2, "config error: config file {tmp}/config.json must hold a JSON object",
        "[1, 2, 3]"),
    row("solve-without-a-model", SOLVE, 2, "config error: solve requires a model in the config",
        {key: value for key, value in TINY.items() if key != "model"}),
    # an option argparse refuses
    *[row(id, [command, *args], 2, f"kronlev {command}: error: argument {error}", usage=True)
      for id, command, args, error in [
          ("threads-0", "experiment", [*EXPERIMENT[1:], "--threads", "0"], "--threads: must be >= 1, got 0"),
          ("threads-neg", "experiment", [*EXPERIMENT[1:], "--threads", "-4"], "--threads: must be >= 1, got -4"),
          ("experiment-seed-neg", "experiment", [*EXPERIMENT[1:], "--seed", "-1"], "--seed: must be >= 0, got -1"),
          ("count-0", "sample", ["--method", "uniform", "--count", "0", "--seed", "1"],
           "--count: must be >= 1, got 0"),
          ("count-neg", "sample", ["--method", "uniform", "--count", "-1", "--seed", "1"],
           "--count: must be >= 1, got -1"),
          ("sample-seed-neg", "sample", ["--method", "uniform", "--count", "3", "--seed", "-1"],
           "--seed: must be >= 0, got -1"),
          ("K-0", "solve", ["--method", "uniform", "--K", "0", "--seed", "1"], "--K: must be >= 1, got 0"),
          ("solve-seed-neg", "solve", ["--method", "uniform", "--K", "40", "--seed", "-1"],
           "--seed: must be >= 0, got -1"),
          ("K-not-integer", "solve", ["--method", "uniform", "--K", "abc", "--seed", "1"],
           "--K: invalid integer 'abc'"),
      ]],
    # an output path whose directory does not exist, that is a directory, or
    # that another option names too, refused before the config is read
    *[row(f"{argv[0]}-{argv[-2][2:]}-missing-dir", argv, 2,
          f"kronlev {argv[0]}: error: argument {argv[-2]}: the directory of {argv[-1]} does not exist")
      for argv in [("experiment", "--out", "missing/r.csv"), (*EXPERIMENT, "--cdf", "missing/cdf.csv"),
                   (*EXPERIMENT, "--svg", "missing/cdf.svg"), (*SAMPLE, "--out", "missing/s.csv"),
                   ("oracle", "--dump", "missing/lev.csv")]],
    row("experiment-out-is-a-directory", ["experiment", "--out", "."], 2,
        "kronlev experiment: error: argument --out: . is a directory"),
    # a second name of one file would keep only the last file written
    row("experiment-svg-is-the-cdf", [*EXPERIMENT, "--cdf", "c.csv", "--svg", "./c.csv"], 2,
        "kronlev experiment: error: argument --svg: ./c.csv is also the --cdf path"),
    # a model parameter; json.dumps writes NaN and Infinity, which json.load reads back
    *[row(f"model-{id}", EXPERIMENT, 2, f"config error: {model['name']} model {error}", tiny(model=model))
      for id, model, error in [
          ("duffing-step-10", {"name": "duffing", "t_final": 4.0, "step": 10.0},
           "step must be in (0, t_final], got 10.0"),
          ("duffing-t-neg", {"name": "duffing", "t_final": -4.0}, "t_final must be positive, got -4.0"),
          ("duffing-t-0", {"name": "duffing", "t_final": 0.0}, "t_final must be positive, got 0.0"),
          ("duffing-step-neg", {"name": "duffing", "step": -1e-3}, "step must be in (0, t_final], got -0.001"),
          ("duffing-t-nan", {"name": "duffing", "t_final": math.nan}, "t_final must be a finite number, got nan"),
          ("duffing-step-inf", {"name": "duffing", "step": math.inf}, "step must be a finite number, got inf"),
          ("duffing-step-bool", {"name": "duffing", "step": True}, "step must be a finite number, got True"),
          ("ishigami-a-nan", {"name": "ishigami", "a": math.nan}, "a must be a finite number, got nan"),
          ("ishigami-a-inf", {"name": "ishigami", "a": math.inf}, "a must be a finite number, got inf"),
          ("ishigami-b-string", {"name": "ishigami", "b": "0.1"}, "b must be a finite number, got '0.1'"),
      ]],
    # a config value
    *[row(id, argv, 2, "config error: " + error, tiny(**change), files=files) for id, argv, change, error, files in [
        ("order-bool", ["indexset"], {"index_set": dict(INDEX_SET, order=True)},
         "index_set order must be a finite number, got True", {}),
        ("order-string", ["indexset"], {"index_set": dict(INDEX_SET, order="2")},
         "index_set order must be a finite number, got '2'", {}),
        ("p-string", ["indexset"], {"index_set": dict(INDEX_SET, p="2")},
         "index_set p must be a finite number, got '2'", {}),
        ("weights-strings", ["indexset"], {"index_set": dict(INDEX_SET, weights=["1", "0.5", "1"])},
         "index_set weights must be a finite number, got '1'", {}),
        ("dimension-float", ["indexset"], {"index_set": {"dimension": 2.9, "family": "wlp-ball", "order": 2}},
         "index_set dimension must be an integer >= 1, got 2.9", {}),
        ("entry-float", ["indexset"], {"index_set": {"family": "explicit-list", "indices": [[1, 1, 1], [1, 2.5, 1]]}},
         "index_set entry must be an integer >= 1, got 2.5", {}),
        ("entry-bool", ["indexset"], {"index_set": {"family": "explicit-list", "indices": [[True] * 3]}},
         "index_set entry must be an integer >= 1, got True", {}),
        ("entry-float-collides", ["indexset"],
         {"index_set": {"family": "explicit-list", "indices": [[1.9, 1, 1], [1, 1, 1]]}},
         "index_set entry must be an integer >= 1, got 1.9", {}),
        ("order-negative", ["indexset"], {"index_set": dict(INDEX_SET, order=-1)},
         "bad index_set: order must be finite and >= 0", {}),
        ("weights-below-1", ["indexset"], {"index_set": dict(INDEX_SET, weights=[0.5, 0.5, 0.5])},
         "bad index_set: at least one weight must equal 1", {}),
        ("M-float", SAMPLE, {"grid": {"grid": "gauss-legendre-uniform", "M": 6.7}},
         "grid M must be an integer >= 1, got 6.7", {}),
        ("M-bool", SAMPLE, {"grid": {"grid": "gauss-legendre-uniform", "M": [True, 6, 6]}},
         "grid M must be an integer >= 1, got True", {}),
        ("count-float", SAMPLE, {"basis": {"kind": "legendre-orthonormal", "count": 3.9}},
         "basis count must be an integer >= 1, got 3.9", {}),
        ("grid-number", SAMPLE, {"grid": 5}, "grid spec must be a JSON object", {}),
        ("basis-kind-unknown", SAMPLE, {"basis": {"kind": "chebyshev"}},
         "unknown basis kind 'chebyshev'; expected one of ('monomial', 'legendre-orthonormal')", {}),
        ("multiplier-bool", EXPERIMENT, {"sample_multiplier": True},
         "sample_multiplier must be a finite number, got True", {}),
        ("multiplier-string", EXPERIMENT, {"sample_multiplier": "4"},
         "sample_multiplier must be a finite number, got '4'", {}),
        ("multiplier-nan", EXPERIMENT, {"sample_multiplier": math.nan},
         "sample_multiplier must be a finite number, got nan", {}),
        ("multiplier-inf", EXPERIMENT, {"sample_multiplier": math.inf},
         "sample_multiplier must be a finite number, got inf", {}),
        ("multiplier-overflow", EXPERIMENT, {"sample_multiplier": 1e308},
         "sample_multiplier * N must be a finite number, got inf", {}),
        ("multiplier-0", EXPERIMENT, {"sample_multiplier": 0}, "sample_multiplier must be positive, got 0.0", {}),
        ("multiplier-neg", EXPERIMENT, {"sample_multiplier": -4}, "sample_multiplier must be positive, got -4.0", {}),
        ("methods-duplicate", EXPERIMENT, {"methods": ["uniform", "uniform"]},
         "methods must be distinct, got ['uniform', 'uniform']", {}),
        ("methods-string", EXPERIMENT, {"methods": "uniform"}, "methods must be a nonempty JSON list", {}),
        ("tabulated-count", EXPERIMENT, {"model": TABULATED},
         "tabulated model file {tmp}/values.txt must hold 64 values, one per line; got an array of shape (63,)",
         {"values.txt": "0.5\n" * 63}),
        ("tabulated-nan", EXPERIMENT, {"model": TABULATED},
         "tabulated model file {tmp}/values.txt holds non-finite values", {"values.txt": "0.5\n" * 63 + "nan\n"}),
        ("tabulated-path-number", EXPERIMENT, {"model": {"name": "tabulated", "path": 5}},
         "tabulated model path must be a path string, got 5", {}),
    ]],
    row("tabulated-missing", EXPERIMENT, 2, "config error: tabulated model file {tmp}/values.txt: ",
        tiny(model=TABULATED), prefix=True),
    # with warnings as errors, a warning from the reader would turn into an
    # exit-1 runtime error instead of the config error
    row("tabulated-empty", EXPERIMENT, 2, "config error: tabulated model file {tmp}/values.txt: ",
        tiny(model=TABULATED), files={"values.txt": ""}, prefix=True, marks=pytest.mark.filterwarnings("error")),
    # a method the problem does not admit, judged before the model is evaluated;
    # the sampler judges a tag read from the config as it judges --method
    *[row(f"{argv[0]}-{id}", argv, 2, "config error: " + error, tiny(**change, methods=[tag]))
      for id, tag, change, error in [
          ("non-lower", "leverage-lower",
           {"index_set": {"family": "explicit-list", "indices": [[1, 1, 1], [2, 1, 1], [1, 1, 3]]}},
           "leverage-lower sampling requires a monotone lower index set"),
          ("non-orthogonal", "orthogonal-columns", {"basis": {"kind": "monomial"}},
           "factor columns are not orthogonal (max Gram off-diagonal 4.29e-01)"),
          ("unknown-method", "leveraged", {},
           "unknown sampler method 'leveraged'; expected one of "
           "('uniform', 'tensor-product', 'orthogonal-columns', 'leverage-lower')"),
      ]
      for argv in [("sample", "--method", tag, "--count", "3", "--seed", "1"),
                   ("solve", "--method", tag, "--K", "40", "--seed", "1"), EXPERIMENT]],
    # a Gauss-Legendre rule of more than 10^4 nodes in any dimension is refused before any grid is built
    *[row(f"{kind}-past-the-node-bound", SAMPLE, 2, "config error: grid M must be at most 10000, got 10001",
          tiny(grid={"grid": kind, "M": [5, 10001, 5]}),
          patches={"kronlev.config.gauss_legendre_grid": no_grid,
                   "kronlev.config.gauss_legendre_uniform_grid": no_grid})
      for kind in ("gauss-legendre", "gauss-legendre-uniform")],
    # a grid file
    row("missing-grid-file", SAMPLE, 2, "config error: grid file not found: {tmp}/no-such-grid.json",
        tiny(grid={"grid": "file", "path": "no-such-grid.json"})),
    *[row(f"two-grid-files-{id}", SAMPLE, 2, "config error: " + error, TWO_GRID_FILES, files=files)
      for id, files, error in [
          ("missing", {}, "grid file not found: {tmp}/grid.json"),
          ("weight-sum", {"grid.json": json.dumps({"nodes": [0.0, 1.0], "weights": [0.5, 0.25]})},
           f"bad grid file {{tmp}}/grid.json: weights sum to {np.float64(0.75)!r}, not 1 (not renormalizing)"),
          ("missing-key", {"grid.json": json.dumps({"nodes": [0.0, 1.0]})},
           "grid file {tmp}/grid.json missing required keys: ['weights']"),
      ]],
    # a repeated key: json.load alone keeps the last value, so
    # {"trials": 5, "trials": 100} would run 100 trials
    row("repeated-key-top-level", EXPERIMENT, 2, "config error: config file {tmp}/config.json repeats the key 'trials'",
        json.dumps(TINY).replace('"trials": 2', '"trials": 5, "trials": 2')),
    row("repeated-key-index-set", EXPERIMENT, 2, "config error: config file {tmp}/config.json repeats the key 'order'",
        json.dumps(TINY).replace('"index_set": {', '"index_set": {"order": 1, ')),
    row("repeated-key-grid-file", EXPERIMENT, 2, "config error: grid file {tmp}/grid.json repeats the key 'nodes'",
        tiny(grid={"grid": "file", "path": "grid.json"}),
        files={"grid.json": '{"nodes": [0.0], "nodes": [-0.5, 0.0, 0.5, 0.75], "weights": [0.25, 0.25, 0.25, 0.25]}'}),
    # a grid that cannot carry the basis in each command that builds the factors:
    # a zero-weight node leaves two nonzero factor rows for three monomials, and
    # 60 nodes carry 45 monomials in exact arithmetic but not in floating point
    *[row(f"grid-too-small-{command}{case}", argv, 2, "config error: " + error,
          tiny(**change, **({"methods": methods} if methods else {})),
          files={"grid.json": json.dumps({"nodes": [-0.5, 0.0, 0.5], "weights": [0.5, 0.5, 0.0]})})
      for case, change, error in [
          ("", {"grid": {"grid": "file", "path": "grid.json"}, "basis": {"kind": "monomial"}},
           "grid has 2 nodes of positive weight but basis needs 3; " + NO_FULL_RANK),
          ("-rank-deficient", {"grid": {"grid": "gauss-legendre-uniform", "M": 60},
                               "basis": {"kind": "monomial", "count": 45}},
           "factor matrix is rank deficient at column 42"),
      ]
      for command, (argv, methods) in ON_THE_GRID.items()],
    # a box the grid or the basis cannot carry is refused before J is walked: at
    # order 10^6 the ball has about 1.7e17 members and the cross about 1e8
    *[row(f"box-{name}-{id}", ("solve", "--method", "uniform", "--K", "10", "--seed", "1"), 2, "config error: " + error,
          packaged(name, index_set={**load_json(packaged_config_path(name))["index_set"], "order": 10**6},
                   **({} if count is None else {"basis": {"kind": "legendre-orthonormal", "count": count}})),
          patches=WALK_BOUND)
      for name in ["ishigami-g7", "ishigami-hc18"]
      for id, count, error in [
          ("grid", None, "grid has 20 nodes of positive weight but basis needs 1000001; " + NO_FULL_RANK),
          ("basis-count", 20, "basis count is smaller than the index set bounding box"),
      ]],
    # a set past the walk bound, lowered here; ishigami-g7's walk at the real
    # bound of 10^6 members runs in a capped process below
    row("indexset-past-the-walk-bound-ishigami-hc18", ["indexset"], 2,
        "config error: bad index_set: the set has more than 100 members; it is not enumerated",
        packaged("ishigami-hc18"), patches=WALK_BOUND),
    # J's closure passes the walk bound at runtime, not at config parsing,
    # and before the dump is opened
    row("runtime-error", ORACLE, 1, "error: the lower closure of J has more than 2 members; it is not walked",
        {"dimension": 3, "grid": {"grid": "gauss-legendre", "M": 5}, "basis": {"kind": "monomial"},
         "index_set": {"dimension": 3, "family": "explicit-list", "indices": [[1, 1, 1], [1, 1, 3]]}},
        patches={"kronlev.indexset._MAX_MEMBERS": 2}),
    row("far-gap", SOLVE, 1, WALKED,
        packaged("ishigami-g7", grid={"grid": "gauss-legendre-uniform", "M": 5}, index_set=FAR_GAP),
        patches=WALK_BOUND, evaluated=True),
    # the Legendre columns are orthogonal on the Gauss-Legendre rule, so the
    # parse admits orthogonal-columns, which reads J alone: the run's
    # reduction walks L
    row("far-gap-experiment", EXPERIMENT, 1, WALKED,
        packaged("ishigami-g7", grid={"grid": "gauss-legendre", "M": 5}, index_set=FAR_GAP,
                 methods=["orthogonal-columns"]),
        patches=WALK_BOUND, evaluated=True),
    # 6^20 rows would take 26 PiB as one float column, and 2^64 rows overflow
    # numpy's shapes: the bound on the scores' rows comes before either is
    # asked for, and before J's record is built or the dump is opened
    *[row(f"oracle-dense-guard-D{dimension}-M{m}", ORACLE, 1,
          f"error: full grid has {m**dimension} rows, beyond the score bound 10000000",
          {"dimension": dimension, "grid": {"grid": "gauss-legendre", "M": m},
           "basis": {"kind": "legendre-orthonormal"},
           "index_set": {"dimension": dimension, "family": "wlp-ball", "p": 1.0, "order": 1,
                         "weights": [1.0] * dimension}})
      for dimension, m in [(20, 6), (64, 2)]],
    # a step rule past its bound, lowered here from 10^7 RK4 steps to the 1000
    # that duffing-g7's 4000 pass
    row("duffing-step", SOLVE, 2, "config error: duffing model step must be at least t_final / 1000, got 0.001",
        packaged("duffing-g7"), patches={"kronlev.config._MAX_STEPS": 1000}),
    # a grid-valued model past the row bound, lowered here from 10^7 to 999,
    # is refused before it is evaluated
    *[row(f"grid-values-{argv[0]}", argv, 1, "error: full grid has 1000 rows, beyond the grid-value bound 999",
          packaged("duffing-g7", grid={"grid": "gauss-legendre-uniform", "M": 10}),
          patches={"kronlev.experiments._MAX_GRID_ROWS": 999})
      for argv in [SOLVE, ("experiment", "--out", "report.csv", "--cdf", "cdf.csv")]],
    # a tabulated model is bounded before its file is read: 215^3 rows are
    # within the bound of 10^7, so the missing file is read; 216^3 are not
    row("tabulated-215-cubed", SOLVE, 2, "config error: tabulated model file {tmp}/missing.txt: ",
        packaged("ishigami-g7", grid={"grid": "gauss-legendre-uniform", "M": 215},
                 model={"name": "tabulated", "path": "missing.txt"}), prefix=True),
    row("tabulated-216-cubed", SOLVE, 1, "error: full grid has 10077696 rows, beyond the grid-value bound 10000000",
        packaged("ishigami-g7", grid={"grid": "gauss-legendre-uniform", "M": 216},
                 model={"name": "tabulated", "path": "missing.txt"})),
    # an exception without text is named by its type
    row("exception-without-text", SOLVE, 1, "error: MemoryError",
        patches={"kronlev.cli.prepare_problem": out_of_memory}),
    # at --threads 2 the forked share's blow-up is raised again by the caller
    *[row(f"duffing-blow-up-threads-{threads}", [*EXPERIMENT, "--threads", threads], 1,
          "error: Duffing integration blew up (non-finite state)",
          packaged("duffing-g7", model={"name": "duffing", "t_final": 400.0, "step": 1.0}),
          patches={"os.sched_getaffinity": lambda pid: {0, 1}}, evaluated=True)
      for threads in ["1", "2"]],
    # an Ishigami target whose ||b||^2 overflows is refused by the finiteness
    # check, with no numpy warning before the line
    row("ishigami-b-overflows", SOLVE, 1, "error: b_values must be finite",
        packaged("ishigami-g7", model={"name": "ishigami", "a": 1e300, "b": 1e300}), evaluated=True,
        marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
]


@pytest.mark.parametrize("refusal", REFUSALS)
def test_a_refused_command_prints_one_line_and_writes_nothing(refusal, tmp_path, monkeypatch, capsys):
    # the whole refusal contract: the exit code, nothing on stdout, one line
    # on stderr (after argparse's usage line), no file written and, unless the
    # refusal comes after it, no evaluation of the model
    path = tmp_path / "config.json"
    if refusal.config is not None:
        path.write_text(refusal.config if isinstance(refusal.config, str) else json.dumps(refusal.config))
    for name, text in refusal.files.items():
        (tmp_path / name).write_text(text)
    inputs = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "1000")  # argparse's usage on one line
    for target, value in refusal.patches.items():
        monkeypatch.setattr(target, value)
    evaluated = []
    if not refusal.evaluated:
        def no_model(*args, **kwargs):
            evaluated.append(args)
            raise AssertionError("the model was evaluated before the refusal")

        # the Ishigami model is taken by its terms, the others on the grid
        monkeypatch.setattr("kronlev.experiments.evaluate_on_grid", no_model)
        monkeypatch.setattr("kronlev.experiments._ishigami_terms", no_model)
    command, *args = refusal.argv
    try:
        code = main([command, "--config", str(path), *args])
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err[-1:]) == (refusal.code, "", "\n"), err
    *usage_lines, line, _ = err.split("\n")
    expected = refusal.line.replace("{tmp}", str(tmp_path))
    assert (line[: len(expected)] if refusal.prefix else line) == expected
    assert len(usage_lines) == refusal.usage
    assert all(u.startswith(f"usage: kronlev {command} [-h] ") for u in usage_lines)
    assert sorted(tmp_path.rglob("*")) == inputs
    assert evaluated == []


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

    def test_tabulated_path_is_relative_to_the_config_file(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        config = json.loads(tiny_config.read_text())
        problem = parse_problem(config)
        values = evaluate_on_grid(make_target(problem.model, problem.grids), problem.grids)
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "values.txt").write_text("".join(f"{float(v)!r}\n" for v in values))
        config["model"] = TABULATED
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


    def test_commands_without_the_model_do_not_read_tabulated_values(
        self, tiny_config, tmp_path, capsys
    ):
        config = json.loads(tiny_config.read_text())
        config["model"] = TABULATED  # values.txt does not exist
        path = tmp_path / "tabulated.json"
        path.write_text(json.dumps(config))
        assert main(["indexset", "--config", str(path)]) == 0
        assert main(["sample", "--config", str(path), "--method", "uniform",
                     "--count", "3", "--seed", "1"]) == 0
        assert main(["oracle", "--config", str(path), "--dump", str(tmp_path / "lev.csv")]) == 0


    def test_a_far_gap_is_sampled_without_walking_its_closure(self, tmp_path, monkeypatch, capsys):
        # orthogonal-columns draws from J's two members alone: the closure's
        # 125 members, past the walk bound lowered to 100, are never walked
        monkeypatch.setattr(kronlev.indexset, "_MAX_MEMBERS", 100)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(packaged("ishigami-g7", grid={"grid": "gauss-legendre", "M": 5},
                                            index_set=FAR_GAP)))
        argv = ["sample", "--config", str(path), "--method", "orthogonal-columns", "--count", "8", "--seed", "1"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()  # the header and one line per draw
        assert err == "" and len(lines) == 9 and lines[0].startswith("m_1,m_2,m_3,")

    # The walks at the real bound of 10^6 members run in a new process under its
    # 2 GiB cap, which a walk past the bound would exhaust
    def test_indexset_of_more_than_a_million_members_exits_2(self, tmp_path):
        # indexset must walk J to report N, so the walk stops after 10^6 members
        # instead of enumerating the ball's 1.7e17
        config = load_json(packaged_config_path("ishigami-g7"))
        config["index_set"]["order"] = 10**6
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_capped(["indexset", "--config", str(path)], cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "config error: bad index_set: the set has more than 1000000 members; it is not enumerated\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_an_oracle_past_the_walk_bound_opens_no_dump(self, tmp_path):
        # J = {(1, 1, 1), (200, 200, 200)}: the scores are read from J's record,
        # whose walk of L towards the closure's 8e6 members and its 11.9 GiB
        # table stops at 10^6 members, before the dump is opened
        config = packaged("ishigami-g7", grid={"grid": "gauss-legendre-uniform", "M": 200},
                          index_set={"family": "explicit-list", "indices": [[1, 1, 1], [200, 200, 200]]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_capped(["oracle", "--config", str(path), "--dump", "far-gap.csv"], cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: the lower closure of J has more than 1000000 members; it is not walked\n"
        )
        assert list(tmp_path.iterdir()) == [path]

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


    @pytest.mark.parametrize("command", ["solve", "experiment", "oracle"])
    def test_commands_on_one_worker_import_no_scipy_and_no_process_pool(self, command, tmp_path):
        # scipy is a test dependency only: importing it costs every command about
        # 0.35 s.  concurrent.futures and multiprocessing are imported only where
        # a process is forked; at start-up they cost about 6 ms and bring in logging.
        # kronlev.oracle, the dense reference, is for the tests: no command loads it,
        # the oracle command included, and neither does the package's __init__
        config = load_json(packaged_config_path("ishigami-g7"))
        config["trials"] = 2
        path = tmp_path / "ishigami-g7.json"
        path.write_text(json.dumps(config))
        if command == "solve":
            argv = ["solve", "--method", "leverage-lower", "--K", "480", "--seed", "1"]
            keys = {"relative_error", "optimal_relative_error", "K", "N", "rank_flag"}
        elif command == "experiment":
            argv = ["experiment", "--out", str(tmp_path / "report.csv"), "--threads", "1"]
            keys = {"written", "N", "K", "trials", "methods", "optimal_relative_error"}
        else:
            argv = ["oracle", "--dump", str(tmp_path / "scores.csv")]
            keys = {"path", "rows", "N"}
        script = (
            "import json, sys, kronlev.cli\n"
            "code = kronlev.cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')\n"
            "                        or m == 'kronlev.oracle')))\n"
            "sys.exit(code)\n"
        )
        result = run_capped([*argv, "--config", str(path)], script=script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        payload = json.loads(lines[0])
        assert set(payload) == keys and payload["N"] == 120
        assert json.loads(lines[-1]) == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "kronlev" in capsys.readouterr().out
