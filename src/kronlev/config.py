"""Strict JSON config parsing shared by the CLI and the experiment harness.

Every config input (the problem and experiment keys, the index set spec and
grid files) is read here.  Unknown keys, a key repeated in one object and
type mismatches are hard errors: counts, sizes, dimensions and multi-index
entries must be JSON integers, other numbers finite JSON numbers, and
nothing is coerced.  The only defaults applied are the documented ones
(basis counts from the index set bounding box, index set ``p`` and weights,
Ishigami/Duffing model parameters).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Optional

from .factor import FactorMatrix, build_factor
from .grid_basis import BasisSpec, Grid1D, _node_count, gauss_legendre_grid, gauss_legendre_uniform_grid
from .indexset import IndexSetSpec, MultiIndexSet, _bounding_box, build_index_set
from .sampler import SamplerMethod, make_method

__all__ = [
    "ConfigError",
    "ProblemSetup",
    "ExperimentConfig",
    "load_json",
    "parse_index_set",
    "parse_problem",
    "parse_experiment",
]

GRID_KINDS = ("gauss-legendre", "gauss-legendre-uniform", "file")
# The built-in models: the dimension each requires and its parameters' defaults
_BUILT_IN_MODELS = {
    "ishigami": (3, {"a": 7.0, "b": 0.1}),
    "duffing": (3, {"t_final": 4.0, "step": 1e-3}),
}
MODEL_NAMES = (*_BUILT_IN_MODELS, "tabulated")
# Most RK4 steps a Duffing model takes: a step costs about 120 us on a 20^3
# grid, so 10^7 steps are about 20 minutes, and a smaller step is refused
# instead of integrated without end.
_MAX_STEPS = 10**7


class ConfigError(ValueError):
    """A config file is malformed: unknown keys, bad types, missing fields."""


@dataclass(frozen=True)
class ProblemSetup:
    """Everything a sampling or solve run needs, built from one config.

    Dimensions with the same grid spec and basis share one factor object.
    """

    index_set: MultiIndexSet
    factors: tuple[FactorMatrix, ...]
    model: Optional[dict]

    @property
    def grids(self) -> tuple[Grid1D, ...]:
        return tuple(f.grid for f in self.factors)

    def method(self, tag: str) -> SamplerMethod:
        """The sampling method ``tag`` on this problem; one it does not admit is a config error."""
        try:
            return make_method(tag, self.factors, self.index_set)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A problem, its samplers in config order, and the trial count, K and seed."""

    problem: ProblemSetup
    methods: tuple[SamplerMethod, ...]  # built on the problem's J and factors
    trials: int
    sample_count: int  # K, resolved from sample_multiplier * N when that is given
    seed: int


def _json_object_file(path, what: str) -> dict:
    def unique_keys(pairs: list) -> dict:  # json.load would keep a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{what} {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path) as handle:
            data = json.load(handle, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def load_json(path) -> dict:
    return _json_object_file(path, "config file")


def _is_int(value) -> bool:
    """A JSON integer; ``true``/``false`` parse to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, low: int, what: str) -> int:
    """A JSON integer >= ``low``; floats, strings and booleans are refused."""
    if not _is_int(value) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _finite_number(value, what: str) -> float:
    """A finite JSON number; ``json.load`` also accepts NaN and Infinity."""
    if _is_int(value) and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a nonempty JSON list")
    return value


def _check_keys(obj: dict, required: set, optional: set, what: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{what} missing required keys: {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")


def _per_dimension(value, dimension: int, what: str) -> list:
    if isinstance(value, list):
        if len(value) != dimension:
            raise ConfigError(f"{what} list must have {dimension} entries")
        return list(value)
    return [value] * dimension


def _config_path(value, base_dir: Path, what: str) -> Path:
    """A path string; a relative one is taken from the config file's directory."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a path string, got {value!r}")
    return base_dir / value


def _index_set_and_box(spec) -> tuple[IndexSetSpec, tuple[int, ...], Optional[MultiIndexSet]]:
    """The spec and bounding box of an ``index_set`` config object, and the set if it is a list.

    ``p`` defaults to 1 and may be JSON ``Infinity`` or the string ``"inf"``
    or ``"Infinity"``; ``weights`` default to all ones.  An explicit list
    takes its dimension from its first index when ``dimension`` is absent,
    and is built here, which checks its members.  A ball's or cross's box is
    read from its caps and test without walking it, and the set is left to
    ``build_index_set``.
    """
    if isinstance(spec, dict) and spec.get("family") == "explicit-list":
        _check_keys(spec, {"family", "indices"}, {"dimension"}, "index_set")
        indices = tuple(
            tuple(_integer(a, 1, "index_set entry") for a in _json_list(alpha, "index_set index"))
            for alpha in _json_list(spec["indices"], "index_set indices")
        )
        dimension = _integer(spec.get("dimension", len(indices[0])), 1, "index_set dimension")
        shape = {"indices": indices}
    else:
        _check_keys(spec, {"dimension", "family", "order"}, {"p", "weights"}, "index_set")
        dimension = _integer(spec["dimension"], 1, "index_set dimension")
        p = spec.get("p", 1.0)
        weights = _json_list(spec.get("weights", [1.0] * dimension), "index_set weights")
        shape = {
            "order": _finite_number(spec["order"], "index_set order"),
            "p": math.inf if p in ("inf", "Infinity", math.inf) else _finite_number(p, "index_set p"),
            "weights": tuple(_finite_number(w, "index_set weights") for w in weights),
        }
    try:
        spec = IndexSetSpec(dimension, spec["family"], **shape)
        index_set = build_index_set(spec) if spec.family == "explicit-list" else None
        return spec, index_set.bounding_box if index_set else _bounding_box(spec), index_set
    except ValueError as exc:
        raise ConfigError(f"bad index_set: {exc}")


def _walk(spec: IndexSetSpec) -> MultiIndexSet:
    """The set of a ball or cross, walked; more than ``indexset._MAX_MEMBERS`` members is a config error."""
    try:
        return build_index_set(spec)
    except ValueError as exc:
        raise ConfigError(f"bad index_set: {exc}")


def parse_index_set(spec) -> MultiIndexSet:
    """Build the multi-index set of an ``index_set`` config object."""
    spec, _, index_set = _index_set_and_box(spec)
    return index_set or _walk(spec)


def _parse_grid_file(path: Path) -> Grid1D:
    """A grid file: ``{"nodes": [...], "weights": [...]}`` of finite numbers."""
    what = f"grid file {path}"
    obj = _json_object_file(path, "grid file")
    _check_keys(obj, {"nodes", "weights"}, set(), what)
    nodes, weights = (
        [_finite_number(v, f"{what} {key}") for v in _json_list(obj[key], f"{what} {key}")]
        for key in ("nodes", "weights")
    )
    try:
        return Grid1D(nodes, weights)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}")


def _parse_grids(spec, dimension: int, base_dir: Path) -> tuple[Grid1D, ...]:
    """One grid per dimension; a repeated size or path gives the same object each time."""
    _check_keys(spec, {"grid"}, {"M", "path"}, "grid spec")
    kind = spec["grid"]
    if kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")
    size_key = "path" if kind == "file" else "M"
    _check_keys(spec, {"grid", size_key}, set(), f"grid kind {kind!r}")
    values = _per_dimension(spec[size_key], dimension, f"grid {size_key}")
    if kind == "file":
        read = cache(_parse_grid_file)
        return tuple(read(_config_path(p, base_dir, "grid path")) for p in values)
    try:  # every M is judged, its node bound included, before a grid is built
        sizes = [_node_count(m, "grid M") for m in values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    build = cache(gauss_legendre_grid if kind == "gauss-legendre" else gauss_legendre_uniform_grid)
    return tuple(build(m) for m in sizes)


def _duffing_steps(t_final: float, step: float) -> int:
    """The RK4 step count ``round(t_final / step)`` of a Duffing model.

    A finite ``t_final > 0`` and ``0 < step <= t_final`` make it at least one
    step; a ratio above ``_MAX_STEPS``, or a rule broken, raises ValueError.
    """
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final!r}")
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if not 0 < step <= t_final:
        raise ValueError(f"step must be in (0, t_final], got {step!r}")
    if not t_final / step <= _MAX_STEPS:
        raise ValueError(f"step must be at least t_final / {_MAX_STEPS}, got {step!r}")
    return round(t_final / step)


def _parse_model(spec, base_dir: Path, dimension: int) -> dict:
    if spec is None:
        return None
    name = spec.get("name") if isinstance(spec, dict) else None
    if name == "tabulated":
        # the values file is read by the commands that evaluate the model
        _check_keys(spec, {"name", "path"}, set(), "tabulated model")
        path = _config_path(spec["path"], base_dir, "tabulated model path")
        return {"name": "tabulated", "path": str(path)}
    if name not in _BUILT_IN_MODELS:
        raise ConfigError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    required, defaults = _BUILT_IN_MODELS[name]
    what = f"{name} model"
    _check_keys(spec, {"name"}, set(defaults), what)
    model = {"name": name}
    for key, default in defaults.items():
        model[key] = _finite_number(spec.get(key, default), f"{what} {key}")
    if name == "duffing":
        try:
            _duffing_steps(model["t_final"], model["step"])
        except ValueError as exc:
            raise ConfigError(f"duffing model {exc}")
    if dimension != required:
        raise ConfigError(f"model {name!r} requires dimension {required}")
    return model


def parse_problem(config: dict, base_dir=".") -> ProblemSetup:
    """Build grids, basis specs, index set, and factors from a problem config.

    Each distinct grid and each distinct (grid, basis) pair is built once, so
    dimensions that repeat a spec share its grid and factor objects.
    Relative grid-file and tabulated-model paths are taken from ``base_dir``,
    the config file's directory.
    """
    _check_keys(
        config,
        {"dimension", "grid", "basis", "index_set"},
        {"model", "methods", "trials", "sample_count", "sample_multiplier", "seed"},
        "problem config",
    )
    dimension = _integer(config["dimension"], 1, "dimension")
    # J's box is checked against the grids and bases before a ball or cross is walked
    spec, box, index_set = _index_set_and_box(config["index_set"])
    if spec.dimension != dimension:
        raise ConfigError("index_set dimension does not match the problem dimension")
    grids = _parse_grids(config["grid"], dimension, Path(base_dir))
    _check_keys(config["basis"], {"kind"}, {"count"}, "basis spec")
    counts = _per_dimension(config["basis"].get("count", list(box)), dimension, "basis count")
    counts = [_integer(c, 1, "basis count") for c in counts]
    try:  # BasisSpec judges the kind
        bases = tuple(BasisSpec(config["basis"]["kind"], c) for c in counts)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if any(basis.count < n_d for n_d, basis in zip(box, bases)):
        raise ConfigError("basis count is smaller than the index set bounding box")
    try:
        factor = cache(build_factor)
        factors = tuple(factor(g, b) for g, b in zip(grids, bases))
    except ValueError as exc:
        raise ConfigError(str(exc))
    model = _parse_model(config.get("model"), Path(base_dir), dimension)
    return ProblemSetup(index_set or _walk(spec), factors, model)


def parse_experiment(config: dict, base_dir=".") -> ExperimentConfig:
    """Parse a full experiment config (problem + methods/trials/seed).

    Each method is built here, in config order, through ``ProblemSetup.method``,
    so ``make_method`` judges its tag and whether the problem admits it, with
    the message ``solve`` and ``sample`` give, before any model is evaluated.
    The sample size K is resolved here: ``sample_count``, or
    ``max(1, round(sample_multiplier * N))``.
    """
    problem = parse_problem(config, base_dir)
    if problem.model is None:
        raise ConfigError("experiment config requires a model")
    for key in ("methods", "trials", "seed"):
        if key not in config:
            raise ConfigError(f"experiment config missing required key {key!r}")
    methods = tuple(problem.method(tag) for tag in _json_list(config["methods"], "methods"))
    if len({method.tag for method in methods}) != len(methods):
        raise ConfigError(f"methods must be distinct, got {[method.tag for method in methods]}")
    trials = _integer(config["trials"], 1, "trials")
    count = config.get("sample_count")
    multiplier = config.get("sample_multiplier")
    if (count is None) == (multiplier is None):
        raise ConfigError("give exactly one of sample_count or sample_multiplier")
    if multiplier is not None:
        multiplier = _finite_number(multiplier, "sample_multiplier")
        if multiplier <= 0:
            raise ConfigError(f"sample_multiplier must be positive, got {multiplier!r}")
        k = _finite_number(multiplier * len(problem.index_set), "sample_multiplier * N")
        count = max(1, int(round(k)))
    return ExperimentConfig(
        problem=problem,
        methods=methods,
        trials=trials,
        sample_count=_integer(count, 1, "sample_count"),
        seed=_integer(config["seed"], 0, "seed"),
    )
