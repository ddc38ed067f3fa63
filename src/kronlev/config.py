"""Strict JSON config parsing shared by the CLI and the experiment harness.

Every config input (the problem and experiment keys, the index set spec and
grid files) is read here.  Unknown keys and type mismatches are hard
errors: counts, sizes, dimensions and multi-index entries must be JSON
integers, other numbers finite JSON numbers, and nothing is coerced.  The
only defaults applied are the documented ones (basis counts from the index
set bounding box, index set ``p`` and weights, Ishigami/Duffing model
parameters).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .factor import FactorMatrix, build_factor
from .grid_basis import (
    BASIS_KINDS,
    BasisSpec,
    Grid1D,
    gauss_legendre_grid,
    gauss_legendre_uniform_grid,
)
from .indexset import IndexSetSpec, MultiIndexSet, build_index_set
from .sampler import METHOD_TAGS

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
MODEL_NAMES = ("ishigami", "duffing", "tabulated")


class ConfigError(ValueError):
    """A config file is malformed: unknown keys, bad types, missing fields."""


@dataclass(frozen=True)
class ProblemSetup:
    """Everything a sampling or solve run needs, built from one config."""

    dimension: int
    grids: tuple[Grid1D, ...]
    index_set: MultiIndexSet
    factors: tuple[FactorMatrix, ...]
    model: Optional[dict]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSetup
    methods: tuple[str, ...]
    trials: int
    sample_count: int  # K, resolved from sample_multiplier * N when that is given
    seed: int


def _json_object_file(path, what: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
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


def parse_index_set(spec) -> MultiIndexSet:
    """Build the multi-index set of an ``index_set`` config object.

    ``p`` defaults to 1 and may be JSON ``Infinity`` or the string ``"inf"``
    or ``"Infinity"``; ``weights`` default to all ones.  An explicit list
    takes its dimension from its first index when ``dimension`` is absent.
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
        return build_index_set(IndexSetSpec(dimension, spec["family"], **shape))
    except ValueError as exc:
        raise ConfigError(f"bad index_set: {exc}")


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
    _check_keys(spec, {"grid"}, {"M", "path"}, "grid spec")
    kind = spec["grid"]
    if kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")
    size_key = "path" if kind == "file" else "M"
    _check_keys(spec, {"grid", size_key}, set(), f"grid kind {kind!r}")
    values = _per_dimension(spec[size_key], dimension, f"grid {size_key}")
    if kind == "file":
        return tuple(_parse_grid_file(_config_path(p, base_dir, "grid path")) for p in values)
    build = gauss_legendre_grid if kind == "gauss-legendre" else gauss_legendre_uniform_grid
    return tuple(build(_integer(m, 1, "grid M")) for m in values)


def _parse_model(spec, base_dir: Path) -> dict:
    if spec is None:
        return None
    name = spec.get("name") if isinstance(spec, dict) else None
    if name == "ishigami":
        _check_keys(spec, {"name"}, {"a", "b"}, "ishigami model")
        return {
            "name": "ishigami",
            "a": _finite_number(spec.get("a", 7.0), "ishigami model a"),
            "b": _finite_number(spec.get("b", 0.1), "ishigami model b"),
        }
    if name == "duffing":
        _check_keys(spec, {"name"}, {"t_final", "step"}, "duffing model")
        t_final = _finite_number(spec.get("t_final", 4.0), "duffing model t_final")
        step = _finite_number(spec.get("step", 1e-3), "duffing model step")
        # 0 < step <= t_final makes round(t_final / step) at least one RK4 step
        if t_final <= 0:
            raise ConfigError(f"duffing model t_final must be positive, got {t_final!r}")
        if not 0 < step <= t_final:
            raise ConfigError(f"duffing model step must be in (0, t_final], got {step!r}")
        return {"name": "duffing", "t_final": t_final, "step": step}
    if name == "tabulated":
        # the values file is read by the commands that evaluate the model
        _check_keys(spec, {"name", "path"}, set(), "tabulated model")
        path = _config_path(spec["path"], base_dir, "tabulated model path")
        return {"name": "tabulated", "path": str(path)}
    raise ConfigError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def parse_problem(config: dict, base_dir=".") -> ProblemSetup:
    """Build grids, basis specs, index set, and factors from a problem config.

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
    index_set = parse_index_set(config["index_set"])
    if index_set.dimension != dimension:
        raise ConfigError("index_set dimension does not match the problem dimension")
    grids = _parse_grids(config["grid"], dimension, Path(base_dir))
    _check_keys(config["basis"], {"kind"}, {"count"}, "basis spec")
    kind = config["basis"]["kind"]
    if kind not in BASIS_KINDS:
        raise ConfigError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    counts = _per_dimension(
        config["basis"].get("count", list(index_set.bounding_box)), dimension, "basis count"
    )
    bases = tuple(BasisSpec(kind, _integer(c, 1, "basis count")) for c in counts)
    if any(basis.count < n_d for n_d, basis in zip(index_set.bounding_box, bases)):
        raise ConfigError("basis count is smaller than the index set bounding box")
    try:
        factors = tuple(build_factor(g, b) for g, b in zip(grids, bases))
    except ValueError as exc:
        raise ConfigError(str(exc))
    model = _parse_model(config.get("model"), Path(base_dir))
    if model is not None and model["name"] in ("ishigami", "duffing") and dimension != 3:
        raise ConfigError(f"model {model['name']!r} requires dimension 3")
    return ProblemSetup(dimension, grids, index_set, factors, model)


def parse_experiment(config: dict, base_dir=".") -> ExperimentConfig:
    """Parse a full experiment config (problem + methods/trials/seed).

    The sample size K is resolved here: ``sample_count``, or
    ``max(1, round(sample_multiplier * N))``.
    """
    problem = parse_problem(config, base_dir)
    if problem.model is None:
        raise ConfigError("experiment config requires a model")
    for key in ("methods", "trials", "seed"):
        if key not in config:
            raise ConfigError(f"experiment config missing required key {key!r}")
    methods = _json_list(config["methods"], "methods")
    for tag in methods:
        if tag not in METHOD_TAGS:
            raise ConfigError(f"unknown method {tag!r}; expected one of {METHOD_TAGS}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"methods must be distinct, got {methods}")
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
        methods=tuple(methods),
        trials=trials,
        sample_count=_integer(count, 1, "sample_count"),
        seed=_integer(config["seed"], 0, "seed"),
    )
