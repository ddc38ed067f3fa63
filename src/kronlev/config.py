"""Strict JSON config parsing shared by the CLI and the experiment harness.

Unknown keys and type mismatches are hard errors; the only defaults applied
are the documented ones (basis counts from the index set bounding box,
Ishigami/Duffing model parameters).
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
    grid_from_json,
)
from .indexset import MultiIndexSet, build_index_set, spec_from_json
from .sampler import METHOD_TAGS

__all__ = [
    "ConfigError",
    "ProblemSetup",
    "ExperimentConfig",
    "load_json",
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
    bases: tuple[BasisSpec, ...]
    index_set: MultiIndexSet
    factors: tuple[FactorMatrix, ...]
    model: Optional[dict]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSetup
    methods: tuple[str, ...]
    trials: int
    sample_count: Optional[int]
    sample_multiplier: Optional[float]
    seed: int

    def resolved_sample_count(self) -> int:
        if self.sample_count is not None:
            return self.sample_count
        return max(1, int(round(self.sample_multiplier * len(self.problem.index_set))))


def load_json(path) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _is_int(value) -> bool:
    """A JSON integer; ``true``/``false`` parse to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


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


def _parse_grids(spec, dimension: int, base_dir: Path) -> tuple[Grid1D, ...]:
    _check_keys(spec, {"grid"}, {"M", "path"}, "grid spec")
    kind = spec["grid"]
    if kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")
    if kind == "file":
        if "path" not in spec:
            raise ConfigError("grid kind 'file' requires a path")
        paths = _per_dimension(spec["path"], dimension, "grid path")
        grids = []
        for p in paths:
            path = Path(p)
            if not path.is_absolute():
                path = base_dir / path
            try:
                grids.append(grid_from_json(load_json(path)))
            except ValueError as exc:
                raise ConfigError(f"bad grid file {path}: {exc}")
        return tuple(grids)
    if "M" not in spec:
        raise ConfigError(f"grid kind {kind!r} requires M")
    sizes = _per_dimension(spec["M"], dimension, "grid size M")
    build = gauss_legendre_grid if kind == "gauss-legendre" else gauss_legendre_uniform_grid
    return tuple(build(int(m)) for m in sizes)


def _finite_number(spec: dict, key: str, default: float, what: str) -> float:
    """A finite JSON number; ``json.load`` also accepts NaN and Infinity."""
    value = spec.get(key, default)
    if _is_int(value) and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(f"{what} {key} must be a finite number, got {value!r}")
    return value


def _parse_model(spec) -> dict:
    if spec is None:
        return None
    name = spec.get("name") if isinstance(spec, dict) else None
    if name == "ishigami":
        _check_keys(spec, {"name"}, {"a", "b"}, "ishigami model")
        return {
            "name": "ishigami",
            "a": _finite_number(spec, "a", 7.0, "ishigami model"),
            "b": _finite_number(spec, "b", 0.1, "ishigami model"),
        }
    if name == "duffing":
        _check_keys(spec, {"name"}, {"t_final", "step"}, "duffing model")
        t_final = _finite_number(spec, "t_final", 4.0, "duffing model")
        step = _finite_number(spec, "step", 1e-3, "duffing model")
        # 0 < step <= t_final makes round(t_final / step) at least one RK4 step
        if t_final <= 0:
            raise ConfigError(f"duffing model t_final must be positive, got {t_final!r}")
        if not 0 < step <= t_final:
            raise ConfigError(f"duffing model step must be in (0, t_final], got {step!r}")
        return {"name": "duffing", "t_final": t_final, "step": step}
    if name == "tabulated":
        _check_keys(spec, {"name", "path"}, set(), "tabulated model")
        return {"name": "tabulated", "path": str(spec["path"])}
    raise ConfigError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def parse_problem(config: dict, base_dir=".") -> ProblemSetup:
    """Build grids, basis specs, index set, and factors from a problem config."""
    _check_keys(
        config,
        {"dimension", "grid", "basis", "index_set"},
        {"model", "methods", "trials", "sample_count", "sample_multiplier", "seed"},
        "problem config",
    )
    dimension = config["dimension"]
    if not _is_int(dimension) or dimension < 1:
        raise ConfigError("dimension must be a positive integer")
    try:
        index_spec = spec_from_json(config["index_set"])
        if index_spec.dimension != dimension:
            raise ConfigError("index_set dimension does not match the problem dimension")
        index_set = build_index_set(index_spec)
    except ValueError as exc:
        raise ConfigError(f"bad index_set: {exc}")
    try:
        grids = _parse_grids(config["grid"], dimension, Path(base_dir))
    except ValueError as exc:
        raise ConfigError(str(exc))
    _check_keys(config["basis"], {"kind"}, {"count"}, "basis spec")
    kind = config["basis"]["kind"]
    if kind not in BASIS_KINDS:
        raise ConfigError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    counts = _per_dimension(
        config["basis"].get("count", list(index_set.bounding_box)), dimension, "basis count"
    )
    try:
        bases = tuple(BasisSpec(kind, int(c)) for c in counts)
        for n_d, basis in zip(index_set.bounding_box, bases):
            if basis.count < n_d:
                raise ConfigError("basis count is smaller than the index set bounding box")
        factors = tuple(build_factor(g, b) for g, b in zip(grids, bases))
    except ValueError as exc:
        raise ConfigError(str(exc))
    model = _parse_model(config.get("model"))
    if model is not None and model["name"] in ("ishigami", "duffing") and dimension != 3:
        raise ConfigError(f"model {model['name']!r} requires dimension 3")
    return ProblemSetup(dimension, grids, bases, index_set, factors, model)


def parse_experiment(config: dict, base_dir=".") -> ExperimentConfig:
    """Parse a full experiment config (problem + methods/trials/seed)."""
    problem = parse_problem(config, base_dir)
    if problem.model is None:
        raise ConfigError("experiment config requires a model")
    for key in ("methods", "trials", "seed"):
        if key not in config:
            raise ConfigError(f"experiment config missing required key {key!r}")
    methods = tuple(config["methods"])
    if not methods:
        raise ConfigError("experiment needs at least one method")
    for tag in methods:
        if tag not in METHOD_TAGS:
            raise ConfigError(f"unknown method {tag!r}; expected one of {METHOD_TAGS}")
    trials = config["trials"]
    if not _is_int(trials) or trials < 1:
        raise ConfigError("trials must be a positive integer")
    count = config.get("sample_count")
    multiplier = config.get("sample_multiplier")
    if (count is None) == (multiplier is None):
        raise ConfigError("give exactly one of sample_count or sample_multiplier")
    if count is not None and (not _is_int(count) or count < 1):
        raise ConfigError("sample_count must be a positive integer")
    if multiplier is not None and float(multiplier) <= 0:
        raise ConfigError("sample_multiplier must be positive")
    seed = config["seed"]
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return ExperimentConfig(
        problem=problem,
        methods=methods,
        trials=trials,
        sample_count=count,
        sample_multiplier=None if multiplier is None else float(multiplier),
        seed=seed,
    )
