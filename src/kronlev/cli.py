"""Command-line entry point: wires JSON configs to the library.

Subcommands: ``indexset``, ``sample``, ``solve``, ``oracle``, ``experiment``.
stdout carries machine-readable JSON summaries only; human-readable
diagnostics go to stderr.  Exit codes: 0 success, 2 config or usage error,
1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .config import ConfigError, load_json, parse_experiment, parse_index_set, parse_problem
from .experiments import emit_cdf, emit_cdf_svg, grid_values, prepare_problem, run_trials, write_report_csv
from .indexset import is_monotone_lower
from .sampler import make_method, mu_mass_many, point_mass_many, sample_indices
from .sketch import draw_sketch, trial_error


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _cmd_indexset(args) -> int:
    config = load_json(args.config)
    index_set = parse_index_set(config.get("index_set", config))
    _emit(
        {
            "N": len(index_set),
            "bounding_box": list(index_set.bounding_box),
            "monotone_lower": is_monotone_lower(index_set),
        }
    )
    return 0


def _sample_csv_lines(problem, method, idx0):
    grids = problem.grids
    coords = np.column_stack([g.nodes[idx0[:, d]] for d, g in enumerate(grids)])
    nu = point_mass_many(method, idx0)
    mu = mu_mass_many(grids, idx0)
    D = problem.dimension
    header = (
        ",".join(f"m_{d + 1}" for d in range(D))
        + ","
        + ",".join(f"y_{d + 1}" for d in range(D))
        + ",point_mass,mu_mass"
    )
    yield header
    for k in range(idx0.shape[0]):
        cells = [str(int(i) + 1) for i in idx0[k]]
        cells += [repr(float(c)) for c in coords[k]]
        cells += [repr(float(nu[k])), repr(float(mu[k]))]
        yield ",".join(cells)


def _cmd_sample(args) -> int:
    problem = parse_problem(load_json(args.config), Path(args.config).parent)
    method = make_method(args.method, problem.factors, problem.index_set)
    rng = np.random.default_rng(args.seed)
    idx0 = sample_indices(method, rng, args.count)
    lines = list(_sample_csv_lines(problem, method, idx0))
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        _emit({"path": args.out, "K": args.count, "method": args.method, "seed": args.seed})
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_solve(args) -> int:
    problem = parse_problem(load_json(args.config), Path(args.config).parent)
    if problem.model is None:
        raise ConfigError("solve requires a model in the config")
    reduction = prepare_problem(problem)
    method = make_method(args.method, problem.factors, problem.index_set)
    error, rank_deficient = trial_error(reduction, draw_sketch(method, args.K, args.seed))
    _emit(
        {
            "relative_error": error,
            "optimal_relative_error": reduction.optimal_error,
            "K": args.K,
            "N": len(problem.index_set),
            "rank_flag": rank_deficient,
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    problem = parse_problem(load_json(args.config), Path(args.config).parent)
    if problem.model is not None:
        b_values = grid_values(problem.model, problem.grids)
    else:
        b_values = np.zeros(int(np.prod([len(g) for g in problem.grids])))
    system = oracle.build_full(problem.index_set, problem.factors, b_values=b_values)
    scores = oracle.exact_leverage(system)
    lines = ["row,leverage_score"]
    lines += [f"{m + 1},{float(s)!r}" for m, s in enumerate(scores)]
    with open(args.dump, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    _emit({"path": args.dump, "rows": int(scores.size), "N": len(problem.index_set)})
    return 0


def _cmd_experiment(args) -> int:
    config = load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    experiment = parse_experiment(config, Path(args.config).parent)
    report = run_trials(experiment, threads=args.threads)
    write_report_csv(report, args.out)
    written = {"report": args.out}
    if args.cdf:
        emit_cdf(report, args.cdf)
        written["cdf"] = args.cdf
    if args.svg:
        emit_cdf_svg(report, args.svg)
        written["svg"] = args.svg
    _emit(
        {
            "written": written,
            "N": report.subspace_size,
            "K": report.sample_count,
            "trials": report.trials,
            "methods": list(report.methods),
            "optimal_relative_error": report.optimal_error,
        }
    )
    return 0


def _integer_at_least(low: int):
    """argparse ``type=`` that accepts integers >= ``low`` (a bad value exits 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_POSITIVE = _integer_at_least(1)
_NONNEGATIVE = _integer_at_least(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronlev",
        description="Leverage-score row sampling for Kronecker-structured least squares",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indexset", help="report size/box/monotonicity of an index set")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_indexset)

    p = sub.add_parser("sample", help="draw grid points from a sampling method")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--count", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=_NONNEGATIVE, required=True)
    p.add_argument("--out", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("solve", help="sketch, solve, and report relative errors")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--K", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=_NONNEGATIVE, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="dump exact leverage scores of the full matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--dump", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="run repeated-trial relative-error studies")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="per-trial report CSV")
    p.add_argument("--cdf", help="optional CDF table CSV")
    p.add_argument("--svg", help="optional CDF staircase plot")
    p.add_argument("--threads", type=_POSITIVE, default=1)
    p.add_argument("--seed", type=_NONNEGATIVE, help="override the config seed")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
