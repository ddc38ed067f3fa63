"""Command-line entry point: wires JSON configs to the library.

Subcommands: ``indexset``, ``sample``, ``solve``, ``oracle``, ``experiment``.
stdout carries JSON summaries only, but ``sample`` without ``--out`` writes
its sample CSV there; human-readable diagnostics go to stderr.  Exit codes:
0 success, 2 config or usage error, 1 runtime error.  A reader that closes
stdout early (``| head``) ends the command with status 1 and nothing on stderr.
``oracle`` writes J's exact leverage scores, which ``sketch.leverage_scores``
reads from J's record a block of rows at a time, with no dense design matrix;
every refusal, the bound on the grid's rows included, comes before the dump
file is opened.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_json, parse_experiment, parse_index_set, parse_problem
from .experiments import emit_cdf, emit_cdf_svg, prepare_problem, run_trials, write_report_csv
from .indexset import is_monotone_lower
from .sampler import sample_indices
from .sketch import draw_sketch, leverage_scores, trial_error

_CSV_BLOCK = 1024  # sample rows formatted and written at a time


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _problem(args):
    """The problem of the config file ``--config``, relative paths taken from its directory."""
    return parse_problem(load_json(args.config), Path(args.config).parent)


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


def _sample_csv_lines(sketch):
    """The sample CSV as text blocks of up to _CSV_BLOCK rows, each ending in a newline."""
    columns = [f"{c}_{d + 1}" for c in "my" for d in range(sketch.indices0.shape[1])]
    yield ",".join(columns + ["point_mass", "mu_mass"]) + "\n"
    for start in range(0, sketch.size, _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        rows = zip(sketch.indices0[block].tolist(), sketch.coords[block].tolist(),
                   sketch.point_mass[block].tolist(), sketch.mu_mass[block].tolist())
        yield "".join(
            ",".join([str(i + 1) for i in m] + [repr(c) for c in y] + [repr(nu), repr(mu)]) + "\n"
            for m, y, nu, mu in rows
        )


def _cmd_sample(args) -> int:
    problem = _problem(args)
    sketch = draw_sketch(problem.method(args.method), args.count, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.writelines(_sample_csv_lines(sketch))
        _emit({"path": args.out, "K": args.count, "method": args.method, "seed": args.seed})
    else:
        sys.stdout.writelines(_sample_csv_lines(sketch))
    return 0


def _cmd_solve(args) -> int:
    problem = _problem(args)
    if problem.model is None:
        raise ConfigError("solve requires a model in the config")
    method = problem.method(args.method)
    reduction = prepare_problem(problem)
    rows = sample_indices(method, np.random.default_rng(args.seed), args.K)
    error, rank_deficient = trial_error(reduction, method, rows)
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
    problem = _problem(args)
    # J's record is built, and every refusal raised, before the dump is opened
    scores = (s for block in leverage_scores(problem.index_set, problem.factors) for s in block.tolist())
    with open(args.dump, "w", newline="") as handle:
        handle.write("row,leverage_score\n")
        handle.writelines(f"{m},{s!r}\n" for m, s in enumerate(scores, 1))
    _emit({"path": args.dump, "rows": math.prod(map(len, problem.grids)), "N": len(problem.index_set)})
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
    except BrokenPipeError:
        # stdout's reader is gone: the flush at exit goes to devnull, not to a closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # runtime failure, not a usage problem; MemoryError() has no text
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
