"""Benchmark of the kronlev command line, run from the root of a source tree.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run repeats the workload's group of ``kronlev`` commands, every command
in a fresh process, until ``--seconds`` have passed and at least two groups
ran.  Every output is checked against an independent reference, and the
reports of one seed must repeat byte for byte.  With ``--trace 0`` the run
prints the end-to-end metrics (medians over groups); with ``--trace 1`` it
alternates untraced and traced groups and prints the per-layer metrics.
The last line of standard output is one JSON object; the full result,
with the environment it ran in, goes to ``perfbench/out/``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_GROUPS = 2
LAST_START_S = 120.0   # no group starts later than this into a run
COMMAND_TIMEOUT_S = 150.0
DENSE_LIMIT = 10**6    # rows up to which the optimal-error reference is the dense oracle


def blas_threads():
    """Thread count reported by the loaded scipy-openblas, or None."""
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    for path in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                return int(func())
    return None


def environment():
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def run_command(kind, extra, group, traced, config_path, work):
    output = work / f"g{group}-{kind}.csv"
    cli = [kind, "--config", str(config_path), *extra]
    if kind in ("experiment", "sample"):
        cli += ["--out", str(output)]
    record_path = work / f"g{group}-{kind}.probe.json"
    argv = [sys.executable, str(HERE / "probe.py"), str(record_path), "full" if traced else "phase", *cli]
    started = time.monotonic()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
    wall = time.monotonic() - started
    try:
        with open(record_path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = None  # the probe died before writing its record
    return {
        "kind": kind,
        "group": group,
        "traced": traced,
        "argv": cli,
        "started": started,
        "wall_s": wall,
        "exit_code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr[-2000:],
        "output": output,
        "record": record,
        "failures": [],
    }


def report_outcome(report_path):
    with open(report_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    ratios = [
        float(r["relative_error"]) / float(r["optimal_relative_error"])
        for r in rows if r["method"] == "leverage-lower"
    ]
    return {"pipelines": len(rows), "ratios": ratios}


def check_output(cmd, workload, ref, optimal_ref):
    """Failures of an experiment or sample output, and its outcome for the metrics."""
    config, n = workload.config, workloads.subspace_size(workload.config)
    if cmd["kind"] == "experiment":
        rows = len(config["methods"]) * config["trials"]
        failures = checks.check_experiment(
            cmd["output"], cmd["stdout"], rows, n, workload.sample_count, optimal_ref
        )
        if failures:
            return failures, None
        return [], report_outcome(cmd["output"])
    sample = checks.read_sample(cmd["output"])
    rows = checks.qj_rows(ref, sample[0])
    failures = checks.check_sample(ref, sample, workload.sample_count, rows)
    if failures:
        return failures, None
    return [], {"ratios": checks.sketch_error_ratios(ref, sample, rows, 4 * n)}


def check_commands(commands, workload):
    """Fill in each command's failures; return the outcome of each group's first command.

    Repeats of one seed must write identical bytes, so an output equal to
    the first checked one shares its check result instead of repeating it.
    """
    ref = checks.reference_problem(workload.config)
    optimal_ref = None
    if "model" in workload.config:
        optimal_ref = checks.reference_optimal(ref, workload.config["model"], DENSE_LIMIT)
    outcomes = {}
    first = {}  # kind -> (bytes, failures, outcome) of the first output checked
    for cmd in commands:
        if cmd["exit_code"] != 0 or cmd["record"] is None:
            continue  # a failed operation, not a wrong output
        kind = cmd["kind"]
        if kind == "solve":
            cmd["failures"] = checks.check_solve(cmd["stdout"], optimal_ref)
            continue
        data = cmd["output"].read_bytes()
        if kind not in first:
            first[kind] = (data, *check_output(cmd, workload, ref, optimal_ref))
        expected, failures, outcome = first[kind]
        cmd["failures"] = list(failures)
        if data != expected:
            cmd["failures"].append("output bytes differ from the first repeat at this seed")
        elif outcome is not None:
            outcomes[cmd["group"]] = outcome
    return outcomes


def median_dict(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]} if dicts else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kronlev" / "cli.py").is_file():
        print(f"error: no kronlev source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import kronlev.cli  # noqa: F401  (compiles the package once, before any timed command)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.prepare(args.workload, ROOT, args.seed)
    measured = workload.commands[0][0]  # the end-to-end metrics time each group's first command
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config, indent=2))
        commands = []
        begun = time.monotonic()
        group = 0
        while True:
            traced = bool(args.trace) and group % 2 == 1
            for kind, extra in workload.commands:
                commands.append(run_command(kind, extra, group, traced, config_path, work))
            group += 1
            elapsed = time.monotonic() - begun
            if group >= MIN_GROUPS and (elapsed >= args.seconds or elapsed * (group + 1) / group > LAST_START_S):
                break
        outcomes = check_commands(commands, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    groups = [[c for c in commands if c["group"] == g] for g in range(group)]
    attempted = len(commands)
    failed = sum(1 for c in commands if c["exit_code"] != 0 or c["record"] is None or c["failures"])
    untraced = [g for g in groups if not g[0]["traced"]]
    traced = [g for g in groups if g[0]["traced"]]
    e2e = [
        v for g in untraced
        if (v := metrics.group_end_to_end(g, workload, outcomes.get(g[0]["group"], {"ratios": []})))
    ]
    if args.trace:
        values = median_dict([metrics.layer_metrics(g, workload.threads) for g in traced])
        if values:
            values["trace.overhead_frac"] = (
                statistics.median(sum(c["wall_s"] for c in g) for g in traced)
                / statistics.median(sum(c["wall_s"] for c in g) for g in untraced) - 1.0
            )
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values = metrics.run_end_to_end(e2e, measured)
        units = {k: metrics.END_TO_END[k][0] for k in metrics.reported(measured)}
    failed_frac = failed / attempted
    # a metric that could not be measured leaves the outputs unverified
    correct = not any(c["failures"] for c in commands) and values.keys() >= units.keys()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }

    env = environment()
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "groups": group,
        metrics.FAILED_FRAC[0]: {"value": failed_frac, "unit": metrics.FAILED_FRAC[1]},
        "commands": [
            {k: (str(v) if isinstance(v, Path) else v) for k, v in c.items() if k not in ("record", "stdout")}
            | {"maxrss_kb": c["record"]["maxrss_kb"] if c["record"] else None}
            for c in commands
        ],
        "per_group_end_to_end": e2e,
        **result,
    }
    # the commit keeps the results of two commits apart in one out/ directory
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}_{(env['commit'] or 'nogit')[:12]}"
    with open(OUT / f"BENCH_{stem}.json", "w") as handle:
        json.dump(full, handle, indent=1)
    if traced:
        with open(OUT / f"SPANS_{stem}.json", "w") as handle:
            json.dump([{"kind": c["kind"], "started": c["started"], "spans": c["record"]["spans"]}
                       for g in traced for c in g if c["record"]], handle)

    print(f"kronlev benchmark: {args.workload}, seed {args.seed}, {group} groups, "
          f"{attempted} commands, {failed} failed, outputs {'correct' if correct else 'WRONG'}")
    for c in commands:
        for message in c["failures"] or ([f"exit code {c['exit_code']}"] if c["exit_code"] else []):
            print(f"  group {c['group']} {c['kind']}: {message}")
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {metrics.FAILED_FRAC[0]:32s} {failed_frac:.6g} {metrics.FAILED_FRAC[1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
