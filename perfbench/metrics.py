"""End-to-end and per-layer metrics derived from command records.

A command record is what ``run.py`` keeps for one ``kronlev`` process:
its kind, the monotonic time the benchmark started it, its wall time, and
the probe record (spans, peak resident set, exit code).  Span times and the
start time share the system's monotonic clock.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import ATTRS, END, ID, NAME, START, THREAD, self_times

SETUP_ENDS = ("sketch.draw_sketch", "sampler.sample_indices")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "draws_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "lev_err_ratio_p50": ("ratio", "lower"),
}
# The rate each command kind reports, and the work it counts: pipelines
# for ``experiment``, points drawn for ``sample``.
RATES = {"experiment": ("trials_per_s", "pipelines"), "sample": ("draws_per_s", "draws")}
# Reported with the end-to-end metrics but carried in the result line by
# ``attempted`` and ``failed``: it reads 0 on a healthy workload.
FAILED_FRAC = ("failed_frac", "ratio")

PER_LAYER = {
    "config.parse_s": ("s", "lower"),
    "indexset.build_s": ("s", "lower"),
    "grid_basis.eval_s": ("s", "lower"),
    "grid_basis.eval_points": ("count", "lower"),
    "factor.build_s": ("s", "lower"),
    "factor.qr_s": ("s", "lower"),
    "factor.alias_s": ("s", "lower"),
    "sampler.setup_s": ("s", "lower"),
    "sampler.draw_s": ("s", "lower"),
    "sampler.draws": ("count", "higher"),
    "sampler.mass_s": ("s", "lower"),
    "sampler.mass_entries": ("count", "lower"),
    "sampler.mass_bytes": ("B", "lower"),
    "sketch.draw_s": ("s", "lower"),
    "sketch.assemble_s": ("s", "lower"),
    "sketch.solve_s": ("s", "lower"),
    "sketch.full_error_s": ("s", "lower"),
    "sketch.full_error_rows": ("count", "lower"),
    "sketch.solve_flops": ("flop", "lower"),
    "sketch.rank_deficient_frac": ("ratio", "lower"),
    "sketch.distinct_rows_frac": ("ratio", "higher"),
    "sketch.stage_cover_frac": ("ratio", "higher"),
    "oracle.build_full_s": ("s", "lower"),
    "oracle.solve_full_s": ("s", "lower"),
    "oracle.dense_bytes": ("B", "lower"),
    "experiments.target_eval_s": ("s", "lower"),
    "experiments.target_points": ("count", "lower"),
    "experiments.target_setup_frac": ("ratio", "lower"),
    "experiments.optimal_s": ("s", "lower"),
    "experiments.trial_ms_p50": ("ms", "lower"),
    "experiments.trial_ms_p99": ("ms", "lower"),
    "experiments.trial_samples": ("count", "higher"),
    "experiments.worker_busy_frac": ("ratio", "higher"),
    "cli.write_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def spans_of(command):
    return command["record"]["spans"] if command.get("record") else []


def setup_end(spans):
    """Start of the first trial-phase call, or None if the phase never began."""
    starts = [s[START] for s in spans if s[NAME] in SETUP_ENDS]
    return min(starts) if starts else None


def group_end_to_end(commands, workload, outcome):
    """Measured values of one group; ``outcome`` holds checked results of its first command.

    ``outcome`` gives ``ratios`` (relative error over optimal per
    leverage-lower trial or carved sketch) and, for ``experiment``,
    ``pipelines`` (trials run).  Returns None when the first command failed.
    """
    first = commands[0]
    spans = spans_of(first)
    began = setup_end(spans)
    if first["exit_code"] != 0 or first["failures"] or began is None or not outcome["ratios"]:
        return None
    if first["kind"] == "experiment":
        finished = max(s[END] for s in spans if s[NAME] == "experiments.run_trials")
        done = outcome["pipelines"]
    else:
        finished = first["record"]["ended"]
        done = workload.sample_count
    return {
        "setup_s": began - first["started"],
        "work_s": finished - began,
        RATES[first["kind"]][1]: done,
        "wall_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": max(c["record"]["maxrss_kb"] / 1024.0 for c in commands if c.get("record")),
        "lev_err_ratio_p50": statistics.median(outcome["ratios"]),
    }


def reported(kind):
    """Names of the end-to-end metrics a workload of this command kind reports."""
    rates = {rate for rate, _ in RATES.values()}
    return [name for name in END_TO_END if name not in rates or name == RATES[kind][0]]


def run_end_to_end(groups, kind):
    """Run values from group values: the rate over all the run's work, the rest as medians."""
    if not groups:
        return {}
    rate, work = RATES[kind]
    out = {rate: sum(g[work] for g in groups) / sum(g["work_s"] for g in groups)}
    for key in ("setup_s", "wall_s", "peak_rss_mb", "lev_err_ratio_p50"):
        out[key] = statistics.median(g[key] for g in groups)
    return {key: out[key] for key in reported(kind)}


def _trial_seconds(spans):
    """Duration of each pipeline: a draw to the next full error on the same thread."""
    by_thread = defaultdict(list)
    for s in sorted(spans, key=lambda s: s[START]):
        if s[NAME] in ("sketch.draw_sketch", "sketch.full_relative_error"):
            by_thread[s[THREAD]].append(s)
    out = []
    for seq in by_thread.values():
        opened = None
        for s in seq:
            if s[NAME] == "sketch.draw_sketch":
                opened = s[START]
            elif opened is not None:
                out.append(s[END] - opened)
                opened = None
    return out


def layer_metrics(commands, threads: int):
    """Per-layer values of one traced group (``trace.overhead_frac`` excluded)."""
    own = defaultdict(float)     # name -> summed self time
    total = defaultdict(float)   # name -> summed span time
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(list))
    exp = {"own": defaultdict(float), "total": defaultdict(float), "trials": [], "phase": 0.0, "setup": 0.0}
    for command in commands:
        spans = spans_of(command)
        selfs = self_times(spans)
        is_exp = command["kind"] == "experiment"
        for s in spans:
            name = s[NAME]
            own[name] += selfs[s[ID]]
            total[name] += s[END] - s[START]
            calls[name] += 1
            for key, value in s[ATTRS].items():
                attrs[name][key].append(value)
            if is_exp:
                exp["own"][name] += selfs[s[ID]]
                exp["total"][name] += s[END] - s[START]
        if is_exp and spans:
            exp["trials"] += _trial_seconds(spans)
            began = setup_end(spans)
            if began is not None:
                exp["setup"] += began - command["started"]
                ends = [s[END] for s in spans if s[NAME] == "experiments.run_trials"]
                if ends:
                    exp["phase"] += max(ends) - began

    def attr_sum(name, key):
        return float(sum(attrs[name][key]))

    trial_ms = [1e3 * t for t in exp["trials"]]
    trial_sum = sum(exp["trials"])
    stages = ("sketch.draw_sketch", "sketch.assemble", "sketch.solve", "sketch.full_relative_error")
    k_total = attr_sum("sketch.draw_sketch", "K")
    solves = calls["sketch.solve"]
    out = {
        "config.parse_s": own["config.parse_experiment"] + own["config.parse_problem"],
        "indexset.build_s": total["indexset.build_index_set"],
        "grid_basis.eval_s": total["grid_basis.eval_basis_matrix"],
        "grid_basis.eval_points": attr_sum("grid_basis.eval_basis_matrix", "points"),
        "factor.build_s": own["factor.build_factor"],
        "factor.qr_s": own["factor.factor_qr"],
        "factor.alias_s": own["factor.leverage_table"] + own["factor.normalized_column_table"],
        "sampler.setup_s": own["sampler.make_method"],
        "sampler.draw_s": total["sampler.sample_indices"],
        "sampler.draws": attr_sum("sampler.sample_indices", "draws"),
        "sampler.mass_s": total["sampler.point_mass_many"],
        "sampler.mass_entries": attr_sum("sampler.point_mass_many", "entries"),
        "sampler.mass_bytes": float(max(attrs["sampler.point_mass_many"]["bytes"], default=0)),
        "sketch.draw_s": own["sketch.draw_sketch"],
        "sketch.assemble_s": own["sketch.assemble"],
        "sketch.solve_s": own["sketch.solve"],
        "sketch.full_error_s": own["sketch.full_relative_error"],
        "sketch.full_error_rows": attr_sum("sketch.full_relative_error", "rows"),
        "sketch.solve_flops": attr_sum("sketch.solve", "flops"),
        "sketch.rank_deficient_frac": attr_sum("sketch.solve", "rank_deficient") / solves if solves else 0.0,
        "sketch.distinct_rows_frac": attr_sum("sketch.draw_sketch", "distinct") / k_total if k_total else 0.0,
        "sketch.stage_cover_frac": sum(exp["own"][s] for s in stages) / trial_sum if trial_sum else 0.0,
        "oracle.build_full_s": own["oracle.build_full"],
        "oracle.solve_full_s": own["oracle.solve_full"],
        "oracle.dense_bytes": attr_sum("oracle.build_full", "bytes"),
        "experiments.target_eval_s": total["experiments.evaluate_on_grid"],
        "experiments.target_points": attr_sum("experiments.evaluate_on_grid", "points"),
        "experiments.target_setup_frac": (
            exp["total"]["experiments.evaluate_on_grid"] / exp["setup"] if exp["setup"] else 0.0
        ),
        "experiments.optimal_s": sum(
            exp["total"][s] for s in ("oracle.build_full", "oracle.solve_full", "experiments._streaming_optimal")
        ),
        "experiments.trial_ms_p50": float(np.percentile(trial_ms, 50)) if trial_ms else 0.0,
        "experiments.trial_ms_p99": float(np.percentile(trial_ms, 99)) if trial_ms else 0.0,
        "experiments.trial_samples": float(len(trial_ms)),
        "experiments.worker_busy_frac": trial_sum / (threads * exp["phase"]) if exp["phase"] else 0.0,
        "cli.write_s": (
            own["experiments.write_report_csv"] + own["experiments.emit_cdf"] + own["cli._sample_csv_lines"]
        ),
    }
    return out
