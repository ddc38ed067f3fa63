"""Target functions and the trial harness for the relative-error studies.

Two benchmark models are built in: the Ishigami function and the terminal
displacement of a damped Duffing oscillator under free vibration, both over
three inputs in [-1, 1].  The harness takes the model over the grid once
into the full-grid reduction, runs repeated ``sketch.trial_error`` trials
per sampling method, records full-grid relative errors against the optimal
one, and exports the per-method error distributions as CDF tables or an
SVG staircase plot.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, ProblemSetup
from .grid_basis import Grid1D
from .sampler import METHOD_TAGS
from .sketch import (
    FullGridReduction,
    TargetFunction,
    _one_blas_thread,
    draw_sketch,
    reduce_full_grid,
    trial_error,
)

__all__ = [
    "METHOD_IDS",
    "ishigami",
    "duffing_qoi_batch",
    "make_target",
    "evaluate_on_grid",
    "grid_values",
    "prepare_problem",
    "TrialReport",
    "run_trials",
    "emit_cdf",
    "emit_cdf_svg",
]

# Stream id per method, its position in METHOD_TAGS, which is append-only:
# adding a method never perturbs the draws of existing ones.
METHOD_IDS = {tag: i for i, tag in enumerate(METHOD_TAGS)}

_EVAL_CHUNK = 65536


def ishigami(y: np.ndarray, a: float = 7.0, b_param: float = 0.1) -> np.ndarray:
    """Ishigami benchmark on [-1, 1]^3 (inputs scaled by pi internally)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    s1 = np.sin(np.pi * y[:, 0])
    # squared twice, as np.power has no fast path for the exponent 4
    y3_fourth = np.square(np.square(np.pi * y[:, 2]))
    return s1 + a * np.sin(np.pi * y[:, 1]) ** 2 + b_param * y3_fourth * s1


def duffing_qoi_batch(y: np.ndarray, t_final: float = 4.0, step: float = 1e-3) -> np.ndarray:
    """Terminal displacement u(t_final) of the Duffing oscillator, vectorized.

    Integrates u'' + 2 w1 w2 u' + w1^2 (u + w3 u^3) = 0 with u(0) = 1,
    u'(0) = 0 by classical fixed-step RK4.  The three inputs modulate the
    natural frequency, damping ratio, and cubic stiffness around their
    nominal values (2*pi, 0.05, -0.5).

    The step is adjusted to ``t_final / round(t_final / step)``; a
    non-finite ``t_final`` or ``step``, a non-positive ``step``, or a ratio
    that rounds to fewer than one step raises ``ValueError``.
    """
    if not (math.isfinite(t_final) and math.isfinite(step)) or step <= 0:
        raise ValueError("t_final and step must be finite and step positive")
    steps = int(round(t_final / step))
    if steps < 1:
        raise ValueError(f"t_final={t_final} with step={step} gives {steps} RK4 steps")
    h = t_final / steps
    half_h, sixth_h = 0.5 * h, h / 6.0
    y = np.atleast_2d(np.asarray(y, dtype=float))
    w1 = 2.0 * np.pi * (1.0 + 0.2 * y[:, 0])
    w2 = 0.05 * (1.0 + 0.05 * y[:, 1])
    w3 = -0.5 * (1.0 + 0.5 * y[:, 2])
    # accel(u, v) = -c v - k (u + w3 u^3) = neg_c v + u (neg_k + neg_kw3 u^2)
    neg_c = -2.0 * w1 * w2
    neg_k = -(w1 * w1)
    neg_kw3 = neg_k * w3

    # Stage state, slope and weighted slope sums live in buffers owned by
    # this call and are overwritten in place; nothing is shared between calls.
    n = y.shape[0]
    u, v = np.ones(n), np.zeros(n)
    stage_u, stage_v = np.empty(n), np.empty(n)
    slope, scratch = np.empty(n), np.empty(n)
    sum_u, sum_v = np.empty(n), np.empty(n)

    def accel(su, sv):
        np.multiply(su, su, out=slope)
        np.multiply(slope, neg_kw3, out=slope)
        np.add(slope, neg_k, out=slope)
        np.multiply(slope, su, out=slope)
        np.multiply(neg_c, sv, out=scratch)
        np.add(slope, scratch, out=slope)

    def stage(du, step_h, weight):
        # evaluate at (u, v) + step_h * (du, slope), the previous stage's
        # slopes, then add weight * this stage's slopes (stage_v, slope)
        np.multiply(du, step_h, out=stage_u)
        np.add(stage_u, u, out=stage_u)
        np.multiply(slope, step_h, out=stage_v)
        np.add(stage_v, v, out=stage_v)
        accel(stage_u, stage_v)
        np.multiply(stage_v, weight, out=scratch)
        np.add(sum_u, scratch, out=sum_u)
        np.multiply(slope, weight, out=scratch)
        np.add(sum_v, scratch, out=sum_v)

    # overflow here is not an error condition per se; the finiteness check
    # below is the actual blow-up detector
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            accel(u, v)
            np.copyto(sum_u, v)
            np.copyto(sum_v, slope)
            stage(v, half_h, 2.0)
            stage(stage_v, half_h, 2.0)
            stage(stage_v, h, 1.0)
            sum_u *= sixth_h
            u += sum_u
            sum_v *= sixth_h
            v += sum_v
    if not np.all(np.isfinite(u)):
        raise RuntimeError("Duffing integration blew up (non-finite state)")
    return u


def _tabulated_values(path: str, grids: Sequence[Grid1D]) -> np.ndarray:
    """The values file of a tabulated model: one finite value per grid point."""
    size = int(np.prod([len(g) for g in grids]))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on an empty file
            values = np.loadtxt(path, dtype=float, ndmin=1)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"tabulated model file {path}: {exc}")
    if values.shape != (size,):
        raise ConfigError(
            f"tabulated model file {path} must hold {size} values, one per line; "
            f"got an array of shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"tabulated model file {path} holds non-finite values")
    return values


def make_target(model: dict, grids: Optional[Sequence[Grid1D]] = None) -> TargetFunction:
    """The target function of a parsed model spec; ``grids`` is not used.

    A tabulated model has no target function: ``grid_values`` reads it.
    """
    name = model["name"]
    if name == "ishigami":
        a, b_param = model["a"], model["b"]
        return TargetFunction("ishigami", lambda c: ishigami(c, a, b_param))
    if name == "duffing":
        t_final, step = model["t_final"], model["step"]
        return TargetFunction("duffing", lambda c: duffing_qoi_batch(c, t_final, step))
    if name == "tabulated":
        raise ValueError("a tabulated model has no target function; read it with grid_values")
    raise ValueError(f"unknown model {name!r}")


def evaluate_on_grid(target: TargetFunction, grids: Sequence[Grid1D]) -> np.ndarray:
    """Target values over the full grid in lexicographic order, chunked."""
    shape = tuple(len(g) for g in grids)
    total = int(np.prod(shape))
    out = np.empty(total)
    for start in range(0, total, _EVAL_CHUNK):
        rows = np.arange(start, min(start + _EVAL_CHUNK, total))
        per_dim = np.unravel_index(rows, shape)
        coords = np.column_stack([g.nodes[per_dim[d]] for d, g in enumerate(grids)])
        out[rows] = target(coords)
    return out


def grid_values(model: dict, grids: Sequence[Grid1D]) -> np.ndarray:
    """The model over the full grid in lexicographic order; a tabulated file is read as is."""
    if model["name"] == "tabulated":
        return _tabulated_values(model["path"], grids)
    return evaluate_on_grid(make_target(model), grids)


def prepare_problem(problem: ProblemSetup) -> FullGridReduction:
    """The full-grid reduction of the problem's model, which every trial reads."""
    b_values = grid_values(problem.model, problem.grids)
    return reduce_full_grid(problem.index_set, problem.factors, b_values)


@dataclass(frozen=True)
class TrialReport:
    """Relative errors per (method, trial) plus the shared optimal error."""

    methods: tuple[str, ...]
    trials: int
    errors: dict  # method tag -> list of relative errors, trial order
    optimal_error: float
    subspace_size: int
    sample_count: int

    def rows(self):
        for tag in self.methods:
            for t, err in enumerate(self.errors[tag]):
                yield tag, t, err


def run_trials(experiment: ExperimentConfig, threads: int = 1) -> TrialReport:
    """Run every (method, trial) sketch-solve pipeline of an experiment.

    Samplers are built first, so a bad method fails before the model is taken
    over the full grid once, into the reduction every ``trial_error`` reads.  Each
    (method, trial) pair owns the seed stream (base_seed, method id, trial),
    and the trials run on one BLAS thread, so reports are pure functions of
    the config regardless of ``threads`` and the BLAS thread count.  At most
    ``os.cpu_count()`` worker threads are started, whatever ``threads`` asks.
    """
    problem = experiment.problem
    methods = {tag: problem.method(tag) for tag in experiment.methods}
    reduction = prepare_problem(problem)

    def one_trial(tag: str, trial: int) -> float:
        rng = np.random.default_rng([experiment.seed, METHOD_IDS[tag], trial])
        sketch = draw_sketch(methods[tag], experiment.sample_count, rng)
        return trial_error(reduction, sketch)[0]

    jobs = [(tag, t) for tag in experiment.methods for t in range(experiment.trials)]
    workers = min(threads, os.cpu_count() or 1)
    with _one_blas_thread():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda job: one_trial(*job), jobs))
        else:
            results = [one_trial(*job) for job in jobs]
    errors = {tag: [] for tag in experiment.methods}
    for (tag, _), err in zip(jobs, results):
        errors[tag].append(err)
    return TrialReport(
        methods=experiment.methods,
        trials=experiment.trials,
        errors=errors,
        optimal_error=reduction.optimal_error,
        subspace_size=len(problem.index_set),
        sample_count=experiment.sample_count,
    )


def write_report_csv(report: TrialReport, path) -> None:
    """Per-trial errors as CSV; float fields use shortest round-trip repr."""
    lines = ["method,trial,relative_error,optimal_relative_error,N,K"]
    for tag, trial, err in report.rows():
        lines.append(
            f"{tag},{trial},{err!r},{report.optimal_error!r},"
            f"{report.subspace_size},{report.sample_count}"
        )
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_cdf(report: TrialReport, path) -> None:
    """Empirical CDF table: one (method, sorted_error, cdf_level) row per trial."""
    if report.trials < 1:
        raise ValueError("report holds no trials")
    lines = ["method,sorted_error,cdf_level"]
    for tag in report.methods:
        ordered = sorted(report.errors[tag])
        for i, err in enumerate(ordered, start=1):
            lines.append(f"{tag},{err!r},{i / report.trials!r}")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def emit_cdf_svg(report: TrialReport, path) -> None:
    """Staircase CDF plot (log10 error axis) with the optimal error marked."""
    width, height, margin = 640, 420, 56
    all_errors = [e for tag in report.methods for e in report.errors[tag]]
    lo = min(all_errors + [report.optimal_error])
    hi = max(all_errors)
    lo = math.log10(max(lo, 1e-300)) - 0.15
    hi = math.log10(max(hi, 1e-300)) + 0.15

    def sx(err):
        return margin + (math.log10(max(err, 1e-300)) - lo) / (hi - lo) * (width - 2 * margin)

    def sy(level):
        return height - margin - level * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{sy(0)}" x2="{width - margin}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{margin}" y1="{sy(0)}" x2="{margin}" y2="{sy(1)}" stroke="black"/>',
    ]
    for level in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{margin - 8}" y="{sy(level) + 4}" font-size="11" text-anchor="end">{level:g}</text>'
        )
    for exp in range(math.ceil(lo), math.floor(hi) + 1):
        x = sx(10.0**exp)
        parts.append(f'<line x1="{x}" y1="{sy(0)}" x2="{x}" y2="{sy(0) + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x}" y="{sy(0) + 18}" font-size="11" text-anchor="middle">1e{exp}</text>'
        )
    x_opt = sx(report.optimal_error)
    parts.append(
        f'<line x1="{x_opt}" y1="{sy(0)}" x2="{x_opt}" y2="{sy(1)}" '
        'stroke="gray" stroke-dasharray="5,4"/>'
    )
    parts.append(
        f'<text x="{x_opt + 4}" y="{sy(1) + 12}" font-size="11" fill="gray">optimal</text>'
    )
    for i, tag in enumerate(report.methods):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        ordered = sorted(report.errors[tag])
        points = [f"{sx(ordered[0])},{sy(0)}"]
        for k, err in enumerate(ordered, start=1):
            points.append(f"{sx(err)},{sy((k - 1) / report.trials)}")
            points.append(f"{sx(err)},{sy(k / report.trials)}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 130}" y="{margin + 16 * i}" font-size="12" '
            f'fill="{color}">{tag}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")
