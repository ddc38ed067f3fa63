"""Target functions and the trial harness for the relative-error studies.

Two benchmark models are built in: the Ishigami function and the terminal
displacement of a damped Duffing oscillator under free vibration, both over
three inputs in [-1, 1].  The harness evaluates the target once over the
grid, draws repeated sketches per sampling method, solves each sketched
system, records full-grid relative errors (from the full-grid reduction)
against the optimal one, and exports the per-method error distributions as
CDF tables or an SVG staircase plot.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .config import ExperimentConfig, ProblemSetup
from .grid_basis import Grid1D
from .sampler import make_method
from .sketch import (
    FullGridReduction,
    TargetFunction,
    assemble,
    draw_sketch,
    full_relative_error,
    reduce_full_grid,
    solve,
)

__all__ = [
    "METHOD_IDS",
    "ishigami",
    "duffing_qoi",
    "duffing_qoi_batch",
    "make_target",
    "evaluate_on_grid",
    "grid_table_target",
    "prepare_problem",
    "TrialReport",
    "run_trials",
    "emit_cdf",
    "emit_cdf_svg",
]

# Stable stream ids per method: adding a method never perturbs the draws
# of existing ones.
METHOD_IDS = {"uniform": 0, "tensor-product": 1, "orthogonal-columns": 2, "leverage-lower": 3}

_EVAL_CHUNK = 65536


def ishigami(y: np.ndarray, a: float = 7.0, b_param: float = 0.1) -> np.ndarray:
    """Ishigami benchmark on [-1, 1]^3 (inputs scaled by pi internally)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    s1 = np.sin(np.pi * y[:, 0])
    return s1 + a * np.sin(np.pi * y[:, 1]) ** 2 + b_param * (np.pi * y[:, 2]) ** 4 * s1


def duffing_qoi_batch(y: np.ndarray, t_final: float = 4.0, step: float = 1e-3) -> np.ndarray:
    """Terminal displacement u(t_final) of the Duffing oscillator, vectorized.

    Integrates u'' + 2 w1 w2 u' + w1^2 (u + w3 u^3) = 0 with u(0) = 1,
    u'(0) = 0 by classical fixed-step RK4.  The three inputs modulate the
    natural frequency, damping ratio, and cubic stiffness around their
    nominal values (2*pi, 0.05, -0.5).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    w1 = 2.0 * np.pi * (1.0 + 0.2 * y[:, 0])
    w2 = 0.05 * (1.0 + 0.05 * y[:, 1])
    w3 = -0.5 * (1.0 + 0.5 * y[:, 2])
    damping = 2.0 * w1 * w2
    stiffness = w1 * w1

    def accel(u, v):
        return -damping * v - stiffness * (u + w3 * u**3)

    u = np.ones(y.shape[0])
    v = np.zeros(y.shape[0])
    steps = int(round(t_final / step))
    h = t_final / steps if steps else step
    # overflow here is not an error condition per se; the finiteness check
    # below is the actual blow-up detector
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1u, k1v = v, accel(u, v)
            k2u, k2v = v + 0.5 * h * k1v, accel(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u, k3v = v + 0.5 * h * k2v, accel(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u, k4v = v + h * k3v, accel(u + h * k3u, v + h * k3v)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("Duffing integration blew up (non-finite state)")
    return u


def duffing_qoi(y, t_final: float = 4.0, step: float = 1e-3) -> float:
    """Scalar wrapper around :func:`duffing_qoi_batch` for one input point."""
    return float(duffing_qoi_batch(np.asarray(y, dtype=float)[None, :], t_final, step)[0])


def _tabulated_values(path: str) -> np.ndarray:
    values = np.loadtxt(path, dtype=float, ndmin=1)
    if values.ndim != 1:
        raise ValueError("tabulated model file must hold one value per line")
    return values


def grid_table_target(grids: Sequence[Grid1D], values: np.ndarray, name: str) -> TargetFunction:
    """Target backed by precomputed values on the full grid.

    Coordinates are resolved to per-dimension node indices by exact binary
    search, so only points of the grid itself can be evaluated.
    """
    values = np.asarray(values, dtype=float)
    shape = tuple(len(g) for g in grids)
    if values.shape != (int(np.prod(shape)),):
        raise ValueError(f"expected {int(np.prod(shape))} tabulated values, got {values.size}")

    def lookup(coords: np.ndarray) -> np.ndarray:
        idx0 = np.empty(coords.shape, dtype=np.int64)
        for d, grid in enumerate(grids):
            pos = np.searchsorted(grid.nodes, coords[:, d])
            pos = np.clip(pos, 0, len(grid) - 1)
            if np.any(grid.nodes[pos] != coords[:, d]):
                raise ValueError("tabulated target queried off the grid")
            idx0[:, d] = pos
        return values[oracle.flat_row_index(idx0, shape)]

    return TargetFunction(name, lookup)


def make_target(model: dict, grids: Optional[Sequence[Grid1D]] = None) -> TargetFunction:
    """Instantiate the target function described by a parsed model spec."""
    name = model["name"]
    if name == "ishigami":
        a, b_param = model["a"], model["b"]
        return TargetFunction("ishigami", lambda c: ishigami(c, a, b_param))
    if name == "duffing":
        t_final, step = model["t_final"], model["step"]
        return TargetFunction("duffing", lambda c: duffing_qoi_batch(c, t_final, step))
    if name == "tabulated":
        if grids is None:
            raise ValueError("tabulated model needs the grids")
        return grid_table_target(grids, _tabulated_values(model["path"]), "tabulated")
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


def prepare_problem(problem: ProblemSetup) -> tuple[TargetFunction, FullGridReduction]:
    """Evaluate the problem's model once over the grid.

    Returns a target that reads sketch points from that table and the
    full-grid reduction that every full-grid error is computed from.
    """
    target = make_target(problem.model, problem.grids)
    b_values = evaluate_on_grid(target, problem.grids)
    grid_target = grid_table_target(problem.grids, b_values, target.name)
    return grid_target, reduce_full_grid(problem.index_set, problem.factors, b_values)


@dataclass(frozen=True)
class TrialReport:
    """Relative errors per (method, trial) plus the shared optimal error."""

    methods: tuple[str, ...]
    trials: int
    errors: dict  # method tag -> list of relative errors, trial order
    optimal_error: float
    subspace_size: int
    sample_count: int
    seed: int
    echo: dict = field(default_factory=dict)

    def rows(self):
        for tag in self.methods:
            for t, err in enumerate(self.errors[tag]):
                yield tag, t, err


def run_trials(experiment: ExperimentConfig, threads: int = 1) -> TrialReport:
    """Run every (method, trial) sketch-solve pipeline of an experiment.

    Factors are built once; the target is evaluated once over the full grid
    and all sketches and full-grid errors read from that evaluation.  Each
    (method, trial) pair owns the seed stream (base_seed, method id, trial),
    so reports are pure functions of the config regardless of thread count.
    """
    problem = experiment.problem
    grid_target, reduction = prepare_problem(problem)
    methods = {
        tag: make_method(tag, problem.factors, problem.index_set)
        for tag in experiment.methods
    }
    count = experiment.resolved_sample_count()

    def one_trial(tag: str, trial: int) -> float:
        rng = np.random.default_rng([experiment.seed, METHOD_IDS[tag], trial])
        sketch = draw_sketch(methods[tag], count, rng)
        solution = solve(assemble(problem.index_set, problem.bases, sketch, grid_target))
        return full_relative_error(reduction, solution.x)

    jobs = [(tag, t) for tag in experiment.methods for t in range(experiment.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
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
        sample_count=count,
        seed=experiment.seed,
        echo=problem.echo,
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


def emit_cdf_svg(report: TrialReport, path, width: int = 640, height: int = 420) -> None:
    """Staircase CDF plot (log10 error axis) with the optimal error marked."""
    margin = 56
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
