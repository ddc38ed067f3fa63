"""Target functions and the trial harness for the relative-error studies.

Two benchmark models are built in: the Ishigami function and the terminal
displacement of a damped Duffing oscillator under free vibration, both over
three inputs in [-1, 1].  The harness takes the model into the full-grid
reduction once: Ishigami, a sum of three products of one-dimensional
functions, as its per-dimension tables (``sketch.SeparableValues``), so it
is never evaluated on the whole grid; Duffing and a tabulated model as
values on the grid.  The harness runs repeated ``sketch.trial_error``
trials per sampling method, records full-grid relative errors against the
optimal one and each sketch's rank flag, and exports the per-method error
distributions as CDF tables or an SVG staircase plot.

Both the grid evaluation of Duffing and the trials are shared among up to
``threads`` processes by ``_map_in_shares``: the calling process computes
one strided share of the work itself, and on Linux the others go to
processes forked directly from it, whose results come back through a pipe.
A forked process sends its share's results or exits 1, and the caller
computes a share whose process exited 1 again, so an exception of the work
is raised in the caller as itself; the work is a pure function of its item.
No Python thread is started, and a forked process that dies in any other
way raises ``RuntimeError`` in the caller.  A trial is about half Python
and small numpy calls, which threads would run one at a time under the
interpreter lock.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, ProblemSetup, _duffing_steps
from .factor import _one_blas_thread
from .grid_basis import Grid1D
from .sampler import METHOD_TAGS, SamplerMethod, sample_indices
from .sketch import (_MAX_GRID_ROWS, FullGridReduction, SeparableValues, TargetFunction, reduce_full_grid,
                     trial_error)

__all__ = [
    "ishigami",
    "make_target",
    "evaluate_on_grid",
    "prepare_problem",
    "TrialReport",
    "run_trials",
    "write_report_csv",
    "emit_cdf",
    "emit_cdf_svg",
]

_EVAL_CHUNK = 65536
# Work is shared with forked processes on Linux only: fork is unsafe with
# system libraries on macOS and does not exist on Windows.
_CAN_FORK = sys.platform.startswith("linux")


def _run_forked_share(fn: Callable, items: list, write_fd: int) -> None:
    """In a forked child: pickle ``[fn(item) for item in items]`` into the
    pipe and exit 0, or exit 1 if ``fn`` raised or the results do not
    pickle; never returns."""
    code = 1
    try:
        data = pickle.dumps([fn(item) for item in items])
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)  # an exception here is the caller's to raise, when it reruns the share


def _map_in_shares(fn: Callable, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, computed in up to ``workers`` processes.

    The items are dealt into ``workers`` strided shares, ``items[i::workers]``,
    so that shares of items whose cost varies along the list cost alike.  The
    calling process computes share 0; on Linux, each other share goes to a
    process forked directly from it, which inherits ``fn`` and ``items``
    without pickling and pickles its results into a pipe, or exits 1 if
    ``fn`` raised or the results do not pickle.  Once every forked process
    has exited, the caller computes each share whose process exited 1 itself,
    so an exception of ``fn`` is raised here as itself, with a traceback
    through ``fn``.  A forked process that dies in any other way raises
    ``RuntimeError`` with its wait status.  The results come back in item
    order.  No Python thread is started.  Elsewhere, or with one worker, the
    calling process computes every item.

    ``fn`` must be a pure function of its item, so that a share computed
    again here gives what its process would have sent: ``_grid_rows``
    evaluates the same rows the same way in any process, and a trial seeds
    from (seed, method id, trial) under the one-thread BLAS pin that the
    forked processes inherit.

    fork, not spawn: a spawned process imports numpy and kronlev again,
    about 0.2 s, and would need ``fn`` pickled.  The only threads alive at
    a fork are this one and OpenBLAS's idle pool, which OpenBLAS shuts down
    at a fork.
    """
    workers = min(workers, len(items))
    if workers <= 1 or not _CAN_FORK:
        return [fn(item) for item in items]
    children = []
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_forked_share(fn, items[share::workers], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        shares = [[fn(item) for item in items[::workers]]]
    finally:
        # every pipe drained and every child reaped, whatever share 0 did
        ended = []
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
            ended.append((pid, os.waitpid(pid, 0)[1], data))
    for share, (pid, status, data) in enumerate(ended, start=1):
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            shares.append(pickle.loads(data))
        elif code == 1:
            shares.append([fn(item) for item in items[share::workers]])
        else:
            raise RuntimeError(
                f"forked share process {pid} exited without a result (wait status "
                f"{status}, exit code {code})"
            )
    results = [None] * len(items)
    for share, values in enumerate(shares):
        results[share::workers] = values
    return results


def _ishigami_terms(a: float, b_param: float) -> tuple:
    """Ishigami as sum_r prod_d g_{r,d}(y_d): one function of y_d per dimension and term."""

    def sin_pi(y):
        return np.sin(np.pi * y)

    def sin_pi_squared(y):
        return a * np.sin(np.pi * y) ** 2

    def fourth_power(y):
        # squared twice, as np.power has no fast path for the exponent 4
        return b_param * np.square(np.square(np.pi * y))

    return (
        (sin_pi, np.ones_like, np.ones_like),
        (np.ones_like, sin_pi_squared, np.ones_like),
        (sin_pi, np.ones_like, fourth_power),
    )


def ishigami(y: np.ndarray, a: float = 7.0, b_param: float = 0.1) -> np.ndarray:
    """Ishigami benchmark on [-1, 1]^3 (inputs scaled by pi internally).

    sin(pi y_1) + a sin^2(pi y_2) + b (pi y_3)^4 sin(pi y_1), from
    ``_ishigami_terms``: summed term by term in that order, each term's
    factors multiplied in dimension order.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    products = [
        reduce(np.multiply, [g(y[:, d]) for d, g in enumerate(term)])
        for term in _ishigami_terms(a, b_param)
    ]
    return reduce(np.add, products)


def duffing_qoi_batch(y: np.ndarray, t_final: float = 4.0, step: float = 1e-3) -> np.ndarray:
    """Terminal displacement u(t_final) of the Duffing oscillator, vectorized.

    Integrates u'' + 2 w1 w2 u' + w1^2 (u + w3 u^3) = 0 with u(0) = 1,
    u'(0) = 0 by classical fixed-step RK4.  The three inputs modulate the
    natural frequency, damping ratio, and cubic stiffness around their
    nominal values (2*pi, 0.05, -0.5).

    The step is adjusted to ``t_final / round(t_final / step)``.  The config's
    rule (``config._duffing_steps``) holds here too: ``t_final > 0``,
    ``0 < step <= t_final`` and at most ``config._MAX_STEPS`` steps, or
    ``ValueError``.
    """
    steps = _duffing_steps(t_final, step)
    h = t_final / steps
    half_h, sixth_h = 0.5 * h, h / 6.0
    # The points are padded to a multiple of 8 with copies of the last one,
    # so that every buffer row below starts on a 64-byte boundary, where
    # numpy's loops run faster, and every block of rows is contiguous.  Each
    # point's value depends on that point alone, so padding changes no bits.
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = y.shape[0]
    row = -(-n // 8) * 8
    if row > n:
        y = np.concatenate([y, np.repeat(y[-1:], row - n, axis=0)])
    w1 = 2.0 * np.pi * (1.0 + 0.2 * y[:, 0])
    w2 = 0.05 * (1.0 + 0.05 * y[:, 1])
    w3 = -0.5 * (1.0 + 0.5 * y[:, 2])

    # Every buffer is rows of one block owned by this call, overwritten in
    # place; nothing is shared between calls.  The state x and the stage
    # points p and q are (3, row) blocks whose rows are position u,
    # velocity v and acceleration a, so a point's (u, v) is its rows [:2]
    # and its slope (v, a) its rows [1:]: one ufunc call moves both
    # components of a stage point or a slope sum.  p and q alternate, each
    # built from the other's slope.  total, the weighted slope sum
    # k1 + 2 k2 + 2 k3 + k4, and twice, one doubled slope, are (2, row).
    raw = np.empty(17 * row + 8)
    skip = (-raw.ctypes.data % 64) // 8
    block = raw[skip : skip + 17 * row].reshape(17, row)
    x, p, q = block[0:3], block[3:6], block[6:9]
    total, twice = block[9:11], block[11:13]
    scratch, neg_c, neg_k, neg_kw3 = block[13:17]
    x_u, x_v, x_a, p_u, p_v, p_a, q_u, q_v, q_a = *x, *p, *q
    x_uv, x_slope, p_uv, p_slope, q_uv, q_slope = x[:2], x[1:], p[:2], p[1:], q[:2], q[1:]
    x_u.fill(1.0)
    x_v.fill(0.0)
    # a(u, v) = -c v - k (u + w3 u^3) = neg_c v + u (neg_k + neg_kw3 u^2)
    np.multiply(-2.0 * w1, w2, out=neg_c)
    np.negative(w1 * w1, out=neg_k)
    np.multiply(neg_k, w3, out=neg_kw3)
    mul, add = np.multiply, np.add

    def accel(u, v, a):
        mul(u, u, a)
        mul(a, neg_kw3, a)
        add(a, neg_k, a)
        mul(a, u, a)
        mul(neg_c, v, scratch)
        add(a, scratch, a)

    # 37 ufunc calls per step, on views made once, each given its output
    # as a positional argument.  Overflow here is not an error condition
    # per se; the finiteness check below is the actual blow-up detector.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            accel(x_u, x_v, x_a)  # k1 = x_slope
            mul(x_slope, half_h, p_uv)
            add(p_uv, x_uv, p_uv)
            accel(p_u, p_v, p_a)  # k2 = p_slope
            mul(p_slope, 2.0, twice)
            add(x_slope, twice, total)
            mul(p_slope, half_h, q_uv)
            add(q_uv, x_uv, q_uv)
            accel(q_u, q_v, q_a)  # k3 = q_slope
            mul(q_slope, 2.0, twice)
            add(total, twice, total)
            mul(q_slope, h, p_uv)
            add(p_uv, x_uv, p_uv)
            accel(p_u, p_v, p_a)  # k4 = p_slope
            add(total, p_slope, total)
            mul(total, sixth_h, total)
            add(x_uv, total, x_uv)
    u = x_u[:n].copy()
    if not np.all(np.isfinite(u)):
        raise RuntimeError("Duffing integration blew up (non-finite state)")
    return u


def _tabulated_values(path: str, grids: Sequence[Grid1D]) -> np.ndarray:
    """The values file of a tabulated model: one finite value per grid point."""
    size = math.prod(len(g) for g in grids)
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

    The function is a ``functools.partial`` of a module-level model, so it
    pickles.  A tabulated model has none: ``prepare_problem`` reads its file.
    """
    name = model["name"]
    if name == "ishigami":
        return TargetFunction("ishigami", partial(ishigami, a=model["a"], b_param=model["b"]))
    if name == "duffing":
        return TargetFunction(
            "duffing", partial(duffing_qoi_batch, t_final=model["t_final"], step=model["step"])
        )
    if name == "tabulated":
        raise ValueError("a tabulated model has no target function; prepare_problem reads its file")
    raise ValueError(f"unknown model {name!r}")


def _grid_rows(target: TargetFunction, grids: Sequence[Grid1D], rows: range) -> np.ndarray:
    """Target values at the grid's ``rows``, numbered in lexicographic order."""
    per_dim = np.unravel_index(np.arange(rows.start, rows.stop), tuple(len(g) for g in grids))
    return target(np.column_stack([g.nodes[per_dim[d]] for d, g in enumerate(grids)]))


def evaluate_on_grid(
    target: TargetFunction, grids: Sequence[Grid1D], workers: int = 1
) -> np.ndarray:
    """Target values over the full grid in lexicographic order, in up to ``workers`` processes.

    The rows are split into near-equal contiguous pieces, at least
    ``workers`` of them and none longer than ``_EVAL_CHUNK`` rows, which
    ``_map_in_shares`` evaluates: the caller one share of them and, on
    Linux, forked processes the others.  The built-in models call numpy
    ufuncs only.  Each point's value depends on that point alone, so the
    result has the same bits for every ``workers``.
    """
    total = math.prod(len(g) for g in grids)
    pieces = min(total, max(workers, -(-total // _EVAL_CHUNK)))
    bounds = [total * i // pieces for i in range(pieces + 1)]
    rows = [range(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    return np.concatenate(_map_in_shares(partial(_grid_rows, target, grids), rows, workers))


def prepare_problem(problem: ProblemSetup, workers: int = 1) -> FullGridReduction:
    """The full-grid reduction of the problem's model, which every trial reads.

    Ishigami enters as its terms tabulated on each dimension's nodes, so the
    grid is never formed; a tabulated model as its file's values; any other
    model as its values on the grid, evaluated in up to ``workers`` processes.
    A model taken as grid values is refused, with ValueError and before its
    file is read or it is evaluated, on a grid of more than
    ``sketch._MAX_GRID_ROWS`` rows.
    """
    model = problem.model
    if model["name"] == "ishigami":
        terms = _ishigami_terms(model["a"], model["b"])
        b_values = SeparableValues(
            tuple(tuple(g(grid.nodes) for g, grid in zip(term, problem.grids)) for term in terms)
        )
    else:
        rows = math.prod(len(g) for g in problem.grids)
        if rows > _MAX_GRID_ROWS:
            raise ValueError(f"full grid has {rows} rows, beyond the grid-value bound {_MAX_GRID_ROWS}")
        if model["name"] == "tabulated":
            b_values = _tabulated_values(model["path"], problem.grids)
        else:
            b_values = evaluate_on_grid(make_target(model), problem.grids, workers)
    return reduce_full_grid(problem.index_set, problem.factors, b_values)


@dataclass(frozen=True)
class TrialReport:
    """Relative errors and rank flags per (method, trial) plus the shared optimal error."""

    methods: tuple[str, ...]
    trials: int
    errors: dict  # method tag -> list of relative errors, trial order
    rank_flags: dict  # method tag -> list of bools, trial order: the sketch was rank deficient
    optimal_error: float
    subspace_size: int
    sample_count: int


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@_one_blas_thread()
def run_trials(experiment: ExperimentConfig, threads: int = 1) -> TrialReport:
    """Run every (method, trial) sketch-solve pipeline of an experiment.

    The samplers come built from ``parse_experiment``, which has judged each
    method on the problem, so this builds only the reduction every
    ``trial_error`` reads, taking the model into it once.  Each
    (method, trial) pair owns the seed stream (base_seed, method id, trial),
    the id being the method tag's position in ``METHOD_TAGS``, and the whole
    call runs on one BLAS thread, so reports are pure functions of the config
    regardless of ``threads`` and the BLAS thread count.  The count is set
    before any fork: OpenBLAS's pool, shut down at a fork, then restarts only
    when the trials are done, and the forked processes inherit the count of 1.

    ``threads`` is capped once at the CPUs this process may run on
    (``_usable_cpus``).  That many processes share a grid-valued model's
    evaluation during set-up and then the (method, trial) jobs, each a
    strided share, the calling process one of them (``_map_in_shares``).
    """
    problem, trials = experiment.problem, experiment.trials
    tags = tuple(method.tag for method in experiment.methods)
    workers = min(threads, _usable_cpus())

    def one_trial(job: tuple[SamplerMethod, int]) -> tuple[float, bool]:
        method, trial = job
        rng = np.random.default_rng([experiment.seed, METHOD_TAGS.index(method.tag), trial])
        rows = sample_indices(method, rng, experiment.sample_count)
        return trial_error(reduction, method, rows)

    jobs = [(method, t) for method in experiment.methods for t in range(trials)]  # method-major
    reduction = prepare_problem(problem, workers)
    results = _map_in_shares(one_trial, jobs, workers)
    per_tag = {tag: results[i * trials : (i + 1) * trials] for i, tag in enumerate(tags)}
    return TrialReport(
        methods=tags,
        trials=trials,
        errors={tag: [error for error, _ in pairs] for tag, pairs in per_tag.items()},
        rank_flags={tag: [flag for _, flag in pairs] for tag, pairs in per_tag.items()},
        optimal_error=reduction.optimal_error,
        subspace_size=len(problem.index_set),
        sample_count=experiment.sample_count,
    )


def write_report_csv(report: TrialReport, path) -> None:
    """Per-trial errors and rank flags as CSV.

    Each number is written as ``str`` writes it: for a float, Python's or
    numpy's, that is its shortest round-trip text.  A rank flag is ``true``
    or ``false``, as ``solve`` prints it.
    """
    lines = ["method,trial,relative_error,optimal_relative_error,N,K,rank_flag"]
    for tag in report.methods:
        for trial, (err, flag) in enumerate(zip(report.errors[tag], report.rank_flags[tag])):
            lines.append(
                f"{tag},{trial},{err},{report.optimal_error},"
                f"{report.subspace_size},{report.sample_count},{'true' if flag else 'false'}"
            )
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _require_trials(report: TrialReport) -> None:
    """A CDF of no trials has no levels: both CDF writers refuse it."""
    if report.trials < 1:
        raise ValueError("report holds no trials")


def emit_cdf(report: TrialReport, path) -> None:
    """Empirical CDF table: one (method, sorted_error, cdf_level) row per trial."""
    _require_trials(report)
    lines = ["method,sorted_error,cdf_level"]
    for tag in report.methods:
        ordered = sorted(report.errors[tag])
        for i, err in enumerate(ordered, start=1):
            lines.append(f"{tag},{err},{i / report.trials}")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def emit_cdf_svg(report: TrialReport, path) -> None:
    """Staircase CDF plot (log10 error axis) with the optimal error marked."""
    _require_trials(report)
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
