"""Outside-in span tracer for the kronlev package.

The tracer replaces every binding of a chosen set of kronlev functions, in
every loaded ``kronlev.*`` module namespace, with a timing wrapper.  Names
imported with ``from .x import f`` are separate bindings of the same
function object, so each one is found by identity and patched; restoring
puts the original objects back.  A function that no longer exists records
zero calls instead of failing.

Spans are kept in memory as plain tuples and serialized when the traced
process ends.  A thread-local stack gives each span its parent on its own
thread; spans opened by pool workers start with no parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time

import numpy as np

# Span tuple layout: (id, parent id or -1, thread ident, name, start, end, attrs)
ID, PARENT, THREAD, NAME, START, END, ATTRS = range(7)


def _count_eval_points(bound, result):
    return {"points": int(np.size(bound["y"]))}


def _count_draws(bound, result):
    return {"draws": int(bound["size"])}


def _count_mass(bound, result):
    k = int(np.asarray(bound["idx0"]).reshape(-1, len(bound["method"].grids)).shape[0])
    index_array = getattr(bound["method"], "index_array", None)
    n = 1 if index_array is None else int(index_array.shape[0])
    return {"entries": k * n, "bytes": 8 * k * n}


def _count_grid_points(bound, result):
    return {"points": int(np.size(result))}


def _count_sketch(bound, result):
    rows = np.asarray(result.indices0)
    return {"K": int(rows.shape[0]), "distinct": int(np.unique(rows, axis=0).shape[0])}


def _count_solve(bound, result):
    k, n = bound["system"].matrix.shape
    return {
        "flops": 2.0 * k * n * n - 2.0 * n**3 / 3.0,
        "rank_deficient": int(bool(result.rank_deficient)),
    }


def _count_full_rows(bound, result):
    return {"rows": math.prod(int(f.matrix.shape[0]) for f in bound["factors"])}


def _count_dense(bound, result):
    return {"bytes": int(result.matrix.nbytes)}


# Traced functions per defining module, with the counters recorded per call.
FULL_TARGETS = {
    "kronlev.cli": {"main": None, "_sample_csv_lines": None},
    "kronlev.config": {"parse_experiment": None, "parse_problem": None},
    "kronlev.indexset": {"build_index_set": None},
    "kronlev.grid_basis": {"eval_basis_matrix": _count_eval_points},
    "kronlev.factor": {
        "build_factor": None,
        "factor_qr": None,
        "leverage_table": None,
        "normalized_column_table": None,
    },
    "kronlev.sampler": {
        "make_method": None,
        "sample_indices": _count_draws,
        "point_mass_many": _count_mass,
        "mu_mass_many": None,
    },
    "kronlev.sketch": {
        "draw_sketch": _count_sketch,
        "assemble": None,
        "solve": _count_solve,
        "full_relative_error": _count_full_rows,
    },
    "kronlev.oracle": {"build_full": _count_dense, "solve_full": None},
    "kronlev.experiments": {
        "run_trials": None,
        "make_target": None,
        "evaluate_on_grid": _count_grid_points,
        "grid_table_target": None,
        "_streaming_optimal": None,
        "write_report_csv": None,
        "emit_cdf": None,
    },
}

# The phase boundaries alone: enough to time set-up and the trial phase
# while adding a few microseconds per trial.
PHASE_TARGETS = {
    "kronlev.sampler": {"sample_indices": None},
    "kronlev.sketch": {"draw_sketch": None},
    "kronlev.experiments": {"run_trials": None},
}


class Tracer:
    """Patches kronlev functions with timing wrappers and collects spans."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.patched = []  # (namespace, attribute, original object)
        self._local = threading.local()
        self._ids = itertools.count()

    def install(self):
        modules = {name: importlib.import_module(name) for name in self.targets}
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kronlev" or name.startswith("kronlev."))
        ]
        for module_name, functions in self.targets.items():
            module = modules[module_name]
            for func_name, counter in functions.items():
                original = getattr(module, func_name, None)
                if not callable(original):
                    continue  # renamed or deleted: records zero calls
                wrapper = self._wrap(original, counter)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self.patched.append((namespace, attr, original))
        return self

    def restore(self):
        for namespace, attr, original in reversed(self.patched):
            setattr(namespace, attr, original)
        self.patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, time.monotonic()

    def _close(self, name, opened, attrs):
        end = time.monotonic()
        span_id, parent, start = opened
        self._stack().pop()
        self.spans.append((span_id, parent, threading.get_ident(), name, start, end, attrs))

    def _wrap(self, func, counter):
        name = f"{func.__module__.removeprefix('kronlev.')}.{func.__name__}"
        signature = inspect.signature(func)

        def count(args, kwargs, result):
            if counter is None:
                return {}
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return counter(bound.arguments, result)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                return {"counter_error": f"{type(exc).__name__}: {exc}"}

        if inspect.isgeneratorfunction(func):
            # the span covers the whole iteration, from first item to exhaustion
            def wrapper(*args, **kwargs):
                opened = self._open()
                attrs = {}
                try:
                    yield from func(*args, **kwargs)
                except BaseException:
                    attrs["raised"] = 1
                    raise
                finally:
                    self._close(name, opened, attrs)
        else:
            def wrapper(*args, **kwargs):
                opened = self._open()
                attrs = {}
                try:
                    result = func(*args, **kwargs)
                except BaseException:
                    attrs["raised"] = 1
                    self._close(name, opened, attrs)
                    raise
                self._close(name, opened, attrs)
                attrs.update(count(args, kwargs, result))
                return result

        return functools.wraps(func)(wrapper)


def self_times(spans):
    """Map span id -> its duration minus the time its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = {}
    for span in spans:
        covered = 0.0
        reach = -math.inf
        for start, end in sorted(children.get(span[ID], ())):
            start = max(start, reach, span[START])
            end = min(end, span[END])
            if end > start:
                covered += end - start
            reach = max(reach, end)
        out[span[ID]] = (span[END] - span[START]) - covered
    return out
