import copy
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

import kronlev.experiments
import kronlev.factor
import kronlev.grid_basis
import kronlev.sketch
from kronlev.config import ConfigError, load_json, parse_experiment, parse_problem
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.experiments import (
    _tabulated_values,
    duffing_qoi_batch,
    emit_cdf,
    emit_cdf_svg,
    evaluate_on_grid,
    ishigami,
    make_target,
    prepare_problem,
    run_trials,
    write_report_csv,
)
from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, _missing_below, build_index_set
from kronlev.oracle import build_full, solve_full
from kronlev.sampler import METHOD_TAGS, make_method, sample_indices
from kronlev.sketch import TargetFunction, reduce_full_grid, trial_error
from helpers import count_calls, run_capped
from outputs import gated_configs


class TestIshigami:
    def test_half_pi_points(self):
        # sin(pi/2) = 1 and the third term vanishes at y3 = 0
        assert ishigami(np.array([0.5, 0.5, 0.0]))[0] == pytest.approx(8.0)

    def test_first_and_third_terms_vanish_at_zero(self):
        y = np.array([[0.0, 0.3, 0.9]])
        expected = 7.0 * math.sin(math.pi * 0.3) ** 2
        assert ishigami(y)[0] == pytest.approx(expected, rel=1e-14)

    def test_all_half(self):
        expected = 8.0 + 0.1 * (math.pi / 2) ** 4
        assert ishigami(np.array([0.5, 0.5, 0.5]))[0] == pytest.approx(expected)
        assert expected == pytest.approx(8.6088, abs=5e-5)

    def test_parameters_scale_terms(self):
        y = np.array([[0.25, 0.5, 0.5]])
        a2 = ishigami(y, a=2.0, b_param=0.0)[0]
        assert a2 == pytest.approx(math.sin(math.pi / 4) + 2.0)


class TestDuffing:
    def test_step_halving_converged(self):
        u1 = duffing_qoi_batch([0.0, 0.0, 0.0], step=1e-3)[0]
        u2 = duffing_qoi_batch([0.0, 0.0, 0.0], step=5e-4)[0]
        assert abs(u1 - u2) <= 1e-6

    def test_linearized_limit_is_cosine(self):
        # y = (0, -20, -2) zeroes the damping and cubic coefficients, so
        # u(t) = cos(2 pi t) exactly
        u = duffing_qoi_batch([0.0, -20.0, -2.0], step=1e-3)[0]
        assert abs(u - 1.0) <= 1e-6

    def test_batch_matches_scalar(self):
        # each row integrates on its own: the batch equals one-row calls
        y = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
        batch = duffing_qoi_batch(y, step=2e-3)
        for i in range(2):
            assert batch[i] == pytest.approx(duffing_qoi_batch(y[i], step=2e-3)[0], abs=1e-14)

    def test_blow_up_reported(self):
        with pytest.raises(RuntimeError, match="blew up"):
            duffing_qoi_batch([0.0, 0.0, 100.0], step=1e-2)

    def test_bad_step(self):
        with pytest.raises(ValueError, match=r"^step must be in \(0, t_final\], got 0.0$"):
            duffing_qoi_batch([0.0, 0.0, 0.0], step=0.0)


def duffing_reference(y, t_final=4.0, step=1e-3):
    """The RK4 loop as first written: ``u**3`` and fresh arrays per stage."""
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
    h = t_final / steps
    for _ in range(steps):
        k1u, k1v = v, accel(u, v)
        k2u, k2v = v + 0.5 * h * k1v, accel(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
        k3u, k3v = v + 0.5 * h * k2v, accel(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
        k4u, k4v = v + h * k3v, accel(u + h * k3u, v + h * k3v)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u


def duffing_in_place_reference(y, t_final=4.0, step=1e-3):
    """The in-place RK4 kernel on separately allocated rows, 54 passes per step.

    Each element sees the operations of ``duffing_qoi_batch``'s 37-call
    step in the same order: that kernel moves a point's two components by
    one call on stacked (2, n) rows, forms k1 + 2 k2 by one ``add`` where
    this copies k1 and adds, and drops the multiplications by 1.0, so the
    two must agree bit for bit.
    """
    steps = int(round(t_final / step))
    h = t_final / steps
    half_h, sixth_h = 0.5 * h, h / 6.0
    y = np.atleast_2d(np.asarray(y, dtype=float))
    w1 = 2.0 * np.pi * (1.0 + 0.2 * y[:, 0])
    w2 = 0.05 * (1.0 + 0.05 * y[:, 1])
    w3 = -0.5 * (1.0 + 0.5 * y[:, 2])
    neg_c = -2.0 * w1 * w2
    neg_k = -(w1 * w1)
    neg_kw3 = neg_k * w3
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
        np.multiply(du, step_h, out=stage_u)
        np.add(stage_u, u, out=stage_u)
        np.multiply(slope, step_h, out=stage_v)
        np.add(stage_v, v, out=stage_v)
        accel(stage_u, stage_v)
        np.multiply(stage_v, weight, out=scratch)
        np.add(sum_u, scratch, out=sum_u)
        np.multiply(slope, weight, out=scratch)
        np.add(sum_v, scratch, out=sum_v)

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
    return u


class TestDuffingKernel:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 4000, 4001, 8000])
    def test_bits_match_the_in_place_reference(self, n):
        # n around one 64-byte row (8 values), the bench's 4000- and 8000-row
        # pieces, which need no padding points, and one odd size that does;
        # the input also as a view that starts 24 bytes into its buffer
        y = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 3))
        shifted = np.empty((n + 1, 3))[1:]
        shifted[...] = y
        expected = duffing_in_place_reference(y, t_final=0.5).tobytes()
        assert duffing_qoi_batch(y, t_final=0.5).tobytes() == expected
        assert duffing_qoi_batch(shifted, t_final=0.5).tobytes() == expected

    def test_matches_reference_loop_on_duffing_g9_nodes(self):
        # the cube by multiplication and the folded constants change only
        # rounding, which 4000 steps must not amplify past 1e-13
        grids = parse_problem(load_json(packaged_config_path("duffing-g9"))).grids
        shape = tuple(len(g) for g in grids)
        rows = np.linspace(0, int(np.prod(shape)) - 1, 50).astype(np.int64)
        per_dim = np.unravel_index(rows, shape)
        y = np.column_stack([g.nodes[per_dim[d]] for d, g in enumerate(grids)])
        got = duffing_qoi_batch(y, t_final=4.0, step=1e-3)
        assert np.max(np.abs(got - duffing_reference(y))) <= 1e-13

    @pytest.mark.parametrize(
        "t_final,step,message",
        [(4.0, 10.0, "^step must be in \\(0, t_final\\], got 10.0$"),
         (-4.0, 1e-3, "^t_final must be positive, got -4.0$"),
         (0.0, 1e-3, "^t_final must be positive, got 0.0$"),
         (math.nan, 1e-3, "^t_final must be positive, got nan$"),
         (math.inf, 1e-3, "^step must be at least t_final / 10000000, got 0.001$"),
         (4.0, math.nan, "^step must be in \\(0, t_final\\], got nan$"),
         (4.0, math.inf, "^step must be in \\(0, t_final\\], got inf$"),
         (4.0, -1e-3, "^step must be in \\(0, t_final\\], got -0.001$"),
         (4.0, 1e-300, "^step must be at least t_final / 10000000, got 1e-300$")],
    )
    def test_rejects_degenerate_integration(self, t_final, step, message):
        # the config's rule, so the integrator starts no loop it would refuse to parse
        with pytest.raises(ValueError, match=message):
            duffing_qoi_batch([0.0, 0.0, 0.0], t_final=t_final, step=step)

    def test_concurrent_calls_match_serial(self):
        # each call owns its stage buffers: threads running the kernel at
        # once on same-sized inputs (more threads than cores, frequent
        # switches) must not mix state
        rng = np.random.default_rng(7)
        inputs = [rng.uniform(-1.0, 1.0, size=(240, 3)) for _ in range(4)]
        serial = [duffing_qoi_batch(y, step=2e-3).tobytes() for y in inputs]
        results = [None] * len(inputs)
        barrier = threading.Barrier(len(inputs))

        def work(i):
            barrier.wait(timeout=60)
            results[i] = duffing_qoi_batch(inputs[i], step=2e-3).tobytes()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    def test_grid_evaluation_repeats_bytes(self):
        grids = [gauss_legendre_grid(5)] * 3
        target = make_target({"name": "duffing", "t_final": 4.0, "step": 1e-3})
        first = evaluate_on_grid(target, grids)
        assert evaluate_on_grid(target, grids).tobytes() == first.tobytes()


class TestTargets:
    def test_tabulated_model_from_file(self, tmp_path):
        grids = [gauss_legendre_grid(3), gauss_legendre_grid(3)]
        values = np.linspace(0.0, 1.0, 9)
        path = tmp_path / "values.txt"
        np.savetxt(path, values)
        assert np.allclose(_tabulated_values(str(path), grids), values)

    def test_unknown_model_is_refused(self):
        with pytest.raises(ValueError, match="^unknown model 'borehole'$"):
            make_target({"name": "borehole"})

    def test_tabulated_model_has_no_target_function(self):
        with pytest.raises(ValueError, match="prepare_problem reads its file"):
            make_target({"name": "tabulated", "path": "values.txt"})

    @pytest.mark.parametrize("model", [
        {"name": "duffing", "t_final": 0.5, "step": 1e-3},
        {"name": "ishigami", "a": 7.0, "b": 0.1},
    ])
    def test_targets_survive_a_pickle_round_trip(self, model):
        target = make_target(model)
        y = np.random.default_rng(3).uniform(-1.0, 1.0, size=(33, 3))
        assert pickle.loads(pickle.dumps(target))(y).tobytes() == target(y).tobytes()

    def test_evaluate_on_grid_lexicographic_order(self):
        from kronlev.sketch import TargetFunction

        grids = [gauss_legendre_grid(3), gauss_legendre_grid(2)]

        def f(c):
            return c[:, 0] * 10 + c[:, 1]

        values = evaluate_on_grid(TargetFunction("f", f), grids)
        expected = [f(np.array([[a, b]]))[0] for a in grids[0].nodes for b in grids[1].nodes]
        assert np.allclose(values, expected)


class PieceError(ValueError):
    pass


def raise_past_first_row(first, coords):
    """Values of a piece that starts at the grid's first row; any other piece raises."""
    if not np.array_equal(coords[0], first):
        raise PieceError("a later piece")
    return coords[:, 0]


def process_ids(coords):
    return np.full(coords.shape[0], float(os.getpid()))


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)


# 7 * 5 * 5 rows, a count that none of 2 and 3 divides
ODD_GRIDS = [gauss_legendre_grid(7), gauss_legendre_grid(5), gauss_legendre_grid(5)]


def all_grid_points(grids):
    return np.array([[a, b, c] for a in grids[0].nodes for b in grids[1].nodes for c in grids[2].nodes])


class TestEvaluateOnGrid:
    @pytest.mark.parametrize("target", [
        make_target({"name": "duffing", "t_final": 0.25, "step": 1e-3}),
        TargetFunction("ishigami", ishigami),
    ], ids=["duffing", "ishigami"])
    @pytest.mark.parametrize("chunk", [65536, 40])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, target, chunk):
        monkeypatch.setattr(kronlev.experiments, "_EVAL_CHUNK", chunk)
        expected = target(all_grid_points(ODD_GRIDS)).tobytes()
        for workers in (1, 2, 3):
            assert evaluate_on_grid(target, ODD_GRIDS, workers).tobytes() == expected

    @pytest.mark.parametrize("workers,chunk,sizes", [
        (1, 65536, [175]), (2, 65536, [87, 88]), (1, 40, [35] * 5), (7, 40, [25] * 7),
    ])
    def test_rows_split_into_near_equal_contiguous_pieces(self, monkeypatch, workers, chunk, sizes):
        # at least `workers` pieces, none longer than the chunk, in row order
        monkeypatch.setattr(kronlev.experiments, "_EVAL_CHUNK", chunk)
        monkeypatch.setattr(kronlev.experiments, "_CAN_FORK", False)
        pieces = []

        def recording(coords):
            pieces.append(coords.copy())
            return coords[:, 0]

        evaluate_on_grid(TargetFunction("recording", recording), ODD_GRIDS, workers)
        assert [len(piece) for piece in pieces] == sizes
        assert np.array_equal(np.concatenate(pieces), all_grid_points(ODD_GRIDS))

    def test_pieces_run_in_forked_processes(self):
        # two pieces of 87 and 88 rows: the caller evaluates the first, one
        # forked child the second
        if not kronlev.experiments._CAN_FORK:
            pytest.skip("work is shared with forked processes only on Linux")
        threads = threading.active_count()
        pids = evaluate_on_grid(TargetFunction("pid", process_ids), ODD_GRIDS, workers=2)
        assert pids.shape == (175,)
        assert set(pids[:87].tolist()) == {os.getpid()}
        (child,) = set(pids[87:].tolist())
        assert child != os.getpid()
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_a_raising_piece_raises_in_the_caller(self):
        first = all_grid_points(ODD_GRIDS)[0]
        target = TargetFunction("raising", functools.partial(raise_past_first_row, first))
        with pytest.raises(PieceError, match="a later piece"):
            evaluate_on_grid(target, ODD_GRIDS, workers=2)
        assert multiprocessing.active_children() == []

    def test_without_fork_the_pieces_run_here(self, monkeypatch):
        target = make_target({"name": "duffing", "t_final": 0.25, "step": 1e-3})
        expected = evaluate_on_grid(target, ODD_GRIDS).tobytes()
        monkeypatch.setattr(kronlev.experiments, "_CAN_FORK", False)
        forbid_fork(monkeypatch)
        assert evaluate_on_grid(target, ODD_GRIDS, workers=2).tobytes() == expected
        pids = evaluate_on_grid(TargetFunction("pid", process_ids), ODD_GRIDS, workers=2)
        assert set(pids.tolist()) == {float(os.getpid())}


class UnpicklableError(ValueError):
    """An exception whose pickling fails: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class UnrebuildableError(ValueError):
    """An exception that pickles but does not unpickle: its args lack ``detail``."""

    def __init__(self, message, detail):
        super().__init__(message)


def raise_in_a_child(caller, error, item):
    if os.getpid() != caller:
        raise error
    return item


def raise_on_item(bad, error, item):
    if item == bad:
        raise error
    return item


def lock_in_a_child(caller, item):
    """``item``, with a lock, which does not pickle, where this is a forked process."""
    return (item, threading.Lock()) if os.getpid() != caller else (item, None)


def exit_in_a_child(caller, item):
    if os.getpid() != caller:
        os._exit(3)
    return item


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not kronlev.experiments._CAN_FORK, reason="shares are forked only on Linux")
class TestForkedShares:
    def test_results_come_back_in_item_order(self):
        items = list(range(11))
        got = kronlev.experiments._map_in_shares(lambda item: (item, os.getpid()), items, 3)
        assert [item for item, _ in got] == items
        assert {pid for _, pid in got[0::3]} == {os.getpid()}
        assert len({pid for _, pid in got}) == 3
        assert_no_child_is_left()

    def test_a_child_that_exits_without_a_result_raises_with_its_status(self):
        fn = functools.partial(exit_in_a_child, os.getpid())
        with pytest.raises(RuntimeError, match=r"without a result \(wait status 768, exit code 3\)"):
            kronlev.experiments._map_in_shares(fn, list(range(6)), 3)
        assert_no_child_is_left()

    @pytest.mark.parametrize("error", [
        PieceError("on item 3"), UnpicklableError("does not pickle"),
        UnrebuildableError("is not rebuilt", "detail"),
    ], ids=["piece", "unpicklable", "unrebuildable"])
    def test_an_exception_of_a_forked_share_raises_in_the_caller_as_itself(self, error):
        # item 3 is in share 1, a forked process's; the caller computes that share
        # again, so the exception is the object fn raised, whether or not it pickles
        fn = functools.partial(raise_on_item, 3, error)
        with pytest.raises(type(error)) as raised:
            kronlev.experiments._map_in_shares(fn, list(range(4)), 2)
        assert raised.value is error
        assert raised.value.__cause__ is None
        assert_no_child_is_left()

    def test_the_callers_traceback_runs_through_fn(self):
        fn = functools.partial(raise_on_item, 5, PieceError("on item 5"))
        with pytest.raises(PieceError, match="on item 5") as raised:
            kronlev.experiments._map_in_shares(fn, list(range(6)), 3)
        names = [entry.name for entry in raised.traceback]
        assert "_map_in_shares" in names
        assert names[-1] == "raise_on_item"
        assert_no_child_is_left()

    @pytest.mark.parametrize("error", [
        PieceError("in a child"), UnpicklableError("does not pickle"),
        UnrebuildableError("is not rebuilt", "detail"),
    ], ids=["piece", "unpicklable", "unrebuildable"])
    def test_a_share_that_fails_only_in_its_process_is_computed_by_the_caller(self, error):
        fn = functools.partial(raise_in_a_child, os.getpid(), error)
        assert kronlev.experiments._map_in_shares(fn, list(range(7)), 3) == list(range(7))
        assert_no_child_is_left()

    def test_a_share_whose_results_do_not_pickle_is_computed_by_the_caller(self):
        got = kronlev.experiments._map_in_shares(
            functools.partial(lock_in_a_child, os.getpid()), list(range(7)), 3
        )
        assert got == [(item, None) for item in range(7)]
        assert_no_child_is_left()

    def test_a_fork_that_fails_reaps_the_child_already_forked_and_closes_every_pipe(self, monkeypatch):
        fork, pipe, pipes = os.fork, os.pipe, []

        def counted_pipe():
            pipes.append(pipe())
            return pipes[-1]

        def fork_once():
            if len(pipes) > 1:
                raise OSError("fork refused for the second share")
            return fork()

        open_before = set(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "pipe", counted_pipe)
        monkeypatch.setattr(os, "fork", fork_once)
        with pytest.raises(OSError, match="fork refused for the second share"):
            kronlev.experiments._map_in_shares(lambda item: item, list(range(6)), 3)
        monkeypatch.undo()
        assert len(pipes) == 2
        assert_no_child_is_left()
        assert set(os.listdir("/proc/self/fd")) == open_before

    def test_the_caller_raises_its_own_exception_once_the_children_have_exited(self):
        caller = os.getpid()

        def raise_here(item):
            if os.getpid() == caller:
                raise PieceError("in the caller")
            return item

        with pytest.raises(PieceError, match="in the caller"):
            kronlev.experiments._map_in_shares(raise_here, list(range(6)), 3)
        assert_no_child_is_left()

    def test_run_trials_imports_no_executor_and_starts_no_thread(self):
        # a new process: the imports and threads of this one do not count
        script = """
import json, os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
from kronlev.config import load_json, parse_experiment
from kronlev.configs import packaged_config_path
from kronlev.experiments import run_trials
config = load_json(packaged_config_path("duffing-g7"))
config["trials"] = 3
report = run_trials(parse_experiment(config), threads=2)
print(json.dumps([
    sorted(name for name in ("concurrent.futures", "multiprocessing") if name in sys.modules),
    threading.active_count(),
    sum(len(errors) for errors in report.errors.values()),
]))
"""
        result = run_capped([], script=script)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[], 1, 9]


def experiment_config(**overrides):
    config = {
        "dimension": 3,
        "grid": {"grid": "gauss-legendre-uniform", "M": 4},
        "basis": {"kind": "legendre-orthonormal"},
        "index_set": {"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 2,
                      "weights": [1.0, 1.0, 1.0]},
        "model": {"name": "ishigami", "a": 7.0, "b": 0.1},
        "methods": ["uniform", "leverage-lower"],
        "trials": 3,
        "sample_multiplier": 4,
        "seed": 11,
    }
    config.update(overrides)
    return parse_experiment(config)


class TrialError(RuntimeError):
    pass


def observe_trials(monkeypatch, observe):
    """Make each trial of ``run_trials`` report (its error, ``observe()``) as its error.

    What a forked process records in its own memory never reaches the
    caller, so each trial's observation comes back through the report,
    wherever the trial ran.
    """
    def observing(reduction, method, rows):
        error, rank_deficient = trial_error(reduction, method, rows)
        return (error, observe()), rank_deficient

    monkeypatch.setattr(kronlev.experiments, "trial_error", observing)


def split_observations(report):
    """(errors per method, observations in (method, trial) order) of an observed report."""
    errors = {tag: [error for error, _ in report.errors[tag]] for tag in report.methods}
    return errors, [seen for tag in report.methods for _, seen in report.errors[tag]]


def test_without_an_affinity_mask_usable_cpus_are_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert kronlev.experiments._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert kronlev.experiments._usable_cpus() == 1


def worker_processes(threads):
    """How many processes run_trials shares its jobs among at ``threads``."""
    if not kronlev.experiments._CAN_FORK:
        return 1
    return min(threads, len(os.sched_getaffinity(0)))


class TestRunTrials:
    def test_trials_evaluate_no_basis_and_assemble_nothing(self, monkeypatch):
        # trials read the reduction's Q factors, so once the factors exist no
        # basis is evaluated again and no sketch is assembled
        experiment = experiment_config(
            grid={"grid": "gauss-legendre", "M": 4}, methods=list(METHOD_TAGS)
        )
        calls = count_calls(
            monkeypatch, kronlev.grid_basis.eval_basis_matrix, kronlev.sketch.assemble
        )
        report = run_trials(experiment)
        assert calls == []
        assert [len(report.errors[tag]) for tag in METHOD_TAGS] == [3] * 4
        build_factor(gauss_legendre_grid(3), BasisSpec("monomial", 2))  # the count works
        assert calls == ["eval_basis_matrix"]

    def test_each_distinct_dimension_is_factored_once(self, monkeypatch):
        # a factor QRs itself and builds its alias tables when the config is
        # parsed; the samplers and the full-grid reduction read those, and
        # ishigami-g7's three identical dimensions share one factor
        calls = count_calls(monkeypatch, kronlev.factor.factor_qr, kronlev.factor.leverage_table)
        config = load_json(packaged_config_path("ishigami-g7"))
        config["trials"] = 2
        report = run_trials(parse_experiment(config))
        assert report.methods == ("uniform", "tensor-product", "leverage-lower")
        assert sorted(calls) == ["factor_qr", "leverage_table"]

    def test_methods_are_built_and_judged_by_the_parse_alone(self, monkeypatch):
        # the sampler refuses a method J does not admit as the config is read,
        # with the message of solve and sample, and the run builds no sampler
        config = {**gated_configs()["gapped"], "trials": 2}
        with pytest.raises(ConfigError) as refused:
            parse_experiment({**config, "methods": ["uniform", "leverage-lower"]})
        problem = parse_problem(config)
        with pytest.raises(ValueError) as sampler:
            make_method("leverage-lower", problem.factors, problem.index_set)
        assert str(refused.value) == str(sampler.value) == (
            "leverage-lower sampling requires a monotone lower index set"
        )
        experiment = parse_experiment(config)
        assert [method.tag for method in experiment.methods] == config["methods"]
        assert all(method.factors == experiment.problem.factors for method in experiment.methods)
        calls = count_calls(monkeypatch, make_method)
        report = run_trials(experiment)
        assert calls == []
        assert report.methods == tuple(config["methods"])

    @pytest.mark.parametrize("name", ["ishigami-g7", "gapped"])
    def test_one_record_of_j_per_problem(self, name, monkeypatch):
        # a method holds J and reads J alone: the parse walks J only for each
        # leverage-lower method's lower test, which stops at J's first gap, and
        # the run's reduction builds J's one record, walking L once and, for a
        # gapped J, factoring U once.  The factors QR themselves as a config is
        # parsed, so U's QR is counted over the run alone.  A method on an
        # equal J that is another object is refused by the reduction on J
        config = {**gated_configs()[name], "trials": 2}
        calls = count_calls(monkeypatch, _missing_below, np.linalg.qr)
        experiment = parse_experiment(config)
        walks = calls.count("_missing_below")
        calls.clear()
        run_trials(experiment)
        gapped = name == "gapped"
        assert [walks, *calls] == [config["methods"].count("leverage-lower"), "_missing_below"] + ["qr"] * gapped
        problem, mixture = experiment.problem, "orthogonal-columns" if gapped else "leverage-lower"
        reduction = prepare_problem(problem)
        method = problem.method(mixture)
        assert method.index_set is problem.index_set is reduction.subspace.index_set
        rows = sample_indices(method, np.random.default_rng(0), 4 * len(problem.index_set))
        index_set = problem.index_set
        for other in (dataclasses.replace(index_set), copy.copy(index_set), copy.deepcopy(index_set)):
            assert other == index_set and other is not index_set
            with pytest.raises(ValueError, match="not built on the reduction's factors and index set"):
                trial_error(reduction, make_method(mixture, problem.factors, other), rows)
        trial_error(reduction, method, rows)  # the problem's own method takes the same rows

    def test_deterministic_for_fixed_seed(self):
        a = run_trials(experiment_config())
        b = run_trials(experiment_config())
        assert a.errors == b.errors
        assert a.optimal_error == b.optimal_error

    def test_thread_count_does_not_change_results(self):
        a = run_trials(experiment_config(), threads=1)
        b = run_trials(experiment_config(), threads=4)
        assert a.errors == b.errors

    def test_errors_dominated_by_optimal(self):
        report = run_trials(experiment_config(trials=5))
        for tag in report.methods:
            assert all(err >= report.optimal_error - 1e-10 for err in report.errors[tag])

    def test_sample_count_multiplier(self):
        report = run_trials(experiment_config())
        assert report.sample_count == 4 * report.subspace_size

    def test_explicit_sample_count(self):
        cfg = experiment_config(sample_count=37, sample_multiplier=None)
        assert run_trials(cfg).sample_count == 37

    def test_worker_threads_are_capped_at_the_core_count(self, monkeypatch):
        # each strided share of the 60 jobs runs in one process, the first in
        # this one, and no more processes than usable CPUs take part
        config = load_json(packaged_config_path("ishigami-g7"))
        config["trials"] = 20
        serial = run_trials(parse_experiment(config))
        observe_trials(monkeypatch, os.getpid)
        errors, pids = split_observations(run_trials(parse_experiment(config), threads=16))
        workers = worker_processes(16)
        assert len(pids) == 60
        assert [set(pids[share::workers]) for share in range(workers)] == [
            {pid} for pid in pids[:workers]
        ]
        assert pids[0] == os.getpid()
        assert len(set(pids)) <= len(os.sched_getaffinity(0))
        assert errors == serial.errors

    def test_two_workers_run_the_trials_in_the_caller_and_one_forked_child(self, monkeypatch):
        if not kronlev.experiments._CAN_FORK:
            pytest.skip("work is shared with forked processes only on Linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        serial = run_trials(experiment_config(trials=7))
        observe_trials(monkeypatch, os.getpid)
        threads = threading.active_count()
        errors, pids = split_observations(run_trials(experiment_config(trials=7), threads=2))
        # jobs in (method, trial) order, dealt alternately to the two processes
        assert set(pids[0::2]) == {os.getpid()}
        (child,) = set(pids[1::2])
        assert child != os.getpid()
        assert errors == serial.errors
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_a_trial_that_fails_only_in_a_child_is_run_by_the_caller(self, monkeypatch):
        # the child's share exits 1 and the caller runs its trials again, under
        # the same seeds and BLAS pin, so the report is the serial one
        if not kronlev.experiments._CAN_FORK:
            pytest.skip("work is shared with forked processes only on Linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        serial = run_trials(experiment_config())
        caller = os.getpid()

        def raising_in_a_child(reduction, method, rows):
            if os.getpid() != caller:
                raise TrialError("a trial in a child")
            return trial_error(reduction, method, rows)

        monkeypatch.setattr(kronlev.experiments, "trial_error", raising_in_a_child)
        assert run_trials(experiment_config(), threads=2) == serial
        assert multiprocessing.active_children() == []
        assert_no_child_is_left()

    def test_a_trial_that_raises_raises_in_the_caller_as_itself(self, monkeypatch):
        # the job that raises is the second, (uniform, trial 1), which is in the
        # forked share; it is known by its rows, which its seed stream fixes
        if not kronlev.experiments._CAN_FORK:
            pytest.skip("work is shared with forked processes only on Linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        seen = []

        def recording(reduction, method, rows):
            seen.append(rows)
            return trial_error(reduction, method, rows)

        monkeypatch.setattr(kronlev.experiments, "trial_error", recording)
        run_trials(experiment_config())
        error = TrialError("the second job")

        def raising_on_the_second_job(reduction, method, rows):
            if np.array_equal(rows, seen[1]):
                raise error
            return trial_error(reduction, method, rows)

        monkeypatch.setattr(kronlev.experiments, "trial_error", raising_on_the_second_job)
        with pytest.raises(TrialError) as raised:
            run_trials(experiment_config(), threads=2)
        assert raised.value is error
        assert "raising_on_the_second_job" in [entry.name for entry in raised.traceback]
        assert_no_child_is_left()

    def test_reports_are_byte_identical_for_one_two_and_three_workers(self, monkeypatch, tmp_path):
        # 7 trials per method, which neither 2 nor 3 divides, so the strided
        # shares differ in length and split each method's trials unevenly
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        outputs = []
        for threads in (1, 2, 3):
            report = run_trials(experiment_config(trials=7), threads=threads)
            write_report_csv(report, tmp_path / "report.csv")
            emit_cdf(report, tmp_path / "cdf.csv")
            outputs.append(((tmp_path / "report.csv").read_bytes(), (tmp_path / "cdf.csv").read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_one_usable_cpu_forks_nothing_and_runs_the_trials_here(self, monkeypatch):
        # an affinity mask of one CPU on a machine with more: --threads 2
        # evaluates the Duffing grid and runs the trials in this thread
        config = load_json(packaged_config_path("duffing-g7"))
        config.update(trials=2, grid={"grid": "gauss-legendre-uniform", "M": 8})
        config["model"]["step"] = 0.01
        serial = run_trials(parse_experiment(config))
        seen = []

        def recording(reduction, method, rows):
            seen.append(threading.get_ident())
            return trial_error(reduction, method, rows)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(kronlev.experiments, "trial_error", recording)
        forbid_fork(monkeypatch)
        pinned = run_trials(parse_experiment(config), threads=2)
        assert set(seen) == {threading.get_ident()} and len(seen) == 6
        assert pinned.errors == serial.errors
        assert pinned.optimal_error == serial.optimal_error

    def test_adding_a_method_does_not_perturb_existing_draws(self):
        a = run_trials(experiment_config(methods=["uniform"]))
        b = run_trials(experiment_config(methods=["uniform", "tensor-product"]))
        assert a.errors["uniform"] == b.errors["uniform"]

    def test_square_factor_makes_tensor_product_uniform(self):
        # M_d = G + 1 gives square per-dimension factors: the tensor-product
        # law degenerates to uniform, so the two error samples should look
        # statistically identical
        cfg = experiment_config(
            grid={"grid": "gauss-legendre-uniform", "M": 3},
            methods=["uniform", "tensor-product"],
            trials=100,
        )
        report = run_trials(cfg)
        stat = ks_2samp(report.errors["uniform"], report.errors["tensor-product"])
        assert stat.pvalue > 0.01


def fail_every_trial(monkeypatch, openblas):
    """Make every trial of ``run_trials`` raise; a list of the BLAS counts each saw here."""
    seen = []

    def failing(reduction, method, rows):
        seen.append(openblas.get_threads())
        raise RuntimeError("trial failed")

    monkeypatch.setattr(kronlev.experiments, "trial_error", failing)
    return seen


class TestOneBlasThread:
    @pytest.fixture(autouse=True)
    def two_blas_threads(self, openblas):
        openblas.set_threads(2)
        assert openblas.get_threads() == 2

    def test_trials_run_on_one_thread_and_the_counts_are_restored(self, openblas, monkeypatch):
        # in this process and in the forked one alike
        observe_trials(monkeypatch, lambda: (os.getpid(), openblas.get_threads()))
        _, seen = split_observations(run_trials(experiment_config(), threads=2))
        assert [count for _, count in seen] == [1] * 6
        assert len({pid for pid, _ in seen}) == worker_processes(2)
        assert openblas.get_threads() == 2

    def test_counts_are_restored_when_a_trial_raises(self, openblas, monkeypatch):
        seen = fail_every_trial(monkeypatch, openblas)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_trials(experiment_config(), threads=2)
        assert seen and seen[0] == 1
        assert openblas.get_threads() == 2

    @pytest.mark.parametrize("name", ["duffing-g7", "gapped"])
    def test_the_count_is_set_once_around_set_up_and_trials(self, openblas, monkeypatch, name):
        # any call that sets the count after a fork restarts OpenBLAS's
        # pool, so none comes between the forked grid evaluation and the
        # end of the trials.  The gapped config's reduction and
        # orthogonal-columns method hold a non-lower J's record
        puts = []
        found = openblas._replace(set_threads=lambda count: puts.append(count) or openblas.set_threads(count))
        monkeypatch.setattr(kronlev.factor, "_openblas", lambda: found)
        if name == "gapped":
            config = dict(gated_configs()["gapped"], trials=6, methods=["orthogonal-columns"])
        else:
            config = load_json(packaged_config_path("duffing-g7"))
            config.update(trials=2, grid={"grid": "gauss-legendre-uniform", "M": 8})
            config["model"]["step"] = 0.01
        # a forked process's sets land in its own copy of the list, which
        # each trial reports
        observe_trials(monkeypatch, lambda: len(puts))
        _, seen = split_observations(run_trials(parse_experiment(config), threads=2))
        assert seen == [1] * 6
        assert puts == [1, 2]
        assert openblas.get_threads() == 2

    def test_without_controls_the_trials_run_unpinned(self, openblas, monkeypatch, tmp_path):
        # with no OpenBLAS found nothing sets the count, and x comes from
        # numpy's Cholesky; the report still does not move with the worker count
        monkeypatch.setattr(kronlev.factor, "_openblas", lambda: None)
        observe_trials(monkeypatch, lambda: (os.getpid(), openblas.get_threads()))
        reports = []
        for threads in (1, 2, 3):
            report = run_trials(experiment_config(), threads=threads)
            errors, seen = split_observations(report)
            assert [count for _, count in seen] == [2] * 6
            assert len({pid for pid, _ in seen}) == worker_processes(threads)
            path = tmp_path / f"report-{threads}.csv"
            write_report_csv(dataclasses.replace(report, errors=errors), path)
            reports.append(path.read_bytes())
        assert reports[1:] == reports[:1] * 2


@pytest.fixture(scope="module")
def cached_grid_values():
    """Target values per (model, grid); the packaged configs share one Duffing grid."""
    cache = {}

    def values(problem):
        key = json.dumps([problem.model, [g.nodes.tolist() for g in problem.grids]], sort_keys=True)
        if key not in cache:
            cache[key] = evaluate_on_grid(make_target(problem.model), problem.grids)
        return cache[key]

    return values


def monomial_order_14(_):
    index_set = build_index_set(
        IndexSetSpec(dimension=2, family="wlp-ball", order=14, weights=(1.0, 1.0))
    )
    factors = [build_factor(gauss_legendre_grid(40), BasisSpec("monomial", 15))] * 2
    target = TargetFunction("smooth", lambda c: np.exp(c[:, 0]) * np.cos(2.0 * c[:, 1]))
    return index_set, factors, evaluate_on_grid(target, [f.grid for f in factors])


def explicit_non_lower(cached_grid_values):
    indices = [[1, 1, 1], [3, 1, 1], [1, 2, 2], [2, 1, 3], [1, 1, 2]]
    cfg = experiment_config(
        index_set={"dimension": 3, "family": "explicit-list", "indices": indices},
        methods=["uniform"],
    )
    problem = cfg.problem
    return problem.index_set, problem.factors, cached_grid_values(problem)


def packaged(name):
    def case(cached_grid_values):
        problem = parse_problem(load_json(packaged_config_path(name)))
        return problem.index_set, problem.factors, cached_grid_values(problem)

    return case


OPTIMAL_CASES = [
    pytest.param(packaged(name), 1e-12, id=name, marks=pytest.mark.slow)
    for name in list_packaged_configs()
] + [
    pytest.param(explicit_non_lower, 1e-12, id="explicit-non-lower"),
    pytest.param(monomial_order_14, 1e-6, id="monomial-order-14"),
]


@pytest.mark.parametrize("case,tolerance", OPTIMAL_CASES)
def test_optimal_matches_dense_oracle(case, tolerance, cached_grid_values):
    index_set, factors, b_values = case(cached_grid_values)
    dense = solve_full(build_full(index_set, factors, b_values=b_values)).relative_error
    reduced = reduce_full_grid(index_set, factors, b_values).optimal_error
    assert reduced == pytest.approx(dense, rel=tolerance)


@pytest.fixture(scope="module")
def report():
    return run_trials(experiment_config(trials=4))


class TestReports:

    def test_cdf_rows_and_levels(self, report, tmp_path):
        path = tmp_path / "cdf.csv"
        emit_cdf(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,sorted_error,cdf_level"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 4 * len(report.methods)
        for tag in report.methods:
            errs = [float(row[1]) for row in body if row[0] == tag]
            levels = [float(row[2]) for row in body if row[0] == tag]
            assert errs == sorted(errs)
            assert levels == [0.25, 0.5, 0.75, 1.0]
            assert all(0 < lv <= 1 for lv in levels)

    def test_report_csv_round_trips_floats(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,trial,relative_error,optimal_relative_error,N,K"
        first = lines[1].split(",")
        assert float(first[2]) == report.errors[report.methods[0]][0]

    @pytest.mark.parametrize("writer", [write_report_csv, emit_cdf])
    def test_numpy_numbers_write_the_bytes_of_python_numbers(self, report, writer, tmp_path):
        # TrialReport is public, so a caller may fill it with numpy scalars
        numpy_report = dataclasses.replace(
            report,
            errors={tag: [np.float64(err) for err in errs] for tag, errs in report.errors.items()},
            optimal_error=np.float64(report.optimal_error),
            subspace_size=np.int64(report.subspace_size),
            sample_count=np.int64(report.sample_count),
        )
        writer(report, tmp_path / "python.csv")
        writer(numpy_report, tmp_path / "numpy.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()

    def test_svg_written(self, report, tmp_path):
        path = tmp_path / "cdf.svg"
        emit_cdf_svg(report, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == len(report.methods)
        assert "optimal" in text

    @pytest.mark.parametrize("writer", [emit_cdf, emit_cdf_svg])
    def test_cdf_writers_refuse_a_report_of_no_trials(self, report, writer, tmp_path):
        empty = dataclasses.replace(report, trials=0, errors={tag: [] for tag in report.methods})
        with pytest.raises(ValueError, match="^report holds no trials$"):
            writer(empty, tmp_path / "cdf")
        assert not (tmp_path / "cdf").exists()


@pytest.mark.slow
class TestIshigamiOptimalValues:
    def test_g7_uniform_weight_convention(self):
        # frozen from an independent dense Kronecker construction
        cfg = experiment_config(
            grid={"grid": "gauss-legendre-uniform", "M": 20},
            index_set={"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 7,
                       "weights": [1.0, 1.0, 1.0]},
            trials=1,
            methods=["leverage-lower"],
        )
        report = run_trials(cfg)
        assert report.optimal_error == pytest.approx(7.0382e-2, rel=1e-3)

    def test_g7_quadrature_weight_convention(self):
        cfg = experiment_config(
            grid={"grid": "gauss-legendre", "M": 20},
            index_set={"dimension": 3, "family": "wlp-ball", "p": 1.0, "order": 7,
                       "weights": [1.0, 1.0, 1.0]},
            trials=1,
            methods=["leverage-lower"],
        )
        report = run_trials(cfg)
        assert report.optimal_error == pytest.approx(6.7769e-2, rel=1e-3)
