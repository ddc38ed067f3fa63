"""Helpers shared by the test modules.

It imports numpy and kronlev alone, never a test extra (scipy, hypothesis)
and never a ``test_*`` module, so a test file that takes its helpers from
here can be collected where pytest and numpy are all that is installed.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import kronlev
from kronlev.factor import _SEMI_NORMAL_RTOL, build_factor
from kronlev.grid_basis import BasisSpec, Grid1D, gauss_legendre_grid, gauss_legendre_uniform_grid
from kronlev.indexset import IndexSetSpec, MultiIndexSet, build_index_set
from kronlev.sketch import TargetFunction


def python_env():
    """This process's environment, where a new Python process imports this kronlev."""
    src = str(Path(kronlev.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def readme_python_block():
    """The README's one python block, as printed."""
    [block] = re.findall(r"```python\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S)
    return block


def run_capped(argv, cwd=None, script="from kronlev.cli import main; sys.exit(main())"):
    """A new Python process that runs ``script`` under a 2 GiB address-space cap, on one BLAS thread.

    The tests' one launcher of a new interpreter, for checks of what only a
    fresh process shows: its memory cap and peak, and its imports and threads.
    ``script`` sees ``argv`` as ``sys.argv[1:]``; by default it is ``kronlev``
    itself.  The cap keeps a run that walks or allocates past its bound from
    taking the machine's memory, and one BLAS thread keeps OpenBLAS's thread
    stacks well under it.  The run must end within 60 s.
    """
    capped = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); " + script
    return subprocess.run([sys.executable, "-c", capped, *argv], cwd=cwd,
                          env=dict(python_env(), OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60)


def count_calls(monkeypatch, *originals):
    """A list that gets a function's name at each call.

    Calls are counted through every kronlev binding of the function and its
    own module's, so ``np.linalg.qr`` is counted where kronlev calls it.
    """
    calls = []
    for original in originals:
        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "kronlev" or name.startswith("kronlev.") or name == original.__module__:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return calls


def total_degree(dimension, order):
    return build_index_set(
        IndexSetSpec(dimension=dimension, family="wlp-ball", order=order,
                     weights=(1.0,) * dimension)
    )


def monomial_factors(dimension, m, n):
    return [build_factor(gauss_legendre_grid(m), BasisSpec("monomial", n))] * dimension


def legendre_factors(dimension, m, n, rule=gauss_legendre_grid):
    return [build_factor(rule(m), BasisSpec("legendre-orthonormal", n))] * dimension


def zero_weight_factors():
    """Two 3-column Legendre factors on 6 Gauss-Legendre nodes and one more node, of weight 0, whose Q row is 0."""
    base = gauss_legendre_grid(6)
    grid = Grid1D(np.r_[base.nodes, 0.999], np.r_[base.weights, 0.0])
    return [build_factor(grid, BasisSpec("legendre-orthonormal", 3))] * 2


def other_problem(case):
    """(drawn_on, factors, index_set, reduced_on): total degree 2 over 12-node factors (N = 6), and another
    problem: a lower set of the same size on the same factors, or the same set on the uniform-weight grid."""
    drawn_on, factors = total_degree(2, 2), legendre_factors(2, 12, 6)
    if case == "other-index-set":
        return drawn_on, factors, MultiIndexSet(2, tuple((a, 1) for a in range(1, 7))), factors
    return drawn_on, factors, drawn_on, legendre_factors(2, 12, 6, gauss_legendre_uniform_grid)


SMOOTH = TargetFunction("smooth", lambda c: np.exp(c[:, 0]) * np.cos(2.0 * c[:, 1]))


def random_systems(k, n):
    rng = np.random.default_rng(k)
    return [
        (rng.standard_normal((k, n)) * rng.uniform(0.5, 2.0, n), rng.standard_normal(k))
        for _ in range(5)
    ]


def scaled_orthogonal_columns(ratio, k=30, n=8):
    """A k x n system with orthogonal columns of norms 1 down to ``ratio``.

    Its Gram is diagonal, so the Cholesky diagonal ratio is ``ratio`` itself.
    """
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((k, n)))[0]
    return q * np.geomspace(1.0, ratio, n), rng.standard_normal(k)


# (a, b) systems that solve's fallback takes: one past the semi-normal bound, and one of fewer rows than columns
FALLBACK_SYSTEMS = {
    "past-the-bound": lambda: scaled_orthogonal_columns(0.9 * _SEMI_NORMAL_RTOL),
    "fewer-rows": lambda: (np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]]), np.array([1.0, 2.0])),
}


def cholesky_system(n, seed):
    """(factor, z): a random well-conditioned Gram L L^T as dpotrf "L" leaves it, and an rhs.

    In C order the factor holds L^T in its upper triangle; its strict lower
    triangle, which dpotrs must not read, holds the Gram's entries.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4 * n, n))
    gram = a.T @ a
    return np.triu(np.linalg.cholesky(gram).T) + np.tril(gram, -1), rng.standard_normal(n)
