"""Helpers shared by the test modules.

It imports numpy and kronlev alone, never a test extra (scipy, hypothesis)
and never a ``test_*`` module, so a test file that takes its helpers from
here can be collected where pytest and numpy are all that is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kronlev
from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set


def python_env():
    """This process's environment, where a new Python process imports this kronlev."""
    src = str(Path(kronlev.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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


def random_systems(k, n):
    rng = np.random.default_rng(k)
    return [
        (rng.standard_normal((k, n)) * rng.uniform(0.5, 2.0, n), rng.standard_normal(k))
        for _ in range(5)
    ]


def cholesky_system(n, seed):
    """(factor, z): a random well-conditioned Gram L L^T as dpotrf "L" leaves it, and an rhs.

    In C order the factor holds L^T in its upper triangle; its strict lower
    triangle, which dpotrs must not read, holds the Gram's entries.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4 * n, n))
    gram = a.T @ a
    return np.triu(np.linalg.cholesky(gram).T) + np.tril(gram, -1), rng.standard_normal(n)
