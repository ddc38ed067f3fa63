"""Helpers shared by the test modules.

It imports numpy and kronlev alone, never a test extra (scipy, hypothesis)
and never a ``test_*`` module, so a test file that takes its helpers from
here can be collected where pytest and numpy are all that is installed.
"""

import sys

import numpy as np

from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, build_index_set


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
