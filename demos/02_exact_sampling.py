"""Exact leverage-score sampling on a small grid, checked against brute force.

Builds a 5x5 weighted grid with monomial factors and the total-degree
index set J_1(2), then compares the structured sampler's point masses with
the leverage scores of the dense assembled matrix.  The two agree to
machine precision: the structured method samples the exact leverage
distribution while only ever touching one-dimensional objects.
"""

import itertools

import numpy as np

from kronlev import (
    BasisSpec,
    IndexSetSpec,
    TargetFunction,
    build_factor,
    build_full,
    build_index_set,
    exact_leverage,
    gauss_legendre_grid,
    make_method,
)
from kronlev.oracle import flat_row_index
from kronlev.sampler import point_mass_many, sample_indices

rng = np.random.default_rng(42)

index_set = build_index_set(
    IndexSetSpec(dimension=2, family="wlp-ball", order=2, p=1.0, weights=(1.0, 1.0))
)
factors = [build_factor(gauss_legendre_grid(5), BasisSpec("monomial", 3))] * 2
print(f"N = {len(index_set)} columns out of the full 3x3 = 9 Kronecker columns")

# --- the structured sampler ---------------------------------------------------
method = make_method("leverage-lower", factors, index_set)
point = sample_indices(method, rng, 1)  # one row of 0-based node indices
print("one draw:", tuple(int(i) + 1 for i in point[0]),
      "mass", point_mass_many(method, point)[0])

# --- dense ground truth ---------------------------------------------------------
zero = TargetFunction("zero", lambda c: np.zeros(c.shape[0]))
system = build_full(index_set, factors, zero)
scores = exact_leverage(system)
grid = np.array(list(itertools.product(range(5), range(5))))
masses = point_mass_many(method, grid)
print("max |structured mass - dense leverage score| =",
      float(np.max(np.abs(masses - scores))))

# --- empirical law --------------------------------------------------------------
n_draws = 200_000
rows = flat_row_index(sample_indices(method, rng, n_draws), (5, 5))
freq = np.bincount(rows, minlength=25) / n_draws
tv = 0.5 * float(np.sum(np.abs(freq - scores)))
print(f"total-variation distance over {n_draws} draws: {tv:.4f}")

# --- degeneration on a full box --------------------------------------------------
# When the index set is the whole box, the leverage distribution factorizes and
# the two-stage sampler coincides with per-dimension tensor-product sampling.
box = build_index_set(
    IndexSetSpec(dimension=2, family="explicit-list",
                 indices=tuple(itertools.product(range(1, 4), repeat=2)))
)
lower_on_box = make_method("leverage-lower", factors, box)
tensor = make_method("tensor-product", factors)
gap = np.max(np.abs(point_mass_many(lower_on_box, grid) - point_mass_many(tensor, grid)))
print("full box: |mixture - product| =", float(gap))
