"""Multi-index sets: families, sizes, bounding boxes, monotonicity.

The column subsets handled by this package are selected by multi-index
sets.  This script walks through the built-in families and the
monotone-lower property that the fast sampling algorithm relies on.
"""

from kronlev import (
    IndexSetSpec,
    MultiIndexSet,
    build_index_set,
    canonicalize_to_lower,
    is_monotone_lower,
)

# --- total-degree balls -----------------------------------------------------
# J_1(G) in D dimensions holds all indices with sum(alpha - 1) <= G; its size
# is binomial(G + D, D).
for order in (3, 7, 9):
    spec = IndexSetSpec(dimension=3, family="wlp-ball", order=order, p=1.0,
                        weights=(1.0, 1.0, 1.0))
    J = build_index_set(spec)
    print(f"total degree G={order}: N={len(J):4d}, bounding box {J.bounding_box}, "
          f"monotone lower: {is_monotone_lower(J)}")

# --- hyperbolic crosses ------------------------------------------------------
# Much sparser: prod(alpha) <= G + 1 prunes high mixed interactions.
for order in (15, 18):
    spec = IndexSetSpec(dimension=3, family="hyperbolic-cross", order=order,
                        weights=(1.0, 1.0, 1.0))
    J = build_index_set(spec)
    print(f"hyperbolic cross G={order}: N={len(J):4d}, bounding box {J.bounding_box}")

# --- anisotropy via weights ---------------------------------------------------
# Smaller weight => dimension admits smaller indices only.
spec = IndexSetSpec(dimension=2, family="wlp-ball", order=6, p=1.0, weights=(0.5, 1.0))
J = build_index_set(spec)
print(f"weighted ball w=(0.5, 1): N={len(J)}, box {J.bounding_box} "
      "(dimension 1 is constrained harder)")

# --- ordering ----------------------------------------------------------------
# The set carries a deterministic graded-lexicographic enumeration, which is
# the column order of the design matrix everywhere downstream.
J = build_index_set(IndexSetSpec(dimension=2, family="wlp-ball", order=2, p=1.0,
                                 weights=(1.0, 1.0)))
print("graded-lex order of J_1(2), D=2:", list(J.indices))

# --- repairing a non-lower set ------------------------------------------------
# This staircase set is not monotone lower, but relabeling values within each
# dimension (most frequent value first) repairs it; the returned permutations
# certify the repair and can be inverted exactly.
staircase = MultiIndexSet(2, (
    (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 1), (2, 4),
    (3, 1), (3, 2), (3, 3), (3, 4),
))
print("staircase monotone lower?", is_monotone_lower(staircase))
perms, repaired = canonicalize_to_lower(staircase)
print("after dimensionwise relabeling:", is_monotone_lower(repaired),
      "using perms", perms)

# Sets with crossing "diagonals" cannot be repaired by any relabeling; the
# heuristic reports that by returning None.
diagonal = MultiIndexSet(2, ((1, 1), (2, 2)))
print("diagonal set repairable?", canonicalize_to_lower(diagonal) is not None)
