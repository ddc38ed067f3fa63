"""Multi-index sets selecting column subsets of Kronecker product matrices.

A multi-index set is a finite collection of D-dimensional indices with all
entries >= 1.  The sets built here (weighted l^p balls centered at the
all-ones index, hyperbolic crosses, explicit lists) identify which columns
of a D-fold Kronecker product matrix enter a least squares problem.  The
fast sampling algorithms downstream require the set to be *monotone lower*:
closed under componentwise decrease toward the all-ones index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

__all__ = [
    "IndexSetSpec",
    "MultiIndexSet",
    "build_index_set",
    "is_monotone_lower",
    "canonicalize_to_lower",
]

FAMILIES = ("wlp-ball", "hyperbolic-cross", "explicit-list")
# Largest ball or cross that is walked, and largest lower closure of J: a J of
# 10^6 members has an N x N Gram of 8 TB, and an L of 10^6 members a table of
# 8 MB per grid node, so a larger one is refused instead of enumerated
# without end.
_MAX_MEMBERS = 10**6


@dataclass(frozen=True)
class IndexSetSpec:
    """Parameters identifying a multi-index set family.

    ``order`` is the ball radius G >= 0, ``p`` the exponent in [0, inf],
    and ``weights`` a vector in (0,1]^D with max weight equal to 1.
    For ``family="explicit-list"`` the indices are given directly and the
    other shape parameters are ignored.
    """

    dimension: int
    family: str
    order: float = 0.0
    p: float = 1.0
    weights: tuple[float, ...] = ()
    indices: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "explicit-list":
            return  # its members are checked by the MultiIndexSet built from them
        if not math.isfinite(self.order) or self.order < 0:
            raise ValueError("order must be finite and >= 0")
        if math.isnan(self.p) or self.p < 0:
            raise ValueError("p must be in {0} U (0, inf) U {inf}")
        weights = self.weights if self.weights else (1.0,) * self.dimension
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))
        if len(self.weights) != self.dimension:
            raise ValueError("weights length must equal dimension")
        if any(not (0.0 < w <= 1.0) or not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must lie in (0, 1]")
        if max(self.weights) != 1.0:
            raise ValueError("at least one weight must equal 1")


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered finite set of distinct multi-indices with its bounding box.

    The ordering is graded-lexicographic: sorted by sum(alpha - 1) with
    lexicographic tie-breaking (dimension 1 most significant).  This makes
    the column order of the associated design matrix deterministic.
    """

    dimension: int
    indices: tuple[tuple[int, ...], ...]
    bounding_box: tuple[int, ...] = field(init=False)
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.indices:
            raise ValueError("multi-index set must be nonempty")
        seen = set()
        for alpha in self.indices:
            if len(alpha) != self.dimension or any(a < 1 for a in alpha):
                raise ValueError(f"bad multi-index {alpha}: need {self.dimension} entries, all >= 1")
            if alpha in seen:
                raise ValueError(f"duplicate index {alpha}")
            seen.add(alpha)
        box = tuple(max(alpha[d] for alpha in self.indices) for d in range(self.dimension))
        object.__setattr__(self, "bounding_box", box)
        object.__setattr__(self, "_members", frozenset(seen))

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, alpha):
        return tuple(alpha) in self._members


def _check_fit(index_set: MultiIndexSet, columns: Sequence[int]) -> None:
    """Raise ValueError unless J has one entry per factor and bounding_box[d] <= columns[d] = N_d."""
    if index_set.dimension != len(columns):
        raise ValueError("index set dimension does not match the number of factors")
    for d, (n_d, count) in enumerate(zip(index_set.bounding_box, columns)):
        if n_d > count:
            raise ValueError(f"index set needs {n_d} columns in dimension {d + 1}, factor has {count}")


def _graded_lex_sorted(indices) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(indices, key=lambda a: (sum(a) - len(a), a)))


def _lower_walk(caps, member) -> list[tuple[int, ...]]:
    """Indices alpha <= caps of a downward-closed set, walked depth first from all-ones.

    Entries rise only from the dimension raised last onward, so each index is
    reached once; a non-member ends its branch, as nothing above it is a member.
    A set of more than ``_MAX_MEMBERS`` indices raises ValueError.
    """
    out, stack = [], [((1,) * len(caps), 0)]
    while stack:
        alpha, first = stack.pop()
        out.append(alpha)
        if len(out) > _MAX_MEMBERS:
            raise ValueError(f"the set has more than {_MAX_MEMBERS} members; it is not enumerated")
        for d in range(first, len(caps)):
            beta = alpha[:d] + (alpha[d] + 1,) + alpha[d + 1:]
            if beta[d] <= caps[d] and member(beta):
                stack.append((beta, d))
    return out


def _wlp_ball(order: float, p: float, weights):
    """Caps and membership test of the weighted l^p ball of radius ``order``."""
    G = Fraction(order)
    inverse = [1 / Fraction(w) for w in weights]
    # ||alpha - 1||_0 counts entries != 1, which does not bound the entries
    # themselves: the ball is infinite once G >= 1, and all-ones below that.
    if p == 0 and G >= 1:
        raise ValueError("the 1-centered l^0 ball is infinite for order >= 1")
    # Entrywise bound (alpha_d - 1)/w_d <= G holds for every p (caps of 1 for
    # the l^0 ball); exact rational caps keep boundary indices from
    # floating-point loss.
    caps = [int(G / q) + 1 for q in inverse]
    if p == 1:
        # sum (a_d - 1) / w_d <= G, scaled by the lcm of the exact denominators
        # of G and the 1/w_d so that the test runs in integers
        scale = math.lcm(G.denominator, *(q.denominator for q in inverse))
        costs, budget = [int(q * scale) for q in inverse], int(G * scale)
        return caps, lambda alpha: sum((a - 1) * c for a, c in zip(alpha, costs)) <= budget
    if p == 0 or math.isinf(p):
        # The entrywise cap is exactly the membership test.
        return caps, lambda alpha: True
    Gp = float(order) ** p
    return caps, lambda alpha: sum(((a - 1) / w) ** p for a, w in zip(alpha, weights)) <= Gp


def _hyperbolic_cross(order: float, weights):
    """Caps and membership test of the weighted hyperbolic cross of order ``order``."""
    # ||log alpha||_{w,1} <= log(G+1), i.e. prod alpha_d^(1/w_d) <= G+1.
    bound = order + 1.0
    caps = [int(math.floor(bound ** w)) for w in weights]
    if all(w == 1.0 for w in weights):
        # int-vs-float comparison is exact in Python
        return caps, lambda alpha: math.prod(alpha) <= bound
    log_bound = math.log(bound)
    return caps, lambda alpha: sum(math.log(a) / w for a, w in zip(alpha, weights)) <= log_bound


def _caps_and_test(spec: IndexSetSpec):
    """The caps and membership test of a ball or cross.

    Its members are the indices alpha <= caps that pass the test, and the
    test passes below any index it passes.
    """
    if spec.family == "wlp-ball":
        return _wlp_ball(spec.order, spec.p, spec.weights)
    return _hyperbolic_cross(spec.order, spec.weights)


def _bounding_box(spec: IndexSetSpec) -> tuple[int, ...]:
    """The bounding box of a ball's or cross's set, read without walking it.

    The set is downward closed, so its largest entry in dimension d is that
    of its largest axis index (1, ..., a, ..., 1): the first a down from
    cap_d that passes the test, about D tests in all.  The caps alone are
    not enough, as a float test (general p, weighted crosses) can fall an
    ulp short of a cap.
    """
    caps, member = _caps_and_test(spec)
    ones = (1,) * len(caps)
    return tuple(next((a for a in range(cap, 1, -1) if member(ones[:d] + (a,) + ones[d + 1:])), 1)
                 for d, cap in enumerate(caps))


def build_index_set(spec: IndexSetSpec) -> MultiIndexSet:
    """Construct the multi-index set described by ``spec``.

    Both families are downward closed, so one depth-first walk from the
    all-ones index enumerates them: N members cost at most N*D membership
    tests, where a scan of the bounding box costs one per box index.
    Membership comparisons are exact (rational arithmetic) for the common
    cases p in {1, inf} and for unit-weight hyperbolic crosses, so boundary
    indices are never lost to floating-point roundoff.  A ball or cross of
    more than ``_MAX_MEMBERS`` members raises ValueError.
    """
    members = spec.indices if spec.family == "explicit-list" else _lower_walk(*_caps_and_test(spec))
    return MultiIndexSet(spec.dimension, _graded_lex_sorted(members))


def _missing_below(index_set: MultiIndexSet) -> Iterator[tuple[int, ...]]:
    """Yield, once each, the indices below a member of J that J lacks.

    Walks down from J's members, in J's order, one decrement alpha - e_d at
    a time, and on from each index it yields, so J and the yielded indices
    make up the lower closure L after O(|L| D) steps.  J is lower iff nothing
    is yielded, and the first yield comes from the first member with a gap.
    An L of more than ``_MAX_MEMBERS`` members raises ValueError once the
    walk passes the bound.
    """
    members, missing = index_set._members, set()
    stack = list(reversed(index_set.indices))
    while stack:
        alpha = stack.pop()
        for d, a in enumerate(alpha):
            if a > 1:
                beta = alpha[:d] + (a - 1,) + alpha[d + 1:]
                if beta not in members and beta not in missing:
                    if len(members) + len(missing) >= _MAX_MEMBERS:
                        raise ValueError(
                            f"the lower closure of J has more than {_MAX_MEMBERS} members; it is not walked"
                        )
                    missing.add(beta)
                    stack.append(beta)
                    yield beta


def is_monotone_lower(index_set: MultiIndexSet) -> bool:
    """True iff the set is closed under componentwise decrease toward all-ones.

    Checks only the immediate lower neighbours alpha - e_d, stopping at the
    first gap; this is equivalent to the full definition (any beta <= alpha
    is reachable by a chain of single-entry decrements staying inside the set).
    """
    return next(_missing_below(index_set), None) is None


def apply_permutation(perms: Sequence[Sequence[int]], index_set: MultiIndexSet) -> MultiIndexSet:
    """Relabel entries dimensionwise: alpha_d -> perms[d][alpha_d - 1]."""
    mapped = [tuple(perms[d][a - 1] for d, a in enumerate(alpha)) for alpha in index_set.indices]
    return MultiIndexSet(index_set.dimension, _graded_lex_sorted(mapped))


def canonicalize_to_lower(
    index_set: MultiIndexSet,
) -> Optional[tuple[tuple[tuple[int, ...], ...], MultiIndexSet]]:
    """Search for dimensionwise permutations making the set monotone lower.

    Heuristic: in each dimension, relabel values in decreasing order of how
    often they occur in the set (ties broken by the original value), then
    verify the relabeled set.  Returns ``(perms, permuted_set)`` where
    ``perms[d][old_value - 1]`` is the new value, or ``None`` if the
    heuristic finds no certifying permutation.  Success is always sound
    (the result is verified); failure does not prove that no permutation
    exists.
    """
    D = index_set.dimension
    perms = []
    for d in range(D):
        top = index_set.bounding_box[d]
        counts = [0] * top
        for alpha in index_set.indices:
            counts[alpha[d] - 1] += 1
        ranked = sorted(range(1, top + 1), key=lambda v: (-counts[v - 1], v))
        perm = [0] * top
        for new_value, old_value in enumerate(ranked, start=1):
            perm[old_value - 1] = new_value
        perms.append(tuple(perm))
    permuted = apply_permutation(perms, index_set)
    if not is_monotone_lower(permuted):
        return None
    return tuple(perms), permuted
