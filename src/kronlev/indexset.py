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
from typing import Optional, Sequence

__all__ = [
    "IndexSetSpec",
    "MultiIndexSet",
    "build_index_set",
    "is_monotone_lower",
    "canonicalize_to_lower",
    "apply_permutation",
]

FAMILIES = ("wlp-ball", "hyperbolic-cross", "explicit-list")


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
            if not self.indices:
                raise ValueError("explicit-list requires a nonempty indices list")
            for alpha in self.indices:
                if len(alpha) != self.dimension or any(a < 1 for a in alpha):
                    raise ValueError(f"bad multi-index {alpha}: need {self.dimension} entries, all >= 1")
            return
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
            if len(alpha) != self.dimension:
                raise ValueError(f"index {alpha} has wrong dimension")
            if any(a < 1 for a in alpha):
                raise ValueError(f"index {alpha} has entries < 1")
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


def _graded_lex_sorted(indices) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(indices, key=lambda a: (sum(a) - len(a), a)))


def _lower_walk(caps, member) -> list[tuple[int, ...]]:
    """Indices alpha <= caps of a downward-closed set, walked depth first from all-ones.

    Entries rise only from the dimension raised last onward, so each index is
    reached once; a non-member ends its branch, as nothing above it is a member.
    """
    out, stack = [], [((1,) * len(caps), 0)]
    while stack:
        alpha, first = stack.pop()
        out.append(alpha)
        for d in range(first, len(caps)):
            beta = alpha[:d] + (alpha[d] + 1,) + alpha[d + 1:]
            if beta[d] <= caps[d] and member(beta):
                stack.append((beta, d))
    return out


def _wlp_ball(dimension: int, order: float, p: float, weights) -> list[tuple[int, ...]]:
    G = Fraction(order)
    wfrac = [Fraction(w) for w in weights]
    if p == 0:
        # ||alpha - 1||_0 counts entries != 1, which does not bound the
        # entries themselves: the ball is infinite once G >= 1.
        if G >= 1:
            raise ValueError("the 1-centered l^0 ball is infinite for order >= 1")
        return [(1,) * dimension]
    # Entrywise bound (alpha_d - 1)/w_d <= G holds for every 0 < p <= inf;
    # exact rational caps keep boundary indices from floating-point loss.
    caps = [int(G * w) + 1 for w in wfrac]
    if p == 1:
        # sum (a_d - 1) / w_d <= G, scaled by the lcm of the exact denominators
        # of G and the 1/w_d so that the test runs in integers
        inverse = [1 / w for w in wfrac]
        scale = math.lcm(G.denominator, *(q.denominator for q in inverse))
        costs, budget = [int(q * scale) for q in inverse], int(G * scale)
        return _lower_walk(
            caps, lambda alpha: sum((a - 1) * c for a, c in zip(alpha, costs)) <= budget
        )
    if math.isinf(p):
        # The entrywise cap is exactly the membership test.
        return _lower_walk(caps, lambda alpha: True)
    Gp = float(order) ** p
    return _lower_walk(
        caps, lambda alpha: sum(((a - 1) / w) ** p for a, w in zip(alpha, weights)) <= Gp
    )


def _hyperbolic_cross(order: float, weights) -> list[tuple[int, ...]]:
    # ||log alpha||_{w,1} <= log(G+1), i.e. prod alpha_d^(1/w_d) <= G+1.
    bound = order + 1.0
    caps = [int(math.floor(bound ** w)) for w in weights]
    if all(w == 1.0 for w in weights):
        # int-vs-float comparison is exact in Python
        return _lower_walk(caps, lambda alpha: math.prod(alpha) <= bound)
    log_bound = math.log(bound)
    return _lower_walk(
        caps, lambda alpha: sum(math.log(a) / w for a, w in zip(alpha, weights)) <= log_bound
    )


def build_index_set(spec: IndexSetSpec) -> MultiIndexSet:
    """Construct the multi-index set described by ``spec``.

    Both families are downward closed, so one depth-first walk from the
    all-ones index enumerates them: N members cost at most N*D membership
    tests, where a scan of the bounding box costs one per box index.
    Membership comparisons are exact (rational arithmetic) for the common
    cases p in {1, inf} and for unit-weight hyperbolic crosses, so boundary
    indices are never lost to floating-point roundoff.
    """
    if spec.family == "explicit-list":
        members = list(spec.indices)
    elif spec.family == "wlp-ball":
        members = _wlp_ball(spec.dimension, spec.order, spec.p, spec.weights)
    else:
        members = _hyperbolic_cross(spec.order, spec.weights)
    return MultiIndexSet(spec.dimension, _graded_lex_sorted(members))


def is_monotone_lower(index_set: MultiIndexSet) -> bool:
    """True iff the set is closed under componentwise decrease toward all-ones.

    Checks only the immediate lower neighbours alpha - e_d; this is
    equivalent to the full definition (any beta <= alpha is reachable by a
    chain of single-entry decrements staying inside the set).
    """
    members = index_set._members
    for alpha in index_set.indices:
        for d, a in enumerate(alpha):
            if a > 1:
                beta = alpha[:d] + (a - 1,) + alpha[d + 1:]
                if beta not in members:
                    return False
    return True


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
