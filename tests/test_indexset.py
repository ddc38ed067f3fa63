import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronlev.indexset as indexset_module
from kronlev.config import load_json
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.indexset import (
    IndexSetSpec,
    MultiIndexSet,
    apply_permutation,
    build_index_set,
    canonicalize_to_lower,
    is_monotone_lower,
)


def ball(dimension, order, p=1.0, weights=None):
    weights = weights or (1.0,) * dimension
    return build_index_set(
        IndexSetSpec(dimension=dimension, family="wlp-ball", order=order, p=p, weights=weights)
    )


def inverse(perms):
    """Per-dimension inverse relabelings: inverse(perms)[d][new - 1] == old."""
    out = []
    for perm in perms:
        inv = [0] * len(perm)
        for old, new in enumerate(perm, start=1):
            inv[new - 1] = old
        out.append(tuple(inv))
    return tuple(out)


def hyperbolic(dimension, order, weights=None):
    weights = weights or (1.0,) * dimension
    return build_index_set(
        IndexSetSpec(dimension=dimension, family="hyperbolic-cross", order=order, weights=weights)
    )


def brute_force_ball(dimension, order, p, weights):
    """Independent enumeration over the candidate box, float membership."""
    cap = int(order) + 2
    out = []
    for alpha in itertools.product(range(1, cap + 1), repeat=dimension):
        shifted = [(a - 1) / w for a, w in zip(alpha, weights)]
        if p == math.inf:
            norm = max(shifted)
        elif p == 0:
            norm = sum(1 for s in shifted if s != 0)
        else:
            norm = sum(s**p for s in shifted) ** (1 / p)
        if norm <= order + 1e-12:
            out.append(alpha)
    return set(out)


class TestBuildIndexSet:
    def test_total_degree_sizes_match_reference(self):
        assert len(ball(3, 7)) == 120
        assert len(ball(3, 9)) == 220

    def test_hyperbolic_cross_sizes_match_reference(self):
        assert len(hyperbolic(3, 15)) == 110
        assert len(hyperbolic(3, 18)) == 134

    def test_order_zero_is_singleton(self):
        assert ball(2, 0).indices == ((1, 1),)

    @pytest.mark.parametrize("dimension,order", [(1, 5), (2, 4), (3, 6), (4, 3)])
    def test_total_degree_cardinality_is_binomial(self, dimension, order):
        members = brute_force_ball(dimension, order, 1.0, (1.0,) * dimension)
        assert set(ball(dimension, order).indices) == members
        assert len(members) == math.comb(order + dimension, dimension)

    def test_weighted_ball_matches_brute_force(self):
        weights = (0.5, 1.0)
        got = set(ball(2, 4, p=1.0, weights=weights).indices)
        assert got == brute_force_ball(2, 4, 1.0, weights)

    def test_p_infinity_is_a_box(self):
        got = ball(2, 3, p=math.inf)
        assert set(got.indices) == set(itertools.product(range(1, 5), repeat=2))

    def test_p2_matches_brute_force(self):
        got = set(ball(3, 4, p=2.0).indices)
        assert got == brute_force_ball(3, 4, 2.0, (1.0, 1.0, 1.0))

    def test_p_zero_small_order(self):
        assert ball(3, 0.5, p=0.0).indices == ((1, 1, 1),)

    def test_p_zero_infinite_set_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            ball(3, 1, p=0.0)

    def test_non_integer_order(self):
        # boundary index (1, 4) has norm 3 <= 3.5, (1, 5) has norm 4 > 3.5
        got = ball(2, 3.5)
        assert (1, 4) in got and (1, 5) not in got

    def test_ordering_is_graded_lexicographic(self):
        got = ball(2, 1)
        assert got.indices == ((1, 1), (1, 2), (2, 1))

    def test_explicit_list(self):
        spec = IndexSetSpec(dimension=2, family="explicit-list", indices=((2, 1), (1, 1)))
        got = build_index_set(spec)
        assert got.indices == ((1, 1), (2, 1))

    @pytest.mark.parametrize(
        "indices",
        [(), ((1, 1), (1,)), ((1, 1), (1, 0)), ((1, 1), (1, 1))],
        ids=["empty", "short-index", "zero-entry", "duplicate"],
    )
    def test_explicit_list_members_are_checked_by_the_set(self, indices):
        spec = IndexSetSpec(dimension=2, family="explicit-list", indices=indices)
        with pytest.raises(ValueError):
            build_index_set(spec)

    def test_nonfinite_order_rejected(self):
        with pytest.raises(ValueError):
            IndexSetSpec(dimension=2, family="wlp-ball", order=math.nan)
        with pytest.raises(ValueError):
            IndexSetSpec(dimension=2, family="wlp-ball", order=math.inf)

    @pytest.mark.parametrize("spec,error", [
        (dict(dimension=0, family="wlp-ball", order=2), "dimension must be >= 1"),
        (dict(dimension=2, family="ball", order=2), "unknown family 'ball'"),
        (dict(dimension=2, family="wlp-ball", order=2, p=math.nan), "p must be in {0} U (0, inf) U {inf}"),
        (dict(dimension=2, family="wlp-ball", order=2, weights=(1.0,)), "weights length must equal dimension"),
        (dict(dimension=2, family="wlp-ball", order=2, weights=(1.0, 1.0, 1.0)),
         "weights length must equal dimension"),
    ], ids=["dimension-0", "unknown-family", "p-nan", "weights-short", "weights-long"])
    def test_spec_rejections(self, spec, error):
        with pytest.raises(ValueError) as raised:
            IndexSetSpec(**spec)
        assert str(raised.value).startswith(error)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            IndexSetSpec(dimension=2, family="wlp-ball", order=2, weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            IndexSetSpec(dimension=2, family="wlp-ball", order=2, weights=(1.5, 1.0))


def box_scan(spec):
    """The ball or cross of ``spec`` by scanning its whole bounding box.

    The reference for the walk: the same caps and membership tests as
    ``build_index_set``, applied to every index of the box.
    """
    def caps_box(caps):
        return itertools.product(*(range(1, c + 1) for c in caps))

    weights = spec.weights
    if spec.family == "hyperbolic-cross":
        bound = spec.order + 1.0
        caps = [int(math.floor(bound ** w)) for w in weights]
        if all(w == 1.0 for w in weights):
            return [a for a in caps_box(caps) if math.prod(a) <= bound]
        return [a for a in caps_box(caps)
                if sum(math.log(x) / w for x, w in zip(a, weights)) <= math.log(bound)]
    G = Fraction(spec.order)
    wfrac = [Fraction(w) for w in weights]
    caps = [int(G * w) + 1 for w in wfrac]
    if spec.p == 1:
        return [a for a in caps_box(caps) if sum((x - 1) / w for x, w in zip(a, wfrac)) <= G]
    if math.isinf(spec.p):
        return list(caps_box(caps))
    Gp = float(spec.order) ** spec.p
    return [a for a in caps_box(caps)
            if sum(((x - 1) / w) ** spec.p for x, w in zip(a, weights)) <= Gp]


WALK_P = (0.25, 0.5, 1.0, 1.5, 2.0, math.inf)
# Largest order per dimension: box scans above these take seconds.
WALK_MAX_ORDER = {1: 20, 2: 20, 3: 20, 4: 7, 5: 4, 6: 3}


def walk_specs(family, dimension, count=100):
    """``count`` seeded specs: integer and fractional orders, unit and non-unit weights."""
    rng = random.Random(f"{family}-{dimension}")
    top = WALK_MAX_ORDER[dimension]
    for _ in range(count):
        order = rng.choice([rng.randint(0, top), round(rng.uniform(0, top), 3)])
        weights = [1.0] * dimension
        if rng.random() < 0.5:
            weights = [rng.choice([1.0, 0.75, 0.5, 0.3, round(rng.uniform(0.1, 1.0), 3)])
                       for _ in range(dimension)]
            weights[rng.randrange(dimension)] = 1.0
        yield IndexSetSpec(dimension=dimension, family=family, order=order,
                           p=rng.choice(WALK_P), weights=tuple(weights))


class TestLowerWalk:
    @pytest.mark.parametrize("dimension", range(1, 7))
    @pytest.mark.parametrize("family", ["wlp-ball", "hyperbolic-cross"])
    def test_walk_equals_bounding_box_scan(self, family, dimension):
        for spec in walk_specs(family, dimension):
            expected = box_scan(spec)
            got = build_index_set(spec)
            assert len(got) == len(expected) and set(got.indices) == set(expected), spec

    @pytest.mark.parametrize("dimension,order", [
        (1, 12), (2, 10), (3, 9), (4, 6), (5, 5), (6, 4), (7, 4), (8, 4), (9, 3), (10, 3),
        (20, 3),
    ])
    def test_total_degree_size_is_binomial(self, dimension, order):
        assert len(ball(dimension, order)) == math.comb(order + dimension, dimension)

    def test_walk_stops_past_the_member_bound(self, monkeypatch):
        # the total-degree-3 ball in 3 dimensions has 20 members
        monkeypatch.setattr(indexset_module, "_MAX_MEMBERS", 20)
        assert len(ball(3, 3)) == 20
        monkeypatch.setattr(indexset_module, "_MAX_MEMBERS", 19)
        with pytest.raises(ValueError, match="^the set has more than 19 members; it is not enumerated$"):
            ball(3, 3)


class TestMonotoneLower:
    def test_closure_walk_stops_past_the_member_bound(self, monkeypatch):
        # J = {(1,1,1), (3,3,3)}: its lower closure is the 27 indices of the 3^3 box
        far_gap = MultiIndexSet(3, ((1, 1, 1), (3, 3, 3)))
        monkeypatch.setattr(indexset_module, "_MAX_MEMBERS", 27)
        assert len(set(indexset_module._missing_below(far_gap))) == 25
        monkeypatch.setattr(indexset_module, "_MAX_MEMBERS", 26)
        with pytest.raises(ValueError, match="^the lower closure of J has more than 26 members; it is not walked$"):
            list(indexset_module._missing_below(far_gap))
        # the lower test stops at the first gap, before the bound
        monkeypatch.setattr(indexset_module, "_MAX_MEMBERS", 3)
        assert not is_monotone_lower(far_gap)

    def test_simple_lower_set(self):
        s = MultiIndexSet(2, ((1, 1), (2, 1), (1, 2)))
        assert is_monotone_lower(s)

    def test_missing_dominated_indices(self):
        s = MultiIndexSet(2, ((1, 1), (2, 2)))
        assert not is_monotone_lower(s)

    @pytest.mark.parametrize("family,order", [("wlp-ball", 5), ("hyperbolic-cross", 8)])
    def test_built_sets_are_lower(self, family, order):
        spec = IndexSetSpec(dimension=3, family=family, order=order, weights=(1.0, 0.6, 1.0))
        assert is_monotone_lower(build_index_set(spec))

    @settings(max_examples=100, deadline=None)
    @given(
        dimension=st.integers(1, 3),
        family=st.sampled_from(["wlp-ball", "hyperbolic-cross"]),
        order=st.floats(0.0, 9.0),
        p=st.sampled_from([0.5, 1.0, 2.0, math.inf]),
        raw_weights=st.lists(st.floats(0.25, 1.0), min_size=3, max_size=3),
    )
    def test_every_built_set_is_monotone_lower(self, dimension, family, order, p, raw_weights):
        weights = raw_weights[:dimension]
        weights[0] = 1.0  # spec requires max weight 1
        spec = IndexSetSpec(dimension=dimension, family=family, order=order, p=p,
                            weights=tuple(weights))
        assert is_monotone_lower(build_index_set(spec))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.sets(
                st.tuples(*([st.integers(1, 5)] * d)), min_size=1, max_size=12
            )
        )
    )
    def test_neighbour_check_agrees_with_full_definition(self, members):
        """The alpha - e_d characterization equals the full quantifier."""
        s = MultiIndexSet(len(next(iter(members))), tuple(sorted(members)))
        member_set = set(s.indices)
        full = all(
            beta in member_set
            for alpha in member_set
            for beta in itertools.product(*(range(1, a + 1) for a in alpha))
        )
        assert is_monotone_lower(s) == full

    def test_stops_at_the_first_gap(self, monkeypatch):
        # the closure of (400, 400, 400) has 6.4e7 members, of which one is walked to
        walk, yielded = indexset_module._missing_below, []

        def counted(index_set):
            for beta in walk(index_set):
                yielded.append(beta)
                yield beta

        monkeypatch.setattr(indexset_module, "_missing_below", counted)
        assert not is_monotone_lower(MultiIndexSet(3, ((1, 1, 1), (400, 400, 400))))
        assert len(yielded) == 1


@st.composite
def family_specs(draw):
    """A ball or cross in D 1-4: weights in (0, 1] with one at 1, p in {0, 0.5, 1, 2, 3, inf}."""
    dimension = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["wlp-ball", "hyperbolic-cross"]))
    weights = [1.0] * dimension
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                min_size=dimension, max_size=dimension))
        weights[draw(st.integers(0, dimension - 1))] = 1.0
    p = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, math.inf]))
    if family == "hyperbolic-cross":
        order = draw(st.floats(0.0, 60.0))
    elif p == 0:
        order = draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        order = draw(st.floats(0.0, 8.0))
    return IndexSetSpec(dimension, family, order, p, tuple(weights))


class TestBoundingBox:
    @pytest.mark.parametrize("name", list_packaged_configs())
    def test_the_box_read_from_caps_and_test_is_a_packaged_sets_box(self, name):
        config = load_json(packaged_config_path(name))["index_set"]
        spec = IndexSetSpec(config["dimension"], config["family"], config["order"],
                            config.get("p", 1.0), tuple(config["weights"]))
        assert indexset_module._bounding_box(spec) == build_index_set(spec).bounding_box

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(family_specs())
    def test_the_box_read_from_caps_and_test_is_the_walked_sets_box(self, spec):
        assert indexset_module._bounding_box(spec) == build_index_set(spec).bounding_box

    def test_direct_max(self):
        assert MultiIndexSet(2, ((1, 1), (2, 1), (1, 2))).bounding_box == (2, 2)

    def test_singleton(self):
        assert MultiIndexSet(2, ((1, 1),)).bounding_box == (1, 1)

    def test_total_degree_box_is_order_plus_one(self):
        assert ball(3, 7).bounding_box == (8, 8, 8)


class TestCanonicalize:
    def test_already_lower_gives_identity(self):
        s = ball(2, 2)
        perms, permuted = canonicalize_to_lower(s)
        assert permuted.indices == s.indices
        assert all(perm == tuple(range(1, len(perm) + 1)) for perm in perms)

    def test_staircase_example(self):
        # not monotone lower, but dimensionwise relabeling repairs it
        members = (
            (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 1), (2, 4),
            (3, 1), (3, 2), (3, 3), (3, 4),
        )
        s = MultiIndexSet(2, members)
        assert not is_monotone_lower(s)
        result = canonicalize_to_lower(s)
        assert result is not None
        perms, permuted = result
        assert is_monotone_lower(permuted)
        assert set(apply_permutation(inverse(perms), permuted).indices) == set(members)

    def test_unrepairable_set_fails(self):
        s = MultiIndexSet(2, ((1, 1), (2, 2)))
        assert canonicalize_to_lower(s) is None
        # exhaustive confirmation that no permutation pair repairs it
        for p1 in itertools.permutations((1, 2)):
            for p2 in itertools.permutations((1, 2)):
                assert not is_monotone_lower(apply_permutation((p1, p2), s))

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=10))
    def test_success_is_always_sound(self, members):
        s = MultiIndexSet(2, tuple(sorted(members)))
        result = canonicalize_to_lower(s)
        if result is not None:
            perms, permuted = result
            assert is_monotone_lower(permuted)
            assert set(apply_permutation(inverse(perms), permuted).indices) == set(s.indices)
