import itertools

import numpy as np
import pytest

import kronlev.factor as factor_module
import kronlev.indexset as indexset_module
from kronlev.config import ProblemSetup
from kronlev.factor import _row_blocks, build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, MultiIndexSet, build_index_set, is_monotone_lower
from kronlev.oracle import build_full, exact_leverage, flat_row_index
from kronlev.sampler import (
    METHOD_TAGS,
    make_method,
    point_mass_many,
    sample_indices,
)
from kronlev.sketch import TargetFunction
from helpers import monomial_factors, total_degree


def all_grid_indices(shape):
    return np.array(list(itertools.product(*(range(s) for s in shape))), dtype=np.int64)


@pytest.fixture(scope="module")
def small_lower_problem():
    """D=2, 5-node GL grids, monomial basis, total degree 2 (N=6)."""
    index_set = total_degree(2, 2)
    factors = monomial_factors(2, 5, 3)
    return index_set, factors


@pytest.fixture(scope="module")
def d6_lower_problem():
    """D=6, 3-node GL grids (729 rows), monomial basis, total degree 2 (N=28), exact leverage."""
    index_set = total_degree(6, 2)
    factors = monomial_factors(6, 3, 3)
    system = build_full(index_set, factors, TargetFunction("zero", lambda c: 0 * c[:, 0]))
    return make_method("leverage-lower", factors, index_set), exact_leverage(system)


class TestPointMass:
    def test_uniform_mass(self):
        factors = monomial_factors(2, 2, 2)
        method = make_method("uniform", factors)
        assert np.all(point_mass_many(method, all_grid_indices((2, 2))) == 0.25)

    @pytest.mark.parametrize(
        "dimension,m,mass",
        [(25, 6, 1 / 6**25), (30, 6, 4.523373907076997e-24), (64, 2, 2.0**-64)],
        ids=["D25-M6", "D30-M6", "D64-M2"],
    )
    def test_uniform_mass_of_a_grid_beyond_int64(self, dimension, m, mass):
        # 6^25 > 2^63: a product of the shape in int64 wraps around
        method = make_method("uniform", monomial_factors(dimension, m, 1))
        idx0 = sample_indices(method, np.random.default_rng(4), 3)
        assert np.all(point_mass_many(method, idx0) == mass)

    @pytest.mark.parametrize("tag", ["uniform", "tensor-product", "leverage-lower"])
    def test_masses_sum_to_one(self, tag, small_lower_problem):
        index_set, factors = small_lower_problem
        method = make_method(tag, factors, index_set)
        masses = point_mass_many(method, all_grid_indices((5, 5)))
        assert abs(masses.sum() - 1.0) < 1e-10

    def test_full_box_degenerates_to_product(self):
        # with J the whole box the lower-set mixture is exactly the
        # tensor-product law
        box = build_index_set(
            IndexSetSpec(dimension=2, family="explicit-list",
                         indices=tuple(itertools.product(range(1, 4), repeat=2)))
        )
        factors = monomial_factors(2, 5, 3)
        lower = make_method("leverage-lower", factors, box)
        tp = make_method("tensor-product", factors)
        grid = all_grid_indices((5, 5))
        assert np.max(np.abs(point_mass_many(lower, grid) - point_mass_many(tp, grid))) < 1e-14

    def test_lower_set_mass_equals_exact_leverage(self, small_lower_problem):
        index_set, factors = small_lower_problem
        method = make_method("leverage-lower", factors, index_set)
        masses = point_mass_many(method, all_grid_indices((5, 5)))
        system = build_full(index_set, factors, TargetFunction("zero", lambda c: 0 * c[:, 0]))
        scores = exact_leverage(system)
        assert np.max(np.abs(masses - scores)) < 1e-12

    def test_lower_set_mass_equals_exact_leverage_at_d6(self, d6_lower_problem):
        method, scores = d6_lower_problem
        assert len(scores) == 729 and len(method.index_set) == 28
        masses = point_mass_many(method, all_grid_indices((3,) * 6))
        assert np.max(np.abs(masses - scores)) < 1e-12

    def test_orthogonal_columns_mass_equals_exact_leverage_on_a_non_lower_set(self):
        # Legendre under its own Gauss rule has orthonormal columns, so every
        # column subset has them too; of the mixture methods only
        # orthogonal-columns admits a J that is not lower
        factors = [build_factor(gauss_legendre_grid(6), BasisSpec("legendre-orthonormal", 4))] * 2
        index_set = MultiIndexSet(2, ((1, 1), (3, 1), (2, 4), (4, 3)))
        assert not is_monotone_lower(index_set)
        method = make_method("orthogonal-columns", factors, index_set)
        masses = point_mass_many(method, all_grid_indices((6, 6)))
        system = build_full(index_set, factors, TargetFunction("zero", lambda c: 0 * c[:, 0]))
        assert np.max(np.abs(masses - exact_leverage(system))) < 1e-12

    def test_square_grid_tensor_product_is_uniform(self):
        factors = monomial_factors(2, 4, 4)
        method = make_method("tensor-product", factors)
        masses = point_mass_many(method, all_grid_indices((4, 4)))
        assert np.max(np.abs(masses - 1.0 / 16.0)) < 1e-10

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_rows_of_any_integer_type_give_one_mass(self, tag):
        # rows that are not integers are refused, not cast (``test_refusals.py``)
        factors = [build_factor(gauss_legendre_grid(5), BasisSpec("legendre-orthonormal", 3))] * 2
        method = make_method(tag, factors, total_degree(2, 2))
        assert point_mass_many(method, [[1, 0]]) == point_mass_many(method, np.array([[1, 0]], np.int32))


class TestSampling:
    def test_leverage_lower_empirical_law(self):
        index_set = total_degree(2, 1)
        factors = monomial_factors(2, 4, 2)
        method = make_method("leverage-lower", factors, index_set)
        rng = np.random.default_rng(123)
        idx0 = sample_indices(method, rng, 2 * 10**5)
        rows = flat_row_index(idx0, (4, 4))
        freq = np.bincount(rows, minlength=16) / idx0.shape[0]
        system = build_full(index_set, factors, TargetFunction("zero", lambda c: 0 * c[:, 0]))
        scores = exact_leverage(system)
        assert 0.5 * np.sum(np.abs(freq - scores)) < 0.01

    def test_leverage_lower_empirical_law_at_d6(self, d6_lower_problem):
        # E[TV] of 2e5 draws over 729 rows is at most about 0.024
        method, scores = d6_lower_problem
        idx0 = sample_indices(method, np.random.default_rng(6), 2 * 10**5)
        freq = np.bincount(flat_row_index(idx0, (3,) * 6), minlength=729) / idx0.shape[0]
        assert 0.5 * np.sum(np.abs(freq - scores)) < 0.05

    def test_tensor_product_empirical_law(self):
        factors = monomial_factors(2, 4, 3)
        method = make_method("tensor-product", factors)
        rng = np.random.default_rng(9)
        idx0 = sample_indices(method, rng, 10**5)
        rows = flat_row_index(idx0, (4, 4))
        freq = np.bincount(rows, minlength=16) / idx0.shape[0]
        exact = point_mass_many(method, all_grid_indices((4, 4)))
        assert 0.5 * np.sum(np.abs(freq - exact)) < 0.01

    def test_unbiased_integration(self, small_lower_problem):
        # E[f(Y) dmu/dnu(Y)] equals the mu-integral of f for any fixed f
        index_set, factors = small_lower_problem
        method = make_method("leverage-lower", factors, index_set)
        grid = all_grid_indices((5, 5))
        values = np.cos(factors[0].grid.nodes)[grid[:, 0]] * np.exp(
            factors[1].grid.nodes[grid[:, 1]]
        )
        w = [f.grid.weights for f in factors]  # mu is the product of the node weights
        exact = float(np.sum(values * (w[0][grid[:, 0]] * w[1][grid[:, 1]])))
        rng = np.random.default_rng(77)
        n = 10**5
        idx0 = sample_indices(method, rng, n)
        rows = flat_row_index(idx0, (5, 5))
        ratio = w[0][idx0[:, 0]] * w[1][idx0[:, 1]] / point_mass_many(method, idx0)
        draws = values[rows] * ratio
        stderr = float(np.std(draws)) / np.sqrt(n)
        assert abs(float(np.mean(draws)) - exact) < 3 * stderr


def fancy_index_mixture(method, idx0):
    """The mixture point mass as squared row norms of a (K, N) Q-row gather.

    The gather is built by a broadcast fancy index per dimension.
    """
    cols = method.members
    prod = np.ones((idx0.shape[0], cols.shape[0]))
    for d, q in enumerate(f.q for f in method.factors):
        prod *= q[idx0[:, d][:, None], cols[:, d][None, :]]
    return np.einsum("ij,ij->i", prod, prod) / cols.shape[0]


class TestMixtureKernel:
    @pytest.mark.parametrize("tag", ["leverage-lower", "orthogonal-columns"])
    def test_bitwise_equal_to_fancy_index_mixture(self, tag):
        factors = [build_factor(gauss_legendre_grid(6), BasisSpec("legendre-orthonormal", 4))] * 3
        method = make_method(tag, factors, total_degree(3, 3))
        idx0 = sample_indices(method, np.random.default_rng(17), 500)
        assert np.array_equal(point_mass_many(method, idx0), fancy_index_mixture(method, idx0))

    def test_more_points_than_one_block_give_the_same_bits(self):
        factors = [build_factor(gauss_legendre_grid(6), BasisSpec("legendre-orthonormal", 4))] * 3
        method = make_method("leverage-lower", factors, total_degree(3, 3))
        step = _row_blocks(1 << 20, len(method.index_set))[0].stop
        idx0 = sample_indices(method, np.random.default_rng(18), 2 * step + 3)
        assert len(_row_blocks(len(idx0), len(method.index_set))) == 3
        assert np.array_equal(point_mass_many(method, idx0), fancy_index_mixture(method, idx0))

    @pytest.mark.parametrize("k,blocks", [(0, 0), (1, 1), (63, 1), (64, 1), (65, 1), (129, 2)])
    def test_bits_equal_the_fancy_index_mixture_in_64_row_blocks(self, monkeypatch, k, blocks):
        monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", 1)  # blocks of 64 rows
        factors = [build_factor(gauss_legendre_grid(6), BasisSpec("legendre-orthonormal", 4))] * 3
        method = make_method("leverage-lower", factors, total_degree(3, 3))
        idx0 = sample_indices(method, np.random.default_rng(19), k)
        assert len(_row_blocks(k, len(method.index_set))) == blocks
        mass = point_mass_many(method, idx0)
        assert mass.shape == (k,)
        assert np.array_equal(mass, fancy_index_mixture(method, idx0))


class TestPreconditions:
    @pytest.mark.parametrize("entry_point", ["make_method", "ProblemSetup.method"])
    def test_leverage_lower_refuses_a_gap_before_walking_the_closure(self, monkeypatch, entry_point):
        # J's closure has k^3 = 1000 members; the lower test stops at the first
        # gap, and the walk that lists L never starts
        k, walk, yielded = 10, indexset_module._missing_below, []

        def counted(index_set):
            for beta in walk(index_set):
                yielded.append(beta)
                yield beta

        monkeypatch.setattr(indexset_module, "_missing_below", counted)
        index_set = MultiIndexSet(3, ((1, 1, 1), (k, k, k)))
        factors = (build_factor(gauss_legendre_grid(k), BasisSpec("legendre-orthonormal", k)),) * 3
        with pytest.raises(ValueError, match="monotone lower"):
            if entry_point == "make_method":
                make_method("leverage-lower", factors, index_set)
            else:
                ProblemSetup(index_set, factors, None).method("leverage-lower")
        assert len(yielded) == 1

    def test_orthogonal_columns_matches_lower_for_orthonormal_factors(self):
        factors = [build_factor(gauss_legendre_grid(6), BasisSpec("legendre-orthonormal", 3))] * 2
        index_set = total_degree(2, 2)
        orth = make_method("orthogonal-columns", factors, index_set)
        lower = make_method("leverage-lower", factors, index_set)
        grid = all_grid_indices((6, 6))
        assert np.max(
            np.abs(point_mass_many(orth, grid) - point_mass_many(lower, grid))
        ) < 1e-12
