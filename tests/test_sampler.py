import itertools

import numpy as np
import pytest

from kronlev.factor import build_factor
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid
from kronlev.indexset import IndexSetSpec, MultiIndexSet, build_index_set, is_monotone_lower
from kronlev.oracle import build_full, exact_leverage, flat_row_index
from kronlev.sampler import (
    _MASS_CHUNK,
    METHOD_TAGS,
    make_method,
    mu_mass_many,
    point_mass_many,
    sample_indices,
)
from kronlev.sketch import TargetFunction


def total_degree(dimension, order):
    return build_index_set(
        IndexSetSpec(dimension=dimension, family="wlp-ball", order=order,
                     weights=(1.0,) * dimension)
    )


def monomial_factors(dimension, m, n):
    return [build_factor(gauss_legendre_grid(m), BasisSpec("monomial", n))] * dimension


def all_grid_indices(shape):
    return np.array(list(itertools.product(*(range(s) for s in shape))), dtype=np.int64)


@pytest.fixture(scope="module")
def small_lower_problem():
    """D=2, 5-node GL grids, monomial basis, total degree 2 (N=6)."""
    index_set = total_degree(2, 2)
    factors = monomial_factors(2, 5, 3)
    return index_set, factors


class TestPointMass:
    def test_uniform_mass(self):
        factors = monomial_factors(2, 2, 2)
        method = make_method("uniform", factors)
        assert np.all(point_mass_many(method, all_grid_indices((2, 2))) == 0.25)

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

    def test_out_of_bounds_rejected(self, small_lower_problem):
        index_set, factors = small_lower_problem
        method = make_method("uniform", factors)
        with pytest.raises(ValueError, match="out of bounds"):
            point_mass_many(method, np.array([[5, 0]]))

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_rows_must_be_integers(self, tag):
        # refused, not cast: cast, [[1.9, 0.2]] would read as [[1, 0]]
        factors = [build_factor(gauss_legendre_grid(5), BasisSpec("legendre-orthonormal", 3))] * 2
        method = make_method(tag, factors, total_degree(2, 2))
        for bad in ([[1.9, 0.2]], np.array([[1.0, 0.0]]), np.array([[True, False]])):
            with pytest.raises(ValueError, match="must be integers"):
                point_mass_many(method, bad)
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
        exact = float(np.sum(values * mu_mass_many(method.grids, grid)))
        rng = np.random.default_rng(77)
        n = 10**5
        idx0 = sample_indices(method, rng, n)
        rows = flat_row_index(idx0, (5, 5))
        ratio = mu_mass_many(method.grids, idx0) / point_mass_many(method, idx0)
        draws = values[rows] * ratio
        stderr = float(np.std(draws)) / np.sqrt(n)
        assert abs(float(np.mean(draws)) - exact) < 3 * stderr


class TestMuMass:
    def test_rows_must_be_integer_rows_of_the_grids(self):
        # refused, not cast or cut to the grids' dimension
        grids = [gauss_legendre_grid(3)] * 2
        for bad in ([[0, 1, 2]], [[0]], [0, 1]):
            with pytest.raises(ValueError, match="one index per dimension"):
                mu_mass_many(grids, np.array(bad))
        with pytest.raises(ValueError, match="must be integers"):
            mu_mass_many(grids, [[1.9, 0.2]])
        with pytest.raises(ValueError, match="out of bounds"):
            mu_mass_many(grids, [[0, 3]])

    def test_single_dimension_gl3(self):
        factors = monomial_factors(1, 3, 2)
        method = make_method("uniform", factors)
        assert abs(mu_mass_many(method.grids, np.array([[1]]))[0] - 8 / 18) < 1e-15

    def test_sums_to_one(self, small_lower_problem):
        _, factors = small_lower_problem
        grids = [f.grid for f in factors]
        assert abs(mu_mass_many(grids, all_grid_indices((5, 5))).sum() - 1.0) < 1e-12

    def test_product_structure(self):
        factors = monomial_factors(2, 3, 2)
        grids = [f.grid for f in factors]
        masses = mu_mass_many(grids, all_grid_indices((3, 3)))
        for row, (i, j) in enumerate(itertools.product(range(3), repeat=2)):
            expected = grids[0].weights[i] * grids[1].weights[j]
            assert masses[row] == pytest.approx(expected)


def fancy_index_mixture(method, idx0):
    """The mixture point mass as squared row norms of a (K, N) Q-row gather.

    The gather is built by a broadcast fancy index per dimension.
    """
    prod = np.ones((idx0.shape[0], method.index_array.shape[0]))
    for d, q in enumerate(f.q for f in method.factors):
        prod *= q[idx0[:, d][:, None], method.index_array[:, d][None, :]]
    return np.einsum("ij,ij->i", prod, prod) / method.index_array.shape[0]


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
        idx0 = sample_indices(method, np.random.default_rng(18), 2 * _MASS_CHUNK + 3)
        assert np.array_equal(point_mass_many(method, idx0), fancy_index_mixture(method, idx0))


class TestPreconditions:
    def test_leverage_lower_needs_lower_set(self):
        bad = MultiIndexSet(2, ((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="monotone lower"):
            make_method("leverage-lower", monomial_factors(2, 5, 2), bad)

    def test_orthogonal_columns_needs_orthogonal_factors(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            make_method("orthogonal-columns", monomial_factors(2, 5, 3), total_degree(2, 2))

    def test_orthogonal_columns_matches_lower_for_orthonormal_factors(self):
        factors = [build_factor(gauss_legendre_grid(6), BasisSpec("legendre-orthonormal", 3))] * 2
        index_set = total_degree(2, 2)
        orth = make_method("orthogonal-columns", factors, index_set)
        lower = make_method("leverage-lower", factors, index_set)
        grid = all_grid_indices((6, 6))
        assert np.max(
            np.abs(point_mass_many(orth, grid) - point_mass_many(lower, grid))
        ) < 1e-12

    def test_index_set_must_fit_factors(self):
        with pytest.raises(ValueError, match="columns"):
            make_method("leverage-lower", monomial_factors(2, 5, 2), total_degree(2, 2))

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown sampler method"):
            make_method("levered", monomial_factors(2, 5, 2))
