import numpy as np
import pytest

from kronlev.factor import (
    FactorMatrix,
    LeverageTable1D,
    _kron_rows,
    build_alias,
    build_factor,
    sample_nu_kd,
)
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid


def monomial_factor(m, n):
    return build_factor(gauss_legendre_grid(m), BasisSpec("monomial", n))


def legendre_factor(m, n):
    return build_factor(gauss_legendre_grid(m), BasisSpec("legendre-orthonormal", n))


def reconstructed(tables):
    """Input probabilities recovered from Vose tables: bucket i keeps prob[i]
    of its 1/M share and hands the rest to alias[i]."""
    prob, alias = tables
    p = prob.copy()
    np.add.at(p, alias, 1.0 - prob)
    return p / prob.size


class TestBuildFactor:
    def test_constant_column_is_root_weights(self):
        f = monomial_factor(3, 1)
        assert np.allclose(f.matrix[:, 0], np.sqrt([5 / 18, 8 / 18, 5 / 18]), atol=1e-15)

    def test_legendre_columns_orthonormal_under_exact_quadrature(self):
        f = legendre_factor(3, 3)
        assert np.max(np.abs(f.matrix.T @ f.matrix - np.eye(3))) < 1e-14

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError, match="full column rank"):
            monomial_factor(2, 3)


class TestFactorQr:
    def test_orthonormal_input_passes_through(self):
        f = legendre_factor(10, 5)
        assert np.max(np.abs(f.q - f.matrix)) < 1e-10
        assert np.max(np.abs(f.r - np.eye(5))) < 1e-10

    def test_qr_invariants_on_monomials(self):
        f = monomial_factor(20, 10)
        assert np.max(np.abs(f.q.T @ f.q - np.eye(10))) < 1e-10
        assert np.max(np.abs(f.q @ f.r - f.matrix)) < 1e-10 * np.max(np.abs(f.matrix))
        assert np.all(np.diag(f.r) > 0)
        assert np.max(np.abs(np.triu(f.r) - f.r)) == 0

    def test_duplicate_column_raises_with_position(self):
        f = monomial_factor(5, 3)
        broken = f.matrix.copy()
        broken[:, 2] = broken[:, 1]
        with pytest.raises(ValueError, match="column 3"):
            FactorMatrix(broken, f.grid, f.basis)


class TestLeverageTable:
    def test_rows_are_probability_vectors(self):
        table = monomial_factor(9, 4).leverage
        assert np.max(np.abs(table.table.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(table.table >= 0)

    def test_constant_function_row_equals_weights(self):
        g = gauss_legendre_grid(7)
        table = build_factor(g, BasisSpec("monomial", 3)).leverage
        assert np.allclose(table.table[0], g.weights, atol=1e-14)

    def test_against_independent_recomputation(self):
        # q_k(y_m) = [V R^{-1}]_{m,k} with V the raw basis values
        from kronlev.grid_basis import eval_basis_matrix

        g = gauss_legendre_grid(8)
        basis = BasisSpec("monomial", 5)
        f = build_factor(g, basis)
        raw = eval_basis_matrix(basis, g.nodes)
        q_func = raw @ np.linalg.inv(f.r)
        recomputed = (g.weights[:, None] * q_func**2).T
        table = f.leverage
        assert np.max(np.abs(table.table - recomputed)) < 1e-14

    def test_square_case_marginal_is_uniform(self):
        table = monomial_factor(6, 6).leverage
        assert np.max(np.abs(table.marginal() - 1.0 / 6.0)) < 1e-10

    def test_rows_are_the_normalized_columns_for_orthogonal_columns(self):
        # orthogonal columns are Q up to column scaling, so normalizing them
        # gives the same leverage rows, the ones orthogonal-columns samples
        f = legendre_factor(12, 5)
        normalized = f.matrix / np.linalg.norm(f.matrix, axis=0)
        assert np.max(np.abs(f.q - normalized)) < 1e-12
        assert np.max(np.abs(f.leverage.table - (normalized**2).T)) < 1e-12


class TestAlias:
    def test_singleton_always_drawn(self):
        table = LeverageTable1D(np.array([[1.0]]))
        rng = np.random.default_rng(0)
        assert np.all(sample_nu_kd(table, np.zeros(10, dtype=np.int64), rng) == 0)

    def test_reconstruction_identity(self):
        p = np.array([5 / 18, 8 / 18, 5 / 18])
        assert np.max(np.abs(reconstructed(build_alias(p)) - p)) < 1e-12

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.dirichlet(np.ones(rng.integers(1, 30)))
            assert np.max(np.abs(reconstructed(build_alias(p)) - p)) < 1e-12

    def test_fair_coin_frequencies(self):
        table = LeverageTable1D(np.array([[0.5, 0.5]]))
        rng = np.random.default_rng(7)
        n = 10**6
        ones = int(np.sum(sample_nu_kd(table, np.zeros(n, dtype=np.int64), rng)))
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) < 3 * sigma

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_alias([0.5, -0.5])
        with pytest.raises(ValueError):
            build_alias([0.0, 0.0])
        with pytest.raises(ValueError):
            build_alias([0.3, 0.3])


class TestSampleNuKd:
    def test_one_hot_row_is_deterministic(self):
        nodes = np.array([-1.0, 0.0, 1.0])
        table_rows = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        tables = LeverageTable1D(table_rows)
        rng = np.random.default_rng(3)
        assert np.all(sample_nu_kd(tables, np.zeros(20, dtype=np.int64), rng) == 1)
        assert np.all(sample_nu_kd(tables, np.ones(20, dtype=np.int64), rng) == 0)

    def test_empirical_law_close_in_total_variation(self):
        table = monomial_factor(10, 4).leverage
        rng = np.random.default_rng(11)
        k = 2
        n = 10**5
        drawn = sample_nu_kd(table, np.full(n, k), rng)
        freq = np.bincount(drawn, minlength=10) / n
        tv = 0.5 * np.sum(np.abs(freq - table.table[k]))
        assert tv < 0.01

    def test_out_of_range_k(self):
        table = monomial_factor(5, 2).leverage
        for k in (-1, 2):
            with pytest.raises(ValueError, match="k outside"):
                sample_nu_kd(table, np.array([0, k]), np.random.default_rng(0))

    def test_vectorized_k_shapes(self):
        table = monomial_factor(5, 2).leverage
        rng = np.random.default_rng(0)
        out = sample_nu_kd(table, np.array([0, 1, 0, 1]), rng)
        assert out.shape == (4,)
        assert np.all((out >= 0) & (out <= 4))


class TestKronRows:
    def test_entries_of_the_kronecker_product(self):
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal(shape) for shape in ((4, 3), (5, 2), (3, 4))]
        rows = np.array([[0, 4, 2], [3, 0, 0], [3, 0, 0], [1, 2, 1]])
        cols = np.array([[0, 0, 0], [2, 1, 3], [1, 0, 2]])
        kron = np.kron(np.kron(mats[0], mats[1]), mats[2])
        flat_rows = np.ravel_multi_index(tuple(rows.T), (4, 5, 3))
        flat_cols = np.ravel_multi_index(tuple(cols.T), (3, 2, 4))
        out = _kron_rows(mats, rows, cols)
        assert out.flags.c_contiguous
        assert np.array_equal(out, kron[np.ix_(flat_rows, flat_cols)])
