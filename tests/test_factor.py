import ctypes
from functools import reduce

import numpy as np
import pytest

import kronlev.factor as factor_module
from kronlev.config import load_json, parse_problem
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.factor import (
    FactorMatrix,
    _kron_rows,
    _row_blocks,
    build_alias,
    build_factor,
    sample_nu_kd,
)
from kronlev.grid_basis import BasisSpec, gauss_legendre_grid, gauss_legendre_uniform_grid


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


def stacked(*laws):
    """Stacked Vose tables ``(prob, alias)`` with one row per given law."""
    prob, alias = zip(*(build_alias(law) for law in laws))
    return np.stack(prob), np.stack(alias)


def leverage_rows(f):
    """The (N_d, M_d) laws that a factor's alias tables sample, row k for column k."""
    return np.stack([reconstructed((prob, alias)) for prob, alias in zip(f.prob, f.alias)])


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


@pytest.mark.parametrize("m,n", [(20, 10), (101, 14), (1000, 30), (10**4, 40), (4000, 200)])
def test_a_factor_has_one_set_of_bits_at_one_and_two_blas_threads(openblas, m, n):
    # the per-dimension QR runs at the caller's count, unpinned, and its
    # products and tables keep their bits there
    grid = gauss_legendre_uniform_grid(m)
    built = []
    for count in (1, 2):
        openblas.set_threads(count)
        f = build_factor(grid, BasisSpec("legendre-orthonormal", n))
        assert openblas.get_threads() == count
        built.append([getattr(f, name).tobytes() for name in ("q", "r", "prob", "alias", "marginal")])
    assert built[0] == built[1]


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
        rows = leverage_rows(monomial_factor(9, 4))
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(rows >= 0)

    def test_constant_function_row_equals_weights(self):
        g = gauss_legendre_grid(7)
        rows = leverage_rows(build_factor(g, BasisSpec("monomial", 3)))
        assert np.allclose(rows[0], g.weights, atol=1e-14)

    def test_against_independent_recomputation(self):
        # q_k(y_m) = [V R^{-1}]_{m,k} with V the raw basis values
        from kronlev.grid_basis import eval_basis_matrix

        g = gauss_legendre_grid(8)
        basis = BasisSpec("monomial", 5)
        f = build_factor(g, basis)
        raw = eval_basis_matrix(basis, g.nodes)
        q_func = raw @ np.linalg.inv(f.r)
        recomputed = (g.weights[:, None] * q_func**2).T
        assert np.max(np.abs(leverage_rows(f) - recomputed)) < 1e-14

    def test_square_case_marginal_is_uniform(self):
        f = monomial_factor(6, 6)
        assert np.max(np.abs(f.marginal - 1.0 / 6.0)) < 1e-10

    def test_rows_are_the_normalized_columns_for_orthogonal_columns(self):
        # orthogonal columns are Q up to column scaling, so normalizing them
        # gives the same leverage rows, the ones orthogonal-columns samples
        f = legendre_factor(12, 5)
        normalized = f.matrix / np.linalg.norm(f.matrix, axis=0)
        assert np.max(np.abs(f.q - normalized)) < 1e-12
        assert np.max(np.abs(leverage_rows(f) - (normalized**2).T)) < 1e-12

    @pytest.mark.parametrize("name", list_packaged_configs())
    def test_packaged_alias_rows_are_the_squared_columns(self, name):
        for f in parse_problem(load_json(packaged_config_path(name))).factors:
            assert np.max(np.abs(leverage_rows(f) - (f.q**2).T)) < 1e-12
            assert abs(f.marginal.sum() - 1.0) < 1e-12


class TestAlias:
    def test_singleton_always_drawn(self):
        rng = np.random.default_rng(0)
        assert np.all(sample_nu_kd(*stacked([1.0]), np.zeros(10, dtype=np.int64), rng) == 0)

    def test_reconstruction_identity(self):
        p = np.array([5 / 18, 8 / 18, 5 / 18])
        assert np.max(np.abs(reconstructed(build_alias(p)) - p)) < 1e-12

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.dirichlet(np.ones(rng.integers(1, 30)))
            assert np.max(np.abs(reconstructed(build_alias(p)) - p)) < 1e-12

    def test_fair_coin_frequencies(self):
        rng = np.random.default_rng(7)
        n = 10**6
        ones = int(np.sum(sample_nu_kd(*stacked([0.5, 0.5]), np.zeros(n, dtype=np.int64), rng)))
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) < 3 * sigma

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_alias([0.5, -0.5])
        with pytest.raises(ValueError):
            build_alias([0.0, 0.0])
        with pytest.raises(ValueError):
            build_alias([0.3, 0.3])
        with pytest.raises(ValueError, match="^need a nonempty 1D probability vector$"):
            build_alias([])


def numpy_scalar_alias(p):
    """Vose tables by the loop over numpy scalars that ``build_alias`` ran on before its Python lists."""
    p = np.asarray(p, dtype=float)
    m = p.size
    scaled = p * (m / p.sum())
    prob = np.ones(m)
    alias = np.arange(m)
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    for i in small + large:
        prob[i] = 1.0
        alias[i] = i
    return prob, alias


def _alias_laws():
    """Random laws, and laws whose scaled entries are exactly 1.0 or 0.0."""
    rng = np.random.default_rng(2024)
    laws = [(f"random-M{m}", rng.dirichlet(np.ones(m))) for m in (1, 2, 3, 20, 101, 10**4)]
    laws += [("spiky-M50", rng.dirichlet(np.full(50, 0.05)))]  # most entries far below 1/M
    laws += [("uniform-M8", np.full(8, 1 / 8)), ("uniform-M20", np.full(20, 1 / 20))]
    laws += [("zeros-M4", np.array([0.0, 0.25, 0.0, 0.75])),
             ("ones-and-zeros-M5", np.array([0.5, 0.0, 0.0, 0.25, 0.25])),
             ("point-M6", np.eye(6)[2]),
             ("exact-one-and-zero-M4", np.array([0.25, 0.25, 0.5, 0.0]))]
    return [pytest.param(law, id=name) for name, law in laws]


@pytest.mark.parametrize("law", _alias_laws())
def test_alias_tables_keep_the_bits_of_the_numpy_scalar_loop(law):
    prob, alias = build_alias(law)
    want_prob, want_alias = numpy_scalar_alias(law)
    assert (prob.dtype, alias.dtype) == (want_prob.dtype, want_alias.dtype)
    assert prob.tobytes() == want_prob.tobytes()
    assert alias.tobytes() == want_alias.tobytes()


class TestSampleNuKd:
    def test_one_hot_row_is_deterministic(self):
        tables = stacked([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        rng = np.random.default_rng(3)
        assert np.all(sample_nu_kd(*tables, np.zeros(20, dtype=np.int64), rng) == 1)
        assert np.all(sample_nu_kd(*tables, np.ones(20, dtype=np.int64), rng) == 0)

    def test_empirical_law_close_in_total_variation(self):
        f = monomial_factor(10, 4)
        rng = np.random.default_rng(11)
        k = 2
        n = 10**5
        drawn = sample_nu_kd(f.prob, f.alias, np.full(n, k), rng)
        freq = np.bincount(drawn, minlength=10) / n
        tv = 0.5 * np.sum(np.abs(freq - f.q[:, k] ** 2))
        assert tv < 0.01

    def test_out_of_range_k(self):
        f = monomial_factor(5, 2)
        for k in (-1, 2):
            with pytest.raises(ValueError, match="k outside"):
                sample_nu_kd(f.prob, f.alias, np.array([0, k]), np.random.default_rng(0))

    def test_vectorized_k_shapes(self):
        f = monomial_factor(5, 2)
        rng = np.random.default_rng(0)
        out = sample_nu_kd(f.prob, f.alias, np.array([0, 1, 0, 1]), rng)
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
        out = _kron_rows([np.take(x, cols[:, d], axis=1) for d, x in enumerate(mats)], rows)
        assert out.flags.c_contiguous
        assert np.array_equal(out, kron[np.ix_(flat_rows, flat_cols)])

    @pytest.mark.parametrize(
        "shapes,k,n,block_bytes",
        [
            (((6, 4), (5, 3), (7, 5)), 50, 9, 8 * 9 * 7),  # blocks of 7 rows
            (((6, 4), (5, 3), (7, 5)), 3000, 17, None),  # blocks of 963 rows
            (((9, 6),), 20, 5, 8 * 5 * 3),
            (((6, 4), (5, 3)), 40, 1, 8 * 3),
            (((6, 4), (5, 3), (7, 5)), 0, 9, None),
        ],
        ids=["partial-last-block", "default-blocks", "D1", "N1", "K0"],
    )
    def test_bits_equal_the_broadcast_product(self, monkeypatch, shapes, k, n, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal(shape) for shape in shapes]
        rows = np.column_stack([rng.integers(0, m, size=k) for m, _ in shapes])
        cols = np.column_stack([rng.integers(0, c, size=n) for _, c in shapes])
        # the reference: one (K, N) fancy-index take per dimension, multiplied in order
        expected = reduce(np.multiply, [x[rows[:, d, None], cols[None, :, d]] for d, x in enumerate(mats)])
        # the column takes made once by the caller, as J's record makes them
        takes = [np.take(x, cols[:, d], axis=1) for d, x in enumerate(mats)]
        out = _kron_rows(takes, rows)
        assert out.shape == (k, n) and out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()
        # views of the leading columns of wider takes, as point_mass_many reads J's of L's
        wider = [np.take(x, np.r_[cols[:, d], cols[:, d]], axis=1)[:, :n] for d, x in enumerate(mats)]
        out = _kron_rows(wider, rows)
        assert out.flags.c_contiguous and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [0, 2])
    def test_row_out_of_range_raises(self, monkeypatch, d):
        monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", 8 * 4 * 2)  # blocks of 2 rows
        rows = np.zeros((10, 3), dtype=np.int64)
        rows[7, d] = 3  # in the fourth block
        with pytest.raises(IndexError):
            _kron_rows([np.ones((3, 4))] * 3, rows)


def test_no_openblas_when_no_library_loads(monkeypatch):
    # the uncached scan; the cached binding the other tests read is left alone
    found, tried = factor_module._openblas(), []

    def refuse(path, *args, **kwargs):
        tried.append(path)
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert factor_module._openblas.__wrapped__() is None
    assert len(tried) >= (found is not None)  # numpy's OpenBLAS, where it has one, was tried


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 65, 128, 129, 4097])
    @pytest.mark.parametrize("width", [1, 7, 60, 330, 5456])
    @pytest.mark.parametrize("block_bytes", [None, 1000, 8 * 60 * 128 + 8])
    def test_blocks_cover_the_rows_in_64_row_multiples_within_the_budget(
        self, monkeypatch, rows, width, block_bytes
    ):
        if block_bytes is not None:
            monkeypatch.setattr(factor_module, "_ROW_BLOCK_BYTES", block_bytes)
        budget = factor_module._ROW_BLOCK_BYTES
        blocks = _row_blocks(rows, width)
        # the blocks cover range(rows) in order, and none is empty
        assert [i for block in blocks for i in range(rows)[block]] == list(range(rows))
        sizes = [block.stop - block.start for block in blocks]
        assert all(size > 0 for size in sizes)
        # every block but the last is a multiple of 64 rows
        assert all(size % 64 == 0 for size in sizes[:-1])
        # only rows == 1 gives a one-row block
        assert (1 in sizes) == (rows == 1)
        if rows and 8 * width * 64 <= budget:
            # the budget holds, but for the lone row a last block takes in
            folded = sizes[-1] % 64 == 1 and rows > 1
            assert all(8 * width * size <= budget for size in sizes[:-1])
            assert 8 * width * (sizes[-1] - folded) <= budget
        else:
            assert all(size == 64 for size in sizes[:-1])
