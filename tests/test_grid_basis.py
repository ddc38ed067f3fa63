import math

import numpy as np
import pytest

from kronlev.grid_basis import (
    BASIS_KINDS,
    BasisSpec,
    Grid1D,
    eval_basis_matrix,
    gauss_legendre_grid,
    gauss_legendre_uniform_grid,
)


class TestGaussLegendre:
    def test_single_node_is_midpoint_rule(self):
        g = gauss_legendre_grid(1)
        assert g.nodes.tolist() == [0.0]
        assert g.weights.tolist() == [1.0]

    def test_three_nodes_closed_form(self):
        g = gauss_legendre_grid(3)
        root = math.sqrt(3.0 / 5.0)
        assert np.allclose(g.nodes, [-root, 0.0, root], atol=1e-15)
        assert np.allclose(g.weights, [5 / 18, 8 / 18, 5 / 18], atol=1e-15)

    def test_weights_are_probability(self):
        for m in (2, 5, 20, 133):
            g = gauss_legendre_grid(m)
            assert abs(g.weights.sum() - 1.0) < 1e-12
            assert np.all(g.weights > 0)

    def test_second_moment(self):
        g = gauss_legendre_grid(20)
        assert abs(float(np.sum(g.weights * g.nodes**2)) - 1.0 / 3.0) < 1e-14

    @pytest.mark.parametrize("m", [2, 3, 8, 20])
    def test_exact_for_polynomials_up_to_2m_minus_1(self, m):
        # the probability-normalized rule against the moments of U[-1, 1]
        g = gauss_legendre_grid(m)
        for k in range(2 * m):
            exact = 0.0 if k % 2 else 1.0 / (k + 1)
            assert abs(float(np.sum(g.weights * g.nodes**k)) - exact) < 1e-12

    @pytest.mark.parametrize("m", [2, 7, 20, 64, 500])
    def test_matches_numpy_leggauss(self, m):
        g = gauss_legendre_grid(m)
        nodes, weights = np.polynomial.legendre.leggauss(m)
        assert np.max(np.abs(g.nodes - nodes)) < 1e-13
        assert np.max(np.abs(g.weights - weights / 2.0)) < 1e-13

    def test_nodes_are_symmetric(self):
        g = gauss_legendre_grid(9)
        assert np.array_equal(g.nodes, -g.nodes[::-1])
        assert g.nodes[4] == 0.0

    def test_uniform_variant(self):
        g = gauss_legendre_uniform_grid(6)
        assert np.array_equal(g.nodes, gauss_legendre_grid(6).nodes)
        assert np.all(g.weights == 1.0 / 6.0)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            gauss_legendre_grid(0)

    @pytest.mark.parametrize("build", [gauss_legendre_grid, gauss_legendre_uniform_grid])
    @pytest.mark.parametrize("size", [2.5, 3.9, 3.0, True, np.float64(4.0), np.bool_(True)])
    def test_non_integer_size_is_refused(self, build, size):
        with pytest.raises(ValueError, match="integer"):
            build(size)

    @pytest.mark.parametrize("size", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_size(self, size):
        assert np.array_equal(gauss_legendre_grid(size).nodes, gauss_legendre_grid(5).nodes)
        assert len(gauss_legendre_uniform_grid(size)) == 5


class TestGrid1D:
    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid1D(np.array([0.0, -1.0]), np.array([0.5, 0.5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Grid1D(np.array([-1.0, 1.0]), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]], ids=["shorter", "longer"])
    def test_rejects_weights_of_another_length(self, weights):
        with pytest.raises(ValueError, match="^nodes and weights must be equal-length 1D arrays$"):
            Grid1D(np.array([-1.0, 0.0, 1.0]), np.array(weights))

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="not renormalizing"):
            Grid1D(np.array([-1.0, 1.0]), np.array([0.5, 0.6]))

    @pytest.mark.parametrize(
        "nodes,weights",
        [([-1.0, 0.0, 1.0], [np.nan, 0.5, 0.5]), ([-1.0, 0.0, np.inf], [0.25, 0.5, 0.25])],
        ids=["nan-weight", "inf-node"],
    )
    def test_rejects_non_finite_values(self, nodes, weights):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(nodes, weights)


class TestEvalBasis:
    def test_monomial_first_function_is_one(self):
        assert eval_basis_matrix(BasisSpec("monomial", 3), [0.7])[0, 0] == 1.0

    def test_monomial_powers(self):
        assert eval_basis_matrix(BasisSpec("monomial", 4), [2.0])[0, 3] == 8.0

    def test_legendre_linear_normalization(self):
        got = eval_basis_matrix(BasisSpec("legendre-orthonormal", 3), [0.5])[0, 1]
        assert abs(got - math.sqrt(3.0) * 0.5) < 1e-15

    def test_legendre_gram_is_identity_under_quadrature(self):
        g = gauss_legendre_grid(20)
        values = eval_basis_matrix(BasisSpec("legendre-orthonormal", 10), g.nodes)
        gram = (values * g.weights[:, None]).T @ values
        assert np.max(np.abs(gram - np.eye(10))) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BasisSpec("chebyshev", 3)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, np.float64(2.0), np.bool_(True), "3"])
    def test_non_integer_count_is_refused(self, count):
        with pytest.raises(ValueError, match="integer"):
            BasisSpec("monomial", count)

    def test_numpy_integer_count(self):
        values = eval_basis_matrix(BasisSpec("legendre-orthonormal", np.int64(4)), [0.5])
        assert values.shape == (1, 4)


def _frozen_legendre_value_and_derivative(degree, y):
    p_prev = np.zeros_like(y)
    p = np.ones_like(y)
    for k in range(degree):
        p_prev, p = p, ((2 * k + 1) * y * p - k * p_prev) / (k + 1)
    return p, degree * (y * p - p_prev) / (y * y - 1.0)


def _frozen_gauss_legendre(m):
    """Nodes and weights by a Newton solve with its own Legendre loop: the bit-for-bit reference."""
    if m == 1:
        return np.zeros(1), np.ones(1)
    i = np.arange(1, m + 1)
    y = np.cos(np.pi * (4 * i - 1) / (4 * m + 2))
    for _ in range(100):
        p, dp = _frozen_legendre_value_and_derivative(m, y)
        step = p / dp
        y = y - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    p, dp = _frozen_legendre_value_and_derivative(m, y)
    y = y[::-1]
    dp = dp[::-1]
    y = 0.5 * (y - y[::-1])
    w = 1.0 / ((1.0 - y * y) * dp * dp)
    w = 0.5 * (w + w[::-1])
    return y, w


def _frozen_basis(kind, n, y):
    """Basis tables by a separate loop per kind: the bit-for-bit reference."""
    out = np.empty((y.size, n))
    out[:, 0] = 1.0
    if kind == "monomial":
        for j in range(1, n):
            out[:, j] = out[:, j - 1] * y
        return out
    if n > 1:
        out[:, 1] = y
    for k in range(1, n - 1):
        out[:, k + 1] = ((2 * k + 1) * y * out[:, k] - k * out[:, k - 1]) / (k + 1)
    return out * np.sqrt(2.0 * np.arange(n) + 1.0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 20, 101, 1000])
def test_grids_and_bases_keep_every_bit(m):
    # the grids and basis tables feed every factor, so a refactor of the
    # recurrence must reproduce these bytes, not merely agree to rounding
    nodes, weights = _frozen_gauss_legendre(m)
    for grid in (gauss_legendre_grid(m), gauss_legendre_uniform_grid(m)):
        assert grid.nodes.tobytes() == nodes.tobytes()
    assert gauss_legendre_grid(m).weights.tobytes() == weights.tobytes()
    assert gauss_legendre_uniform_grid(m).weights.tobytes() == np.full(m, 1.0 / m).tobytes()
    for kind in BASIS_KINDS:
        for n in sorted({1, 2, 3, 10, m}):
            got = eval_basis_matrix(BasisSpec(kind, n), nodes)
            assert got.tobytes() == _frozen_basis(kind, n, nodes).tobytes(), (kind, n)
