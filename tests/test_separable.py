"""The separable-target reduction against the grid path, closed forms and a grid-free run."""

import json
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import kronlev.experiments
import kronlev.sampler as sampler_module
import kronlev.sketch as sketch_module
from kronlev.cli import main
from kronlev.config import ConfigError, load_json, parse_experiment, parse_problem
from kronlev.configs import packaged_config_path
from kronlev.experiments import evaluate_on_grid, make_target, prepare_problem, run_trials
from kronlev.factor import _kron_rows, build_factor
from kronlev.grid_basis import (
    BasisSpec,
    Grid1D,
    eval_basis_matrix,
    gauss_legendre_grid,
    gauss_legendre_uniform_grid,
)
from kronlev.indexset import IndexSetSpec, _missing_below, build_index_set
from kronlev.sampler import METHOD_TAGS, make_method, point_mass_many, sample_indices
from kronlev.sketch import (
    SeparableValues,
    _one_blas_thread,
    full_relative_error,
    reduce_full_grid,
    solve,
    trial_error,
)
from test_experiments import count_calls

ISHIGAMI_CONFIGS = ["ishigami-g7", "ishigami-g9", "ishigami-hc15", "ishigami-hc18"]
# a J that is not lower: its closure L is larger, so the reduction keeps a basis U
GAPPED = {"dimension": 3, "family": "explicit-list",
          "indices": [[1, 1, 1], [3, 1, 1], [1, 2, 2], [2, 1, 3]]}


def ishigami_problem(name, **changes):
    config = load_json(packaged_config_path("ishigami-g7" if name == "gapped" else name))
    if name == "gapped":
        config["index_set"] = GAPPED
    for key, value in changes.items():
        config[key] = {**config[key], **value}
    return parse_problem(config)


def both_reductions(problem):
    """(separable, grid) reductions of one problem."""
    separable = prepare_problem(problem)
    assert isinstance(separable.values, SeparableValues)
    values = evaluate_on_grid(make_target(problem.model), problem.grids)
    grid = reduce_full_grid(problem.index_set, problem.factors, values)
    return separable, grid


def relative(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("name", ISHIGAMI_CONFIGS + ["gapped"])
def test_separable_reduction_and_trials_match_the_grid_path(name, monkeypatch):
    problem = ishigami_problem(name)
    separable, grid = both_reductions(problem)
    assert (separable.subspace.basis is None) == (name != "gapped")
    np.testing.assert_array_equal(separable.subspace.lower, grid.subspace.lower)
    assert np.max(np.abs(separable.c - grid.c)) <= 1e-13 * np.linalg.norm(grid.c)
    for field in ("b_sq", "residual_sq", "optimal_error"):
        assert relative(getattr(separable, field), getattr(grid, field)) <= 1e-13, field
    rhs = []
    monkeypatch.setattr(sketch_module, "solve", lambda system: rhs.append(system.rhs) or solve(system))
    tried = []
    for tag in METHOD_TAGS:
        try:
            method = problem.method(tag)
        except ConfigError:
            continue  # a method this index set or these factors do not admit
        tried.append(tag)
        for seed in range(3):
            rows = sample_indices(method, np.random.default_rng(seed), 4 * len(problem.index_set))
            error, flag = trial_error(separable, method, rows)
            grid_error, grid_flag = trial_error(grid, method, rows)
            assert relative(error, grid_error) <= 1e-13 and flag == grid_flag
            # b at the drawn rows has the bits of the values on the grid
            assert rhs[-2].tobytes() == rhs[-1].tobytes()
            values = separable.values[tuple(rows.T)]
            assert values.tobytes() == grid.values[tuple(rows.T)].tobytes()
    assert "uniform" in tried and ("leverage-lower" in tried) == (name != "gapped")


@pytest.mark.parametrize("name", ["ishigami-g7", "gapped"])
def test_only_a_non_lower_set_forms_r_lj(name, monkeypatch):
    # a lower J's record, reduction and trials read Q and c alone; the gapped
    # J's reduction reads its record's U, which forms R_{L,J} once for its QR
    # and keeps it, so a trial forms neither again.  A method holds J alone.
    # On the Gauss-Legendre rule the Legendre columns are orthogonal, so
    # orthogonal-columns admits either J
    problem = ishigami_problem(name, grid={"grid": "gauss-legendre"})
    gathers, qr = [], np.linalg.qr
    # a table of R's columns has N_d rows, one of Q's the grid's M_d
    assert all(len(f.r) < len(f.q) for f in problem.factors)

    def spy(tables, rows):
        gathers.append("R" if all(len(t) == len(f.r) for t, f in zip(tables, problem.factors)) else "Q")
        return _kron_rows(tables, rows)

    def spy_qr(matrix, *args, **kwargs):
        gathers.append("U")
        return qr(matrix, *args, **kwargs)

    monkeypatch.setattr(sketch_module, "_kron_rows", spy)
    monkeypatch.setattr(sampler_module, "_kron_rows", spy)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    once = [] if name != "gapped" else ["R", "U"]
    reduction = prepare_problem(problem)
    assert gathers == once
    assert reduction.subspace.n == len(problem.index_set)
    if name == "gapped":
        lower, n = reduction.subspace.lower, reduction.subspace.n
        r_lj = _kron_rows([np.take(f.r, lower[:n, d], axis=1) for d, f in enumerate(problem.factors)], lower)
        with _one_blas_thread():
            assert np.array_equal(reduction.subspace.basis, qr(r_lj)[0])
    else:
        assert reduction.subspace.basis is None
    gathers.clear()
    method = problem.method("uniform")
    rows = sample_indices(method, np.random.default_rng(0), 4 * reduction.subspace.n)
    trial_error(reduction, method, rows)
    assert gathers == ["Q"]
    gathers.clear()
    mixture = problem.method("orthogonal-columns")
    assert mixture.index_set is reduction.subspace.index_set
    trial_error(reduction, mixture, sample_indices(mixture, np.random.default_rng(0), len(rows)))
    assert gathers == ["Q"]
    gathers.clear()
    # U was formed at the reduction's read and is kept
    bases = [reduction.subspace.basis for _ in range(2)]
    assert gathers == []
    if name == "gapped":
        assert bases[1] is bases[0]
    else:
        assert bases == [None, None]


def test_a_refused_orthogonal_columns_method_forms_no_r_lj(monkeypatch):
    # monomial columns are not orthogonal: the method is refused, and no
    # method walks L or gathers R_{L,J} for U
    problem = ishigami_problem("gapped", basis={"kind": "monomial"}, grid={"grid": "gauss-legendre"})
    calls = count_calls(monkeypatch, _kron_rows, _missing_below)
    with pytest.raises(ValueError, match="not orthogonal"):
        make_method("orthogonal-columns", problem.factors, problem.index_set)
    assert calls == []


def test_tiny_optimum_is_not_a_difference_of_norms():
    # f = sin(pi y_1) at total order 13: ||r|| / ||b|| is 1.2e-9, so
    # ||b||^2 - ||c||^2 keeps none of its digits
    problem = ishigami_problem(
        "ishigami-g7", model={"a": 0.0, "b": 0.0}, index_set={"order": 13}, grid={"M": 20}
    )
    separable, grid = both_reductions(problem)
    assert 1e-9 < grid.optimal_error < 2e-9
    assert relative(separable.optimal_error, grid.optimal_error) <= 1e-6
    c_sq = float(separable.c @ separable.c)
    subtracted = math.sqrt(max(separable.b_sq - c_sq, 0.0) / separable.b_sq)
    assert relative(subtracted, grid.optimal_error) > 1e-6


def small_factors(m=5, n=3, dimension=2):
    return [build_factor(gauss_legendre_grid(m), BasisSpec("legendre-orthonormal", n))] * dimension


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_non_finite_target_is_the_grid_paths_error(bad):
    index_set = build_index_set(IndexSetSpec(2, "wlp-ball", 2, weights=(1.0, 1.0)))
    factors = small_factors()
    first = np.linspace(1.0, 2.0, 5)
    if bad == "overflow":  # finite tables whose product is not
        first, second = first * 1e200, np.full(5, 1e200)
    else:
        first[3], second = bad, np.ones(5)
    values = SeparableValues(((first, second), (np.ones(5), np.ones(5))))
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.multiply.outer(first, second) + 1.0
        for b_values in (values, grid):
            with pytest.raises(ValueError, match="^b_values must be finite$"):
                reduce_full_grid(index_set, factors, b_values)


@pytest.mark.parametrize("case", ["zero-tables", "zero-weight-node", "cancelling-terms"])
def test_zero_target_is_the_grid_paths_error(case):
    index_set = build_index_set(IndexSetSpec(2, "wlp-ball", 1, weights=(1.0, 1.0)))
    if case == "zero-weight-node":  # nonzero only at the first node, which has no weight
        grid = Grid1D(np.array([-1.0, 0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.25, 0.5]))
        factors, first = [build_factor(grid, BasisSpec("legendre-orthonormal", 2))] * 2, np.eye(4)[0]
    else:
        factors = small_factors()
        first = np.zeros(5) if case == "zero-tables" else np.linspace(1.0, 2.0, 5)
    second = np.ones(len(first))
    terms = [(first, second), (-first, second)] if case == "cancelling-terms" else [(first, second)]
    grid_values = reduce(np.add, [np.multiply.outer(*term) for term in terms])
    for b_values in (SeparableValues(tuple(terms)), grid_values):
        with pytest.raises(ValueError, match="^b_values are zero wherever the grid weight is positive$"):
            reduce_full_grid(index_set, factors, b_values)


def test_tables_must_fit_the_grid():
    index_set = build_index_set(IndexSetSpec(2, "wlp-ball", 1, weights=(1.0, 1.0)))
    with pytest.raises(ValueError, match="one value per grid row"):
        reduce_full_grid(index_set, small_factors(), SeparableValues(((np.ones(5), np.ones(4)),)))
    with pytest.raises(ValueError, match="one 1-D table per dimension"):
        SeparableValues(((np.ones(5), np.ones(5)), (np.ones(5),)))
    for terms in ((), ((),)):  # no term, or a term over no dimension
        with pytest.raises(ValueError, match="^a separable target needs a term over at least one dimension$"):
            SeparableValues(terms)


def manufactured(index_set, m, seed, nonzero=None):
    """f = sum_{alpha in J} c_alpha P_alpha + sum_{beta in B} d_beta P_beta as separable terms.

    P_alpha is the product of orthonormal Legendre polynomials of degrees
    alpha - 1.  B holds multi-indices outside J, of degree at most m - 1 in
    every dimension: some inside J's bounding box, and some beyond it.  On
    m-node Gauss-Legendre grids with quadrature weights these are discretely
    orthonormal, so Q_J^T b = c and the optimal error is ||d|| / ||(c, d)||.
    With ``nonzero`` set, only that many of the c_alpha, drawn at random, are
    nonzero, and only their terms are formed.
    """
    rng = np.random.default_rng(seed)
    dimension, members = index_set.dimension, set(index_set.indices)
    box = index_set.bounding_box
    outside = []
    while len(outside) < 12:  # six inside the box, then six beyond it
        beyond = len(outside) >= 6
        beta = tuple(int(rng.integers(1, (m if beyond else n) + 1)) for n in box)
        past_box = any(b > n for b, n in zip(beta, box))
        if beta not in members and beta not in outside and beyond == past_box:
            outside.append(beta)
    c = rng.standard_normal(len(index_set))
    if nonzero is not None:
        c[rng.permutation(len(c))[nonzero:]] = 0.0
    d = 0.3 * rng.standard_normal(len(outside))
    grid = gauss_legendre_grid(m)
    legendre = eval_basis_matrix(BasisSpec("legendre-orthonormal", m), grid.nodes)
    terms = tuple(
        (coef * legendre[:, alpha[0] - 1],) + tuple(legendre[:, a - 1] for a in alpha[1:])
        for coef, alpha in zip(np.concatenate([c, d]), list(index_set.indices) + outside)
        if coef != 0.0
    )
    return SeparableValues(terms), c, d


def manufactured_param(dimension, family, order, m, nonzero=None):
    return pytest.param(dimension, family, order, m, nonzero, id=f"D{dimension}-{family}-{order}-M{m}")


# from D = 8 on, J's bounding box holds 1.7e6 (D = 8, total degree 5) to 1.1e12
# (D = 20, total degree 3) entries; the reduction costs r^2 per prefix of L and
# coefficient, so there only six of J's coefficients are nonzero (r = 18)
MANUFACTURED = [
    manufactured_param(dimension, family, order, m)
    for dimension, order, m in [(2, 6, 9), (3, 5, 8), (4, 4, 7), (5, 3, 6), (6, 3, 6), (7, 3, 8)]
    for family in ("wlp-ball", "hyperbolic-cross")
] + [
    manufactured_param(dimension, family, order, m, nonzero=6)
    for dimension, family, order, m in [
        (8, "wlp-ball", 5, 7), (8, "hyperbolic-cross", 16, 18),
        (10, "wlp-ball", 4, 6), (10, "hyperbolic-cross", 8, 10),
        (20, "wlp-ball", 3, 6), (20, "hyperbolic-cross", 6, 8),
    ]
]


@pytest.mark.parametrize("dimension,family,order,m,nonzero", MANUFACTURED)
def test_manufactured_targets_give_their_closed_form(dimension, family, order, m, nonzero, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the separable path formed the grid")

    monkeypatch.setattr(sketch_module, "_project_grid", no_grid)
    index_set = build_index_set(IndexSetSpec(dimension, family, order, weights=(1.0,) * dimension))
    factors = [build_factor(gauss_legendre_grid(m), BasisSpec("legendre-orthonormal", m))] * dimension
    values, c, d = manufactured(index_set, m, seed=dimension, nonzero=nonzero)
    tracemalloc.start()
    try:
        reduction = reduce_full_grid(index_set, factors, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nothing of the size of J's bounding box, and no R_{L,J}
    assert peak <= 16 << 20
    scale = math.sqrt(c @ c + d @ d)
    assert np.max(np.abs(reduction.c - c)) <= 1e-12 * scale
    assert relative(reduction.optimal_error, math.sqrt(d @ d) / scale) <= 1e-12
    x = c + 0.1 * np.random.default_rng(0).standard_normal(len(c))
    expected = math.sqrt((x - c) @ (x - c) + d @ d) / scale
    assert relative(full_relative_error(reduction, x), expected) <= 1e-12
    if dimension == 7:  # 8^7 = 2.1M rows, above the dense oracle's guard
        method = make_method("leverage-lower", factors, index_set)
        rows = sample_indices(method, np.random.default_rng(1), 4 * len(index_set))
        error, flag = trial_error(reduction, method, rows)
        assert not flag and reduction.optimal_error <= error < 1.0


def test_full_error_forms_r_lj_in_row_blocks():
    # D = 30, total degree 3: N = |L| = 5456, so the whole R_{L,J} takes 238 MB.
    # On Gauss-Legendre grids the orthonormal Legendre factors are their own Q,
    # so R_{L,J} = I up to rounding and the error has the closed form below.
    dimension = 30
    grid = gauss_legendre_grid(6)
    factors = [build_factor(grid, BasisSpec("legendre-orthonormal", 4))] * dimension
    index_set = build_index_set(IndexSetSpec(dimension, "wlp-ball", 3, weights=(1.0,) * dimension))
    values = genz("product-peak", [grid] * dimension, [dimension**-0.5] * dimension, [0.5] * dimension)
    reduction = reduce_full_grid(index_set, factors, values)
    x = reduction.c * (1.0 + 0.1 * np.random.default_rng(30).standard_normal(len(index_set)))
    tracemalloc.start()
    try:
        error = full_relative_error(reduction, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20
    gap = x - reduction.c
    expected = math.sqrt((gap @ gap + reduction.residual_sq) / reduction.b_sq)
    assert relative(error, expected) <= 1e-12


@pytest.mark.parametrize("dimension,order,m", [(3, 5, 8), (7, 3, 8)])
def test_leverage_lower_mass_is_its_closed_form(dimension, order, m):
    # on Gauss-Legendre grids the weighted orthonormal Legendre columns are
    # orthonormal, so Q^(d)[m, a]^2 = w_m P_{a-1}(y_m)^2 and
    # nu(m) = (1/N) sum_{alpha in J} prod_d w_{m_d} P_{alpha_d - 1}(y_{m_d})^2
    index_set = build_index_set(IndexSetSpec(dimension, "wlp-ball", order, weights=(1.0,) * dimension))
    grid = gauss_legendre_grid(m)
    factors = [build_factor(grid, BasisSpec("legendre-orthonormal", m))] * dimension
    method = make_method("leverage-lower", factors, index_set)
    rows = sample_indices(method, np.random.default_rng(dimension), 4 * len(index_set))
    legendre = eval_basis_matrix(BasisSpec("legendre-orthonormal", m), grid.nodes)
    table = grid.weights[:, None] * legendre**2  # (m, degree + 1)
    cols = np.asarray(index_set.indices) - 1
    products = np.ones((len(rows), len(index_set)))
    for d in range(dimension):
        products *= table[rows[:, d]][:, cols[:, d]]
    expected = products.sum(axis=1) / len(index_set)
    np.testing.assert_allclose(point_mass_many(method, rows), expected, rtol=1e-12, atol=0.0)


def genz(kind, grids, a, w):
    """Genz's (1984) product peak or Gaussian on the grids, as one separable term.

    Both are products f(x) = prod_d g_d(x_d) on [0, 1]^D, here at
    x = (y + 1) / 2 for the nodes y in [-1, 1]: the product peak has
    g_d = 1 / (a_d^-2 + (x_d - w_d)^2), the Gaussian g_d = exp(-a_d^2 (x_d - w_d)^2).
    """
    tables = []
    for grid, a_d, w_d in zip(grids, a, w):
        x = (grid.nodes + 1.0) / 2.0
        if kind == "product-peak":
            tables.append(1.0 / (a_d**-2.0 + (x - w_d) ** 2))
        else:
            tables.append(np.exp(-((a_d * (x - w_d)) ** 2)))
    return SeparableValues((tuple(tables),))


@pytest.mark.parametrize("family", ["wlp-ball", "hyperbolic-cross"])
@pytest.mark.parametrize("kind", ["product-peak", "gaussian"])
def test_genz_targets_match_the_grid_path(kind, family):
    dimension, m = 4, 9
    index_set = build_index_set(IndexSetSpec(dimension, family, 4, weights=(1.0,) * dimension))
    grids = [gauss_legendre_uniform_grid(m)] * dimension
    factors = [build_factor(grids[0], BasisSpec("legendre-orthonormal", 5))] * dimension
    values = genz(kind, grids, a=(4.0, 3.0, 2.0, 1.0), w=(0.2, 0.4, 0.6, 0.8))
    separable = reduce_full_grid(index_set, factors, values)
    grid = reduce_full_grid(index_set, factors, reduce(np.multiply.outer, values.terms[0]))
    assert 1e-3 < grid.optimal_error < 0.5
    assert np.max(np.abs(separable.c - grid.c)) <= 1e-13 * np.linalg.norm(grid.c)
    for field in ("b_sq", "residual_sq", "optimal_error"):
        assert relative(getattr(separable, field), getattr(grid, field)) <= 1e-13, field


def test_ishigami_never_forms_the_grid(monkeypatch, tmp_path, capsys):
    def no_grid(*args):
        raise AssertionError("the grid was formed")

    monkeypatch.setattr(kronlev.experiments, "evaluate_on_grid", no_grid)
    monkeypatch.setattr(sketch_module, "_project_grid", no_grid)
    config = load_json(packaged_config_path("ishigami-g7"))
    config["trials"] = 2
    report = run_trials(parse_experiment(config))
    assert all(len(errors) == 2 for errors in report.errors.values())
    args = ["solve", "--config", str(packaged_config_path("ishigami-g7")),
            "--method", "leverage-lower", "--K", "480", "--seed", "1"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal_relative_error"] == report.optimal_error


def test_duffing_keeps_the_grid_path(monkeypatch):
    config = load_json(packaged_config_path("duffing-g7"))
    config.update(trials=1, methods=["leverage-lower"], grid={"grid": "gauss-legendre-uniform", "M": 8})
    config["model"]["step"] = 0.01
    experiment = parse_experiment(config)
    calls = count_calls(monkeypatch, kronlev.experiments.evaluate_on_grid)
    report = run_trials(experiment)
    assert calls == ["evaluate_on_grid"]
    assert not isinstance(prepare_problem(experiment.problem).values, SeparableValues)
    assert report.errors["leverage-lower"][0] >= report.optimal_error
