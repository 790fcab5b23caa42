"""Tests for the Galerkin assembly layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from winguide import assembly
from winguide.assembly import (
    assemble_exp_rhs,
    assemble_galerkin,
    basis_overlap_gram,
    norm_matrix,
    sub_symbol,
    tail_estimate,
)
from winguide.errors import ThresholdError
from winguide.geometry import Geometry, SolverSettings, WindowSpec
from winguide.specfun import norm_weight


def _single(a=1.0, d=2.0, **kw):
    return Geometry(d=d, windows=(WindowSpec(0.0, a),)), SolverSettings(**kw)


def test_basis_ft_at_zero():
    assert oracles.basis_ft(0, 1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-14)
    assert oracles.basis_ft(3, 1.7, 0.0) == 0.0
    assert oracles.basis_ft(1, 1.0, 0.0) == 0.0


def test_basis_ft_matches_quadrature_oracle():
    # row n of the production beta table is bhat_n / i^n
    for n, a, xi in [(1, 1.0, 2.5), (0, 1.0, 0.7), (2, 0.8, 1.9), (5, 1.3, 4.2)]:
        expected = oracles.quad_basis_ft(n, a, xi)
        assert oracles.basis_ft(n, a, xi) == pytest.approx(expected, abs=1e-10)
        beta = assembly.beta_matrix(a, n + 1, np.array([xi]))[n, 0]
        assert (1j ** n) * beta == pytest.approx(expected, abs=1e-10)


def test_exp_rhs_small_kappa_limits():
    window = WindowSpec(0.0, 1.0)
    g = assemble_exp_rhs(0.5, window, 1e-9, +1, 4)
    assert g[0] == pytest.approx(math.pi / 2, rel=1e-6)
    assert abs(g[1]) < 1e-8
    assert abs(g[3]) < 1e-8


def test_exp_rhs_matches_quadrature_oracle():
    window = WindowSpec(0.0, 1.0)
    g = assemble_exp_rhs(0.5, window, 0.6, +1, 6)
    for n in range(6):
        assert g[n] == pytest.approx(oracles.quad_exp_moment(n, 1.0, 0.6), abs=1e-10)


def test_exp_rhs_orientation_flips_odd_entries():
    window = WindowSpec(0.0, 0.9)
    plus = assemble_exp_rhs(0.3, window, 0.8, +1, 6)
    minus = assemble_exp_rhs(0.3, window, 0.8, -1, 6)
    signs = np.array([(-1.0) ** n for n in range(6)])
    assert np.allclose(plus * signs, minus, rtol=0, atol=1e-15)


def test_galerkin_exact_symmetry():
    geometry, settings = _single()
    system = assemble_galerkin(0.5, geometry, settings)
    assert np.array_equal(system.matrix, system.matrix.T)


def test_galerkin_translation_invariance():
    d = 2.0
    settings = SolverSettings(basis_order=16)
    centered = assemble_galerkin(
        0.5, Geometry(d=d, windows=(WindowSpec(0.0, 1.0),)), settings
    )
    shifted = assemble_galerkin(
        0.5, Geometry(d=d, windows=(WindowSpec(7.3, 1.0),)), settings
    )
    scale = np.abs(centered.matrix).max()
    assert np.abs(centered.matrix - shifted.matrix).max() <= 1e-14 * scale


def test_galerkin_two_window_block_structure():
    settings = SolverSettings(basis_order=12)
    single = assemble_galerkin(
        0.5, Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),)), settings
    )
    double = assemble_galerkin(
        0.5,
        Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0))),
        settings,
    )
    n = settings.basis_order
    first, second = slice(0, n), slice(n, 2 * n)
    a_block = double.matrix[first, first]
    b_block = double.matrix[first, second]
    scale = np.abs(single.matrix).max()
    assert np.abs(a_block - single.matrix).max() <= 1e-12 * scale
    assert np.abs(double.matrix[second, second] - single.matrix).max() <= 1e-12 * scale
    assert np.abs(double.matrix[second, first] - b_block.T).max() == 0.0
    # the coupling block is exponentially small against the diagonal
    assert np.abs(b_block).max() < 1e-2 * scale


def test_galerkin_threshold_error():
    geometry, settings = _single()
    with pytest.raises(ThresholdError):
        assemble_galerkin(0.9999999, geometry, settings)


def test_positive_definite_below_ground_state():
    # lambda-1 of this geometry is about 0.9349, so 0.5 is safely below it.
    geometry, settings = _single()
    system = assemble_galerkin(0.5, geometry, settings)
    np.linalg.cholesky(system.matrix)


def test_smallest_eigenvalue_decreasing_in_lambda():
    geometry, settings = _single(basis_order=16)
    lams = np.linspace(0.1, 0.95, 8)
    mins = []
    for lam in lams:
        system = assemble_galerkin(float(lam), geometry, settings)
        mins.append(np.linalg.eigvalsh(system.matrix)[0])
    assert all(b < a for a, b in zip(mins, mins[1:]))


def test_quadrature_convergence_on_panel_points():
    geometry, _ = _single()
    base = assemble_galerkin(0.5, geometry, SolverSettings(basis_order=12))
    fine = assemble_galerkin(
        0.5, geometry, SolverSettings(basis_order=12, panel_points=48)
    )
    assert np.abs(base.matrix - fine.matrix).max() <= 1e-12


def test_tail_estimate_bounds_observed_change():
    geometry, _ = _single()
    order = 12
    base = assemble_galerkin(0.5, geometry, SolverSettings(basis_order=order))
    wide = assemble_galerkin(
        0.5, geometry, SolverSettings(basis_order=order, xi_max=400.0)
    )
    observed = np.abs(base.matrix - wide.matrix)
    for n in range(order):
        for m in range(order):
            assert tail_estimate(0.5, 1.0, 200.0, 2.0, n, m) >= observed[n, m]
    assert base.tail_bound >= observed.max()


def test_basis_overlap_gram_matches_quadrature():
    a, order = 1.3, 6
    gram = basis_overlap_gram(a, order)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    t = a * nodes
    w = a * weights
    for n in range(order):
        bn = oracles.edge_basis(n, a, t)
        for m in range(order):
            bm = oracles.edge_basis(m, a, t)
            assert gram[n, m] == pytest.approx(float((w * bn * bm).sum()), abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 0.8, 1.0, 1.2, 2.7, 3.0])
@pytest.mark.parametrize("orders", [4, 12, 32, 48])
def test_table_arrays_bitwise_equal_to_loops(a, orders):
    # the array forms of t3 and the overlap Gram matrix do the loops' arithmetic
    for xi_max in (200.0, 800.0):
        table = assembly._build_window_table.__wrapped__(a, orders, xi_max, 24, 1.0, xi_max)  # uncached
        want = oracles.window_t3_loop(
            a, xi_max, table.nodes, table.weights, table.beta, assembly._t3_tail_00
        )
        assert table.t3.tobytes() == want.tobytes()
    want = oracles.overlap_gram_loop(a, orders)
    assert basis_overlap_gram(a, orders).tobytes() == want.tobytes()


_NORM_SETTINGS = SolverSettings(basis_order=12, panel_points=12)
_norm_cases = st.fixed_dictionaries({
    "a": st.floats(0.5, 3.0),
    "b": st.floats(0.5, 3.0),
    "gap": st.floats(0.5, 2.0),
    "d": st.floats(0.5, math.pi),
    "lam": st.floats(0.05, 0.9),
    "pair": st.booleans(),
})


def _norm_case(case):
    a, b, gap = case["a"], case["b"], case["gap"]
    if case["pair"]:
        windows = (WindowSpec(-a - 0.5 * gap, a), WindowSpec(b + 0.5 * gap, b))
    else:
        windows = (WindowSpec(0.0, a),)
    return case["lam"], Geometry(d=case["d"], windows=windows)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=_norm_cases)
def test_norm_matrix_is_minus_lambda_derivative(case):
    lam, geometry = _norm_case(case)
    h = 1e-4
    upper = assemble_galerkin(lam + h, geometry, _NORM_SETTINGS).matrix
    lower = assemble_galerkin(lam - h, geometry, _NORM_SETTINGS).matrix
    gram = norm_matrix(lam, geometry, _NORM_SETTINGS)
    central = -(upper - lower) / (2.0 * h)
    assert np.abs(gram - central).max() <= 1e-6 * np.abs(gram).max()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=_norm_cases)
def test_norm_matrix_symmetric_positive_definite(case):
    lam, geometry = _norm_case(case)
    gram = norm_matrix(lam, geometry, _NORM_SETTINGS)
    assert np.array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram)[0] > 0.0


@pytest.mark.parametrize("b", [1.0, 0.7])
def test_cross_blocks_call_ive_once_per_block(monkeypatch, b):
    # one ive pass per cross block, over every distinct half-width's a kappa;
    # diagonal blocks and window tables call no ive
    sizes = []

    def count(orders, x):
        sizes.append(np.size(x))
        return ive(orders, x)

    ive = assembly.ive
    monkeypatch.setattr(assembly, "ive", count)
    settings = SolverSettings(basis_order=12)
    pair = (WindowSpec(-3.0, 1.0), WindowSpec(3.0, b))
    triple = (WindowSpec(-6.0, 1.0), WindowSpec(0.0, b), WindowSpec(6.0, 1.0))
    for windows in (pair, triple):
        geometry = Geometry(d=2.0, windows=windows)
        want = []
        for i, left in enumerate(windows):
            for right in windows[i + 1 :]:
                gap = right.center - left.center - left.half_width - right.half_width
                kappas, _ = assembly.cross_kernel_series(0.6, 2.0, gap)
                want.append(len({left.half_width, right.half_width}) * kappas.size)
        for build in (assemble_galerkin, norm_matrix):
            sizes.clear()
            build(0.6, geometry, settings)
            assert sizes == want


@pytest.mark.parametrize("orders", [32, 33])
@pytest.mark.parametrize("widths", [(1.2, 0.8), (1.0, 0.7), (3.0, 0.5), (0.1, 2.0)])
def test_merged_moment_pass_matches_per_width(widths, orders):
    # the merged pass starts Miller's recurrence at the larger a kappa, which
    # moves each entry by rounding only
    for gap in (0.05, 0.5, 2.0, 10.0):
        for lam in (0.02, 0.5, 0.9, 1.0 - 1e-6):
            kappas, _ = assembly.cross_kernel_series(lam, 2.0, gap)
            merged = assembly._scaled_moments(list(widths), orders, kappas)
            for a, got in zip(widths, merged):
                (want,) = assembly._scaled_moments([a], orders, kappas)
                assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want).max(axis=0))


@pytest.mark.parametrize(
    "windows, distinct",
    [
        ((WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0)), 1),
        ((WindowSpec(-2.5, 1.2), WindowSpec(2.5, 0.8)), 2),
        ((WindowSpec(-6.0, 1.0), WindowSpec(0.0, 0.7), WindowSpec(6.0, 1.0)), 2),
    ],
)
def test_one_diagonal_block_per_distinct_window(monkeypatch, windows, distinct):
    calls = []
    for name in ("_diagonal_block", "_diagonal_norm_block"):
        block = getattr(assembly, name)

        def spy(lam, table, d, name=name, block=block):
            calls.append(name)
            return block(lam, table, d)

        monkeypatch.setattr(assembly, name, spy)
    geometry = Geometry(d=2.0, windows=windows)
    settings = SolverSettings(basis_order=12)
    for name, build in (("_diagonal_block", assemble_galerkin), ("_diagonal_norm_block", norm_matrix)):
        calls.clear()
        build(0.6, geometry, settings)
        assert calls == [name] * distinct


def test_mirrored_pair_matches_window_by_window_assembly():
    geometry = Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0)))
    settings = SolverSettings()
    for lam in (0.3, 0.9, 0.999):
        m = oracles.block_matrix_per_window(
            lam, geometry, settings, assembly._diagonal_block, assembly._cross_block
        )
        g = oracles.block_matrix_per_window(
            lam, geometry, settings, assembly._diagonal_norm_block, assembly._cross_norm_block
        )
        assert assemble_galerkin(lam, geometry, settings).matrix.tobytes() == m.tobytes()
        assert norm_matrix(lam, geometry, settings).tobytes() == g.tobytes()


def test_window_table_cache_bounded_and_rebuild_bitwise():
    small = SolverSettings(basis_order=4, xi_max=50.0)
    xi0 = assembly._far_cut(0.5)  # 80 > xi_max: no far nodes
    first = assembly._window_table(0.5, 4, small, xi0)
    for k in range(1, 17):
        assembly._window_table(0.5 + 0.1 * k, 4, small, xi0)
    info = assembly._build_window_table.cache_info()
    assert info.maxsize == 16
    assert info.currsize <= 16
    rebuilt = assembly._window_table(0.5, 4, small, xi0)
    assert assembly._build_window_table.cache_info().misses == info.misses + 1
    assert rebuilt is not first
    for field in ("nodes", "weights", "beta", "dterm", "t3", "sign"):
        assert np.array_equal(getattr(rebuilt, field), getattr(first, field))
    assert rebuilt.near == first.near == first.nodes.size
    assert rebuilt.moments.tobytes() == first.moments.tobytes()

    # a table with far nodes, rebuilt from a cold cache
    far = assembly._window_table(1.0, 4, small, assembly._far_cut(2.0))
    assert 0 < far.near < far.nodes.size
    assembly._build_window_table.cache_clear()
    again = assembly._window_table(1.0, 4, small, assembly._far_cut(2.0))
    assert again.near == far.near
    assert again.moments.tobytes() == far.moments.tobytes()


def test_assembly_independent_of_far_field_cache_order():
    # d = 2 (xi_0 = 24) and d = 0.5 (xi_0 = 80) keep separate tables of one window
    settings = SolverSettings(basis_order=12)
    windows = (WindowSpec(-3.0, 1.0), WindowSpec(3.0, 0.7))
    runs = []
    for order in ((2.0, 0.5), (0.5, 2.0)):
        assembly._build_window_table.cache_clear()
        out = {}
        for d in order:
            geometry = Geometry(d=d, windows=windows)
            out[d] = (
                assemble_galerkin(0.6, geometry, settings).matrix.tobytes(),
                norm_matrix(0.6, geometry, settings).tobytes(),
            )
        runs.append(out)
    assert runs[0] == runs[1]


_BLOCK_LAMBDAS = np.linspace(SolverSettings().lambda_floor, SolverSettings().lambda_max, 12)[1:-1]


@pytest.mark.parametrize("d", [0.5, 2.0, math.pi])
@pytest.mark.parametrize("a", [0.5, 1.0, 1.2, 3.0])
def test_diagonal_blocks_match_full_quadrature(a, d):
    # 24 points per panel: at 12 the rounding of both GEMMs (about 2e-15 of
    # max|want|, against a long-double sum) exceeds the 1e-15 bound
    settings = SolverSettings(panel_points=24)
    table = assembly._window_table(a, settings.basis_order, settings, assembly._far_cut(d))
    assert table.nodes[table.near - 1] < assembly._far_cut(d) <= table.nodes[table.near]
    for lam in _BLOCK_LAMBDAS:
        for block, full in (
            (assembly._diagonal_block, oracles.diagonal_block_full),
            (assembly._diagonal_norm_block, oracles.diagonal_norm_block_full),
        ):
            want = full(lam, table, d)
            got = block(lam, table, d)
            assert np.array_equal(got, got.T)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_diagonal_blocks_bitwise_without_far_nodes():
    # d = 0.1: xi_0 = 400 >= xi_max = 200, so every node is near
    settings = SolverSettings()
    for a in (0.5, 1.0, 3.0):
        table = assembly._window_table(a, settings.basis_order, settings, assembly._far_cut(0.1))
        assert table.near == table.nodes.size
        for lam in _BLOCK_LAMBDAS:
            got = assembly._diagonal_block(lam, table, 0.1)
            assert got.tobytes() == oracles.diagonal_block_full(lam, table, 0.1).tobytes()
            got = assembly._diagonal_norm_block(lam, table, 0.1)
            assert got.tobytes() == oracles.diagonal_norm_block_full(lam, table, 0.1).tobytes()


_EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lam=st.floats(
        SolverSettings().lambda_floor, SolverSettings().lambda_max, exclude_min=True, exclude_max=True
    ),
    d=st.floats(1e-3, math.pi),
    stretch=st.floats(1.0, 10.0),
)
def test_far_series_matches_symbol_and_norm_weight(lam, d, stretch):
    # on xi >= xi_0 sub_symbol is 2z - 2xi + lambda/xi plus strip exponentials
    # below e^-79.9; the series sums the first, its -d/dlambda is 1/z - 1/xi
    xi = assembly._far_cut(d) * stretch
    k = assembly._FAR_POWERS
    series = float(np.sum(assembly._FAR_COEF * lam ** k * xi ** (1.0 - 2.0 * k)))
    slope = -float(np.sum(k * assembly._FAR_COEF * lam ** (k - 1) * xi ** (1.0 - 2.0 * k)))
    z = math.sqrt(xi * xi - lam)
    # cancellation-free closed forms of the two algebraic parts
    assert series == pytest.approx(-lam * lam / (xi * (z + xi) ** 2), rel=4 * _EPS, abs=0)
    assert slope == pytest.approx(lam / (z * xi * (z + xi)), rel=4 * _EPS, abs=0)

    strips = sum(2.0 * z * math.exp(-2.0 * w * z) / -math.expm1(-2.0 * w * z) for w in (math.pi, d))
    assert strips <= 2.0 * xi * math.exp(-79.9)
    symbol = float(sub_symbol(np.array([xi]), lam, d)[0])
    assert abs(series - symbol) <= 4 * _EPS * abs(symbol) + strips
    # the package's weight cancels 1/z against 1/xi, so it is good to a few
    # ulp of 1/xi (the series is the more accurate of the two)
    weight = norm_weight(xi, lam, math.pi) + norm_weight(xi, lam, d) - 1.0 / xi
    assert abs(slope - weight) <= 8 * _EPS / xi
