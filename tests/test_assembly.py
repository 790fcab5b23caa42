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
    tail_estimate,
)
from winguide.errors import ThresholdError
from winguide.geometry import Geometry, SolverSettings, WindowSpec


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
    first, second = (slice(lo, hi) for lo, hi in zip(double.offsets, double.offsets[1:]))
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
        table = assembly._build_window_table.__wrapped__(a, orders, xi_max, 24, 1.0)  # uncached
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


def test_window_table_cache_bounded_and_rebuild_bitwise():
    small = SolverSettings(basis_order=4, xi_max=50.0)
    first = assembly._window_table(0.5, 4, small)
    for k in range(1, 17):
        assembly._window_table(0.5 + 0.1 * k, 4, small)
    info = assembly._build_window_table.cache_info()
    assert info.maxsize == 16
    assert info.currsize <= 16
    rebuilt = assembly._window_table(0.5, 4, small)
    assert assembly._build_window_table.cache_info().misses == info.misses + 1
    assert rebuilt is not first
    for field in ("nodes", "weights", "beta", "dterm", "t3", "sign"):
        assert np.array_equal(getattr(rebuilt, field), getattr(first, field))
