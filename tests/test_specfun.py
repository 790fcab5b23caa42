"""Tests for the special-function layer."""

import math

import numpy as np
import pytest

import oracles
from winguide.assembly import (
    _scaled_moments,
    assemble_exp_rhs,
    beta_matrix,
    gl_panels,
    graded_edges,
)
from winguide.errors import ThresholdError, UnsupportedArgumentError
from winguide.geometry import WindowSpec
from winguide.specfun import _creg, bessel_j, ive, mode_kappa

# Frozen from the series-plus-bisection oracle in oracles.py.
J0_FIRST_ZERO = 2.404825557695773
I0_AT_ONE = 1.2660658777520084

# The Bessel values are checked through their production users at a = 1:
# row n of beta_matrix is pi (n+1) J_{n+1}(x)/x, entry n of assemble_exp_rhs
# is pi (n+1) I_{n+1}(x)/x, and _scaled_moments is the same times e^{-x}.
# Order 0 never occurs there; it comes from the three-term recurrence.
UNIT = WindowSpec(0.0, 1.0)


def _bessel_j(order: int, x: float) -> float:
    if order == 0:
        return 2.0 * _bessel_j(1, x) / x - _bessel_j(2, x)
    return float(beta_matrix(1.0, order, np.array([x]))[-1, 0]) * x / (np.pi * order)


def _bessel_i(order: int, x: float) -> float:
    if order == 0:
        return 2.0 * _bessel_i(1, x) / x + _bessel_i(2, x)
    return float(assemble_exp_rhs(0.5, UNIT, x, +1, order)[-1]) * x / (np.pi * order)


def test_bessel_j_at_zero():
    # J_1(x)/x -> 1/2 and J_{n+1}(x)/x -> 0 at the removable point xi = 0
    assert oracles.basis_ft(0, 1.0, 0.0) == np.pi / 2
    assert oracles.basis_ft(1, 1.0, 0.0) == 0.0
    beta = beta_matrix(1.0, 4, np.array([1e-13]))[:, 0]
    assert np.allclose(beta, [np.pi / 2, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)


def test_bessel_j_first_zero_matches_series_oracle():
    zero = oracles.bisect_root(lambda x: oracles.bessel_j_series(0, x), 2.0, 3.0)
    assert abs(zero - J0_FIRST_ZERO) < 1e-12
    assert abs(_bessel_j(0, J0_FIRST_ZERO)) < 1e-10


def test_bessel_j_series_agreement_small_arguments():
    for order in (0, 1, 3, 7):
        for x in (0.3, 1.7, 4.0, 9.5):
            assert _bessel_j(order, x) == pytest.approx(
                oracles.bessel_j_series(order, x), abs=1e-12
            )


def test_bessel_j_recurrence():
    # beta_matrix rows give J_1..J_31, so n starts at 2 (n = 1 would need J_0)
    rng = np.random.default_rng(20260817)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        x = float(rng.uniform(0.5, 60.0))
        j = beta_matrix(1.0, n + 1, np.array([x]))[:, 0] * x / (np.pi * np.arange(1, n + 2))
        lhs = j[n - 2] + j[n]
        rhs = (2.0 * n / x) * j[n - 1]
        scale = max(abs(lhs), abs(rhs), 1e-3)
        assert abs(lhs - rhs) <= 1e-9 * scale


@pytest.mark.parametrize("orders", [4, 16, 32, 48])
def test_beta_matrix_recurrence_matches_jv_oracle(orders):
    # both recurrence branches and the switch at x = N, on thinned production
    # nodes plus arguments within 3 of N and down to 1e-13
    for a in (0.5, 1.0, 1.5, 2.7, 3.0):
        for xi_max in (200.0, 800.0):
            nodes, _ = gl_panels(graded_edges(xi_max, min(1.0, np.pi / (2.0 * a))), 24)
            x = np.concatenate([
                a * nodes[::16],
                np.linspace(orders - 3.0, orders + 3.0, 241),
                np.geomspace(1e-13, 1.0, 27),
            ])
            got = beta_matrix(a, orders, x / a)
            want = oracles.beta_matrix_jv(a, orders, x / a)
            assert np.all(np.isfinite(got))
            row_max = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 5e-14 * row_max), (a, xi_max)


def test_beta_matrix_rejects_arguments_below_its_range():
    with pytest.raises(UnsupportedArgumentError):
        beta_matrix(1.0, 4, np.array([1.0, 1e-31]))
    with pytest.raises(UnsupportedArgumentError):
        beta_matrix(1.0, 4, np.array([0.0]))


def test_bessel_i_values():
    # I_1(x)/x -> 1/2 and I_{n+1}(x)/x -> 0 as kappa -> 0
    small = assemble_exp_rhs(0.5, UNIT, 1e-13, +1, 4)
    assert np.allclose(small, [np.pi / 2, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)
    assert _bessel_i(0, 1.0) == pytest.approx(I0_AT_ONE, rel=1e-10)
    for order in (0, 1, 2, 6):
        for x in (0.4, 2.0, 8.0):
            assert _bessel_i(order, x) == pytest.approx(
                oracles.bessel_i_series(order, x), rel=1e-10
            )
    for order in (1, 2, 6):
        for x in (0.4, 2.0, 8.0):
            scaled = _scaled_moments([1.0], order, np.array([x]))[0][-1, 0] * x / (np.pi * order)
            assert scaled * np.exp(x) == pytest.approx(
                oracles.bessel_i_series(order, x), rel=1e-10
            )


# every x the program can reach: tiny a sqrt(threshold_margin) up to far past
# the cross series' a kappa_k (22.6 in the default verify configs, about 44 a
# / gap in general), with both sides of each switch to Hankel's expansion
IVE_ARGS = np.concatenate([
    np.geomspace(1e-300, 3e4, 641),
    np.linspace(0.5, 60.0, 120),
    [29.99, 30.0, 1088.9, 1089.0, 16640.9, 16641.0],
])


@pytest.mark.parametrize("orders", [4, 33, 129])
def test_ive_matches_scipy_within_1e_14_of_column_max(orders):
    want = oracles.ive_scipy(orders, IVE_ARGS)
    col_max = np.max(np.abs(want), axis=0)
    # one call over every argument (each method on its whole range, the Miller
    # start set by the largest x below the Hankel switch), and every 15th
    # argument alone (the start set by that argument)
    got = ive(orders, IVE_ARGS)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-14 * col_max)
    for col in range(0, IVE_ARGS.size, 15):
        alone = ive(orders, IVE_ARGS[col : col + 1])[:, 0]
        assert np.all(np.abs(alone - want[:, col]) <= 1e-14 * col_max[col]), IVE_ARGS[col]


def test_exp_rhs_matches_scipy_iv():
    # assemble_exp_rhs takes I_n as ive times e^x, up to its 700 limit
    x = np.concatenate([np.geomspace(1e-300, 700.0, 301), [700.0]])
    want = oracles.iv_scipy(33, x)
    for col, xc in enumerate(x):
        got = assemble_exp_rhs(0.5, UNIT, xc, +1, 32) * xc / (np.pi * np.arange(1, 33))
        ref = want[:-1, col]
        assert np.all(np.abs(got - ref) <= 1e-14 * np.max(ref)), xc


# the scipy reference's own error (j0_j1_scipy's docstring), on top of the
# 2e-15 asked of bessel_j itself
J_REFERENCE_ERROR = 1.1e-15
J_ARGS = np.concatenate([np.geomspace(1e-8, 2400.0, 4001), np.linspace(0.01, 60.0, 6000)])


def _j_scale(x, ref):
    return np.maximum(np.sqrt(2.0 / (np.pi * x)), np.abs(ref))


def test_j0_j1_match_scipy():
    got = bessel_j(1, J_ARGS)
    for row, ref in enumerate(oracles.j0_j1_scipy(J_ARGS)):
        err = np.abs(got[row] - ref) / _j_scale(J_ARGS, ref)
        assert np.max(err) <= 2e-15 + J_REFERENCE_ERROR, (row, J_ARGS[np.argmax(err)])


def test_j0_j1_within_2e_15_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.geomspace(1e-8, 2400.0, 300), np.linspace(0.5, 40.0, 300)])
    got = bessel_j(1, x)
    with mpmath.workdps(30):
        for row in (0, 1):
            ref = np.array([float(mpmath.besselj(row, xc)) for xc in x])
            err = np.abs(got[row] - ref) / _j_scale(x, ref)
            assert np.max(err) <= 2e-15, (row, x[np.argmax(err)])


def test_mode_kappa_values():
    assert mode_kappa(1, 0.0, math.pi) == pytest.approx(1.0, rel=1e-14)
    assert mode_kappa(1, 0.75, math.pi) == pytest.approx(0.5, rel=1e-14)
    # d = pi degeneracy: the lower-strip exponent coincides with the upper one.
    assert mode_kappa(1, 0.75, math.pi) == mode_kappa(1, 0.75, math.pi)
    assert mode_kappa(2, 0.3, 2.0) == pytest.approx(
        math.sqrt((2.0 * math.pi / 2.0) ** 2 - 0.3), rel=1e-14
    )


def test_mode_kappa_threshold_error():
    with pytest.raises(ThresholdError):
        mode_kappa(1, 1.0, math.pi)


def test_dtn_symbol_special_points():
    assert oracles.dtn_symbol(0.0, 0.0, math.pi) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # z = 0 exactly when xi^2 = lambda.
    assert oracles.dtn_symbol(0.8, 0.64, 2.0) == pytest.approx(0.5, rel=1e-12)
    assert oracles.dtn_symbol(10.0, 0.0, math.pi) == pytest.approx(10.0, abs=2e-5)


def test_dtn_symbol_even_and_tail():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lam = float(rng.uniform(0.0, 0.999))
        width = float(rng.uniform(0.6, math.pi))
        xi = float(rng.uniform(2.0, 40.0))
        m_pos = oracles.dtn_symbol(xi, lam, width)
        m_neg = oracles.dtn_symbol(-xi, lam, width)
        assert m_pos == m_neg
        z = math.sqrt(xi * xi - lam)
        # The symbol approaches sqrt(xi^2 - lambda) like z * e^{-2 w z}; the
        # bound uses the exact exponent z because near threshold the decay is
        # measurably slower than e^{-2 w |xi|}. The additive term absorbs
        # floating-point roundoff once the analytic tail is below precision.
        assert abs(m_pos - z) <= 2.5 * xi * math.exp(-2.0 * width * z) + 1e-13 * z


def test_dtn_symbol_decreasing_in_lambda():
    for width in (2.0, math.pi):
        for xi in (0.0, 0.4, 1.3, 5.0):
            lams = np.linspace(0.05, 0.95, 10)
            vals = [oracles.dtn_symbol(xi, lam, width) for lam in lams]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_creg_matches_textbook_symbol():
    # creg(u; w) = (m(xi) - 1/w)/(2u), u = xi^2 - lambda, with m in textbook form;
    # the series branch (|w^2 u| <= 0.09) sits where that difference cancels, so
    # it gets the series' own 1e-12 accuracy, the closed forms 1e-13
    for width in (0.3, 1.0, 2.0, math.pi):
        for lam in (0.0, 0.3, 0.9, 0.999):
            for xi in (0.0, 0.1, 0.5, 0.9, 1.0, 1.7, 4.0, 12.0):
                u = xi * xi - lam
                if u == 0.0:
                    continue
                want = (oracles.dtn_symbol_textbook(xi, lam, width) - 1.0 / width) / (2.0 * u)
                got = float(_creg(np.array([u]), width)[0])
                tol = 2e-12 if abs(width * width * u) <= 0.09 else 1e-13
                assert got == pytest.approx(want, rel=tol), (width, lam, xi)
                assert oracles.dtn_symbol(xi, lam, width) == pytest.approx(
                    oracles.dtn_symbol_textbook(xi, lam, width), rel=1e-13, abs=1e-15
                )
        # the removable point: coth(t)/t - 1/t^2 -> 1/3, so creg(0; w) = w/6
        assert float(_creg(np.array([0.0]), width)[0]) == pytest.approx(width / 6.0, rel=1e-15)


def test_dtn_symbol_threshold_error():
    with pytest.raises(ThresholdError):
        oracles.dtn_symbol(1.0, 1.0, math.pi)
