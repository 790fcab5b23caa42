"""Tests for the closed-form distant-window eigenvalue laws."""

import math

import pytest

from winguide.asymptotics import decay_params, double_prediction, simple_prediction
from winguide.errors import ThresholdError, ValidationError

# Frozen values for the mirrored-pair geometry a = 1, d = 2 (lambda* and c
# from the single-window solver, cross-checked by the finite-difference
# oracle; mu follows from them through the splitting law).
LAMBDA1_A1_D2 = 0.934889771227259
C1_A1_D2 = 0.39615024725481757
MU_DOUBLE_A1_D2 = 0.1258039698903871


def test_decay_params_examples():
    kappa, rho, tau = decay_params(0.75, math.pi)
    assert kappa == pytest.approx(0.5, abs=1e-15)
    assert rho == pytest.approx(math.sqrt(3.25), abs=1e-14)
    assert tau == 2

    kappa, rho, tau = decay_params(0.0, 2.0)
    assert kappa == pytest.approx(1.0, abs=1e-15)
    assert rho == pytest.approx(math.pi / 2.0, abs=1e-14)
    assert tau == 1


def test_decay_params_tau_flip():
    assert decay_params(0.5, math.pi)[2] == 2
    assert decay_params(0.5, math.pi - 1e-6)[2] == 1
    # just below pi the lower strip's channel is the slower bound
    _, rho, _ = decay_params(0.5, math.pi - 1e-6)
    assert rho < math.sqrt(3.5)


def test_decay_params_validation():
    with pytest.raises(ThresholdError):
        decay_params(1.0, 2.0)
    with pytest.raises(ValidationError):
        decay_params(0.5, 0.0)
    with pytest.raises(ValidationError):
        decay_params(0.5, math.pi + 0.1)


def test_predict_simple_zero_other():
    predicted = simple_prediction(0.8, 0.7, 0.0, 2.0).predicted(3.0)
    for variant in ("printed", "derived"):
        assert predicted[variant] == 0.8


def test_predict_simple_tau_doubling():
    shift_pi = simple_prediction(0.75, 0.5, -0.4, math.pi).predicted(3.0)["derived"] - 0.75
    shift_d2 = simple_prediction(0.75, 0.5, -0.4, 2.0).predicted(3.0)["derived"] - 0.75
    assert shift_pi == pytest.approx(2.0 * shift_d2, rel=1e-12)


def test_predict_simple_sign_and_variants():
    # the derived prefactor carries the sign of the partner response c_other
    lam = simple_prediction(0.885, 0.45, -0.97, 2.0).predicted(2.5)["derived"]
    assert lam < 0.885
    # variants coincide when both amplitudes are equal
    predicted = simple_prediction(0.7, 0.3, 0.3, 2.0).predicted(4.0)
    assert predicted["printed"] == predicted["derived"]


def test_predict_double_midpoint_and_gap():
    kappa = math.sqrt(1.0 - LAMBDA1_A1_D2)
    pred = double_prediction(LAMBDA1_A1_D2, C1_A1_D2, C1_A1_D2, 1, 2.0)
    for l in (4.0, 5.0, 6.0):
        plus, minus = pred.predicted(l)
        assert 0.5 * (plus + minus) == pytest.approx(LAMBDA1_A1_D2, abs=1e-15)
        assert plus - minus == pytest.approx(
            2.0 * abs(pred.mu) * math.exp(-2.0 * kappa * l), rel=1e-13
        )
    assert pred.mu == pytest.approx(MU_DOUBLE_A1_D2, abs=1e-12)


def test_predict_double_gap_shrinks_with_separation():
    pred = double_prediction(0.9, 0.4, 0.4, 1, 2.0)
    gaps = []
    for l in (3.0, 4.0, 5.0, 6.0):
        plus, minus = pred.predicted(l)
        gaps.append(plus - minus)
    assert all(g1 > g2 > 0.0 for g1, g2 in zip(gaps, gaps[1:]))


def test_predict_double_parity_flip():
    first = double_prediction(0.9, 0.4, 0.3, 1, 2.0)
    second = double_prediction(0.9, 0.4, 0.3, 2, 2.0)
    assert second.mu == -first.mu
    assert second.predicted(5.0) == first.predicted(5.0)


def test_predict_double_degenerate_partner():
    pred = double_prediction(0.9, 0.4, 0.0, 1, 2.0)
    plus, minus = pred.predicted(5.0)
    assert pred.mu == 0.0
    assert plus == minus == 0.9


def test_simple_prediction_bundle():
    pred = simple_prediction(0.885, 0.45, -0.97, 2.0)
    assert pred.kind == "simple"
    assert pred.mu is None
    printed, derived = pred.mu_variants
    tau_pi_kappa = decay_params(0.885, 2.0)[2] * math.pi * pred.kappa
    assert printed == pytest.approx(tau_pi_kappa * 0.45 * 0.97 ** 2, rel=1e-13)
    assert derived == pytest.approx(-tau_pi_kappa * 0.45 ** 2 * 0.97, rel=1e-13)
    out = pred.predicted(3.0)
    assert set(out) == {"printed", "derived"}
    # shifts shrink monotonically with separation
    shifts = [abs(pred.predicted(l)["derived"] - 0.885) for l in (2.0, 3.0, 4.0)]
    assert shifts[0] > shifts[1] > shifts[2] > 0.0


def test_double_prediction_bundle():
    pred = double_prediction(LAMBDA1_A1_D2, C1_A1_D2, C1_A1_D2, 1, 2.0)
    assert pred.kind == "double"
    assert pred.mu_variants is None
    assert pred.mu == pytest.approx(MU_DOUBLE_A1_D2, abs=1e-12)
    plus, minus = pred.predicted(6.0)
    shift = abs(pred.mu) * math.exp(-2.0 * pred.kappa * 6.0)
    assert plus == pytest.approx(LAMBDA1_A1_D2 + shift, abs=1e-15)
    assert minus == pytest.approx(LAMBDA1_A1_D2 - shift, abs=1e-15)
    assert decay_params(pred.lambda_star, 2.0)[1] == pytest.approx(
        min(math.sqrt(math.pi ** 2 / 4.0 - pred.lambda_star),
            math.sqrt(4.0 - pred.lambda_star)),
        abs=1e-14,
    )
