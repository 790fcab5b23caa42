"""Closed-form predictions for eigenvalues of distant-window geometries.

For well-separated windows every trapped eigenvalue converges to an eigenvalue
lambda* of a single-window problem; the corrections are exponentially small in
the half-separation l with rate set by kappa = sqrt(1 - lambda*).  A mirrored
pair of equal windows splits symmetrically at rate 2*kappa; a window paired
with a non-resonant partner shifts at rate 4*kappa.  The prefactors are built
from the edge amplitudes c produced by coeff_c and solve_U.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ThresholdError, ValidationError

__all__ = [
    "AsymptoticPrediction",
    "decay_params",
    "simple_prediction",
    "double_prediction",
]

_TAU_TOL = 1e-12


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading-order eigenvalue law lambda(l) near a limiting value lambda*."""

    lambda_star: float
    kind: str                       # 'simple' or 'double'
    kappa: float
    rho: float
    tau: int
    mu: float | None                # double case
    mu_variants: tuple[float, float] | None   # simple case: (printed, derived)
    predicted: Callable[[float], object]


def _tau(d: float) -> int:
    return 2 if abs(d - np.pi) <= _TAU_TOL else 1


def decay_params(lambda_star: float, d: float) -> tuple[float, float, int]:
    """(kappa, rho, tau) controlling the corrections at half-separation l.

    kappa = sqrt(1 - lambda*) is the slowest upper-strip decay; rho bounds the
    neglected channels: the lower strip's first mode and the upper strip's
    second, whichever is slower (the lower strip drops out at d = pi where its
    rate ties with the window-parity channel).
    """
    if lambda_star >= 1.0:
        raise ThresholdError(f"lambda* must be < 1, got {lambda_star}")
    if not 0.0 < d <= np.pi:
        raise ValidationError(f"lower width d must lie in (0, pi], got {d}")
    kappa = float(np.sqrt(1.0 - lambda_star))
    second = float(np.sqrt(4.0 - lambda_star))
    if _tau(d) == 2:
        rho = second
    else:
        rho = min(float(np.sqrt(np.pi ** 2 / d ** 2 - lambda_star)), second)
    return kappa, rho, _tau(d)


def simple_prediction(
    lambda_star: float, c_host: float, c_other: float, d: float
) -> AsymptoticPrediction:
    """Shift law lambda* + mu e^{-4 kappa l} of a lone resonance.

    The host window owns the limiting eigenvalue; the other window only shifts
    it.  Two published prefactor forms disagree on which amplitude carries the
    square, so predicted(l) returns both: 'printed' uses
    mu = tau pi kappa c_host c_other^2 and 'derived' uses
    mu = tau pi kappa c_host^2 c_other.  The derived variant is the one
    consistent with a strictly negative shift. The remainder is
    O(l^2 e^{-8 kappa l} + e^{-2 l (kappa + rho)}).
    """
    kappa, rho, tau = decay_params(lambda_star, d)
    mu_printed = tau * np.pi * kappa * c_host * c_other ** 2
    mu_derived = tau * np.pi * kappa * c_host ** 2 * c_other

    def predicted(l: float):
        decay = np.exp(-4.0 * kappa * l)
        return {
            "printed": float(lambda_star + mu_printed * decay),
            "derived": float(lambda_star + mu_derived * decay),
        }

    return AsymptoticPrediction(
        lambda_star, "simple", kappa, rho, tau, None,
        (float(mu_printed), float(mu_derived)), predicted,
    )


def double_prediction(
    lambda_star: float, c_minus: float, c_plus: float, m: int, d: float
) -> AsymptoticPrediction:
    """Symmetric splitting law of a shared resonance.

    predicted(l) returns (lambda_+, lambda_-) with
    lambda_pm = lambda* +- |mu| e^{-2 kappa l} and
    mu = (-1)^{m+1} tau pi kappa c_minus c_plus; mu = 0 flags the case where
    the pair may instead remain one double eigenvalue. The remainder is
    O(l e^{-4 kappa l} + e^{-2 rho l}).
    """
    kappa, rho, tau = decay_params(lambda_star, d)
    mu = (-1.0) ** (m + 1) * tau * np.pi * kappa * c_minus * c_plus

    def predicted(l: float):
        shift = abs(mu) * np.exp(-2.0 * kappa * l)
        return float(lambda_star + shift), float(lambda_star - shift)

    return AsymptoticPrediction(lambda_star, "double", kappa, rho, tau, float(mu), None, predicted)
