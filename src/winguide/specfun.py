"""Special functions and strip-symbol primitives.

Everything here is a pure real function of real arguments, vectorized over numpy
arrays, with the removable points and imaginary branches evaluated analytically
rather than by limits.

The central object is the symbol of the Dirichlet-to-Neumann map of a strip of
width w at spectral parameter lambda:

    m_w(xi) = z * coth(w z),   z = sqrt(xi^2 - lambda),

continued through z = 0 (value 1/w) into s*cot(w s), s = sqrt(lambda - xi^2),
for xi^2 < lambda.  The symbol itself (m_w = 1/w + 2u creg(u; w), as
assembly.sub_symbol evaluates it below xi = 1) and all derived weights (the L2
and gradient norm densities of the strip extension of a trace) are built from
the same two regularized pieces

    creg(u; w) = coth(w sqrt(u))/(2 sqrt(u)) - 1/(2 w u)
    sreg(u; w) = 1/(2 sinh^2(w sqrt(u)))    - 1/(2 w^2 u)

with u = xi^2 - lambda, which are real-analytic in u (the 1/u poles are removed
exactly, not numerically), so every public function below is smooth across the
u = 0 circle and safe at large xi.
"""

from __future__ import annotations

import numpy as np

from .errors import ThresholdError, ValidationError

__all__ = [
    "mode_kappa",
    "norm_weight",
    "grad_weight",
    "strip_kernel",
]

# Taylor coefficients of coth(t)/t - 1/t^2 in t^2 (Bernoulli numbers).
_COTH_COEF = (
    1.0 / 3.0,
    -1.0 / 45.0,
    2.0 / 945.0,
    -1.0 / 4725.0,
    2.0 / 93555.0,
    -1382.0 / 638512875.0,
)
# Taylor coefficients of 1/sinh(t)^2 - 1/t^2 in t^2 (derivative of the above).
_SINH2_COEF = (
    -1.0 / 3.0,
    1.0 / 15.0,
    -2.0 / 189.0,
    7.0 / 4725.0,
    -18.0 / 93555.0,
    15202.0 / 638512875.0,
)
# |w^2 u| below this uses the series branch (6 terms: relative error < 1e-12).
_SERIES_CUT = 0.09


def _as_farray(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("non-finite argument")
    return arr


def _scalar_like(template, value: np.ndarray):
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(value)
    return value


def _check_width(width: float) -> float:
    w = float(width)
    if not (0.0 < w <= np.pi):
        raise ValidationError(f"strip width must lie in (0, pi], got {width!r}")
    return w


def mode_kappa(j: int, lam: float, width: float) -> float:
    """Decay exponent sqrt((pi j / width)^2 - lambda) of transverse mode j."""
    w = _check_width(width)
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValidationError(f"mode index must be a positive integer, got {j!r}")
    rad = (np.pi * j / w) ** 2 - lam
    if rad <= 0.0:
        raise ThresholdError(f"mode {j} of width-{width} strip is not evanescent at lambda={lam}")
    return float(np.sqrt(rad))


def _creg(u: np.ndarray, w: float) -> np.ndarray:
    """coth(w sqrt(u))/(2 sqrt(u)) - 1/(2 w u), analytic across u = 0."""
    u = np.asarray(u, dtype=float)
    x = (w * w) * u
    out = np.empty_like(u)

    ser = np.abs(x) <= _SERIES_CUT
    if np.any(ser):
        xs = x[ser]
        acc = np.full_like(xs, _COTH_COEF[-1])
        for c in _COTH_COEF[-2::-1]:
            acc = acc * xs + c
        out[ser] = 0.5 * w * acc

    pos = (~ser) & (u > 0)
    if np.any(pos):
        up = u[pos]
        rt = np.sqrt(up)
        t = w * rt
        # coth(t) = 1 - 2/expm1(-2t) - 1 ... use exact: (1+e)/(1-e), e = exp(-2t)
        e = np.exp(-2.0 * t)
        coth = (1.0 + e) / (1.0 - e)
        out[pos] = coth / (2.0 * rt) - 1.0 / (2.0 * w * up)

    neg = (~ser) & (u < 0)
    if np.any(neg):
        un = u[neg]
        s = np.sqrt(-un)
        out[neg] = -np.cos(w * s) / (2.0 * s * np.sin(w * s)) - 1.0 / (2.0 * w * un)

    return out


def _sreg(u: np.ndarray, w: float) -> np.ndarray:
    """1/(2 sinh^2(w sqrt(u))) - 1/(2 w^2 u), analytic across u = 0."""
    u = np.asarray(u, dtype=float)
    x = (w * w) * u
    out = np.empty_like(u)

    ser = np.abs(x) <= _SERIES_CUT
    if np.any(ser):
        xs = x[ser]
        acc = np.full_like(xs, _SINH2_COEF[-1])
        for c in _SINH2_COEF[-2::-1]:
            acc = acc * xs + c
        out[ser] = 0.5 * acc

    pos = (~ser) & (u > 0)
    if np.any(pos):
        up = u[pos]
        t = w * np.sqrt(up)
        e = np.exp(-2.0 * t)
        out[pos] = 2.0 * e / (1.0 - e) ** 2 - 1.0 / (2.0 * w * w * up)

    neg = (~ser) & (u < 0)
    if np.any(neg):
        un = u[neg]
        s = np.sqrt(-un)
        out[neg] = -0.5 / np.sin(w * s) ** 2 - 1.0 / (2.0 * w * w * un)

    return out


def _check_lambda(lam: float) -> float:
    lamf = float(lam)
    if lamf >= 1.0:
        raise ThresholdError(f"spectral parameter must satisfy lambda < 1, got {lam!r}")
    return lamf


def norm_weight(xi, lam: float, width: float):
    """L2 density N(xi) of the strip extension: ||ext||^2 = (1/2pi) int |phihat|^2 N.

    N = [sinh(2wz)/(4z) - w/2]/sinh^2(wz) = creg(u) - w*sreg(u); pole-free.
    """
    w = _check_width(width)
    lamf = _check_lambda(lam)
    arr = _as_farray(xi)
    u = arr * arr - lamf
    return _scalar_like(xi, _creg(u, w) - w * _sreg(u, w))


def grad_weight(xi, lam: float, width: float):
    """Gradient density W(xi) of the strip extension (H^1 seminorm weight).

    W = xi^2 N + z^2 Ntilde = (2 xi^2 - lambda) creg - lambda w sreg + 1/w;
    behaves like |xi| + lambda/(2|xi|) + O(xi^-3) at infinity.
    """
    w = _check_width(width)
    lamf = _check_lambda(lam)
    arr = _as_farray(xi)
    u = arr * arr - lamf
    wgt = 1.0 / w + (2.0 * arr * arr - lamf) * _creg(u, w) - lamf * w * _sreg(u, w)
    return _scalar_like(xi, wgt)


def strip_kernel(xi, lam: float, width: float, depth: float):
    """Transverse profile sinh((width-depth) z)/sinh(width z) of the strip extension.

    `depth` is the distance from the interface line into the strip, in [0, width].
    Equals 1 at depth 0 and 0 at the far Dirichlet wall; evaluated stably on both
    the real and imaginary z branches.
    """
    w = _check_width(width)
    lamf = _check_lambda(lam)
    y = float(depth)
    if not (0.0 <= y <= w + 1e-12):
        raise ValidationError(f"depth {depth!r} outside strip of width {width!r}")
    y = min(y, w)
    arr = _as_farray(xi)
    u = arr * arr - lamf
    out = np.empty_like(u)

    pos = u > 1e-14
    if np.any(pos):
        t = np.sqrt(u[pos])
        out[pos] = np.exp(-y * t) * np.expm1(-2.0 * (w - y) * t) / np.expm1(-2.0 * w * t)

    neg = u < -1e-14
    if np.any(neg):
        s = np.sqrt(-u[neg])
        out[neg] = np.sin((w - y) * s) / np.sin(w * s)

    mid = ~(pos | neg)
    if np.any(mid):
        out[mid] = (w - y) / w

    return _scalar_like(xi, out)
