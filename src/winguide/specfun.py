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

The Bessel functions of the Galerkin basis and of the cross-window moments are
here too, numpy-only: bessel_j gives J_0..J_N by Miller's downward recurrence
normalized by the Neumann sum 1 = J_0 + 2 sum J_2k (Abramowitz & Stegun
9.1.46) for small arguments and by upward recurrence from Hankel's expansion
of J_0, J_1 (DLMF 10.17.3) above; ive gives e^-x I_1..I_N by one Miller pass
normalized by e^x = I_0 + 2 sum I_k (A&S 9.6.37), with the ascending series
for tiny x and Hankel's expansion (DLMF 10.40.1) seeding the downward
recurrence for large x. Downward recurrence is stable for the minimal
solutions J_n and I_n, upward for J_n while n < x (Gautschi, SIAM Review 9,
1967).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ThresholdError, UnsupportedArgumentError, ValidationError

# The strip profile of the near-zone field route (strip_kernel) is a test
# reference in tests/fields.py; the package evaluates fields by the far route.
__all__ = [
    "mode_kappa",
    "norm_weight",
    "grad_weight",
    "bessel_j",
    "ive",
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


# one downward J step grows a value by up to 2k/x; from below the 1e250 rescale
# point it must stay finite, so x is bounded well away from 2k/1e58
_MIN_BESSEL_ARG = 1e-30
# J_0, J_1 come from Hankel's expansion above this argument: its terms fall
# below 1e-17 by the 20th at x = 25, and the series below carries 24
_HANKEL_X = 25


def _hankel_a(nu: int, terms: int) -> np.ndarray:
    """a_k(nu) = (4 nu^2 - 1)(4 nu^2 - 9)..(4 nu^2 - (2k - 1)^2) / (k! 8^k), k < terms."""
    a = [1.0]
    for k in range(1, terms):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    return np.array(a)


def _hankel_coef(nu: int, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^k a_2k(nu) and (-1)^k a_2k+1(nu) of P and Q in Hankel's expansion."""
    a = _hankel_a(nu, 2 * terms)
    sign = (-1.0) ** np.arange(terms)
    return sign * a[0::2], sign * a[1::2]


_HANKEL = tuple(_hankel_coef(nu, 12) for nu in (0, 1))


def _hankel_j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_0(x), J_1(x) for x > 25 from Hankel's expansion (DLMF 10.17.3).

    J_nu = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/2 - pi/4; the
    shifted cosines are expanded in cos x and sin x, whose argument reduction
    is exact, instead of rounding x - pi/4.
    """
    t = 1.0 / (x * x)
    pq = []
    for p_coef, q_coef in _HANKEL:
        p = np.full_like(x, p_coef[-1])
        q = np.full_like(x, q_coef[-1])
        for cp, cq in zip(p_coef[-2::-1], q_coef[-2::-1]):
            p = p * t + cp
            q = q * t + cq
        pq.append((p, q / x))
    (p0, q0), (p1, q1) = pq
    c, s = np.cos(x), np.sin(x)
    amp = 1.0 / np.sqrt(np.pi * x)
    return amp * (p0 * (c + s) - q0 * (s - c)), amp * (p1 * (s - c) + q1 * (s + c))


def _j_upward(orders: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_orders upward from Hankel's J_0, J_1; stable where every k < x."""
    out = np.empty((orders + 1, x.size))
    out[0], out[1] = _hankel_j01(x)
    for k in range(1, orders):
        out[k + 1] = (2.0 * k / x) * out[k] - out[k - 1]
    return out


def _j_miller(orders: int, x: np.ndarray, top: int) -> np.ndarray:
    """J_0..J_orders for x <= top by Miller's recurrence, normalized by J_0 + 2 sum J_2k = 1."""
    out = np.empty((orders + 1, x.size))
    nxt, cur = np.zeros_like(x), np.full_like(x, 1e-280)
    even = np.zeros_like(x)  # J_2 + J_4 + ..., at the running scale
    for k in range(top + 40 + 2 * math.ceil(math.sqrt(40.0 * top)), 0, -1):
        nxt, cur = cur, (2.0 * k / x) * cur - nxt  # (J_k, J_{k+1}) -> (J_{k-1}, J_k)
        big = np.abs(cur) > 1e250
        if np.any(big):  # rows k.. already hold J_k..J_orders
            cur[big] *= 1e-250
            nxt[big] *= 1e-250
            even[big] *= 1e-250
            out[k:, big] *= 1e-250
        if k <= orders + 1:
            out[k - 1] = cur
        if k > 1 and k % 2:  # J_{k-1}, k - 1 even and positive
            even += cur
    out /= cur + 2.0 * even
    return out


def bessel_j(orders: int, x) -> np.ndarray:
    """J_0(x)..J_orders(x), orders >= 1, as the rows of an (orders + 1, x.size) array.

    One three-term recurrence J_{k-1} + J_{k+1} = (2k/x) J_k, vectorized over
    x and split at top = max(orders, 25):

      * x > top: upward from Hankel's J_0, J_1; stable because every k < x;
      * x <= top: Miller's downward recurrence from (J_{M+1}, J_M) = (0, tiny),
        M = top + 40 + 2 ceil(sqrt(40 top)), rescaled by 1e-250 whenever a
        value exceeds 1e250, then normalized per column by the Neumann sum
        J_0 + 2 sum J_2k = 1.

    x must be >= 1e-30 (UnsupportedArgumentError otherwise).
    """
    x = np.asarray(x, dtype=float)
    if x.size and not np.min(x) >= _MIN_BESSEL_ARG:
        raise UnsupportedArgumentError(
            f"x = {np.min(x):.3g} below validated Bessel-J range ({_MIN_BESSEL_ARG:g})"
        )
    top = max(orders, _HANKEL_X)
    up = x > top
    out = np.empty((orders + 1, x.size))
    if np.any(up):
        out[:, up] = _j_upward(orders, x[up])
    if not np.all(up):
        out[:, ~up] = _j_miller(orders, x[~up], top)
    return out


# e^-x I_n(x) by the ascending series at and below this argument: three terms
# leave a relative error below (x^2/4)^3/3! < 3e-21; above it, the growth of a
# Miller step, at most 2k/x, stays far from overflow between rescale checks
_IVE_SERIES_X = 1e-3


def _ive_series(orders: int, x: np.ndarray) -> np.ndarray:
    """e^-x (x/2)^n/n! [1 + q/(n+1) + q^2/(2 (n+1)(n+2))], q = x^2/4, n = 1..orders."""
    n = np.arange(1.0, orders + 1.0)[:, None]
    lead = np.cumprod(np.broadcast_to(0.5 * x / n, (orders, x.size)), axis=0)
    q = 0.25 * x * x
    return np.exp(-x) * lead * (1.0 + q / (n + 1.0) * (1.0 + q / (2.0 * (n + 2.0))))


# rows of a Miller pass computed per block: each step is then two in-place
# ufuncs on one block row, and each block's sum is one reduction
_MILLER_BLOCK = 32


def _ive_miller(orders: int, x: np.ndarray) -> np.ndarray:
    """e^-x I_n(x), n = 1..orders, by one Miller pass normalized by e^x = I_0 + 2 sum I_k.

    I_{k-1} = I_{k+1} + (2k/x) I_k from (I_{M+1}, I_M) = (0, 1e-280),
    M = orders + 12 + floor(x_max + 6 sqrt(x_max + 1)); every term is
    positive, so nothing cancels. Columns past 1e200 are rescaled by 1e-200,
    checked every 8 steps.
    """
    x_max = float(np.max(x))
    k = orders + 12 + int(x_max + 6.0 * math.sqrt(x_max + 1.0))
    r = 2.0 / x
    out = np.empty((orders, x.size))
    total = np.zeros_like(x)  # I_1 + I_2 + ... over finished blocks, at the running scale
    buf = np.zeros((_MILLER_BLOCK + 2, x.size))
    buf[1] = 1e-280
    kr = np.empty((_MILLER_BLOCK, x.size))
    rows, krs = list(buf), list(kr)
    while k > 0:  # buf[:2] holds (I_{k+1}, I_k); row j + 2 gets I_{k-1-j}
        n = min(_MILLER_BLOCK, k)
        np.multiply(np.arange(k, k - n, -1.0)[:, None], r, out=kr[:n])
        for j, (c, prev, cur, nxt) in enumerate(zip(krs[:n], rows, rows[1:], rows[2:])):
            np.multiply(c, cur, out=nxt)
            nxt += prev
            if (k - 1 - j) % 8 == 0 and nxt.max() > 1e200:
                big = nxt > 1e200
                buf[: j + 3, big] *= 1e-200
                total[big] *= 1e-200
                out[k - 1 :, big] *= 1e-200  # I_k.. from earlier blocks
        lo, hi = max(k - n, 1), min(k - 1, orders)  # orders 1..orders in this block
        if lo <= hi:
            out[lo - 1 : hi] = buf[k + 1 - hi : k + 2 - lo][::-1]
        total += buf[2 : 2 + k - lo].sum(axis=0)
        buf[:2] = buf[n : n + 2]
        k -= n
    out /= buf[1] + 2.0 * total
    return out


# e^-x I_n(x) by Hankel's expansion at and above max(30, orders^2): there
# 4 nu^2/(8 x) <= 1/2 for every order, and the 20 terms below leave < 1e-20
_IVE_HANKEL_X = 30.0
_IVE_HANKEL_TERMS = 20


def _ive_hankel(orders: int, x: np.ndarray) -> np.ndarray:
    """e^-x I_n(x), n = 1..orders, for x >= max(30, orders^2).

    Hankel's expansion e^-x I_nu(x) ~ sum_k (-1)^k a_k(nu) x^-k / sqrt(2 pi x)
    (DLMF 10.40.1) gives the two top orders; the stable downward recurrence
    I_{k-1} = I_{k+1} + (2k/x) I_k, all terms positive, gives the rest.
    """
    out = np.empty((orders, x.size))
    t = 1.0 / x
    for nu in range(max(orders - 1, 1), orders + 1):
        coef = _hankel_a(nu, _IVE_HANKEL_TERMS) * (-1.0) ** np.arange(_IVE_HANKEL_TERMS)
        acc = np.full_like(x, coef[-1])
        for c in coef[-2::-1]:
            acc = acc * t + c
        out[nu - 1] = acc / np.sqrt(2.0 * np.pi * x)
    for k in range(orders - 1, 1, -1):
        out[k - 2] = out[k] + (2.0 * k / x) * out[k - 1]
    return out


def ive(orders: int, x) -> np.ndarray:
    """e^-x I_n(x) for n = 1..orders at a 1-d x >= 0, as the rows of an (orders, x.size) array.

    The ascending series at and below x = 1e-3, Hankel's expansion at and
    above max(30, orders^2), one Miller pass in between.
    """
    x = np.asarray(x, dtype=float)
    small = x <= _IVE_SERIES_X
    large = x >= max(_IVE_HANKEL_X, orders * orders)
    out = np.empty((orders, x.size))
    for part, method in (
        (small, _ive_series),
        (~(small | large), _ive_miller),
        (large, _ive_hankel),
    ):
        if np.any(part):
            out[:, part] = method(orders, x[part])
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
