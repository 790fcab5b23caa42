"""Galerkin discretization of the window-trace problem.

The trace of the field on each window is expanded in the edge-adapted basis

    b_n(t) = sqrt(a^2 - (t-c)^2) * U_n((t-c)/a),   n = 0..N-1,

whose square-root vanishing at the window tips matches the field, giving
spectral convergence.  Its Fourier transform is a Bessel quotient,

    bhat_n(xi) = pi a^2 i^n (n+1) J_{n+1}(a xi)/(a xi) * e^{i xi c},

so the quadratic form (1/2pi) int [m_pi(xi)+m_d(xi)] phihat psihat* dxi of the
two-strip DtN sum becomes a matrix M(lambda) with three exactly-known pieces on
each diagonal block:

  * the |xi| part: int_0^inf J_{n+1}(ax)J_{m+1}(ax)/x dx = delta_nm/(2(n+1)),
    giving the diagonal pi a^2 (n+1);
  * the lambda/xi counterterm on [1, inf): a Gamma-function closed form for
    int_0^inf J_{n+1} J_{m+1} x^{-3} dx (n+m > 0) minus a numeric [0, 1] piece;
  * a smooth remainder S(xi) - 2 xi + (lambda/xi) 1_{xi>=1} = O(xi^-3) on
    Gauss-Legendre panels up to xi_max, with an explicit tail bound.  Below
    xi_0 = max(24, 40/d) it is evaluated per lambda; above, both strip
    exponentials are below about e^-80 and what is left is the power series
    sum_k 2 c_k lambda^k xi^(1-2k), so those nodes enter through lambda-free
    moment matrices held in the window table, the one cache of lambda-free
    per-window data (_build_window_table, keyed by a, N, quadrature and xi_0).

Off-diagonal (window-coupling) blocks use the exact exponential expansion of
the interface kernel over transverse strip modes,

    K(x) = -(1/pi) sum_strips sum_k (pi^2 k^2 / (w^3 kappa_k)) ... e^{-kappa_k |x|},

which for disjoint windows turns every entry into a fast geometric series of
closed-form exponential moments; no oscillatory quadrature is involved and the
entries are accurate in an absolute sense at any separation.

The Bessel values (J_n in the beta tables, e^-x I_n in the moments) come from
the numpy-only recurrences of specfun, so this path imports no scipy.

Entries with odd n - m vanish identically by parity; both block types are
assembled symmetrically (each unordered pair computed once).  The field's L2
density is N = -dm/dlambda, so norm_matrix (-dM/dlambda) gives its norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import (
    AccuracyError,
    ThresholdError,
    UnsupportedArgumentError,
    ValidationError,
)
from .geometry import Geometry, SolverSettings, WindowSpec
from .specfun import _creg, bessel_j, ive, norm_weight

__all__ = [
    "assemble_exp_rhs",
    "assemble_galerkin",
    "norm_matrix",
    "GalerkinSystem",
    "basis_overlap_gram",
    "tail_estimate",
    "gl_panels",
    "beta_matrix",
    "sub_symbol",
    "cross_kernel_series",
]


@functools.cache
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    return legendre.leggauss(points)


def gl_panels(edges: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive panels [edges[i], edges[i+1]]."""
    x, w = _leggauss(points)
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def graded_edges(xi_max: float, width: float, max_panels: float = math.inf) -> np.ndarray:
    """Panel edges on [0, xi_max], geometrically refined near xi = 0 and xi = 1.

    For lambda close to the continuum threshold the symbol varies on the scale
    sqrt(1 - lambda) near xi = 0 (trigonometric spike) and has a branch point
    just below xi = 1; dyadic grading toward both keeps Gauss panels accurate
    for every admissible lambda.  Panels never straddle xi = 1.  Elsewhere the
    maximum panel width is `width`.  The panels are counted before any edge
    array is built, and more than `max_panels` raise ValidationError.
    """
    if xi_max <= 0.0 or width <= 0.0:
        raise ValidationError("graded_edges needs xi_max > 0 and width > 0")
    pts = {0.0, xi_max}
    k = 5e-4
    while k < 0.5:
        if k < xi_max:
            pts.add(k)
        k *= 2.0
    if xi_max > 1.0:
        pts.add(1.0)
        delta = 0.25
        while delta > 4e-4:
            pts.add(1.0 - delta)
            if 1.0 + delta < xi_max:
                pts.add(1.0 + delta)
            delta *= 0.5
    edges = sorted(p for p in pts if 0.0 <= p <= xi_max)
    gaps = [hi - lo for lo, hi in zip(edges, edges[1:])]
    # as floats: a gap over a tiny width may overflow to inf, which still counts
    counts = [np.ceil(gap / width) if gap > width * (1.0 + 1e-12) else 1.0 for gap in gaps]
    if sum(counts) > max_panels:
        raise ValidationError(
            f"quadrature on [0, {xi_max:g}] at panel width {width:.3g} needs "
            f"{sum(counts):.3g} panels, more than {max_panels}; lower xi_max, "
            "raise panel_width or narrow the window"
        )
    out = [edges[0]]
    for e, gap, n in zip(edges[1:], gaps, counts):
        out.extend(out[-1] + gap * np.arange(1, n) / n)
        out.append(e)
    return np.asarray(out, dtype=float)


def beta_matrix(a: float, orders: int, nodes: np.ndarray) -> np.ndarray:
    """B[n, q] = pi a^2 (n+1) J_{n+1}(a xi_q)/(a xi_q) for n = 0..orders-1.

    J_1..J_N (N = orders) are rows of specfun.bessel_j: one vectorized
    three-term recurrence, upward from Hankel's J_0, J_1 where x = a xi >
    max(N, 25) and Miller's downward recurrence, normalized by the Neumann sum
    J_0 + 2 sum J_2k = 1, below. Its rows are scaled in place. Nodes must
    satisfy a xi >= 1e-30 (Gauss nodes never sit on 0); the xi -> 0 limit is
    pi a^2/2 for n = 0 and 0 otherwise, handled by callers that need xi = 0.
    """
    x = a * np.asarray(nodes, dtype=float)
    out = bessel_j(orders, x)[1:]
    out *= np.pi * a * a / x
    out *= np.arange(1.0, orders + 1.0)[:, None]
    return out


def assemble_exp_rhs(lam: float, window: WindowSpec, kappa: float, orientation: int, order: int):
    """Moments g_n = int b_n(t) e^{sigma kappa (t - c)} dt of an exponential datum.

    Closed form pi a^2 (n+1) sigma^n I_{n+1}(a kappa)/(a kappa); orientation
    sigma = +1/-1 flips the sign of odd-n entries.  `lam` is accepted for
    interface symmetry with the matrix assembly and only range-checked.
    """
    if lam >= 1.0:
        raise ThresholdError(f"spectral parameter must be < 1, got {lam}")
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if orientation not in (+1, -1):
        raise ValidationError(f"orientation must be +1 or -1, got {orientation!r}")
    a = window.half_width
    x = a * kappa
    if x > 700.0:
        raise UnsupportedArgumentError(f"kappa*a = {x:.3g} beyond validated Bessel-I range (700)")
    n = np.arange(order)
    vals = np.pi * a * a * (n + 1) * ive(order, [x])[:, 0] * math.exp(x) / x
    if orientation < 0:
        vals = vals * np.where(n % 2 == 0, 1.0, -1.0)
    return vals


def basis_overlap_gram(a: float, order: int) -> np.ndarray:
    """L2(window) Gram matrix of the edge basis: G_nm = a^3/2 [C(n-m) - C(n+m+2)].

    C(k) = 2/(1-k^2) for even k and 0 for odd k (so odd n-m entries vanish).
    """

    def c(k: np.ndarray) -> np.ndarray:
        return np.divide(2.0, 1.0 - k * k, out=np.zeros(k.shape), where=k % 2 == 0)

    n = np.arange(order)
    return 0.5 * a ** 3 * (c(np.subtract.outer(n, n)) - c(np.add.outer(n, n) + 2))


def sub_symbol(nodes: np.ndarray, lam: float, d: float) -> np.ndarray:
    """Integrand S(xi) - 2 xi + (lambda/xi) 1_{xi >= 1}, evaluated stably.

    On xi >= 1 the three pieces are each small and cancellation-free:
    -lambda^2/(xi (z+xi)^2) + 2z/(e^{2 pi z}-1) + 2z/(e^{2 d z}-1); below 1 the
    regularized coth series keeps the removable z = 0 point exact.
    """
    xi = np.asarray(nodes, dtype=float)
    out = np.empty_like(xi)
    hi = xi >= 1.0
    if np.any(hi):
        x = xi[hi]
        z = np.sqrt(x * x - lam)
        ep = np.exp(-2.0 * np.pi * z)
        ed = np.exp(-2.0 * d * z)
        out[hi] = (
            -lam * lam / (x * (z + x) ** 2)
            + 2.0 * z * ep / (1.0 - ep)
            + 2.0 * z * ed / (1.0 - ed)
        )
    if np.any(~hi):
        x = xi[~hi]
        u = x * x - lam
        out[~hi] = 1.0 / np.pi + 1.0 / d + 2.0 * u * (_creg(u, np.pi) + _creg(u, d)) - 2.0 * x
    return out


def _t3_tail_00(a: float, x: float) -> float:
    """Asymptotic tail int_X^inf J_1(a xi)^2 xi^-3 d xi (two IBP orders kept)."""
    w = 2.0 * a
    return (1.0 / (np.pi * a)) * (
        1.0 / (3.0 * x ** 3)
        + 3.0 / (40.0 * a * a * x ** 5)
        - np.cos(w * x) / (2.0 * a * x ** 4)
        - 5.0 * np.sin(w * x) / (8.0 * a * a * x ** 5)
    )


@dataclass(frozen=True)
class _WindowTable:
    """Per-window, lambda-independent quadrature data: near nodes and far moments.

    LRU-cached by _build_window_table on (a, N, quadrature, xi_0); d enters
    only through xi_0 = _far_cut(d), so d = 2 and d = pi share one entry.
    """

    a: float
    orders: int
    nodes: np.ndarray
    weights: np.ndarray
    beta: np.ndarray          # (orders, Q)
    dterm: np.ndarray         # pi a^2 (n+1) diagonal
    t3: np.ndarray            # third-moment matrix (even pairs)
    sign: np.ndarray          # (-1)^((n-m)/2) on even pairs, 0 on odd
    near: int                 # nodes[:near] < xi_0 (nodes ascend)
    moments: np.ndarray       # (6, orders, orders): sum_far w beta beta^T xi^(1-2k)/pi


# 53x the largest default-settings table (18,684 nodes: a = 3, xi_max = 800), 27x
# the largest a test builds (37,368 at 24 points); beta holds `orders` doubles a node
MAX_TABLE_NODES = 1_000_000


# 2 c_k for k = 2..7, c_k = C(1/2, k)(-1)^k the Taylor coefficients of sqrt(1 - s)
# (exact binary fractions); with s = lambda/xi^2 <= 1/576 the first omitted term
# is about 3e-18 of the sum
_FAR_POWERS = np.arange(2, 8)
_FAR_COEF = np.array([-1 / 4, -1 / 8, -5 / 64, -7 / 128, -21 / 512, -33 / 1024])


def _far_cut(d: float) -> float:
    """xi_0 = max(24, 40/d): from here on e^{-2 pi z}, e^{-2 d z} < e^-79.9 in sub_symbol.

    What is left there is 2 z - 2 xi + lambda/xi = 2 xi (sqrt(1-s) - 1 + s/2),
    s = lambda/xi^2, summed by _FAR_COEF.
    """
    return max(24.0, 40.0 / d)


# 16 > 5, the largest benchmark working set (verify-simple 4, modes-widths 5).
@functools.lru_cache(maxsize=16)
def _build_window_table(
    a: float, orders: int, xi_max: float, panel_points: int, panel_width: float, xi0: float
) -> _WindowTable:
    width = min(panel_width, np.pi / (2.0 * a), 1.0)
    edges = graded_edges(xi_max, width, MAX_TABLE_NODES // panel_points)
    nodes, weights = gl_panels(edges, panel_points)
    beta = beta_matrix(a, orders, nodes)

    n = np.arange(orders)
    dterm = np.pi * a * a * (n + 1.0)

    # J_{n+1}(a xi) J_{m+1}(a xi)/xi^3 = beta_n beta_m / (pi^2 a^2 (n+1)(m+1) xi)
    scale = np.pi ** 2 * a * a * np.outer(n + 1.0, n + 1.0)
    low = nodes < 1.0
    bw_low = beta[:, low] * (weights[low] / nodes[low])
    q01 = bw_low @ beta[:, low].T / scale
    # int_0^inf J_{n+1}(a x) J_{m+1}(a x) x^-3 dx for n+m > 0, n-m even, in closed form:
    # Gamma(p) / (4 Gamma(2-q) Gamma(2+q) Gamma(p+3)) with p = (n+m)/2, q = (n-m)/2,
    # where Gamma(2-q) Gamma(2+q) is 1 at q = 0, 2 at |q| = 1 and 1/Gamma(<=0) = 0 beyond
    diff = np.subtract.outer(n, n)
    p = np.add.outer(n, n) // 2
    q = np.abs(diff) // 2
    even = diff % 2 == 0
    denom = 4.0 * np.where(q == 0, 1.0, 2.0) * p * (p + 1) * (p + 2)
    nonzero = even & (q < 2) & (p > 0)
    closed = np.divide(a * a, denom, out=np.zeros((orders, orders)), where=nonzero)
    t3 = np.where(even, closed - q01, 0.0)
    hi = ~low
    t3[0, 0] = float(
        np.sum(weights[hi] / nodes[hi] * beta[0, hi] ** 2) / scale[0, 0]
    ) + _t3_tail_00(a, xi_max)
    lower = np.tril_indices(orders, -1)
    t3[lower] = t3.T[lower]  # q01 is symmetric only to rounding: mirror the upper triangle

    sign = np.where(even, np.where(diff % 4 == 0, 1.0, -1.0), 0.0)

    near = int(np.searchsorted(nodes, xi0))
    far = beta[:, near:]
    moments = np.empty((_FAR_POWERS.size, orders, orders))
    scaled = np.empty_like(far)  # the one transient (orders, far nodes) array
    for out, k in zip(moments, _FAR_POWERS):
        np.multiply(far, weights[near:] / np.pi * nodes[near:] ** (1.0 - 2.0 * k), out=scaled)
        np.matmul(scaled, far.T, out=out)  # zeros when no node is far
    return _WindowTable(a, orders, nodes, weights, beta, dterm, t3, sign, near, moments)


def _window_table(a: float, orders: int, settings: SolverSettings, xi0: float) -> _WindowTable:
    return _build_window_table(
        a, orders, settings.xi_max, settings.panel_points, settings.panel_width, xi0
    )


def _near_quadrature(table: _WindowTable, weight: np.ndarray) -> np.ndarray:
    """sum over the near nodes of w beta beta^T weight/pi."""
    beta = table.beta[:, : table.near]
    return (beta * (table.weights[: table.near] * weight / np.pi)) @ beta.T


def _diagonal_block(lam: float, table: _WindowTable, d: float) -> np.ndarray:
    quad = _near_quadrature(table, sub_symbol(table.nodes[: table.near], lam, d))
    if table.near < table.nodes.size:
        quad += np.tensordot(_FAR_COEF * lam ** _FAR_POWERS, table.moments, axes=1)
    n = np.arange(table.orders)
    block = quad - lam * np.pi * table.a ** 2 * np.outer(n + 1.0, n + 1.0) * table.t3
    block[np.diag_indices_from(block)] += table.dterm
    block *= table.sign
    # one canonical value per unordered pair (exact symmetry by assignment)
    upper = np.triu(block)
    return upper + np.triu(block, 1).T


# terms per strip of the cross-window series: enough for window gaps down to
# 44 / 50,000 = 8.8e-4 in the upper strip, its widest
_MAX_CROSS_MODES = 50_000


def cross_kernel_series(lam: float, d: float, gap: float):
    """Transverse-mode expansion data for the interface kernel between strips.

    Returns (kappas, amps) with K(x) = -sum amps * exp(-kappas*|x|); the series
    is truncated when exp(-kappa*gap) falls below 1e-18 relative to the leading
    term, so `gap` must be the smallest separation it will be used on.
    """
    if gap <= 0:
        raise ValidationError("cross-window series requires a positive window gap")
    kappas = []
    amps = []
    for w in (np.pi, d):
        k_needed = int(np.ceil(44.0 * w / (np.pi * gap))) + 2
        if k_needed > _MAX_CROSS_MODES:
            raise AccuracyError(
                "window gap too small for the mode-series cross block",
                {"gap": gap, "modes_needed": k_needed},
            )
        k = np.arange(1, k_needed + 1)
        kap = np.sqrt((np.pi * k / w) ** 2 - lam)
        kappas.append(kap)
        amps.append(np.pi ** 2 * k ** 2 / (w ** 3 * kap))
    return np.concatenate(kappas), np.concatenate(amps)


def _scaled_moments(widths, orders: int, kappas: np.ndarray) -> list[np.ndarray]:
    """g_n(kappa) e^{-a kappa} = pi a^2 (n+1) I_{n+1}(a k)/(a k) e^{-a k} per half-width a.

    One (orders, kappas.size) block per entry of `widths`, all from a single
    ive call on the concatenated arguments a kappa.
    """
    x = np.multiply.outer(widths, kappas)
    values = ive(orders, x.ravel()).reshape(orders, *x.shape)
    n = np.arange(1.0, orders + 1.0)[:, None]
    return [np.pi * a * a * n * v / xa for a, v, xa in zip(widths, values.swapaxes(0, 1), x)]


def _cross_series(lam: float, left: WindowSpec, right: WindowSpec, d: float, orders: int):
    """Centre distance, kappas, A_k e^{-kappa gap} and both windows' scaled moments."""
    sep = right.center - left.center
    gap = sep - left.half_width - right.half_width
    kappas, amps = cross_kernel_series(lam, d, gap)
    widths = dict.fromkeys((left.half_width, right.half_width))  # a mirrored pair has one
    moments = _scaled_moments(list(widths), orders, kappas)
    return sep, kappas, amps * np.exp(-kappas * gap), moments[0], moments[-1]


def _cross_block(lam: float, left: WindowSpec, right: WindowSpec, d: float, orders: int) -> np.ndarray:
    """Block coupling the left window's basis (rows) to the right window's (cols)."""
    _, _, decay, g_left, g_right = _cross_series(lam, left, right, d, orders)
    n = np.arange(orders)
    parity = np.where(n % 2 == 0, 1.0, -1.0)
    # entry = -sum_k decay_k * gL_m(k) * (-1)^n gR_n(k)
    return -(g_left * decay) @ g_right.T * parity[None, :]


def _diagonal_norm_block(lam: float, table: _WindowTable, d: float) -> np.ndarray:
    """-d/dlambda of _diagonal_block: weight N_pi + N_d - 1_{xi>=1}/xi, plus the t3 term.

    On the far nodes the weight is minus the lambda-derivative of the series,
    -sum_k 2 k c_k lambda^(k-1) xi^(1-2k).
    """
    nodes = table.nodes[: table.near]
    w = norm_weight(nodes, lam, np.pi) + norm_weight(nodes, lam, d)
    w -= np.where(nodes >= 1.0, 1.0 / nodes, 0.0)
    block = _near_quadrature(table, w)
    if table.near < table.nodes.size:
        slope = _FAR_POWERS * _FAR_COEF * lam ** (_FAR_POWERS - 1)
        block -= np.tensordot(slope, table.moments, axes=1)
    n = np.arange(table.orders)
    block += np.pi * table.a ** 2 * np.outer(n + 1.0, n + 1.0) * table.t3
    block *= table.sign
    return 0.5 * (block + block.T)


def _cross_norm_block(lam: float, left: WindowSpec, right: WindowSpec, d: float, orders: int) -> np.ndarray:
    """-d/dlambda of _cross_block, term by term in the series.

    Term k is A_k e^{-kappa sep} P_m(kappa) P_n(kappa) with the unscaled moments
    P; dA_k/dkappa = -A_k/kappa, dkappa/dlambda = -1/(2 kappa) and
    d/dx [I_{n+1}(x)/x] = I_{n+2}(x)/x + n I_{n+1}(x)/x^2.
    """
    sep, kappas, decay, *ext = _cross_series(lam, left, right, d, orders + 1)
    w = decay / (2.0 * kappas)
    n = np.arange(orders)[:, None]
    g, s = [], []  # ive-scaled moments and their kappa-derivatives, left then right
    for a, moments in zip((left.half_width, right.half_width), ext):
        g.append(moments[:-1])
        s.append(a * (n + 1.0) / (n + 2.0) * moments[1:] + n * moments[:-1] / kappas)
    slope = (g[0] * (w * (-1.0 / kappas - sep)) + s[0] * w) @ g[1].T + (g[0] * w) @ s[1].T
    return -slope * np.where(n.T % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class GalerkinSystem:
    """Symmetric Galerkin matrix M(lambda) with the bound on its quadrature tail."""

    matrix: np.ndarray
    tail_bound: float


def tail_estimate(lam: float, a: float, xi_max: float, d: float, n: int, m: int) -> float:
    """Upper bound on the neglected integral beyond xi_max for entry (n, m).

    Algebraic part O(lambda^2/xi^5) from the counterterm mismatch plus the
    exponentially small strip remainders; deliberately generous constants.
    """
    alg = 0.11 * lam * lam * a * (n + 1) * (m + 1) / xi_max ** 5
    expo = 0.0
    for w in (np.pi, d):
        expo += 5.0 * a * (n + 1) * (m + 1) * np.exp(-1.9 * w * xi_max) / (w * xi_max ** 2)
    return alg + expo


def _window_tables(geometry: Geometry, settings: SolverSettings) -> dict[float, _WindowTable]:
    """The table of each distinct half-width, in window order."""
    xi0 = _far_cut(geometry.d)
    widths = dict.fromkeys(w.half_width for w in geometry.windows)
    return {a: _window_table(a, settings.basis_order, settings, xi0) for a in widths}


def _block_matrix(
    lam: float, geometry: Geometry, orders: int, tables: dict[float, _WindowTable], diagonal, cross
) -> np.ndarray:
    """Symmetric matrix of per-window diagonal blocks and mirrored upper cross blocks.

    Each distinct half-width's diagonal block is computed once and copied into
    the slot of every window of that width.
    """
    windows = geometry.windows
    blocks = {a: diagonal(lam, table, geometry.d) for a, table in tables.items()}
    out = np.zeros((orders * len(windows),) * 2)
    for i, window in enumerate(windows):
        rows = slice(i * orders, (i + 1) * orders)
        out[rows, rows] = blocks[window.half_width]
        for j in range(i + 1, len(windows)):
            cols = slice(j * orders, (j + 1) * orders)
            out[rows, cols] = cross(lam, window, windows[j], geometry.d, orders)
            out[cols, rows] = out[rows, cols].T
    return out


def assemble_galerkin(lam: float, geometry: Geometry, settings: SolverSettings) -> GalerkinSystem:
    """Assemble the symmetric system matrix M(lambda) for all windows."""
    if not (settings.lambda_floor < lam < settings.lambda_max):
        raise ThresholdError(
            f"lambda = {lam} outside admissible ({settings.lambda_floor}, {settings.lambda_max})"
        )
    if not geometry.windows:
        raise ValidationError("assembly requires at least one window")
    orders = settings.basis_order
    tables = _window_tables(geometry, settings)  # oversized tables fail before the tail check
    worst_tail = max(
        tail_estimate(lam, a, settings.xi_max, geometry.d, orders - 1, orders - 1) for a in tables
    )
    if worst_tail > 1e-8:
        raise AccuracyError(
            "quadrature tail beyond xi_max exceeds tolerance; increase quadrature.xi_max",
            {"tail_bound": worst_tail, "xi_max": settings.xi_max},
        )
    matrix = _block_matrix(lam, geometry, orders, tables, _diagonal_block, _cross_block)
    return GalerkinSystem(matrix, worst_tail)


def norm_matrix(lam: float, geometry: Geometry, settings: SolverSettings) -> np.ndarray:
    """G = -dM/dlambda, so that ||u||^2 = x^T G x for the trace coefficients x.

    Symmetric positive definite for lambda < 1; it reuses the window tables and
    the cross-window series of assemble_galerkin at the same settings.
    """
    tables = _window_tables(geometry, settings)
    return _block_matrix(
        lam, geometry, settings.basis_order, tables, _diagonal_norm_block, _cross_norm_block
    )
