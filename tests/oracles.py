"""Independent reference implementations backing the test expectations.

Everything here is deliberately written from textbook definitions (power
series, brute-force quadrature, analytic eigenvalues of separable problems)
so that agreement with the package is a genuine cross-check and not a
restatement of the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_chebyu, jv

from winguide.errors import NumericalFailureError, ValidationError


def bessel_j_series(order: int, x: float, terms: int = 40) -> float:
    """Ascending power series for J_order(x), adequate for |x| up to ~15."""
    half = 0.5 * x
    total = 0.0
    for k in range(terms):
        term = (-1.0) ** k * half ** (order + 2 * k)
        term /= math.factorial(k) * math.factorial(k + order)
        total += term
    return total


def bessel_i_series(order: int, x: float, terms: int = 40) -> float:
    """Ascending power series for I_order(x)."""
    half = 0.5 * x
    total = 0.0
    for k in range(terms):
        term = half ** (order + 2 * k)
        term /= math.factorial(k) * math.factorial(k + order)
        total += term
    return total


def bisect_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def edge_basis(n: int, a: float, t):
    """The window trace basis sqrt(a^2 - t^2) U_n(t/a), window centered at 0."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(np.maximum(a * a - t * t, 0.0)) * eval_chebyu(n, t / a)


def basis_ft(n: int, a: float, xi: float) -> complex:
    """Closed-form transform pi a^2 i^n (n+1) J_{n+1}(a xi)/(a xi) of b_n.

    Removable point: bhat_0(0) = pi a^2/2, bhat_n(0) = 0 for n >= 1.
    """
    x = a * xi
    ratio = (0.5 if n == 0 else 0.0) if abs(x) < 1e-12 else jv(n + 1, x) / x
    return complex((1j ** n) * math.pi * a * a * (n + 1) * ratio)


def window_t3_loop(a: float, xi_max: float, nodes, weights, beta, tail_00) -> np.ndarray:
    """The window table's third-moment matrix, entry by entry (upper triangle mirrored).

    Loop reference for `assembly._build_window_table`'s array form: the same
    arithmetic in the same order, so the two agree bitwise. Even pairs with
    n + m > 0 take the closed form int_0^inf J_{n+1}(ax) J_{m+1}(ax) x^-3 dx =
    Gamma(p) / (4 Gamma(2-q) Gamma(2+q) Gamma(p+3)) (p = (n+m)/2, q = (n-m)/2)
    minus the [0, 1) quadrature; (0, 0) is the quadrature on [1, xi_max] plus
    `tail_00(a, xi_max)`.
    """
    orders = beta.shape[0]
    n = np.arange(orders)
    scale = np.pi ** 2 * a * a * np.outer(n + 1.0, n + 1.0)
    low = nodes < 1.0
    q01 = beta[:, low] * (weights[low] / nodes[low]) @ beta[:, low].T / scale
    t3 = np.empty((orders, orders))
    for i in range(orders):
        for j in range(i, orders):
            if (i - j) % 2:
                t3[i, j] = t3[j, i] = 0.0
            elif i == 0 and j == 0:
                hi = ~low
                t3[0, 0] = float(
                    np.sum(weights[hi] / nodes[hi] * beta[0, hi] ** 2) / scale[0, 0]
                ) + tail_00(a, xi_max)
            else:
                q = (i - j) // 2
                p = (i + j) // 2
                closed = 0.0
                if abs(q) < 2:
                    closed = a * a / (4.0 * (2.0 if q else 1.0) * p * (p + 1) * (p + 2))
                t3[i, j] = t3[j, i] = closed - q01[i, j]
    return t3


def overlap_gram_loop(a: float, order: int) -> np.ndarray:
    """G_nm = a^3/2 [C(n-m) - C(n+m+2)], C(k) = 2/(1-k^2) for even k, 0 for odd k, by loop."""

    def c(k: int) -> float:
        return 0.0 if k % 2 else 2.0 / (1.0 - k * k)

    g = np.zeros((order, order))
    for n in range(order):
        for m in range(n, order):
            g[n, m] = g[m, n] = 0.5 * a ** 3 * (c(n - m) - c(n + m + 2))
    return g


def beta_matrix_jv(a: float, orders: int, nodes) -> np.ndarray:
    """pi a^2 (n+1) J_{n+1}(a xi)/(a xi), one scipy `jv` call per order n."""
    x = a * np.asarray(nodes, dtype=float)
    out = np.empty((orders, x.size))
    for n in range(orders):
        out[n] = np.pi * a * a * (n + 1) * jv(n + 1, x) / x
    return out


def quad_basis_ft(n: int, a: float, xi: float) -> complex:
    """Adaptive quadrature of int b_n(t) e^{i xi t} dt."""
    re, _ = quad(lambda t: float(edge_basis(n, a, t)) * math.cos(xi * t),
                 -a, a, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(lambda t: float(edge_basis(n, a, t)) * math.sin(xi * t),
                 -a, a, epsabs=1e-13, epsrel=1e-13, limit=200)
    return complex(re, im)


def quad_exp_moment(n: int, a: float, kappa: float) -> float:
    """Adaptive quadrature of int b_n(t) e^{kappa t} dt."""
    val, _ = quad(lambda t: float(edge_basis(n, a, t)) * math.exp(kappa * t),
                  -a, a, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def rect_fd_eigenvalues(m1: int, h1: float, m2: int, h2: float, count: int):
    """Analytic eigenvalues of the 5-point Dirichlet Laplacian on a rectangle.

    The grid has m1 segments of size h1 in one direction (m1 - 1 interior
    lines) and m2 segments of size h2 in the other.
    """
    vals = []
    for j in range(1, m1):
        for k in range(1, m2):
            vals.append(
                (4.0 / h1 ** 2) * math.sin(0.5 * math.pi * j / m1) ** 2
                + (4.0 / h2 ** 2) * math.sin(0.5 * math.pi * k / m2) ** 2
            )
    vals.sort()
    return vals[:count]


def _gl_nodes(edges, points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _x1_edges(a: float, extent: float):
    """Panel edges on [0, extent] with dyadic refinement toward the slit tip."""
    inner = [0.0, 0.25 * a, 0.5 * a, 0.75 * a, 0.875 * a, 0.9375 * a,
             0.96875 * a, a]
    outer = [a + a / 32, a + a / 16, a + a / 8, a + a / 4, a + a / 2,
             a + 1.0, a + 2.0]
    edges = inner + [e for e in outer if e < extent]
    step = math.ceil(edges[-1])
    while step < extent:
        edges.append(float(step))
        step += 1
    edges.append(extent)
    return np.array(sorted(set(edges)))


def brute_force_field_norm(trace, extent: float = 25.0, sliver: float = 1e-2):
    """2-D quadrature of the squared field over |x1| <= extent.

    Columns are sampled with Gauss-Legendre panels refined toward the slit
    tips; each column is integrated in x2 with panels that stop at the
    interface sliver, whose contribution is closed with a trapezoid against
    the exact window trace (inside the window) or a linear Dirichlet model
    (outside).
    """
    from winguide.waveguide import evaluate_field_grid

    geometry = trace.geometry
    if len(geometry.windows) != 1 or geometry.windows[0].center != 0.0:
        raise ValueError("oracle supports a single centered window")
    a = geometry.windows[0].half_width
    d = geometry.d

    half_nodes, half_weights = _gl_nodes(_x1_edges(a, extent), 12)
    x1 = np.concatenate([-half_nodes[::-1], half_nodes])
    wx1 = np.concatenate([half_weights[::-1], half_weights])

    up_edges = np.array([sliver, 0.2, 0.6, 1.2, 2.0, 2.6, math.pi])
    y_up, w_up = _gl_nodes(up_edges, 12)
    lo_edges = -np.array([sliver, 0.25 * d, 0.5 * d, 0.75 * d, d])[::-1]
    y_lo, w_lo = _gl_nodes(lo_edges, 12)

    x2 = np.concatenate([y_lo, y_up])
    wx2 = np.concatenate([w_lo, w_up])
    field = evaluate_field_grid(trace, x1, x2)
    column = (field * field) @ wx2

    coeffs = np.asarray(trace.window_coeffs(0))
    inside = np.abs(x1) < a
    phi = np.zeros_like(x1)
    basis_sum = np.zeros(inside.sum())
    for n, cn in enumerate(coeffs):
        basis_sum += cn * edge_basis(n, a, x1[inside])
    phi[inside] = basis_sum

    up_wall = evaluate_field_grid(trace, x1, np.array([sliver]))[:, 0]
    lo_wall = evaluate_field_grid(trace, x1, np.array([-sliver]))[:, 0]
    sliver_part = np.where(
        inside,
        0.5 * sliver * (up_wall ** 2 + phi ** 2)
        + 0.5 * sliver * (lo_wall ** 2 + phi ** 2),
        (sliver / 3.0) * (up_wall ** 2 + lo_wall ** 2),
    )
    return float(wx1 @ (column + sliver_part))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvectors as matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def jacobi_eig(matrix) -> SpectralDecomposition:
    """Cyclic Jacobi diagonalization of a symmetric matrix (size <= 256).

    Deterministic row-cyclic sweep order; converges quadratically, capped at 60
    sweeps.  Used as an independent cross-check of the LAPACK path and as the
    spectral-inverse oracle for forced solves.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-13 * np.max(np.abs(a), initial=0.0):
        raise ValidationError("matrix is not symmetric within tolerance")
    n = a.shape[0]
    if n > 256:
        raise ValidationError(f"jacobi_eig limited to size 256, got {n}")
    v = np.eye(n)
    if n == 1:
        return SpectralDecomposition(a.diagonal().copy(), v)
    scale = max(np.max(np.abs(a)), 1e-300)

    for _ in range(60):
        off = np.max(np.abs(a - np.diag(a.diagonal())))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.copysign(1.0, tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
    else:
        raise NumericalFailureError("jacobi sweeps did not converge")

    values = a.diagonal().copy()
    order = np.argsort(values, kind="stable")
    return SpectralDecomposition(values[order], v[:, order])
