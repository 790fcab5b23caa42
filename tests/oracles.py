"""Independent reference implementations backing the test expectations.

Everything here is deliberately written from textbook definitions (power
series, brute-force quadrature, analytic eigenvalues of separable problems)
so that agreement with the package is a genuine cross-check and not a
restatement of the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse, special
from scipy.integrate import quad
from scipy.sparse import linalg
from scipy.special import eval_chebyu, jv

from fields import evaluate_field_grid
from winguide import assembly, fd_oracle, spectral
from winguide.assembly import assemble_galerkin, sub_symbol
from winguide.errors import NumericalFailureError, ValidationError
from winguide.specfun import (
    _as_farray,
    _check_lambda,
    _check_width,
    _creg,
    _scalar_like,
    norm_weight,
)


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


def dtn_symbol(xi, lam: float, width: float):
    """Symbol m(xi) = z coth(width z), z = sqrt(xi^2 - lambda), of the strip DtN map.

    Continued through z = 0 (value 1/width) and into s cot(width s) for
    xi^2 < lambda; for lambda < 1 the continuation has no real poles. Built
    on the package's `_creg`, as `assembly.sub_symbol` is below xi = 1.
    """
    w = _check_width(width)
    lamf = _check_lambda(lam)
    arr = _as_farray(xi)
    u = arr * arr - lamf
    # m = 2u * C(u) with C = 1/(2wu) + creg: the pole contributes exactly 1/w.
    m = 1.0 / w + 2.0 * u * _creg(u, w)
    return _scalar_like(xi, m)


def dtn_symbol_textbook(xi: float, lam: float, width: float) -> float:
    """z coth(width z) for xi^2 > lambda, 1/width at z = 0, s cot(width s) below."""
    u = xi * xi - lam
    if u > 0.0:
        z = math.sqrt(u)
        return z / math.tanh(width * z)
    if u < 0.0:
        s = math.sqrt(-u)
        return s / math.tan(width * s)
    return 1.0 / width


def diagonal_block_full(lam: float, table, d: float) -> np.ndarray:
    """A window's diagonal block of M(lambda), quadrature over the whole table.

    Every node runs through `sub_symbol`, out to xi_max; the production block
    replaces the nodes above xi_0 by tabulated far-field moments.
    """
    w = sub_symbol(table.nodes, lam, d)
    bw = table.beta * (table.weights * w / np.pi)
    quad = bw @ table.beta.T
    n = np.arange(table.orders)
    block = quad - lam * np.pi * table.a ** 2 * np.outer(n + 1.0, n + 1.0) * table.t3
    block[np.diag_indices_from(block)] += table.dterm
    block *= table.sign
    upper = np.triu(block)
    return upper + np.triu(block, 1).T


def diagonal_norm_block_full(lam: float, table, d: float) -> np.ndarray:
    """-dM/dlambda's diagonal block, weight N_pi + N_d - 1_{xi>=1}/xi on every node."""
    w = norm_weight(table.nodes, lam, np.pi) + norm_weight(table.nodes, lam, d)
    w -= np.where(table.nodes >= 1.0, 1.0 / table.nodes, 0.0)
    n = np.arange(table.orders)
    block = (table.beta * (table.weights * w / np.pi)) @ table.beta.T
    block += np.pi * table.a ** 2 * np.outer(n + 1.0, n + 1.0) * table.t3
    block *= table.sign
    return 0.5 * (block + block.T)


def block_matrix_per_window(lam: float, geometry, settings, diagonal, cross) -> np.ndarray:
    """M(lambda) or G = -dM/dlambda block by block, each window's diagonal block computed anew.

    `diagonal` and `cross` are the assembly's block functions; every window
    looks up its own table and gets its own diagonal block, equal widths or not.
    """
    orders = settings.basis_order
    windows = geometry.windows
    xi0 = assembly._far_cut(geometry.d)
    out = np.zeros((orders * len(windows),) * 2)
    for i, left in enumerate(windows):
        rows = slice(i * orders, (i + 1) * orders)
        table = assembly._window_table(left.half_width, orders, settings, xi0)
        out[rows, rows] = diagonal(lam, table, geometry.d)
        for j in range(i + 1, len(windows)):
            cols = slice(j * orders, (j + 1) * orders)
            out[rows, cols] = cross(lam, left, windows[j], geometry.d, orders)
            out[cols, rows] = out[rows, cols].T
    return out


def scan_reassembling_roots(geometry, settings) -> list:
    """spectral.scan_eigenvalues with M(lambda*) assembled afresh at every root.

    The same inertia counts, brackets and Brent searches; only the matrix
    behind each root's eigh is a new assembly rather than a search sample's.
    """
    samples = []

    def branches(lam: float) -> np.ndarray:
        lam = float(lam)
        values = np.linalg.eigvalsh(assemble_galerkin(lam, geometry, settings))
        samples.append((lam, values))
        return values

    lo, hi = settings.lambda_floor, settings.lambda_max
    first = int(np.count_nonzero(branches(np.nextafter(lo, hi)) <= 0.0))
    last = int(np.count_nonzero(branches(np.nextafter(hi, lo)) <= 0.0))
    roots = []
    for k in range(first, last):
        b, fb = min((lam, v[k]) for lam, v in samples if v[k] <= 0.0)
        a, fa = max((lam, v[k]) for lam, v in samples if lam < b and v[k] > 0.0)
        lam_star = float(
            spectral._brent(lambda lam: branches(lam)[k], a, b, fa, fb, settings.bisect_tol)
        )
        matrix = assemble_galerkin(lam_star, geometry, settings)
        evals, evecs = np.linalg.eigh(matrix)
        residual = abs(evals[k]) / max(np.max(np.abs(matrix)), 1e-300)
        coeffs = evecs[:, k].reshape(len(geometry.windows), -1).copy()
        roots.append(spectral.ScanRoot(lam_star, coeffs, float(residual)))
    return roots


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


def j0_j1_scipy(x) -> tuple[np.ndarray, np.ndarray]:
    """J_0(x), J_1(x) from each scipy routine where it is accurate.

    Against mpmath at 30 digits, relative to max(sqrt(2/(pi x)), |J|):
    Cephes j0/j1 are off by at most 1.1e-15 on (0, 25], but above 25 they
    round x - pi/4 and are off by up to 2.1e-13 near x = 2000; AMOS jv is off
    by at most 6.4e-16 above 25 (2.1e-15 near x = 20).
    """
    x = np.asarray(x, dtype=float)
    low = x <= 25.0
    return (
        np.where(low, special.j0(x), jv(0, x)),
        np.where(low, special.j1(x), jv(1, x)),
    )


# at and below this, scipy's ive/iv give way to the ascending series: below
# about 1e-10 scipy is off by up to 5.6e-14 relative (against mpmath)
_I_SERIES_X = 1e-3


def _i_series_scaled(order: int, x: float) -> float:
    """e^-x I_order(x) by its ascending series, term by term in Python floats."""
    lead = math.exp(-x)
    for j in range(1, order + 1):
        lead *= 0.5 * x / j
    q = 0.25 * x * x
    term, total = 1.0, 1.0
    for k in range(1, 20):
        term *= q / (k * (order + k))
        total += term
    return lead * total


def _i_reference(scipy_fn, scaled: bool, orders: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = np.arange(1, orders + 1)[:, None]
    out = scipy_fn(n, x[None, :])
    for col in np.flatnonzero(x <= _I_SERIES_X):
        xc = float(x[col])
        factor = 1.0 if scaled else math.exp(xc)
        out[:, col] = [factor * _i_series_scaled(order, xc) for order in range(1, orders + 1)]
    return out


def ive_scipy(orders: int, x) -> np.ndarray:
    """e^-x I_n(x), n = 1..orders: scipy.special.ive, the series at and below 1e-3."""
    return _i_reference(special.ive, True, orders, x)


def iv_scipy(orders: int, x) -> np.ndarray:
    """I_n(x), n = 1..orders: scipy.special.iv, the series at and below 1e-3."""
    return _i_reference(special.iv, False, orders, x)


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


# The sparse reference for `fd_oracle`: the same finite-volume C assembled as
# a sparse matrix, counted by the inertia of an unpivoted LDL^T and solved by
# ARPACK shift-invert. It shares only `fd_oracle._Mesh` with the oracle.

_ARPACK_SEED = 97


def fd_assemble(mesh) -> sparse.csc_matrix:
    """Symmetric finite-volume matrix as a sparse CSC matrix.

    Present nodes are numbered in C order of `mesh.present`: column by column
    from x = -L, bottom to top within a column. The face between neighbours
    along either axis has the weight (dual width across it) / (step along it),
    a grid line's dual width being the mean of its two adjacent steps (the
    interface row's is (h_down + h_up) / 2). A face with both ends present is
    a stiffness entry; each present end adds the weight to its own diagonal,
    which is the Dirichlet closure (walls, slit, window tips) where the other
    end is absent. With the dual-cell areas B this returns
    C = B^{-1/2} A B^{-1/2}, whose eigenvalues approximate the Dirichlet
    Laplacian's.
    """
    present = mesh.present
    n = np.count_nonzero(present)
    index = np.full(present.shape, -1)
    index[present] = np.arange(n)
    wx = 0.5 * (np.r_[0.0, mesh.hx] + np.r_[mesh.hx, 0.0])
    wy = 0.5 * (np.r_[0.0, mesh.hy] + np.r_[mesh.hy, 0.0])
    diag = np.zeros(present.shape)
    faces = []
    # x faces, then y faces: a node is the lower end of at most one face per axis,
    # so slice sums need no np.add.at; sums on absent nodes are never read
    for weight, lo, hi in (
        (wy[None, :] / mesh.hx[:, None], np.s_[:-1, :], np.s_[1:, :]),
        (wx[:, None] / mesh.hy[None, :], np.s_[:, :-1], np.s_[:, 1:]),
    ):
        diag[lo] += weight
        diag[hi] += weight
        both = present[lo] & present[hi]
        faces.append((index[lo][both], index[hi][both], weight[both]))
    p, q, c = map(np.concatenate, zip(*faces))

    bcell = np.outer(wx, wy)[present]
    c_scaled = c / np.sqrt(bcell[p] * bcell[q])
    nodes = np.arange(n)
    rows = np.concatenate([nodes, p, q])
    cols = np.concatenate([nodes, q, p])
    entries = np.concatenate([diag[present] / bcell, -c_scaled, -c_scaled])
    return sparse.csc_matrix((entries, (rows, cols)), shape=(n, n))


def fd_factor(C, sigma: float):
    """Unpivoted sparse LDL^T of C - sigma I, for the symmetric sparse matrix C.

    A symmetric fill-reducing ordering with diagonal pivots only gives
    P (C - sigma I) P^T = L D L^T, D being the diagonal of U; at sigma = 0 on
    a positive definite C that is a Cholesky-like factor with about half the
    fill of the default COLAMD. The shift goes onto C's stored diagonal in
    place and comes off again from a saved copy once the factor is built, so
    no second n x n matrix exists and C is left bitwise unchanged. A zero
    pivot makes SuperLU either pivot off the diagonal (a row permutation
    other than the column one) or stop on a singular factor; an indefinite
    C - sigma I can do either, and both raise NumericalFailureError.
    """
    diagonal = C.diagonal()
    C.setdiag(diagonal - sigma)
    try:
        lu = linalg.splu(
            C,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalFailureError(f"LDL^T of C - {sigma} I failed: {exc}") from exc
    finally:
        C.setdiag(diagonal)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalFailureError(
            f"LDL^T of C - {sigma} I needed off-diagonal pivots; its inertia is unknown"
        )
    return lu


def fd_count_below(C, sigma: float) -> int:
    """Number of eigenvalues of the symmetric sparse matrix C below sigma.

    By Sylvester's law of inertia, the negative entries of D in the LDL^T
    factor of C - sigma I (`fd_factor`). Reading `lu.U` caches CSC copies of
    both factors, so this runs on the coarsest mesh only.
    """
    return int(np.count_nonzero(fd_factor(C, sigma).U.diagonal() < 0.0))


def fd_eigenpairs_near(C, count: int, sigma: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """The `count` eigenpairs of the sparse matrix C nearest sigma, in ascending order.

    ARPACK's shift-invert mode about sigma: each Lanczos step is one solve
    with the LDL^T factor of C - sigma I (`fd_factor`); the solves are counted.
    About sigma = 0 on a positive definite C these are the smallest
    eigenpairs. The start vector is seeded, so the result does not change
    from call to call. Callers ask for no more pairs than they need: at
    tol = 0 ARPACK spends most of its solves on any wanted eigenvalue in the
    continuum above 1.
    """
    n = C.shape[0]
    lu = fd_factor(C, sigma)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    inverse = linalg.LinearOperator((n, n), matvec=solve, dtype=C.dtype)
    v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(n)
    # about zero the wanted eigenvalues of the inverse are barely separated from
    # the continuum's and ARPACK's default basis of 20 pays; about a nearby shift
    # they stand far apart and a short basis converges in fewer solves
    ncv = min(n, 4 * count + 2) if sigma else None
    try:
        _, vecs = linalg.eigsh(
            C, count, sigma=sigma, which="LM", ncv=ncv, tol=0.0, v0=v0, OPinv=inverse
        )
    except linalg.ArpackError as exc:
        raise NumericalFailureError(
            f"ARPACK shift-invert about {sigma} failed after {solves} solves: {exc}"
        ) from exc
    # Rayleigh quotients on C itself: ARPACK's sigma + 1/theta carries the
    # factor's rounding, which grows like eps ||C|| ~ eps / h^2 (3.5e-13 at
    # h = 0.025), while these are off by |residual|^2 / gap, so no level
    # depends on sigma or on the factorization
    product = C @ vecs
    vals = np.sum(vecs * product, axis=0) / np.sum(vecs * vecs, axis=0)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    resid = product[:, order] - vecs * vals
    diag = {
        "iterations": solves,
        "converged": int(vals.size),
        "residual_max": float(np.max(np.linalg.norm(resid, axis=0))),
        "shift": sigma,
    }
    return vals, vecs, diag


def reflected_full_mesh(geometry, grid, refine: int) -> SimpleNamespace:
    """The full box's FD mesh, reflected from the oracle's even x >= 0 half mesh.

    Its grid lines are the half's and their negatives, so every step equals
    its mirror image bitwise. The oracle's own full mesh spaces each segment
    by `linspace` from -L and misses that symmetry by rounding, which no
    half-domain solve can reproduce; this mesh is the fair reference for one.
    Carries what `fd_assemble` reads.
    """
    half = fd_oracle._Mesh(geometry, grid, refine, "even")
    x = np.concatenate([-half.x[:0:-1], half.x])
    present = np.concatenate([half.present[:0:-1], half.present])
    return SimpleNamespace(
        x=x,
        hx=np.diff(x),
        hy=half.hy,
        present=present,
        interface=half.interface,
    )


def reflected_full_levels(geometry, grid, levels: int, count: int):
    """Per-level lowest `count` FD eigenvalues on `reflected_full_mesh`, and the finest ground vector.

    Each level is one shift-invert solve about 0 of the whole box, with the
    sparse reference's assembly and eigensolver.
    """
    values = []
    for lev in range(levels):
        C = fd_assemble(reflected_full_mesh(geometry, grid, 2**lev))
        vals, vecs, _ = fd_eigenpairs_near(C, count, 0.0)
        values.append(vals)
    return values, vecs[:, 0]


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

    coeffs = trace.coeffs[0]
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
