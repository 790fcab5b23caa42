"""Brute-force finite-difference eigenvalue oracle.

Independent cross-check for the Galerkin solver: the two coupled strips are
truncated at x1 = +-L with Dirichlet walls and discretized by a symmetric
finite-volume scheme on a tensor grid, giving a positive definite matrix C.
One boolean mask on that grid says which nodes are unknowns: all but the
walls and, on the interface row, all but the nodes outside the windows. Each
face between neighbouring grid nodes weighs (dual width across it) / (step
along it), which gives a stiffness entry between two unknowns and a
Dirichlet closure next to an absent node.

C is never assembled. Scaled by the dual cells it is the restriction of a
Kronecker sum Tx (+) Ty of two tridiagonal second differences to the
unknowns, and the only unknowns it leaves out of the full tensor grid are
the interface row's nodes outside the windows. So each strip between the
interface and its wall is a full rectangle of unknowns, diagonalized in
closed form: along x by one dense `eigh` of Tx per mesh, across by discrete
sine modes. Eliminating both strips leaves a Schur complement S(lambda) on
the interface's window nodes, a few dozen; this is the capacitance-matrix
idea of Buzbee, Dorr, George & Golub (SIAM J. Numer. Anal. 8, 1971). By
Haynsworth's inertia additivity, the number of eigenvalues of C below sigma
is the number of strip eigenvalues below sigma plus the number of negative
eigenvalues of S(sigma). That count below 1 is taken once, on the coarsest
mesh; no level keeps more. Each eigenvalue is the root of one eigenvalue of
S, which decreases between the strip eigenvalues (the poles of S): Newton's
method from sigma = 1, kept inside a bracket that the counts give, after
bisection on the count has moved every pole out of that bracket. No
evaluation lands on a pole. Each eigenvector is rebuilt from its window
values, and its residual ||C v - lambda v|| is taken with C's five-point
stencil.
A mirror-symmetric geometry (the windows equal their own reflection, and
x = 0 is a grid line) is solved on the half x >= 0 alone, twice: the even
half has a Neumann column on x = 0 and the odd half a Dirichlet one. The full
box's matrix is orthogonally similar to the direct sum of the two, so their
counts add up to the full count and their eigenvalues together are the full
box's, each half with half the columns of Tx and an eighth of the cost of
its `eigh`. The solve goes level by level, and on each level through each
box in turn (the full box, or the even and then the odd half).
Richardson extrapolation over a nested mesh family removes the leading mesh
error.

Error budget, documented rather than hidden:

* Truncation: replacing the infinite strips by walls at +-L biases an
  eigenvalue lambda < 1 by O(e^{-2 kappa (L - a)}) with kappa = sqrt(1 - lambda)
  and a the outermost window edge. L is a parameter; the caller picks it
  against the weakest expected decay.
* Mesh: away from window tips the scheme is second order. The field has a
  square-root singularity at each tip, which drags the effective convergence
  order into (1, 2); `richardson_extrapolate` therefore fits the order from
  three levels instead of assuming 2.

The oracle shares nothing with the Galerkin solver but the geometry: its
sine modes and Schur complement are those of the discrete finite-volume C
itself, not the continuous strips' Fourier transforms or Dirichlet-to-Neumann
maps, so agreement with the spectral solver is a real cross-validation, not
a shared-code tautology. It resolves absolute eigenvalue locations only;
exponentially small two-window splittings are out of reach of an
algebraic-accuracy method and are not attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericalFailureError, ValidationError
from .geometry import Geometry

# Newton's method stops on a step this small, bisection on a bracket this narrow
_TOL = 1e-14
# evaluations of S per eigenvalue, bisection and Newton together
_MAX_EVALUATIONS = 100
# about six times criterion 1's finest mesh (a = 1, L = 20, h = 0.025: 325k nodes)
MAX_MESH_NODES = 2_000_000
# columns of the largest dense Tx one level decomposes: numpy.linalg.eigh takes
# about 13 s and 0.7 GB on one core at 4096 (criterion 1's finest half: 800)
MAX_TX_COLUMNS = 4096


@dataclass(frozen=True)
class GridSpec:
    """Target mesh size and truncation half-length for one oracle run.

    h is a target: vertical subdivisions are chosen so that pi and d are
    integer multiples of their respective steps (both close to h), and each
    horizontal segment between window edges is subdivided uniformly. Every
    window edge and the walls +-L land exactly on grid lines.
    """

    h: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValidationError(f"grid step h must be positive and finite, got {self.h}")
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValidationError(f"truncation half-length L must be positive, got {self.L}")
        if not math.isfinite(self.L / self.h):
            raise ValidationError(f"L / h must be finite, got L = {self.L}, h = {self.h}")


@dataclass(frozen=True)
class OracleResult:
    """Eigenvalues of one oracle run plus their Richardson-extrapolated values.

    `eigenvalues` are computed at the requested (h, L); `levels` holds the
    whole nested family (nominal h halved per level, coarse to fine) that fed
    the extrapolation. Error estimates are conservative: each one is at least
    |value(h) - value(h/2)| / 3, the classical two-level bound.
    """

    grid: GridSpec
    eigenvalues: tuple[float, ...]
    levels: tuple[tuple[float, tuple[float, ...]], ...]
    extrapolated: tuple[float, ...]
    error_estimates: tuple[float, ...]
    fewer_than_requested: bool
    diagnostics: dict

    def to_records(self) -> list[dict]:
        """Serialize to the shared eigenvalue record schema."""
        out = []
        for i, lam in enumerate(self.eigenvalues):
            out.append(
                {
                    "index": i + 1,
                    "lambda": lam,
                    "lambda_extrapolated": self.extrapolated[i],
                    "error_estimate": self.error_estimates[i],
                    "h": self.grid.h,
                    "L": self.grid.L,
                    "source": "fd_oracle",
                }
            )
        return out


@dataclass(frozen=True)
class Extrapolation:
    """Result of `richardson_extrapolate`."""

    lambda_star: float
    error_estimate: float
    order: float | None
    unreliable: bool


def _subdivisions(geometry: Geometry, grid: GridSpec):
    """Coarsest-level subdivision counts of the mesh family.

    Returns the x segments between consecutive breakpoints (-L, the window
    edges, +L) as (lo, hi, n) triples, n = max(1, round((hi - lo) / h)), and
    the row counts above and below the interface (pi and d over h, rounded;
    0 below when there are no windows). Level `refine` multiplies every count
    by `refine`. Odd-numbered segments lie between a window's edges.
    """
    breakpoints = [-grid.L]
    for w in geometry.windows:
        breakpoints.extend([w.left, w.right])
    breakpoints.append(grid.L)
    segments = [
        (lo, hi, max(1, round((hi - lo) / grid.h)))
        for lo, hi in zip(breakpoints[:-1], breakpoints[1:])
    ]
    m_up = max(1, round(math.pi / grid.h))
    m_dn = max(1, round(geometry.d / grid.h)) if geometry.windows else 0
    return segments, m_up, m_dn


def _node_count(geometry: Geometry, grid: GridSpec, refine: int) -> int:
    """The full box's `_Mesh(geometry, grid, refine).n_nodes`, by arithmetic alone (no arrays).

    A mirror-symmetric mesh's even and odd halves have that many nodes together.
    """
    segments, m_up, m_dn = _subdivisions(geometry, grid)
    columns = sum(n for _, _, n in segments) * refine - 1
    if not geometry.windows:
        return columns * (m_up * refine - 1)
    # every column has the rows off the interface; interface nodes sit strictly inside windows
    interface = sum(n * refine - 1 for _, _, n in segments[1::2])
    return columns * ((m_up + m_dn) * refine - 2) + interface


def _half_segments(geometry: Geometry, segments):
    """The x >= 0 half of a mirror-symmetric mesh family's segments, or None.

    The mirror applies when the windows equal their own reflection exactly
    and x = 0 is a grid line: the segment that straddles 0 has lo == -hi and
    an even count n, and its right half (0, hi, n / 2) becomes the half's
    first segment. `segments` are `_subdivisions`'.
    """
    ws = geometry.windows
    if not ws or any(
        w.center != -v.center or w.half_width != v.half_width for w, v in zip(ws, ws[::-1])
    ):
        return None
    lo, hi, n = segments[len(ws)]
    if lo != -hi or n % 2:
        return None
    return [(0.0, hi, n // 2)] + segments[len(ws) + 1 :]


class _Mesh:
    """Tensor-product finite-volume mesh for the truncated two-strip domain.

    `x` holds the vertical grid lines from wall to wall and `hx = diff(x)` their
    steps; `hy` holds the exact vertical steps upward from y = -d: m_dn of
    d / m_dn, then m_up of pi / m_up (with no windows only the latter, and the
    mesh covers the single strip (0, pi): validation mode). Node (i, j) is an
    unknown where `present[i, j]`: False on the four walls and, in the
    interface row y = 0 (j = m_dn, `interface`), outside the open windows, so
    window edges are Dirichlet points of the slit.

    With `parity` "even" or "odd" the mesh covers only the x >= 0 half of a
    mirror-symmetric geometry (`_half_segments`), from the mirror line x = 0
    to the wall at +L. In the even half the x = 0 column is present: it has
    half a dual cell and only its right-hand x face, a Neumann line. In the
    odd half it is absent, a Dirichlet line like the walls. The full box's
    matrix is orthogonally similar to the direct sum of the two halves'.
    """

    def __init__(self, geometry: Geometry, grid: GridSpec, refine: int, parity: str | None = None):
        self.h_nominal = grid.h / refine
        segments, m_up, m_dn = _subdivisions(geometry, grid)
        if parity is not None:
            segments = _half_segments(geometry, segments)
            if segments is None:
                raise ValueError("no mirror half for this geometry and grid")
        m_up, m_dn = m_up * refine, m_dn * refine
        self.x = np.concatenate(
            [[segments[0][0]]] + [np.linspace(lo, hi, n * refine + 1)[1:] for lo, hi, n in segments]
        )
        self.hx = np.diff(self.x)
        # exact steps, not diff of coordinates (that moves weights by an ulp); with no
        # windows the d step is repeated m_dn = 0 times
        self.hy = np.repeat([geometry.d / max(m_dn, 1), math.pi / m_up], [m_dn, m_up])
        self.present = np.zeros((self.x.size, self.hy.size + 1), dtype=bool)
        self.present[1:-1, 1:-1] = True
        self.present[0, 1:-1] = parity == "even"
        in_window = np.zeros(self.x.size, dtype=bool)
        for w in geometry.windows:
            in_window |= (self.x > w.left) & (self.x < w.right)
        self.present[:, m_dn] &= in_window  # with no windows row 0 is a wall anyway
        self.interface = m_dn
        self.n_nodes = int(np.count_nonzero(self.present))


def _second_difference(steps: np.ndarray, neumann: bool) -> tuple[np.ndarray, np.ndarray]:
    """One axis of C: the diagonal and off-diagonal of its scaled second difference.

    The axis has grid lines 0..n spaced by `steps`. The unknown lines are
    1..n-1, and with `neumann` also line 0. Line i has the dual width
    w_i = (h_{i-1} + h_i) / 2, with no step outside the axis (so line 0 has
    half a cell), the diagonal entry (1/h_{i-1} + 1/h_i) / w_i without the
    missing step's term, and the entry -(1/h_i) / sqrt(w_i w_{i+1}) next to
    line i + 1. A face to an absent line stays on the diagonal: the Dirichlet
    closure.
    """
    inverse = 1.0 / steps
    width = 0.5 * (np.r_[0.0, steps] + np.r_[steps, 0.0])
    diagonal = (np.r_[0.0, inverse] + np.r_[inverse, 0.0]) / width
    off = -inverse / np.sqrt(width[:-1] * width[1:])
    first = 0 if neumann else 1
    return diagonal[first:-1], off[first:-1]


def _eigh(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition of {what} failed: {exc}") from exc


@dataclass(frozen=True)
class _Strip:
    """One strip's rows of unknowns, ordered outward from the interface row, in closed form.

    Across the strip, m steps of h give the Dirichlet second difference on
    m - 1 rows, with eigenvalues mu_q = (4/h^2) sin^2(q pi / 2m) and
    orthonormal sine modes `modes[k - 1, q - 1]` = sqrt(2/m) sin(q k pi / m),
    q, k = 1..m-1 (a symmetric matrix). `eig[p, q - 1]` = Lambda_p + mu_q are
    the strip's eigenvalues, Lambda_p Tx's. `coupling` is C's entry between an
    interface node and the strip node next to it, and `weight[q - 1]` its
    square times the q-th mode's value there.
    """

    rows: np.ndarray
    modes: np.ndarray
    eig: np.ndarray
    coupling: float
    weight: np.ndarray


class _Reduced:
    """One mesh's C, reduced to a Schur complement on its interface window nodes.

    C is the restriction of the Kronecker sum Tx (+) Ty to the present nodes
    (`_second_difference` on each axis). Every present column is present on
    every row but the interface row, which keeps only the window nodes W, so
    the strips on either side are full rectangles of unknowns. One `eigh` of
    Tx, Tx = Q diag(Lambda) Q^T, and the strips' sine modes diagonalize both
    strips; eliminating them leaves, on W,

        S(lambda) = Tx[W, W] + (t0 - lambda) I - Q_W diag(D(lambda)) Q_W^T,
        D_p(lambda) = sum over strips and q of weight_q / (Lambda_p + mu_q - lambda),

    with t0 the interface row's Ty diagonal and Q_W the rows W of Q. The
    strips' eigenvalues are the poles of S; between two poles S decreases in
    the Loewner order, and so does each of its eigenvalues. By Haynsworth's
    inertia additivity the number of eigenvalues of C below sigma is the
    number of strip eigenvalues below sigma plus the number of negative
    eigenvalues of S(sigma) (`count`). `evaluations` counts the evaluations
    of S.
    """

    def __init__(self, mesh: _Mesh):
        self.present = mesh.present
        self.interface = mesh.interface
        self.columns = np.flatnonzero(mesh.present.any(axis=1))
        self.tx = _second_difference(mesh.hx, bool(mesh.present[0].any()))
        self.ty = _second_difference(mesh.hy, False)
        diagonal, off = self.tx
        tx = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        lam_x, self.q = _eigh(tx, "Tx")
        self.window = np.flatnonzero(mesh.present[self.columns, mesh.interface])
        self.qw = self.q[self.window]
        r, ny = mesh.interface, mesh.hy.size
        # the upper strip, then the lower one; the Ty entries of row j sit at j - 1.
        # With no windows (r = 0) the upper strip is the whole box and has no coupling.
        self.strips = []
        for rows, h, face in (
            (np.arange(r + 1, ny), mesh.hy[-1], r - 1),
            (np.arange(r - 1, 0, -1), mesh.hy[0], r - 2),
        ):
            m = rows.size + 1
            if m < 2:
                continue
            q = np.arange(1, m)
            mu = (4.0 / h**2) * np.sin(0.5 * math.pi * q / m) ** 2
            modes = math.sqrt(2.0 / m) * np.sin(np.outer(q, q) * (math.pi / m))
            coupling = float(self.ty[1][face]) if r else 0.0
            self.strips.append(
                _Strip(rows, modes, lam_x[:, None] + mu, coupling, coupling**2 * modes[0] ** 2)
            )
        # strip eigenvalues no greater than 1: every point S is evaluated at lies at or below 1
        self.poles = np.sort(np.concatenate([s.eig[s.eig <= 1.0] for s in self.strips]))
        t0 = self.ty[0][r - 1] if r else 0.0
        self.s0 = tx[np.ix_(self.window, self.window)] + t0 * np.eye(self.window.size)
        self.evaluations = 0

    def _schur(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """S(sigma) and D'(sigma); sigma must not be a pole."""
        self.evaluations += 1
        d = np.zeros(self.q.shape[0])
        slope = np.zeros(self.q.shape[0])
        for strip in self.strips:
            inverse = 1.0 / (strip.eig - sigma)
            d += inverse @ strip.weight
            slope += (inverse * inverse) @ strip.weight
        s = self.s0 - (self.qw * d) @ self.qw.T
        s[np.diag_indices_from(s)] -= sigma
        return s, slope

    def _off_pole(self, sigma: float) -> float:
        """sigma, or the next float below it while it is a pole."""
        while np.any(self.poles == sigma):
            sigma = float(np.nextafter(sigma, -math.inf))
        return sigma

    def count(self, sigma: float) -> int:
        """Number of eigenvalues of C below sigma <= 1, by inertia additivity."""
        sigma = self._off_pole(sigma)
        below = int(np.searchsorted(self.poles, sigma))
        if not self.window.size:
            return below
        s, _ = self._schur(sigma)
        try:
            values = np.linalg.eigvalsh(s)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"eigenvalues of S({sigma}) failed: {exc}") from exc
        return below + int(np.count_nonzero(values < 0.0))

    def _strip_pairs(self, n: int) -> tuple[list[float], list[np.ndarray]]:
        """The n lowest strip eigenpairs: all of C's when no interface node is present."""
        eig = np.concatenate([s.eig.ravel() for s in self.strips])
        values, vectors = [], []
        for flat in np.argsort(eig, kind="stable")[:n]:
            for strip in self.strips:
                if flat < strip.eig.size:
                    break
                flat -= strip.eig.size
            p, q = np.unravel_index(flat, strip.eig.shape)
            u = np.zeros(self.present.shape)
            u[np.ix_(self.columns, strip.rows)] = np.outer(self.q[:, p], strip.modes[:, q])
            values.append(float(strip.eig[p, q]))
            vectors.append(u)
        return values, vectors

    def _root(self, k: int, points: dict) -> tuple[float, np.ndarray]:
        """C's k-th eigenvalue and its eigenvector's window values.

        `points` maps each sigma evaluated so far to the count below it, and
        gains the points evaluated here. The bracket lo < lambda_k <= hi comes
        from the counts; bisection on the count shrinks it until no strip
        eigenvalue lies inside. There, with `a` strip eigenvalues below, the
        k-th eigenvalue of C is the root of S's (k - a)-th eigenvalue, which
        decreases; Newton's method runs from hi and is kept inside the
        bracket, falling back to bisection. From the right of the root of a
        decreasing concave function, such as S's lowest eigenvalue below the
        strips' spectrum, Newton's iterates descend to the root.
        """
        lo = max(s for s, c in points.items() if c < k)
        hi = min((s for s, c in points.items() if c >= k), default=lo)
        if not lo < hi:
            raise NumericalFailureError(
                "root count disagrees with the count below 1: "
                f"the counts give eigenvalue {k} no bracket"
            )
        budget = _MAX_EVALUATIONS
        while np.any((self.poles > lo) & (self.poles < hi)):
            if hi - lo <= _TOL or not budget:
                raise NumericalFailureError(
                    f"eigenvalue {k} of C could not be separated from a strip eigenvalue near {hi}"
                )
            mid = self._off_pole(0.5 * (lo + hi))
            points[mid] = self.count(mid)
            lo, hi = (mid, hi) if points[mid] < k else (lo, mid)
            budget -= 1
        a = int(np.searchsorted(self.poles, hi))
        j = k - a - 1
        if not 0 <= j < self.window.size:
            raise NumericalFailureError(f"eigenvalue {k} of C has no eigenvalue of S to follow")
        sigma, step = self._off_pole(hi), math.inf
        for _ in range(budget):
            s, slope_d = self._schur(sigma)
            values, vectors = _eigh(s, f"S({sigma})")
            points.setdefault(sigma, a + int(np.count_nonzero(values < 0.0)))
            nu, x = values[j], vectors[:, j]
            if step == math.inf and nu >= 0.0:
                raise NumericalFailureError(
                    f"root count disagrees with the count below {hi}: "
                    f"S({hi}) has no {j + 1}-th negative eigenvalue"
                )
            if nu == 0.0:
                return sigma, x
            lo, hi = (sigma, hi) if nu > 0.0 else (lo, sigma)
            y = x @ self.qw
            new = sigma + nu / (1.0 + y @ (slope_d * y))
            last, step = step, abs(new - sigma)
            # quadratic convergence until rounding takes over: a step that no
            # longer halves is noise
            if step <= _TOL or (step <= 1e-10 and step > 0.5 * last):
                return min(max(new, lo), hi), x
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
            sigma = new
        raise NumericalFailureError(
            f"Newton's method for eigenvalue {k} of C did not converge "
            f"in {_MAX_EVALUATIONS} evaluations"
        )

    def _vector(self, lam: float, x: np.ndarray) -> np.ndarray:
        """The eigenvector with window values x at eigenvalue lam, as a grid array.

        The array is zero at absent nodes. Each strip's block A solves
        (A - lam) u = -coupling x on the row next to the interface:
        u = -coupling Q G modes, G[p, q] = (Q_W^T x)_p modes[0, q] / (Lambda_p + mu_q - lam).
        """
        u = np.zeros(self.present.shape)
        u[self.columns[self.window], self.interface] = x
        y = x @ self.qw
        for strip in self.strips:
            g = np.outer(y, -strip.coupling * strip.modes[0]) / (strip.eig - lam)
            u[np.ix_(self.columns, strip.rows)] = self.q @ (g @ strip.modes)
        return u

    def residual(self, lam: float, u: np.ndarray) -> float:
        """||C v - lam v|| / ||v|| for the grid array u, by C's five-point stencil."""
        v = u[self.columns, 1:-1]
        (tx_d, tx_o), (ty_d, ty_o) = self.tx, self.ty
        cv = (tx_d[:, None] + ty_d - lam) * v
        cv[:-1] += tx_o[:, None] * v[1:]
        cv[1:] += tx_o[:, None] * v[:-1]
        cv[:, :-1] += ty_o * v[:, 1:]
        cv[:, 1:] += ty_o * v[:, :-1]
        mask = self.present[self.columns, 1:-1]
        return float(np.linalg.norm(cv[mask]) / np.linalg.norm(v[mask]))

    def lowest(self, n: int, below: int | None = None) -> tuple[list[float], list[np.ndarray]]:
        """C's n lowest eigenvalues and their eigenvectors as grid arrays.

        With windows, `below` is `count(1.0)` and n is at most that; with no
        interface node C is the strips' direct sum and its eigenpairs are the
        strips' own.
        """
        if not self.window.size:
            return self._strip_pairs(n)
        points = {0.0: 0, 1.0: below}
        values, vectors = [], []
        for k in range(1, n + 1):
            lam, x = self._root(k, points)
            values.append(lam)
            vectors.append(self._vector(lam, x))
        if np.any(np.diff(values) < 0.0) or (values and values[-1] >= 1.0):
            raise NumericalFailureError(f"root count disagrees with the count below 1: {values}")
        return values, vectors


def _perron_check(vec: np.ndarray) -> dict:
    """Sign-normalized ground vector should be nonnegative (discrete Perron)."""
    peak = float(np.max(np.abs(vec)))
    signed = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
    worst = float(np.min(signed))
    return {"ok": bool(worst >= -1e-6 * peak), "min_over_max": worst / peak}


def fd_eigenvalues(geometry: Geometry, grid: GridSpec, count: int, levels: int = 3) -> OracleResult:
    """Smallest `count` eigenvalues below 1, cross-checked over a nested mesh family.

    Solves on `levels` meshes (the requested h, then h/2, h/4, ...; subdivision
    counts double exactly per level so the family is nested), level by level,
    and Richardson extrapolates per eigenvalue index. With no windows the
    geometry is the validation rectangle; its spectrum sits entirely above 1,
    so the below-1 filter is skipped there and the raw smallest eigenvalues
    are reported.

    On each level every box is solved in turn: the full box, or the even and
    then the odd mirror half (below). Only one box's reduction (`_Reduced`) is
    alive at a time. With windows, each box counts its eigenvalues below 1 by
    inertia on the coarsest mesh, wanted = min(count, that count), and on
    every level counts them again and solves for the lowest `wanted` of them,
    so a mode that refinement lifts above 1 drops out of that level. A box
    whose coarsest count is 0 is not reduced past the coarsest mesh. The
    boxes' counts add up to `diagnostics["count_below_one"]`. Every level
    keeps its lowest n values, n = `count` or the shortest level's number of
    values if that is smaller, which is at most count_below_one. Per level,
    `diagnostics["levels"]` records the evaluations of the Schur complement
    S, counts and Newton steps together (`iterations`), the eigenpairs found
    (`converged`), both summed over the boxes, the largest ||C v - lambda v||
    / ||v|| over them (`residual_max`, absent when there are none), the
    nominal `h` and the full box's `nodes`. The Perron check reads the lowest
    eigenvector of the last level that has one. An eigendecomposition that
    fails, Newton's method or bisection that reaches its cap, or counts that
    do not bracket the roots raise NumericalFailureError.

    When the windows equal their own reflection and x = 0 is a grid line
    (`_half_segments`), the full box is never reduced: the boxes are the even
    and the odd half on [0, L] (`_Mesh`), whose coarsest counts are
    `diagnostics["mirror"]` (None when the full box is solved). A half's
    eigenvector is unfolded to the full box for the Perron check, which reads
    only its extremes: the even half's x = 0 column is scaled to the full
    box's dual cells there, and the odd half's vector is joined by its
    negative. The node limit and the count check use the full box's node
    count, the column limit (`MAX_TX_COLUMNS`, on the dense Tx) the columns
    actually reduced.

    Truncation bias is O(e^{-2 kappa (L - a)}) and is estimated in the
    diagnostics from the computed ground state; it is not removed.
    """
    for name, value in (("count", count), ("levels", levels)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if grid.h > 0.1 + 1e-12:
        raise ValidationError(f"oracle requires h <= 0.1, got {grid.h}")
    extent = max((max(abs(w.left), abs(w.right)) for w in geometry.windows), default=0.0)
    if grid.L < extent + 10.0:
        raise ValidationError(
            f"truncation L = {grid.L} too close to the windows; need L >= {extent + 10.0}"
        )
    coarsest = _node_count(geometry, grid, 1)
    if count >= coarsest:
        raise ValidationError(f"count must be below the mesh node count {coarsest}, got {count}")
    segments = _subdivisions(geometry, grid)[0]
    half = _half_segments(geometry, segments)
    mirrored = half is not None
    # node counts grow about fourfold per level, so this stops within a dozen levels
    nodes = []
    for lev in range(levels):
        nodes.append(_node_count(geometry, grid, 2**lev))
        if nodes[-1] > MAX_MESH_NODES:
            raise ValidationError(
                f"mesh level {lev + 1} of {levels} would have {nodes[-1]} nodes, more than "
                f"{MAX_MESH_NODES}; use a larger h or fewer levels"
            )
    # present columns of the finest Tx: the even half's (x = 0 included) or the full box's
    columns = sum(n for _, _, n in half or segments) * 2 ** (levels - 1) - (not mirrored)
    if columns > MAX_TX_COLUMNS:
        raise ValidationError(
            f"mesh level {levels} would have {columns} columns, more than {MAX_TX_COLUMNS}; "
            "use a larger h, a smaller L or fewer levels"
        )

    parities = ("even", "odd") if mirrored else (None,)
    wanted = dict.fromkeys(parities, count)
    counts = {}  # each box's coarsest count below 1
    level_values, level_diags = [], []
    ground = None  # (level, value, unfolded vector) of the Perron check
    for lev in range(levels):
        diag = {"iterations": 0, "converged": 0}
        vals = []
        for parity in parities:
            if not wanted[parity]:
                continue
            mesh = _Mesh(geometry, grid, 2**lev, parity)
            level = _Reduced(mesh)
            below = level.count(1.0) if geometry.windows else None
            if lev == 0 and below is not None:
                counts[parity] = below
                wanted[parity] = min(count, below)
            n = wanted[parity] if below is None else min(wanted[parity], below)
            found, vecs = level.lowest(n, below)
            diag["iterations"] += level.evaluations
            diag["converged"] += len(found)
            if found:
                residual = max(level.residual(v, u) for v, u in zip(found, vecs))
                diag["residual_max"] = max(diag.get("residual_max", residual), residual)
                if ground is None or ground[0] < lev or found[0] < ground[1]:
                    u = vecs[0]
                    if parity == "even":
                        # the full box's dual cells on x = 0 are twice the half's
                        u[0] *= math.sqrt(2.0)
                    vec = u[mesh.present]
                    if parity == "odd":
                        vec = np.concatenate([vec, -vec])
                    ground = (lev, found[0], vec)
            vals += found
            del level, vecs
        h = grid.h / 2**lev
        diag.update(h=h, nodes=nodes[lev])
        level_values.append((h, tuple(sorted(float(v) for v in vals))))
        level_diags.append(diag)

    # the coarsest level holds every box's min(count, its count) values, so
    # count_below_one when that is below count
    n_common = min(count, *(len(v) for _, v in level_values))
    level_values = [(h, v[:n_common]) for h, v in level_values]
    fewer = n_common < count

    if levels >= 2 and n_common > 0:
        extrapolated, estimates, unreliable = [], [], []
        for i in range(n_common):
            ext = richardson_extrapolate([(h, v[i]) for h, v in level_values])
            extrapolated.append(ext.lambda_star)
            estimates.append(ext.error_estimate)
            unreliable.append(ext.unreliable)
    else:
        extrapolated = [v for v in level_values[0][1]]
        estimates = [math.inf] * n_common
        unreliable = [True] * n_common

    diagnostics = {
        "count_below_one": sum(counts.values()) if geometry.windows else None,
        "mirror": counts if mirrored else None,
        "levels": level_diags,
        "unreliable": unreliable,
        "perron": _perron_check(ground[2]) if ground is not None else None,
    }
    if n_common and level_values[-1][1][0] < 1.0:
        kappa = math.sqrt(1.0 - level_values[-1][1][0])
        diagnostics["truncation_bias_scale"] = math.exp(-2.0 * kappa * (grid.L - extent))

    return OracleResult(
        grid=grid,
        eigenvalues=level_values[0][1],
        levels=tuple(level_values),
        extrapolated=tuple(extrapolated),
        error_estimates=tuple(estimates),
        fewer_than_requested=fewer,
        diagnostics=diagnostics,
    )


def richardson_extrapolate(values: list[tuple[float, float]]) -> Extrapolation:
    """Extrapolate a mesh-refinement sequence [(h, lambda), ...] to h -> 0.

    With three or more levels the convergence order is fitted from the finest
    three (the window-tip singularity puts the effective order between 1 and
    2, so assuming order 2 would be wrong); any single-power error model is
    then eliminated exactly. With two levels the classical second-order
    formula applies, with a widened error bar. A non-monotone tail (or a
    fitted order outside [0.25, 8]) marks the result unreliable and falls
    back to the finest value.

    The returned error estimate is conservative: never below
    |value(h) - value(h/2)| / 3 for the two coarsest levels supplied.
    """
    if len(values) < 2:
        raise InsufficientDataError("richardson_extrapolate needs at least two mesh levels")
    seq = sorted(values, key=lambda t: -t[0])
    hs = [h for h, _ in seq]
    vs = [v for _, v in seq]
    if any(not (math.isfinite(h) and h > 0.0) for h in hs) or any(
        not math.isfinite(v) for v in vs
    ):
        raise ValidationError("mesh levels must be finite with positive h")
    for ha, hb in zip(hs[:-1], hs[1:]):
        if abs(ha / hb - 2.0) > 1e-9:
            raise ValidationError(f"mesh levels must halve h exactly, got ratio {ha / hb}")

    floor_term = abs(vs[0] - vs[1]) / 3.0
    if len(seq) == 2:
        lam = vs[1] + (vs[1] - vs[0]) / 3.0
        return Extrapolation(lam, abs(vs[0] - vs[1]), 2.0, False)

    v1, v2, v3 = vs[-3], vs[-2], vs[-1]
    d1 = v1 - v2
    d2 = v2 - v3
    if d1 == 0.0 and d2 == 0.0:
        return Extrapolation(v3, floor_term, None, False)
    if d2 == 0.0 or d1 * d2 <= 0.0:
        err = max(abs(d1), abs(d2), floor_term)
        return Extrapolation(v3, err, None, True)
    r = d1 / d2
    if r <= 1.0:
        return Extrapolation(v3, max(abs(d1), abs(d2), floor_term), None, True)
    order = math.log2(r)
    lam = v3 + (v3 - v2) / (r - 1.0)
    err = max(abs(d2) / (r - 1.0), floor_term)
    return Extrapolation(lam, err, order, not (0.25 <= order <= 8.0))
