"""Brute-force finite-difference eigenvalue oracle.

Independent cross-check for the Galerkin solver: the two coupled strips are
truncated at x1 = +-L with Dirichlet walls and discretized by a symmetric
finite-volume scheme on a tensor grid, giving a sparse positive definite
matrix. One boolean mask on that grid says which nodes are unknowns: all but
the walls and, on the interface row, all but the nodes outside the windows.
Each face between neighbouring grid nodes weighs (dual width across it) /
(step along it), which gives a stiffness entry between two unknowns and a
Dirichlet closure next to an absent node.

The number of eigenvalues below the threshold 1 is counted once, on the
coarsest mesh, by Sylvester's law of inertia (the negative pivots of an
unpivoted sparse LDL^T of C - I); no level can keep more. That many smallest
eigenvalues then come from ARPACK in shift-invert mode about zero on a sparse
LU factorization, started from a seeded vector so that repeated runs agree
bitwise. Richardson extrapolation over a nested mesh family removes the
leading mesh error.

Error budget, documented rather than hidden:

* Truncation: replacing the infinite strips by walls at +-L biases an
  eigenvalue lambda < 1 by O(e^{-2 kappa (L - a)}) with kappa = sqrt(1 - lambda)
  and a the outermost window edge. L is a parameter; the caller picks it
  against the weakest expected decay.
* Mesh: away from window tips the scheme is second order. The field has a
  square-root singularity at each tip, which drags the effective convergence
  order into (1, 2); `richardson_extrapolate` therefore fits the order from
  three levels instead of assuming 2.

The oracle deliberately knows nothing about Fourier transforms or
Dirichlet-to-Neumann maps, so agreement with the spectral solver is a real
cross-validation, not a shared-code tautology. It resolves absolute
eigenvalue locations only; exponentially small two-window splittings are out
of reach of an algebraic-accuracy method and are not attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericalFailureError, ValidationError
from .geometry import Geometry

_SEED = 97
# about six times criterion 1's finest mesh (a = 1, L = 20, h = 0.025: 325k nodes)
MAX_MESH_NODES = 2_000_000


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
    requested: int
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
    """Result of `richardson_extrapolate`; unpacks as (lambda_star, error_estimate)."""

    lambda_star: float
    error_estimate: float
    order: float | None
    unreliable: bool

    def __iter__(self):
        yield self.lambda_star
        yield self.error_estimate


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
    """`_Mesh(geometry, grid, refine).n_nodes`, by arithmetic alone (no arrays)."""
    segments, m_up, m_dn = _subdivisions(geometry, grid)
    columns = sum(n for _, _, n in segments) * refine - 1
    if not geometry.windows:
        return columns * (m_up * refine - 1)
    # every column has the rows off the interface; interface nodes sit strictly inside windows
    interface = sum(n * refine - 1 for _, _, n in segments[1::2])
    return columns * ((m_up + m_dn) * refine - 2) + interface


class _Mesh:
    """Tensor-product finite-volume mesh for the truncated two-strip domain.

    `x` holds the vertical grid lines from wall to wall and `hx = diff(x)` their
    steps; `hy` holds the exact vertical steps upward from y = -d: m_dn of
    d / m_dn, then m_up of pi / m_up (with no windows only the latter, and the
    mesh covers the single strip (0, pi): validation mode). Node (i, j) is an
    unknown where `present[i, j]`: False on the four walls and, in the
    interface row y = 0 (j = m_dn), outside the open windows, so window edges
    are Dirichlet points of the slit.
    """

    def __init__(self, geometry: Geometry, grid: GridSpec, refine: int):
        self.h_nominal = grid.h / refine
        segments, m_up, m_dn = _subdivisions(geometry, grid)
        m_up, m_dn = m_up * refine, m_dn * refine
        self.x = np.concatenate(
            [[-grid.L]] + [np.linspace(lo, hi, n * refine + 1)[1:] for lo, hi, n in segments]
        )
        self.hx = np.diff(self.x)
        # exact steps, not diff of coordinates (that moves weights by an ulp); with no
        # windows the d step is repeated m_dn = 0 times
        self.hy = np.repeat([geometry.d / max(m_dn, 1), math.pi / m_up], [m_dn, m_up])
        self.present = np.zeros((self.x.size, self.hy.size + 1), dtype=bool)
        self.present[1:-1, 1:-1] = True
        in_window = np.zeros(self.x.size, dtype=bool)
        for w in geometry.windows:
            in_window |= (self.x > w.left) & (self.x < w.right)
        self.present[:, m_dn] &= in_window  # with no windows row 0 is a wall anyway
        self.n_nodes = int(np.count_nonzero(self.present))


def _assemble(mesh: _Mesh):
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
    from scipy import sparse  # imported here, as in _smallest_eigenpairs, for start-up time

    present, n = mesh.present, mesh.n_nodes
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


def _count_below(C, sigma: float) -> int:
    """Number of eigenvalues of the symmetric sparse matrix C below sigma.

    Factors C - sigma I without pivoting (a symmetric fill-reducing ordering,
    diagonal pivots only), so P (C - sigma I) P^T = L D L^T with D the
    diagonal of U. By Sylvester's law of inertia the negative entries of D
    count the eigenvalues below sigma. A zero pivot makes SuperLU either pivot
    off the diagonal (a row permutation other than the column one) or stop
    on a singular factor; neither leaves an inertia to read, and both raise
    NumericalFailureError.
    """
    # imported here, as in _smallest_eigenpairs, for start-up time
    from scipy import sparse
    from scipy.sparse.linalg import splu

    shifted = (C - sigma * sparse.identity(C.shape[0], format="csc")).tocsc()
    try:
        lu = splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalFailureError(f"LDL^T of C - {sigma} I failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalFailureError(
            f"LDL^T of C - {sigma} I needed off-diagonal pivots; its inertia is unknown"
        )
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _smallest_eigenpairs(C, count: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The `count` smallest eigenpairs of the sparse matrix C, in ascending order.

    C is positive definite, so ARPACK's shift-invert mode about sigma = 0
    returns exactly the smallest eigenvalues. Each Lanczos step is one solve
    with a sparse LU factorization of C; the solves are counted. The start
    vector is seeded, so the result does not change from call to call.
    Callers ask for no more pairs than they keep: at tol = 0 ARPACK spends
    most of its solves on any wanted eigenvalue in the continuum above 1.
    """
    # imported here: scipy.sparse.linalg would add to the start-up of every command
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    n = C.shape[0]
    # a symmetric fill-reducing ordering: about half the fill of the default COLAMD
    lu = splu(C, permc_spec="MMD_AT_PLUS_A")
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    inverse = LinearOperator((n, n), matvec=solve, dtype=C.dtype)
    v0 = np.random.default_rng(_SEED).standard_normal(n)
    try:
        vals, vecs = eigsh(C, count, sigma=0.0, which="LM", tol=0.0, v0=v0, OPinv=inverse)
    except ArpackError as exc:
        raise NumericalFailureError(
            f"ARPACK shift-invert failed after {solves} solves: {exc}"
        ) from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    resid = C @ vecs - vecs * vals
    diag = {
        "iterations": solves,
        "converged": int(vals.size),
        "residual_max": float(np.max(np.linalg.norm(resid, axis=0))),
    }
    return vals, vecs, diag


def _perron_check(vec: np.ndarray) -> dict:
    """Sign-normalized ground vector should be nonnegative (discrete Perron)."""
    peak = float(np.max(np.abs(vec)))
    signed = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
    worst = float(np.min(signed))
    return {"ok": bool(worst >= -1e-6 * peak), "min_over_max": worst / peak}


def fd_eigenvalues(geometry: Geometry, grid: GridSpec, count: int, levels: int = 3) -> OracleResult:
    """Smallest `count` eigenvalues below 1, cross-checked over a nested mesh family.

    Solves on `levels` meshes (the requested h, then h/2, h/4, ...; subdivision
    counts double exactly per level so the family is nested) and Richardson
    extrapolates per eigenvalue index. With no windows the geometry is the
    validation rectangle; its spectrum sits entirely above 1, so the below-1
    filter is skipped there and the raw smallest eigenvalues are reported.

    With windows, the eigenvalues below 1 on the coarsest mesh are counted by
    inertia (`diagnostics["count_below_one"]`), and every level asks ARPACK
    for only min(count, that count) eigenpairs: the result is truncated to the
    shortest level's list, which cannot be longer. A coarsest count of 0
    gives the empty result with no eigensolve at all.

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
    # node counts grow about fourfold per level, so this stops within a dozen levels
    for lev in range(levels):
        nodes = _node_count(geometry, grid, 2**lev)
        if nodes > MAX_MESH_NODES:
            raise ValidationError(
                f"mesh level {lev + 1} of {levels} would have {nodes} nodes, more than "
                f"{MAX_MESH_NODES}; use a larger h or fewer levels"
            )

    level_values: list[tuple[float, tuple[float, ...]]] = []
    level_diags = []
    ground = None
    below_one = None
    wanted = count
    for lev in range(levels):
        mesh = _Mesh(geometry, grid, 2**lev)
        C = _assemble(mesh) if wanted else None
        if lev == 0 and geometry.windows:
            below_one = _count_below(C, 1.0)
            wanted = min(count, below_one)
        if wanted:
            vals, vecs, diag = _smallest_eigenpairs(C, wanted)
        else:
            vals, vecs, diag = np.empty(0), None, {"iterations": 0, "converged": 0}
        if geometry.windows and vals.size:
            keep = vals < 1.0
            vals = vals[keep]
            vecs = vecs[:, keep]
        diag.update({"h": mesh.h_nominal, "nodes": mesh.n_nodes})
        level_values.append((mesh.h_nominal, tuple(float(v) for v in vals)))
        level_diags.append(diag)
        if vals.size:
            ground = vecs[:, 0]
        del C, vecs, mesh

    n_common = min(len(v) for _, v in level_values)
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
        "count_below_one": below_one,
        "levels": level_diags,
        "unreliable": unreliable,
        "perron": _perron_check(ground) if ground is not None else None,
    }
    if n_common and level_values[-1][1][0] < 1.0:
        kappa = math.sqrt(1.0 - level_values[-1][1][0])
        diagnostics["truncation_bias_scale"] = math.exp(-2.0 * kappa * (grid.L - extent))

    return OracleResult(
        grid=grid,
        requested=count,
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
