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
eigenvalues then come from ARPACK in shift-invert mode on the same kind of
LDL^T factorization, started from a seeded vector so that repeated runs agree
bitwise (Ericsson & Ruhe, Math. Comp. 35, 1980). The coarsest mesh is solved
about zero. Each finer mesh is solved about the coarser mesh's ground
eigenvalue, a few 1e-3 above its own, which takes about a third of the
solves; the shift comes from the FD family alone, never from the Galerkin
solver. A mode just under 1 on the coarsest mesh may lie above 1 on a finer
one (refinement raises the scheme's eigenvalues where the field is smooth and
lowers them near the window tips); the solve about the shift then returns
fewer eigenvalues below 1 than the coarsest count, and that level is solved
again about zero. Each eigenvalue is the Rayleigh quotient of its Ritz vector
on C, so no level depends on the shift beyond rounding.
A mirror-symmetric geometry (the windows equal their own reflection, and
x = 0 is a grid line) is solved on the half x >= 0 alone, twice: the even
half has a Neumann column on x = 0 and the odd half a Dirichlet one. The full
box's matrix is orthogonally similar to the direct sum of the two, so their
counts add up to the full count and their eigenvalues together are the full
box's, each half at about half the nodes and fill.
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

# at module level, so that importing this module pays for scipy.sparse.linalg;
# the CLI imports it only for the oracle command
from scipy import sparse
from scipy.sparse import linalg

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
    interface row y = 0 (j = m_dn), outside the open windows, so window edges
    are Dirichlet points of the slit.

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


def _factor(C, sigma: float):
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


def _count_below(C, sigma: float) -> int:
    """Number of eigenvalues of the symmetric sparse matrix C below sigma.

    By Sylvester's law of inertia, the negative entries of D in the LDL^T
    factor of C - sigma I (`_factor`). Reading `lu.U` caches CSC copies of
    both factors, so this runs on the coarsest mesh only.
    """
    return int(np.count_nonzero(_factor(C, sigma).U.diagonal() < 0.0))


def _eigenpairs_near(C, count: int, sigma: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """The `count` eigenpairs of the sparse matrix C nearest sigma, in ascending order.

    ARPACK's shift-invert mode about sigma: each Lanczos step is one solve
    with the LDL^T factor of C - sigma I (`_factor`); the solves are counted.
    About sigma = 0 on a positive definite C these are the smallest
    eigenpairs. The start vector is seeded, so the result does not change
    from call to call. Callers ask for no more pairs than they need: at
    tol = 0 ARPACK spends most of its solves on any wanted eigenvalue in the
    continuum above 1.
    """
    n = C.shape[0]
    lu = _factor(C, sigma)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    inverse = linalg.LinearOperator((n, n), matvec=solve, dtype=C.dtype)
    v0 = np.random.default_rng(_SEED).standard_normal(n)
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


def _perron_check(vec: np.ndarray) -> dict:
    """Sign-normalized ground vector should be nonnegative (discrete Perron)."""
    peak = float(np.max(np.abs(vec)))
    signed = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
    worst = float(np.min(signed))
    return {"ok": bool(worst >= -1e-6 * peak), "min_over_max": worst / peak}


def _solve_box(geometry: Geometry, grid: GridSpec, count: int, levels: int, parity: str | None):
    """Each level's lowest eigenvalues below 1 on the full box or on one mirror half.

    Returns the coarsest count below 1 (None with no windows), a
    (h, values, diagnostics) triple per level, and (level, value, vector) for
    the lowest pair of the last level that has one, or None. A half's vector
    is unfolded for `_perron_check`, which reads only its extremes: the even
    half's x = 0 column is scaled to the full box's dual cells there, and the
    odd half's vector is joined by its negative. Only one level's matrix and
    factor are alive at a time. See `fd_eigenvalues` for the solve order.
    """
    out = []
    ground = None
    below_one = None
    wanted = count
    for lev in range(levels):
        mesh = _Mesh(geometry, grid, 2**lev, parity)
        C = _assemble(mesh) if wanted else None
        if lev == 0 and geometry.windows:
            below_one = _count_below(C, 1.0)
            wanted = min(count, below_one)
        # the coarser FD level's ground eigenvalue, never the Galerkin one: the
        # oracle shares nothing but the geometry with the spectral solver
        sigma = out[-1][1][0] if lev and below_one and out[-1][1] else 0.0
        fallback = False
        if wanted:
            # about sigma, all below_one: the ones nearest sigma, if all lie below 1,
            # are the lowest below_one; fewer could miss the lower half of a split pair
            vals, vecs, diag = _eigenpairs_near(C, below_one if sigma else wanted, sigma)
            if sigma and np.count_nonzero(vals < 1.0) < below_one:
                solves = diag["iterations"]
                vals, vecs, diag = _eigenpairs_near(C, wanted, 0.0)
                diag["iterations"] += solves
                fallback = True
            vals, vecs = vals[:wanted], vecs[:, :wanted]
        else:
            vals, vecs, diag = np.empty(0), None, {"iterations": 0, "converged": 0, "shift": 0.0}
        if geometry.windows and vals.size:
            keep = vals < 1.0
            vals = vals[keep]
            vecs = vecs[:, keep]
        diag.update({"fallback": fallback, "h": mesh.h_nominal, "nodes": mesh.n_nodes})
        out.append((mesh.h_nominal, tuple(float(v) for v in vals), diag))
        if vals.size:
            vec = vecs[:, 0]
            if parity == "even":
                # the full box's dual cells on x = 0 are twice the half's
                vec = vec.copy()
                vec[: np.count_nonzero(mesh.present[0])] *= math.sqrt(2.0)
            elif parity == "odd":
                vec = np.concatenate([vec, -vec])
            ground = (lev, out[-1][1][0], vec)
        del C, vecs, mesh
    return below_one, out, ground


def _merge_level(parts: list, wanted: int) -> tuple[float, tuple[float, ...], dict]:
    """One level of the full box from its boxes' (h, values, diagnostics) triples.

    Keeps the lowest `wanted` values. Solves, converged pairs and nodes add
    up and `residual_max` is the largest; `shift` is that of the box holding
    the lowest value, and `fallback` is set if any box fell back. A single
    box's triple comes back equal.
    """
    vals = tuple(sorted(v for _, part, _ in parts for v in part)[:wanted])
    diags = [diag for _, _, diag in parts]
    lowest = min(range(len(parts)), key=lambda i: parts[i][1][0] if parts[i][1] else math.inf)
    merged = {
        "iterations": sum(d["iterations"] for d in diags),
        "converged": sum(d["converged"] for d in diags),
    }
    residuals = [d["residual_max"] for d in diags if "residual_max" in d]
    if residuals:
        merged["residual_max"] = max(residuals)
    merged.update(
        shift=diags[lowest]["shift"],
        fallback=any(d["fallback"] for d in diags),
        h=parts[0][0],
        nodes=sum(d["nodes"] for d in diags),
    )
    return parts[0][0], vals, merged


def fd_eigenvalues(geometry: Geometry, grid: GridSpec, count: int, levels: int = 3) -> OracleResult:
    """Smallest `count` eigenvalues below 1, cross-checked over a nested mesh family.

    Solves on `levels` meshes (the requested h, then h/2, h/4, ...; subdivision
    counts double exactly per level so the family is nested) and Richardson
    extrapolates per eigenvalue index. With no windows the geometry is the
    validation rectangle; its spectrum sits entirely above 1, so the below-1
    filter is skipped there and the raw smallest eigenvalues are reported.

    With windows, the eigenvalues below 1 on the coarsest mesh are counted by
    inertia (`diagnostics["count_below_one"]`), and no level keeps more than
    wanted = min(count, that count) eigenpairs: the result is truncated to the
    shortest level's list, which cannot be longer. The coarsest level asks
    ARPACK for `wanted` eigenpairs about 0; each finer level asks for all
    count_below_one about the coarser level's ground eigenvalue, which reaches
    both halves of a split pair below it, and keeps the lowest `wanted`, or,
    if fewer than count_below_one of them lie below 1, solves again about 0.
    Per level, `diagnostics["levels"]` records the `shift` of the solve that
    gave its eigenvalues, whether it was that `fallback`, and the LU solves of
    all its solves (`iterations`). A coarsest count of 0 gives the empty
    result with no eigensolve at all.

    When the windows equal their own reflection and x = 0 is a grid line
    (`_half_segments`), the full box is never assembled: the even and the
    odd half on [0, L] (`_Mesh`) are each solved as above, one after the
    other, with their own coarsest counts (`diagnostics["mirror"]`, None when
    the full box is solved), which add up to count_below_one, and their own
    shifts. A half with count 0 is not assembled past the coarsest mesh. Each
    level keeps the lowest `wanted` of the two halves' values; its
    `iterations`, `converged` and `nodes` are sums over the halves,
    `residual_max` their maximum, and `shift` and `fallback` those of the half
    holding its lowest eigenvalue (`fallback` also if the other half fell
    back). The Perron check reads the ground vector unfolded to the full box.
    Mesh limits and the count check use the full box's node count.

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

    mirrored = _half_segments(geometry, _subdivisions(geometry, grid)[0]) is not None
    parities = ("even", "odd") if mirrored else (None,)
    boxes = [_solve_box(geometry, grid, count, levels, parity) for parity in parities]
    counts = [below for below, _, _ in boxes]
    below_one = None if counts[0] is None else sum(counts)
    wanted = count if below_one is None else min(count, below_one)
    merged = [_merge_level([box[lev] for _, box, _ in boxes], wanted) for lev in range(levels)]
    level_values = [(h, vals) for h, vals, _ in merged]
    level_diags = [diag for _, _, diag in merged]
    # the last level with a value, and on it the lowest of the halves' ground values
    grounds = [ground for _, _, ground in boxes if ground is not None]
    ground = max(grounds, key=lambda g: (g[0], -g[1]))[2] if grounds else None

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
        "mirror": dict(zip(parities, counts)) if mirrored else None,
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
