"""Trapped modes, their norms and far fields, built on interface traces.

Every eigenfunction or forced solution of the coupled strips is represented by
its interface trace phi on the window set; the field in either strip is the
decaying lambda-harmonic extension of phi.  All L2 and energy quantities reduce
to weighted integrals of |phi_hat|^2.  Production norms (normalize_mode) come
from the Galerkin matrix, ||u||^2 = x^T G x with G = -dM/dlambda
(assembly.norm_matrix) at the caller's quadrature settings, for any window
set; _field_sq and _grad_sq are an independent single-window Fourier
quadrature of the same integrals, on assembly's window table cut at xi = 800
rather than M(lambda)'s 200, the check behind the energy identity of solve_U.
The field itself is reconstructed only beyond the windows, by the
transverse-mode series (far route) behind modal_coeffs; that is the product.
The Fourier inversion valid anywhere off the interface (near route) is its
independent reference in the tests (tests/fields.py): the two agree in the
overlap zone, so neither may be expressed through the other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .assembly import (
    _scaled_moments,
    _window_table,
    assemble_exp_rhs,
    assemble_galerkin,
    gl_panels,
    norm_matrix,
)
from .errors import (
    AccuracyError,
    DegenerateInputError,
    EvaluationDomainError,
    NumericalFailureError,
    ResolventPoleError,
    ValidationError,
)
from .geometry import Geometry, SolverSettings, WindowSpec
from .spectral import ScanRoot, scan_eigenvalues
from .specfun import grad_weight, mode_kappa, norm_weight

# The far route (modal_coeffs) is the product; the near-zone field route is
# its independent reference in tests/fields.py.
__all__ = [
    "TraceFunction",
    "Eigenmode",
    "USolution",
    "ModalCoefficients",
    "trace_from_root",
    "modal_coeffs",
    "normalize_mode",
    "coeff_c",
    "solve_U",
    "compute_modes",
]

_ENERGY_QUADRATURE = SolverSettings(xi_max=800.0)  # energy-identity tables
_GL_POINTS = 24
_FAR_MARGIN = 0.5          # beyond this distance from every window: far zone
_SERIES_LOG_CUT = 42.0     # e^-42, relative truncation of the mode series


@dataclass(frozen=True)
class TraceFunction:
    """Interface trace in edge-basis coefficients, one tuple per window."""

    lam: float
    geometry: Geometry
    coeffs: tuple[tuple[float, ...], ...]
    normalized: bool = False

    def __post_init__(self):
        if len(self.coeffs) != len(self.geometry.windows):
            raise ValidationError(
                f"{len(self.coeffs)} coefficient blocks for "
                f"{len(self.geometry.windows)} windows"
            )
        orders = {len(c) for c in self.coeffs}
        if len(orders) != 1 or 0 in orders:
            raise ValidationError("coefficient blocks must share a positive length")

    @property
    def order(self) -> int:
        return len(self.coeffs[0])

    def window_coeffs(self, i: int) -> np.ndarray:
        return np.asarray(self.coeffs[i], dtype=float)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.window_coeffs(i) for i in range(len(self.coeffs))])


@dataclass(frozen=True)
class Eigenmode:
    """Normalized trapped mode: trace, symmetry class, and edge amplitude."""

    lam: float
    trace: TraceFunction
    parity: str                # 'even', 'odd', or 'none'
    c_coeff: float | None
    index: int

    def record(self) -> dict:
        """The written mode record: index, eigenvalue, parity and edge amplitude c."""
        return {"index": self.index, "lambda": self.lam, "parity": self.parity, "c": self.c_coeff}


@dataclass(frozen=True)
class USolution:
    """Forced interface solution with its extracted matching amplitude."""

    lam: float
    trace: TraceFunction
    c: float
    energy_residual: float


@dataclass(frozen=True)
class ModalCoefficients:
    """Transverse-mode amplitudes of a field section x1 = const."""

    alpha: np.ndarray          # upper strip, modes sin(j x2), j = 1..j_max
    beta: np.ndarray           # lower strip, modes sin(pi j (x2 + d)/d)
    parseval_residual: float   # relative gap between (pi/2)*sum(alpha^2) and
                               # the quadrature L2 norm of the upper section


def trace_from_root(root: ScanRoot, geometry: Geometry) -> TraceFunction:
    flat = np.asarray(root.coeffs, dtype=float)
    n_win = len(geometry.windows)
    if flat.size % n_win:
        raise ValidationError("coefficient vector does not split evenly over windows")
    order = flat.size // n_win
    blocks = tuple(tuple(flat[i * order:(i + 1) * order]) for i in range(n_win))
    return TraceFunction(root.lam, geometry, blocks)


# ---------------------------------------------------------------------------
# centered window transforms

def _parity_split(orders: int):
    n = np.arange(orders)
    even = np.where(n % 4 == 0, 1.0, np.where(n % 4 == 2, -1.0, 0.0))
    odd = np.where(n % 4 == 1, 1.0, np.where(n % 4 == 3, -1.0, 0.0))
    return even, odd


def _eo(x: np.ndarray, beta: np.ndarray):
    """Real/imaginary parts of the centered window transform on the node set."""
    even, odd = _parity_split(x.size)
    return (x * even) @ beta, (x * odd) @ beta


# ---------------------------------------------------------------------------
# quadratic forms

def _grad_sub(nodes: np.ndarray, lam: float, d: float) -> np.ndarray:
    """W_pi + W_d - 2 xi evaluated without cancellation (decays like xi^-3)."""
    xi = np.asarray(nodes, dtype=float)
    out = np.empty_like(xi)
    hi = xi >= 1.0
    if np.any(hi):
        x = xi[hi]
        z = np.sqrt(x * x - lam)
        acc = lam * lam / (z * (x + z) ** 2)
        for w in (np.pi, d):
            q = np.exp(-2.0 * w * z)
            acc += (2.0 * x * x - lam) / z * q / (1.0 - q) - 2.0 * lam * w * q / (1.0 - q) ** 2
        out[hi] = acc
    if np.any(~hi):
        x = xi[~hi]
        out[~hi] = grad_weight(x, lam, np.pi) + grad_weight(x, lam, d) - 2.0 * x
    return out


def _single_window_quadrature(trace: TraceFunction):
    """Energy-table nodes, weights and centered transform parts of a one-window trace."""
    if len(trace.geometry.windows) != 1:
        raise ValidationError(
            "the quadrature norm routes take single-window traces; "
            "normalize_mode uses norm_matrix for any window set"
        )
    a = trace.geometry.windows[0].half_width
    # cut at xi_max: every node is near, so the table builds no far moments
    table = _window_table(a, trace.order, _ENERGY_QUADRATURE, _ENERGY_QUADRATURE.xi_max)
    return table.nodes, table.weights, *_eo(trace.window_coeffs(0), table.beta)


def _field_sq(trace: TraceFunction) -> float:
    nodes, weights, e, o = _single_window_quadrature(trace)
    ntot = norm_weight(nodes, trace.lam, np.pi) + norm_weight(nodes, trace.lam, trace.geometry.d)
    return float(np.sum(weights * (e * e + o * o) * ntot) / np.pi)


def _grad_sq(trace: TraceFunction) -> float:
    nodes, weights, e, o = _single_window_quadrature(trace)
    x = trace.window_coeffs(0)
    n = np.arange(trace.order)
    total = np.pi * trace.geometry.windows[0].half_width ** 2 * np.sum((n + 1) * x * x)
    total += np.sum(weights * (e * e + o * o) * _grad_sub(nodes, trace.lam, trace.geometry.d)) / np.pi
    return float(total)


# ---------------------------------------------------------------------------
# far-zone field: transverse-mode series

def _mode_amplitudes(trace: TraceFunction, x1: float, strip_width: float):
    """Per-mode amplitudes of the far-zone series at abscissa x1.

    Upper strip (width pi): u = sum_j A_j sin(j x2).
    Lower strip (width d):  u = sum_j A_j sin(pi j (x2 + d)/d).
    """
    lam = trace.lam
    geometry = trace.geometry
    dists = np.array([abs(x1 - w.center) - w.half_width for w in geometry.windows])
    if np.min(dists) <= 0.0:
        raise EvaluationDomainError(f"x1 = {x1} is not beyond every window")
    min_dist = float(np.min(dists))
    rate = np.pi / strip_width
    j_cap = int(np.ceil(np.sqrt((_SERIES_LOG_CUT / min_dist) ** 2 + lam) / rate)) + 1
    if j_cap > 4000:
        raise AccuracyError(
            "mode series truncation too long; point too close to a window",
            {"x1": x1, "modes_needed": j_cap},
        )
    j = np.arange(1, j_cap + 1)
    kappas = np.sqrt((rate * j) ** 2 - lam)
    t = np.zeros(j_cap)
    for i, w in enumerate(geometry.windows):
        x = trace.window_coeffs(i)
        sigma = 1.0 if x1 > w.center else -1.0
        signs = sigma ** np.arange(trace.order)
        (moments,) = _scaled_moments([w.half_width], trace.order, kappas)
        t += ((x * signs) @ moments) * np.exp(-kappas * dists[i])
    if strip_width == np.pi:
        amps = j / (np.pi * kappas) * t
    else:
        d = strip_width
        amps = (-1.0) ** (j + 1) * (np.pi * j) / (d * d * kappas) * t
    return j, amps


def _modal_profile(trace: TraceFunction, x1: float, x2: np.ndarray) -> np.ndarray:
    """Far-zone field values u(x1, x2) for an array of transverse points."""
    d = trace.geometry.d
    out = np.empty(x2.size)
    up = x2 >= 0.0
    if np.any(up):
        j, amps = _mode_amplitudes(trace, x1, np.pi)
        out[up] = np.sin(np.outer(x2[up], j)) @ amps
    if np.any(~up):
        j, amps = _mode_amplitudes(trace, x1, d)
        out[~up] = np.sin(np.outer((x2[~up] + d) * np.pi / d, j)) @ amps
    return out


# ---------------------------------------------------------------------------
# modal sections

def modal_coeffs(
    trace: TraceFunction, side: str, section: float, j_max: int = 12
) -> ModalCoefficients:
    """Transverse-mode content of the section x1 = section, by projection.

    The section must clear the outermost window on the requested side by the
    far margin, where the reconstructed field is certified.
    """
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    if j_max < 1:
        raise ValidationError("j_max must be at least 1")
    geometry = trace.geometry
    if side == "right":
        edge = max(w.right for w in geometry.windows)
        if section < edge + _FAR_MARGIN:
            raise EvaluationDomainError(
                f"section {section} must be >= {edge + _FAR_MARGIN} on the right"
            )
    else:
        edge = min(w.left for w in geometry.windows)
        if section > edge - _FAR_MARGIN:
            raise EvaluationDomainError(
                f"section {section} must be <= {edge - _FAR_MARGIN} on the left"
            )
    d = geometry.d
    panels = max(4, (j_max + 8) // 3)

    y_up, w_up = gl_panels(np.linspace(0.0, np.pi, panels + 1), _GL_POINTS)
    u_up = _modal_profile(trace, section, y_up)
    jj = np.arange(1, j_max + 1)
    alpha = (2.0 / np.pi) * (np.sin(np.outer(jj, y_up)) * (w_up * u_up)).sum(axis=1)

    y_lo, w_lo = gl_panels(np.linspace(-d, 0.0, panels + 1), _GL_POINTS)
    u_lo = _modal_profile(trace, section, y_lo)
    beta = (2.0 / d) * (
        np.sin(np.outer(jj, (y_lo + d) * np.pi / d)) * (w_lo * u_lo)
    ).sum(axis=1)

    section_norm = float((w_up * u_up * u_up).sum())
    modal_norm = 0.5 * np.pi * float((alpha * alpha).sum())
    scale = max(section_norm, 1e-300)
    parseval_residual = abs(modal_norm - section_norm) / scale

    return ModalCoefficients(alpha, beta, parseval_residual)


# ---------------------------------------------------------------------------
# normalization and amplitude extraction

def _mirror_coeffs(trace: TraceFunction) -> np.ndarray | None:
    """Coefficients of the x1-reflected trace, or None if not symmetric."""
    windows = trace.geometry.windows
    n = np.arange(trace.order)
    flip = (-1.0) ** n
    if len(windows) == 1:
        return trace.window_coeffs(0) * flip
    if len(windows) == 2:
        w0, w1 = windows
        if abs(w0.center + w1.center) < 1e-12 and abs(w0.half_width - w1.half_width) < 1e-12:
            return np.concatenate([trace.window_coeffs(1) * flip, trace.window_coeffs(0) * flip])
    return None


def normalize_mode(
    trace: TraceFunction, index: int = 0, settings: SolverSettings | None = None
) -> Eigenmode:
    """Scale a trace to unit field norm and classify its parity.

    The norm is ||u||^2 = x^T G x with G = -dM/dlambda (assembly.norm_matrix)
    at the trace's basis order and the caller's quadrature settings (default
    SolverSettings()), so a trace from a scan at the same settings reuses the
    scan's window tables.  The sign convention makes the lowest-order
    significant coefficient of the first window positive; repeated application
    returns the input unchanged.
    """
    flat = trace.flat()
    scale = np.max(np.abs(flat))
    if scale == 0.0:
        raise DegenerateInputError("zero trace cannot be normalized")
    quadrature = dataclasses.replace(settings or SolverSettings(), basis_order=trace.order)
    gram = norm_matrix(trace.lam, trace.geometry, quadrature)
    nrm = float(np.sqrt(max(flat @ gram @ flat, 0.0)))
    if nrm < 1e-12 * scale:
        raise DegenerateInputError("trace has numerically zero field norm")

    factor = 1.0 if abs(nrm - 1.0) <= 1e-12 else 1.0 / nrm
    x0 = trace.window_coeffs(0) * factor
    significant = np.nonzero(np.abs(x0) > 1e-12 * np.max(np.abs(flat * factor)))[0]
    if significant.size and x0[significant[0]] < 0.0:
        factor = -factor

    if factor == 1.0:
        normalized = dataclasses.replace(trace, normalized=True)
    else:
        blocks = tuple(
            tuple(trace.window_coeffs(i) * factor)
            for i in range(len(trace.geometry.windows))
        )
        normalized = TraceFunction(trace.lam, trace.geometry, blocks, True)

    mirror = _mirror_coeffs(normalized)
    parity = "none"
    if mirror is not None:
        nf = normalized.flat()
        denom = np.linalg.norm(nf)
        leak_even = np.linalg.norm(nf - mirror) / (2.0 * denom)
        leak_odd = np.linalg.norm(nf + mirror) / (2.0 * denom)
        if leak_even <= 1e-6:
            parity = "even"
        elif leak_odd <= 1e-6:
            parity = "odd"

    return Eigenmode(trace.lam, normalized, parity, None, index)


def coeff_c(mode: Eigenmode) -> float:
    """Amplitude of the first upper-strip mode in the far field of a trapped mode.

    c multiplies e^{-kappa_1 |x1|} sin(x2) as x1 -> +inf; for a single-window
    mode the two exponential moments of the trace must agree up to the parity
    sign, which is checked as a self-consistency contract.
    """
    trace = mode.trace
    if not trace.normalized:
        raise ValidationError("coeff_c requires a normalized mode")
    windows = trace.geometry.windows
    if len(windows) != 1:
        raise ValidationError("coeff_c is defined for single-window modes")
    w = windows[0]
    lam = trace.lam
    kappa = mode_kappa(1, lam, np.pi)
    x = trace.window_coeffs(0)
    m_plus = float(x @ assemble_exp_rhs(lam, w, kappa, +1, trace.order))
    m_minus = float(x @ assemble_exp_rhs(lam, w, kappa, -1, trace.order))
    if mode.parity in ("even", "odd"):
        sign = 1.0 if mode.parity == "even" else -1.0
        ref = max(abs(m_plus), abs(m_minus), 1e-300)
        if abs(m_plus - sign * m_minus) > 1e-10 * ref:
            raise AccuracyError(
                "exponential moments violate the parity relation",
                {"m_plus": m_plus, "m_minus": m_minus, "parity": mode.parity},
            )
    return float(np.exp(kappa * w.center) * m_plus / (np.pi * kappa))


def solve_U(
    lam: float, a: float, d: float, settings: SolverSettings | None = None
) -> USolution:
    """Forced interface problem with the first-mode exponential datum.

    Solves M(lambda) x = -g for the single window of half-width a centered at
    the origin, where g holds the moments of e^{kappa_1 t}; the matching
    amplitude is c = -g^T M^{-1} g / (pi kappa_1), negative below the first
    eigenvalue.  One symmetric eigendecomposition M = V diag(nu) V^T serves
    both the pole check and the solve x = V (V^T (-g) / nu), whichever the
    sign of nu: requesting lambda at (or numerically on top of) an eigenvalue
    raises a resolvent-pole error, and a relative residual above 1e-10 a
    numerical failure.
    """
    settings = settings or SolverSettings()
    geometry = Geometry(d, (WindowSpec(0.0, a),))
    system = assemble_galerkin(lam, geometry, settings)
    m = system.matrix
    vals, vecs = np.linalg.eigh(m)
    if np.min(np.abs(vals)) <= 1e-10 * np.max(np.abs(m)):
        raise ResolventPoleError(
            f"lambda = {lam} is numerically on the discrete spectrum"
        )
    kappa = mode_kappa(1, lam, np.pi)
    g = assemble_exp_rhs(lam, geometry.windows[0], kappa, +1, settings.basis_order)
    x = vecs @ ((vecs.T @ -g) / vals)
    resid = np.linalg.norm(m @ x + g)
    if resid > 1e-10 * max(np.linalg.norm(g), 1e-300):
        raise NumericalFailureError(f"solve residual {resid:.3e} unexpectedly large")
    c = float(g @ x) / (np.pi * kappa)
    trace = TraceFunction(lam, geometry, (tuple(x),))
    energy_residual = abs(lam * _field_sq(trace) - _grad_sq(trace) - np.pi * kappa * c)
    return USolution(lam, trace, c, energy_residual)


def compute_modes(geometry: Geometry, settings: SolverSettings | None = None) -> list[Eigenmode]:
    """All trapped modes of the geometry: scan, normalize, classify, extract c."""
    settings = settings or SolverSettings()
    roots = scan_eigenvalues(geometry, settings)
    modes = []
    for i, root in enumerate(roots):
        mode = normalize_mode(trace_from_root(root, geometry), index=i + 1, settings=settings)
        if len(geometry.windows) == 1 and mode.parity != "none":
            mode = dataclasses.replace(mode, c_coeff=coeff_c(mode))
        modes.append(mode)
    return modes
