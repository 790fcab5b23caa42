"""Near-zone field route: the test reference for the package's far route.

The package reconstructs a mode's field only beyond the windows, by the
transverse-mode series (`waveguide._modal_profile`, behind `modal_coeffs`).
This module keeps the independent route that works anywhere off the
interface: direct Fourier inversion of the trace transform, u(x1, x2) =
(1/pi) int phi_hat(xi) K(xi, x2) dxi with the strip profile K below.  The two
routes agree in the overlap zone, which is a structural self-check, so
neither is expressed through the other.  The thin `field_norm` and
`gradient_norm` wrappers expose the single-window Fourier-quadrature norms
that `solve_U`'s energy identity evaluates inside the package.
"""

from __future__ import annotations

import numpy as np

from winguide.assembly import beta_matrix, gl_panels, graded_edges
from winguide.errors import EvaluationDomainError, ValidationError
from winguide.specfun import _as_farray, _check_lambda, _check_width, _scalar_like
from winguide.waveguide import (
    _FAR_MARGIN,
    _GL_POINTS,
    _eo,
    _field_sq,
    _grad_sq,
    _modal_profile,
)

SLIVER = 1e-2  # near route keeps |x2| above this


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


def field_norm(trace) -> float:
    """L2 norm of the field over both strips, by Fourier quadrature of the trace.

    An independent check on a single-window trace (normalize_mode takes its
    norms from norm_matrix instead); a multi-window trace raises
    ValidationError.
    """
    return float(np.sqrt(max(_field_sq(trace), 0.0)))


def gradient_norm(trace) -> float:
    """L2 norm of the field gradient over both strips, by Fourier quadrature.

    The leading |xi| part of the weight is integrated in closed form (diagonal
    in the basis), so the remaining quadrature sees an O(xi^-3) integrand and
    this value stays independent of the matrix assembly used to produce the
    trace.  Single-window traces only, like field_norm: together they check
    the energy identity of solve_U.
    """
    return float(np.sqrt(max(_grad_sq(trace), 0.0)))


def _window_distance(geometry, x1: float) -> float:
    return min(abs(x1 - w.center) - w.half_width for w in geometry.windows)


def fourier_grid(trace, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """u on the product grid x1 x x2 via direct inversion of the trace transform."""
    lam = trace.lam
    geometry = trace.geometry
    d = geometry.d
    min_depth = float(np.min(np.abs(x2)))
    if min_depth < 1e-3:
        raise EvaluationDomainError("Fourier route needs |x2| >= 1e-3")
    xi_max = max(80.0, 25.0 / min_depth)
    rate = 1.0 + max(
        w.half_width + np.max(np.abs(x1 - w.center)) for w in geometry.windows
    )
    width = min(1.0, 4.0 / rate)
    nodes, weights = gl_panels(graded_edges(xi_max, width), _GL_POINTS)

    kernel_w = np.empty((nodes.size, x2.size))
    for s, y in enumerate(x2):
        strip = np.pi if y >= 0.0 else d
        kernel_w[:, s] = strip_kernel(nodes, lam, strip, abs(y))
    kernel_w *= weights[:, None]

    eo_parts = []
    for i, w in enumerate(geometry.windows):
        beta = beta_matrix(w.half_width, trace.order, nodes)
        eo_parts.append((w.center, *_eo(trace.window_coeffs(i), beta)))

    out = np.empty((x1.size, x2.size))
    chunk = max(1, int(4e6 // nodes.size))
    for r0 in range(0, x1.size, chunk):
        r1 = min(r0 + chunk, x1.size)
        block = np.zeros((r1 - r0, nodes.size))
        for center, e, o in eo_parts:
            arg = np.outer(x1[r0:r1] - center, nodes)
            block += e * np.cos(arg) + o * np.sin(arg)
        out[r0:r1] = block @ kernel_w / np.pi
    return out


def evaluate_field(trace, point) -> float:
    """Field value at a single point of either strip.

    Uses the transverse-mode series beyond the windows and Fourier inversion
    near them; inside the near zone the sliver |x2| < 1e-2 is rejected because
    the inversion there is not certified.
    """
    x1, x2 = float(point[0]), float(point[1])
    d = trace.geometry.d
    if not (-d <= x2 <= np.pi):
        raise EvaluationDomainError(f"x2 = {x2} outside [-d, pi]")
    if _window_distance(trace.geometry, x1) > _FAR_MARGIN:
        return float(_modal_profile(trace, x1, np.array([x2]))[0])
    if abs(x2) < SLIVER:
        raise EvaluationDomainError(
            f"|x2| = {abs(x2)} below {SLIVER} inside the near zone"
        )
    return float(fourier_grid(trace, np.array([x1]), np.array([x2]))[0, 0])


def evaluate_field_grid(trace, x1, x2) -> np.ndarray:
    """Field on a product grid; far columns use the series, the rest Fourier."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    d = trace.geometry.d
    if np.any(x2 < -d) or np.any(x2 > np.pi):
        raise EvaluationDomainError("x2 values outside [-d, pi]")
    out = np.empty((x1.size, x2.size))
    far = np.array([_window_distance(trace.geometry, v) > _FAR_MARGIN for v in x1])
    for r in np.nonzero(far)[0]:
        out[r] = _modal_profile(trace, float(x1[r]), x2)
    if np.any(~far):
        out[~far] = fourier_grid(trace, x1[~far], x2)
    return out
