"""The nonlinear-in-lambda spectral scan.

The discrete spectrum below the continuum threshold is the set of lambda where
the Galerkin matrix M(lambda) becomes singular.  Every ordered eigenvalue
branch nu_k(lambda) of M(lambda) is strictly decreasing (the strip symbols
decrease in lambda), so by Sylvester's law of inertia the number of negative
eigenvalues of M(lambda) counts the trapped modes below lambda.  The counts at
the two ends of the admissible band give the number of roots, and branch k
holds the k-th root; each is refined by Brent's method on its own branch,
which is what resolves nearly degenerate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_galerkin
from .errors import NumericalFailureError
from .geometry import Geometry, SolverSettings

__all__ = [
    "ScanRoot",
    "scan_eigenvalues",
]


@dataclass(frozen=True)
class ScanRoot:
    """A zero of an ordered eigenvalue branch of M(lambda)."""

    lam: float
    coeffs: np.ndarray      # flat null vector across window blocks, unit 2-norm
    residual: float         # |nu(lambda*)| / ||M||_max


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Brent's zeroin on [a, b] with f(a) and f(b) of opposite sign (Brent 1973).

    Inverse quadratic or secant steps, kept inside the bracket and falling back
    to bisection; stops once the bracket is narrower than xtol + 4 eps |x|.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk, fblk, spre, scur = a, fa, b - a, b - a
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + 4.0 * np.finfo(float).eps * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else np.copysign(delta, sbis)
        fcur = f(xcur)
    raise NumericalFailureError(f"Brent iteration did not converge in [{a}, {b}]")


def scan_eigenvalues(geometry: Geometry, settings: SolverSettings) -> list[ScanRoot]:
    """Locate all discrete eigenvalues in (lambda_floor, 1 - threshold_margin).

    The inertia of M at the two ends of the band counts the roots; each root
    is refined by Brent's method on its own branch to settings.bisect_tol from
    the tightest sign-change bracket among all branch values computed so far.
    The trace coefficients are the null vector of the branch at its root. The
    root is one of Brent's samples, so each search keeps the M(lambda) of its
    sample with the smallest |nu_k| and assembles again only if the root is
    another sample.
    """
    samples: list[tuple[float, np.ndarray]] = []
    nearest = None  # (|nu_k|, lambda, M(lambda)) of the current search's best sample

    def branches(lam: float, k: int | None = None) -> np.ndarray:
        nonlocal nearest
        lam = float(lam)
        system = assemble_galerkin(lam, geometry, settings)
        values = np.linalg.eigvalsh(system.matrix)
        samples.append((lam, values))
        if k is not None and (nearest is None or abs(values[k]) < nearest[0]):
            nearest = (abs(values[k]), lam, system)
        return values

    lo, hi = settings.lambda_floor, settings.lambda_max
    first = int(np.count_nonzero(branches(np.nextafter(lo, hi)) <= 0.0))
    last = int(np.count_nonzero(branches(np.nextafter(hi, lo)) <= 0.0))

    roots: list[ScanRoot] = []
    for k in range(first, last):
        # branch k decreases: bracket from the lowest sample with nu_k <= 0
        # and the highest sample below it with nu_k > 0
        b, fb = min((lam, v[k]) for lam, v in samples if v[k] <= 0.0)
        a, fa = max((lam, v[k]) for lam, v in samples if lam < b and v[k] > 0.0)
        nearest = None
        lam_star = float(_brent(lambda lam: branches(lam, k)[k], a, b, fa, fb, settings.bisect_tol))
        reuse = nearest is not None and nearest[1] == lam_star
        system = nearest[2] if reuse else assemble_galerkin(lam_star, geometry, settings)
        evals, evecs = np.linalg.eigh(system.matrix)
        residual = abs(evals[k]) / max(np.max(np.abs(system.matrix)), 1e-300)
        if residual > 1e-9:
            raise NumericalFailureError(f"root at lambda={lam_star} has branch residual {residual:.3e}")
        roots.append(ScanRoot(lam_star, evecs[:, k].copy(), float(residual)))
    return roots
