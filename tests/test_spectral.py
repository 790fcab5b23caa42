"""Tests for the Jacobi reference eigensolver and the nonlinear eigenvalue scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import jacobi_eig
from winguide import assembly, spectral
from winguide.assembly import assemble_galerkin
from winguide.errors import ThresholdError, ValidationError
from winguide.geometry import Geometry, SolverSettings, WindowSpec
from winguide.spectral import scan_eigenvalues
from winguide.waveguide import compute_modes

# Single window a=1.0, d=2.0, frozen from the finite-difference oracle run
# (h levels 0.1/0.05/0.025, L=20, Richardson extrapolated).
FD_LAMBDA1_A1_D2 = 0.9345817042975173
# Spectral value at default settings, frozen for regression.
LAMBDA1_A1_D2 = 0.934889771227259


def test_jacobi_identity_and_diagonal():
    dec = jacobi_eig(np.eye(5))
    assert np.allclose(dec.values, np.ones(5), rtol=0, atol=1e-14)
    dec = jacobi_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.values, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_jacobi_two_by_two_exchange():
    dec = jacobi_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.values, [-1.0, 1.0], rtol=0, atol=1e-14)


def test_jacobi_reconstruction_and_orthogonality():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    matrix = a + a.T
    dec = jacobi_eig(matrix)
    recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
    scale = np.abs(matrix).max()
    assert np.abs(recon - matrix).max() <= 1e-11 * scale
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(12)).max() <= 1e-12


def test_jacobi_rejects_asymmetric_input():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        jacobi_eig(m)


def test_scan_empty_admissible_window():
    with pytest.raises(ValidationError):
        SolverSettings(lambda_floor=0.9999, threshold_margin=1e-2)


def test_scan_single_window_against_fd_oracle():
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    roots = scan_eigenvalues(geometry, SolverSettings())
    assert len(roots) == 1
    assert roots[0].lam == pytest.approx(LAMBDA1_A1_D2, abs=1e-12)
    assert abs(roots[0].lam - FD_LAMBDA1_A1_D2) <= 1e-3
    assert roots[0].residual <= 1e-10


def test_scan_root_count_stable_under_refinement():
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    base = scan_eigenvalues(geometry, SolverSettings(basis_order=16))
    fine = scan_eigenvalues(geometry, SolverSettings(basis_order=32))
    assert len(base) == len(fine) == 1


def test_scan_symmetric_double_window_pair():
    lam_star = LAMBDA1_A1_D2
    kappa = math.sqrt(1.0 - lam_star)
    l = 6.0
    geometry = Geometry(
        d=2.0, windows=(WindowSpec(-l, 1.0), WindowSpec(l, 1.0))
    )
    roots = scan_eigenvalues(geometry, SolverSettings())
    assert len(roots) == 2
    neighborhood = math.exp(-2.0 * kappa * l)
    for root in roots:
        assert abs(root.lam - lam_star) <= neighborhood
    assert roots[0].lam < lam_star < roots[1].lam


def test_scan_parity_alternation_wide_window():
    # a=3.0, d=2.0 carries two modes; their trace coefficients alternate
    # between even-only and odd-only support.
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),))
    roots = scan_eigenvalues(geometry, SolverSettings())
    assert len(roots) == 2
    for k, root in enumerate(roots):
        coeffs = np.asarray(root.coeffs)
        total = np.linalg.norm(coeffs)
        leak = np.linalg.norm(coeffs[1::2]) if k % 2 == 0 else np.linalg.norm(coeffs[0::2])
        assert leak <= 1e-8 * total


@pytest.mark.parametrize(
    "half_width, lam_high", [(2.7, 0.998493199875587), (2.66, 0.9998053656944)]
)
def test_scan_finds_mode_just_below_threshold(half_width, lam_high):
    # the second mode lies above 0.998, beyond the last point of a 2e-3 grid
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, half_width),))
    roots = scan_eigenvalues(geometry, SolverSettings())
    assert len(roots) == 2
    assert roots[1].lam == pytest.approx(lam_high, abs=1e-12)
    modes = compute_modes(geometry, SolverSettings())
    assert [m.parity for m in modes] == ["even", "odd"]
    assert all(math.isfinite(m.c_coeff) for m in modes)


def _inertia(lam: float, geometry: Geometry, solver: SolverSettings) -> int:
    matrix = assemble_galerkin(lam, geometry, solver).matrix
    return int(np.count_nonzero(np.linalg.eigvalsh(matrix) <= 0.0))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(half_width=st.floats(0.5, 3.0), d=st.floats(0.5, math.pi))
def test_scan_roots_match_inertia_count(half_width, d):
    solver = SolverSettings(basis_order=12, panel_points=12)
    geometry = Geometry(d=d, windows=(WindowSpec(0.0, half_width),))
    roots = scan_eigenvalues(geometry, solver)
    lo, hi = solver.lambda_floor, solver.lambda_max
    bottom, top = np.nextafter(lo, hi), np.nextafter(hi, lo)
    expected = _inertia(top, geometry, solver) - _inertia(bottom, geometry, solver)
    assert len(roots) == expected
    lams = [r.lam for r in roots]
    assert all(x < y for x, y in zip(lams, lams[1:]))
    assert all(lo < x < hi for x in lams)
    assert all(r.residual <= 1e-10 for r in roots)


def test_scan_independent_of_table_cache():
    geometry = Geometry(d=2.0, windows=(WindowSpec(-5.0, 1.0), WindowSpec(5.0, 1.0)))
    assembly._build_window_table.cache_clear()
    cold = scan_eigenvalues(geometry, SolverSettings())
    warm = scan_eigenvalues(geometry, SolverSettings())
    assert [r.lam for r in cold] == [r.lam for r in warm]
    assert all(np.array_equal(c.coeffs, w.coeffs) for c, w in zip(cold, warm))


@pytest.mark.parametrize(
    "windows",
    [
        (WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0)),
        (WindowSpec(-2.5, 1.2), WindowSpec(2.5, 0.8)),
    ],
)
def test_scan_assembles_each_lambda_once(monkeypatch, windows):
    # each root reuses the M(lambda*) of its Brent sample instead of a new assembly
    geometry = Geometry(d=2.0, windows=windows)
    seen = {"scan": [], "reference": []}

    def spy(key):
        def assemble(lam, *args):
            seen[key].append(lam)
            return assemble_galerkin(lam, *args)

        return assemble

    monkeypatch.setattr(spectral, "assemble_galerkin", spy("scan"))
    monkeypatch.setattr(oracles, "assemble_galerkin", spy("reference"))
    roots = scan_eigenvalues(geometry, SolverSettings())
    want = oracles.scan_reassembling_roots(geometry, SolverSettings())
    assert len(roots) >= 2
    assert len(set(seen["scan"])) == len(seen["scan"])
    assert len(seen["scan"]) == len(seen["reference"]) - len(roots)
    for got, ref in zip(roots, want, strict=True):
        assert got.lam == ref.lam
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()
        assert got.residual == ref.residual


def test_eigenvalues_invariant_under_reflection():
    pair = Geometry(d=2.0, windows=(WindowSpec(-2.5, 1.2), WindowSpec(2.5, 0.8)))
    mirror = Geometry(d=2.0, windows=(WindowSpec(-2.5, 0.8), WindowSpec(2.5, 1.2)))
    lams = [r.lam for r in scan_eigenvalues(pair, SolverSettings())]
    mirrored = [r.lam for r in scan_eigenvalues(mirror, SolverSettings())]
    assert len(lams) >= 2
    np.testing.assert_allclose(mirrored, lams, rtol=0.0, atol=1e-12)


def test_single_window_eigenvalues_fall_with_half_width():
    # domain monotonicity: widening the window lowers every eigenvalue
    spectra = [
        [r.lam for r in scan_eigenvalues(Geometry(2.0, (WindowSpec(0.0, a),)), SolverSettings())]
        for a in (0.8, 1.0, 1.2)
    ]
    for narrow, wide in zip(spectra, spectra[1:]):
        assert 1 <= len(narrow) <= len(wide)
        assert all(w < n for n, w in zip(narrow, wide))
