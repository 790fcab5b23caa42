"""Acceptance suite: ten headline guarantees, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL - detail` before asserting, so a
full run leaves a one-line verdict per criterion in the captured output.
"""

import math
import time

import numpy as np
import pytest

from winguide.experiments import (
    DEFAULT_DOUBLE_CONFIG,
    DEFAULT_SIMPLE_CONFIG,
    verify_report,
)
from winguide.fd_oracle import GridSpec, fd_eigenvalues
from winguide.geometry import Geometry, SolverSettings, WindowSpec
from winguide.specfun import mode_kappa
from winguide.spectral import scan_eigenvalues
from winguide.waveguide import compute_modes, modal_coeffs, solve_U

GEOMETRIES = {
    "a=1.0, d=2.0": (1.0, 2.0),
    "a=1.5, d=pi": (1.5, math.pi),
}
FD_GRIDS = {
    "a=1.0, d=2.0": GridSpec(h=0.1, L=20.0),
    "a=1.5, d=pi": GridSpec(h=0.1, L=12.0),
}
MULTI_MODE = (3.0, 2.0)   # two trapped modes, alternating parity


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _geometry(a: float, d: float) -> Geometry:
    return Geometry(d=d, windows=(WindowSpec(0.0, a),))


@pytest.fixture(scope="module")
def spectral_modes():
    out = {}
    for name, (a, d) in GEOMETRIES.items():
        t0 = time.monotonic()
        out[name] = (compute_modes(_geometry(a, d)), time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def fd_results():
    out = {}
    for name, (a, d) in GEOMETRIES.items():
        t0 = time.monotonic()
        result = fd_eigenvalues(_geometry(a, d), FD_GRIDS[name], count=2, levels=3)
        out[name] = (result, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def modes_multi():
    return compute_modes(_geometry(*MULTI_MODE))


@pytest.fixture(scope="module")
def double_bundle():
    t0 = time.monotonic()
    bundle = verify_report(dict(DEFAULT_DOUBLE_CONFIG))
    return bundle, time.monotonic() - t0


@pytest.fixture(scope="module")
def simple_bundle():
    t0 = time.monotonic()
    bundle = verify_report(dict(DEFAULT_SIMPLE_CONFIG))
    return bundle, time.monotonic() - t0


def test_criterion_1_spectral_matches_fd(spectral_modes, fd_results):
    details = []
    ok = True
    for name in GEOMETRIES:
        modes, t_spec = spectral_modes[name]
        fd, t_fd = fd_results[name]
        lams = [m.lam for m in modes if m.lam < 0.999]
        if len(fd.extrapolated) < len(lams):
            ok = False
            details.append(f"{name}: oracle found fewer eigenvalues than the scan")
            continue
        gaps = [abs(lam - ref) for lam, ref in zip(lams, fd.extrapolated)]
        elapsed = t_spec + t_fd
        ok = ok and bool(gaps) and max(gaps) <= 1e-3 and elapsed <= 180.0
        details.append(f"{name}: max |spectral-fd| = {max(gaps):.2e} in {elapsed:.0f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_2_basis_refinement_stability():
    worst = 0.0
    ok = True
    for a, d in GEOMETRIES.values():
        geometry = _geometry(a, d)
        coarse = scan_eigenvalues(geometry, SolverSettings(basis_order=24))
        fine = scan_eigenvalues(geometry, SolverSettings(basis_order=48))
        if len(coarse) != len(fine):
            ok = False
            break
        worst = max(
            worst, max(abs(c.lam - f.lam) for c, f in zip(coarse, fine))
        )
    ok = ok and worst <= 1e-9
    _report(2, ok, f"max |lambda(N=24) - lambda(N=48)| = {worst:.2e}")


def test_criterion_3_parity_alternation(spectral_modes, modes_multi):
    families = [modes for modes, _ in spectral_modes.values()] + [modes_multi]
    worst = 0.0
    labels_ok = True
    for modes in families:
        for k, mode in enumerate(modes[: min(4, len(modes))]):
            labels_ok = labels_ok and mode.parity == ("even" if k % 2 == 0 else "odd")
            coeffs = mode.trace.coeffs[0]
            total = np.linalg.norm(coeffs)
            wrong = coeffs[1::2] if k % 2 == 0 else coeffs[0::2]
            worst = max(worst, float(np.linalg.norm(wrong) / total))
    ok = labels_ok and worst <= 1e-8
    _report(3, ok, f"max relative parity leakage = {worst:.2e}, labels alternate: {labels_ok}")


def test_criterion_4_response_negative_below_resonance(spectral_modes):
    lam1 = spectral_modes["a=1.0, d=2.0"][0][0].lam
    grid = np.linspace(0.05, lam1 - 0.05, 20)
    solutions = [solve_U(float(lam), 1.0, 2.0) for lam in grid]
    all_negative = all(s.c < 0.0 for s in solutions)
    worst_energy = max(s.energy_residual for s in solutions)
    ok = all_negative and worst_energy <= 1e-6
    _report(
        4,
        ok,
        f"c < 0 at all 20 points: {all_negative}, max energy residual = {worst_energy:.2e}",
    )


def test_criterion_5_far_field_amplitude(modes_multi):
    b = 8.0
    worst = 0.0
    for mode in modes_multi[:2]:
        kappa = mode_kappa(1, mode.lam, math.pi)
        mc = modal_coeffs(mode.trace, side="right", section=b, j_max=8)
        recovered = abs(mc.alpha[0]) * math.exp(kappa * b)
        worst = max(worst, abs(recovered / abs(mode.c_coeff) - 1.0))
    ok = worst <= 1e-5
    _report(5, ok, f"max relative |c| mismatch at b = {b} is {worst:.2e}")


def test_criterion_6_splitting_law(double_bundle):
    bundle, elapsed = double_bundle
    v = bundle.verdicts
    rate = v["splitting_rate_2kappa"]
    pref = v["splitting_prefactor_2mu"]
    straddle = v["pair_straddles_lambda_star"]
    ok = (
        rate["pass"] and pref["pass"] and straddle["pass"] and elapsed <= 300.0
    )
    _report(
        6,
        ok,
        f"rate = {rate['fit'].get('rate', float('nan')):.4f} "
        f"(expected {rate['expected']:.4f}), gap prefactor = {pref['fitted']:.4f} "
        f"(expected {pref['expected']:.4f}), straddle: {straddle['pass']}, {elapsed:.0f}s",
    )


def test_criterion_7_nonresonant_shift_law(simple_bundle):
    bundle, elapsed = simple_bundle
    v = bundle.verdicts
    neg = v["shift_negative"]
    rate = v["shift_rate_4kappa"]
    pref = v["prefactor_matches_a_variant"]
    adjudication = bundle.mu_adjudication["verdict"]
    ok = neg["pass"] and rate["pass"] and pref["pass"] and elapsed <= 300.0
    _report(
        7,
        ok,
        f"shifts negative: {neg['pass']}, rate = {rate['fit'].get('rate', float('nan')):.4f} "
        f"(expected {rate['expected']:.4f}), prefactor variant: {adjudication}, {elapsed:.0f}s",
    )


def test_criterion_8_spectrum_bookkeeping(double_bundle, simple_bundle):
    checks = {}
    for label, (bundle, _) in (("double", double_bundle), ("simple", simple_bundle)):
        checks[label] = (
            bundle.verdicts["count_constant"]["pass"]
            and bundle.verdicts["ground_below_min_single"]["pass"]
        )
    ok = all(checks.values())
    _report(8, ok, f"constant count and ground below min single: {checks}")


def test_criterion_9_eigenvector_structure(double_bundle, simple_bundle):
    d_bundle = double_bundle[0]
    s_bundle = simple_bundle[0]
    overlap_ok = (
        d_bundle.verdicts["overlap_rate_2kappa"]["pass"]
        and s_bundle.verdicts["overlap_rate_2kappa"]["pass"]
    )
    parity_ok = d_bundle.verdicts["parity_split_even_odd"]["pass"]
    ok = overlap_ok and parity_ok
    _report(
        9,
        ok,
        f"overlap residual decays at 2*kappa (within 25%): {overlap_ok}, "
        f"split pair parity even/odd: {parity_ok}",
    )


def test_criterion_10_section_consistency(spectral_modes):
    mode = spectral_modes["a=1.0, d=2.0"][0][0]
    b1, b2 = 1.8, 2.6
    mc1 = modal_coeffs(mode.trace, side="right", section=b1, j_max=8)
    mc2 = modal_coeffs(mode.trace, side="right", section=b2, j_max=8)
    worst = 0.0
    for j in (1, 2):
        kappa_j = mode_kappa(j, mode.lam, math.pi)
        ratio = mc2.alpha[j - 1] / mc1.alpha[j - 1]
        worst = max(worst, abs(ratio / math.exp(-kappa_j * (b2 - b1)) - 1.0))
    parseval = max(mc1.parseval_residual, mc2.parseval_residual)
    ok = worst <= 1e-6 and parseval <= 1e-6
    _report(
        10,
        ok,
        f"max modal ratio mismatch = {worst:.2e}, max Parseval residual = {parseval:.2e}",
    )
