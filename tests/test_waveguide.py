"""Tests for the physical-quantity layer: norms, fields, sections, modes."""

import math

import numpy as np
import pytest

import oracles
from fields import evaluate_field, field_norm, fourier_grid, gradient_norm
from winguide import assembly, waveguide
from winguide.assembly import assemble_galerkin, norm_matrix
from winguide.errors import (
    DegenerateInputError,
    EvaluationDomainError,
    NumericalFailureError,
    ResolventPoleError,
    ValidationError,
)
from winguide.geometry import Geometry, SolverSettings, WindowSpec
from winguide.specfun import mode_kappa
from winguide.waveguide import (
    TraceFunction,
    coeff_c,
    compute_modes,
    modal_coeffs,
    normalize_mode,
    solve_U,
)
from winguide.waveguide import _modal_profile

# Frozen regression values (computed at default settings, cross-checked
# against the finite-difference oracle where stated).
LAMBDA1_A1_D2 = 0.934889771227259
C1_A1_D2 = 0.39615024725481757
LAMBDA1_A12_D2 = 0.8850111499964259
LAMBDA1_A3_D2 = 0.5474016675041058
LAMBDA2_A3_D2 = 0.9632711974098347
C1_A3_D2 = 0.9403533388405642
C2_A3_D2 = 0.4256943457216229
U_C_AT_HALF = -0.5274006716845234  # solve_U(0.5, a=1.0, d=2.0).c


@pytest.fixture(scope="module")
def mode1():
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    return compute_modes(geometry)[0]


@pytest.fixture(scope="module")
def modes_wide():
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),))
    return compute_modes(geometry)


def _scaled(trace, factor):
    coeffs = tuple(
        tuple(factor * c for c in trace.coeffs[i])
        for i in range(len(trace.geometry.windows))
    )
    return TraceFunction(trace.lam, trace.geometry, coeffs)


def test_field_norm_scaling(mode1):
    base = field_norm(mode1.trace)
    assert field_norm(_scaled(mode1.trace, 3.0)) == pytest.approx(3.0 * base, rel=1e-12)
    assert field_norm(_scaled(mode1.trace, 0.0)) == 0.0


def test_gradient_norm_scaling(mode1):
    base = gradient_norm(mode1.trace)
    assert base > 0.0
    assert gradient_norm(_scaled(mode1.trace, -2.0)) == pytest.approx(
        2.0 * base, rel=1e-12
    )


def test_field_norm_matches_brute_force(mode1):
    brute = oracles.brute_force_field_norm(mode1.trace)
    closed = field_norm(mode1.trace)
    assert brute == pytest.approx(closed, rel=1e-4)


def test_quadrature_norms_reject_pair_trace():
    geometry = Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0)))
    trace = TraceFunction(0.9, geometry, ((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)))
    with pytest.raises(ValidationError):
        field_norm(trace)
    with pytest.raises(ValidationError):
        gradient_norm(trace)


def test_evaluate_field_dirichlet_wall(mode1):
    for x1 in (0.0, 0.7, 4.0):
        assert abs(evaluate_field(mode1.trace, (x1, math.pi))) < 1e-10
        assert abs(evaluate_field(mode1.trace, (x1, -2.0))) < 1e-10


def test_evaluate_field_even_symmetry(mode1):
    for x1, x2 in [(0.4, 0.9), (1.2, 0.3), (3.0, 1.5), (0.8, -0.7)]:
        left = evaluate_field(mode1.trace, (-x1, x2))
        right = evaluate_field(mode1.trace, (x1, x2))
        assert abs(left - right) <= 1e-8 * max(1.0, abs(right))


def test_evaluate_field_far_decay_rate(mode1):
    kappa = mode_kappa(1, mode1.lam, math.pi)
    x2 = 1.1
    v6 = evaluate_field(mode1.trace, (6.0, x2))
    v8 = evaluate_field(mode1.trace, (8.0, x2))
    assert v8 / v6 == pytest.approx(math.exp(-2.0 * kappa), rel=1e-4)


def test_evaluate_field_domain_errors(mode1):
    with pytest.raises(EvaluationDomainError):
        evaluate_field(mode1.trace, (0.0, 3.5))
    with pytest.raises(EvaluationDomainError):
        evaluate_field(mode1.trace, (0.0, -2.5))
    # inside the near zone the interface sliver is excluded
    with pytest.raises(EvaluationDomainError):
        evaluate_field(mode1.trace, (0.3, 1e-3))


def test_near_and_far_methods_agree_in_overlap(mode1):
    # Fourier inversion is the near-zone method but converges everywhere;
    # beyond the far margin it must match the transverse-mode series.
    x1 = np.array([1.7, 2.1, 2.5])
    x2 = np.array([-1.2, -0.4, 0.35, 0.9, 2.2])
    fourier = fourier_grid(mode1.trace, x1, x2)
    for r, v in enumerate(x1):
        series = _modal_profile(mode1.trace, float(v), x2)
        assert np.abs(series - fourier[r]).max() <= 1e-8


def test_modal_coeffs_two_section_ratios(mode1):
    b1, b2 = 1.8, 2.6
    mc1 = modal_coeffs(mode1.trace, side="right", section=b1, j_max=12)
    mc2 = modal_coeffs(mode1.trace, side="right", section=b2, j_max=12)
    for j in (1, 2):
        kappa = mode_kappa(j, mode1.lam, math.pi)
        ratio = mc2.alpha[j - 1] / mc1.alpha[j - 1]
        assert ratio == pytest.approx(math.exp(-kappa * (b2 - b1)), rel=1e-6)
        kappa_lower = mode_kappa(j, mode1.lam, 2.0)
        ratio_lower = mc2.beta[j - 1] / mc1.beta[j - 1]
        assert ratio_lower == pytest.approx(
            math.exp(-kappa_lower * (b2 - b1)), rel=1e-6
        )


def test_modal_coeffs_parseval(mode1):
    mc = modal_coeffs(mode1.trace, side="right", section=1.8, j_max=12)
    assert mc.parseval_residual <= 1e-6


def test_modal_coeffs_zero_trace(mode1):
    mc = modal_coeffs(_scaled(mode1.trace, 0.0), side="right", section=2.0, j_max=6)
    assert np.all(mc.alpha == 0.0)
    assert np.all(mc.beta == 0.0)


def test_modal_coeffs_section_too_close(mode1):
    with pytest.raises(EvaluationDomainError):
        modal_coeffs(mode1.trace, side="right", section=1.2, j_max=6)
    with pytest.raises(EvaluationDomainError):
        modal_coeffs(mode1.trace, side="left", section=-1.2, j_max=6)
    with pytest.raises(ValidationError):
        modal_coeffs(mode1.trace, side="up", section=3.0, j_max=6)


def test_normalize_mode_contracts(mode1):
    renorm = normalize_mode(mode1.trace)
    fields = ("lam", "geometry", "normalized")
    assert [getattr(renorm.trace, f) for f in fields] == [getattr(mode1.trace, f) for f in fields]
    assert renorm.trace.coeffs.tobytes() == mode1.trace.coeffs.tobytes()
    flipped = normalize_mode(_scaled(mode1.trace, -5.0))
    assert np.allclose(flipped.trace.coeffs.ravel(), mode1.trace.coeffs.ravel(), rtol=0, atol=1e-12)
    assert field_norm(mode1.trace) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DegenerateInputError):
        normalize_mode(_scaled(mode1.trace, 0.0))


@pytest.mark.parametrize(
    "sign, perturbation, parity",
    [(1.0, 1e-8, "even"), (1.0, 1e-4, "none"), (-1.0, 1e-8, "odd"), (-1.0, 1e-4, "none")],
)
def test_normalize_mode_parity_leakage_threshold(mode1, sign, perturbation, parity):
    # a +-4 pair trace (x0, +-(-1)^n x0 + e), |x0| = 0.2: the mirror leakage is about 14 e
    geometry = Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0)))
    x0 = mode1.trace.coeffs[0]
    x1 = sign * (-1.0) ** np.arange(x0.size) * x0 + perturbation
    trace = TraceFunction(mode1.lam, geometry, np.stack([x0, x1]))
    assert normalize_mode(trace).parity == parity


@pytest.mark.parametrize(
    "coeffs",
    [
        ((1.0, 0.0),),                   # one block for two windows
        ((1.0, 0.0), (1.0,)),            # ragged blocks
        ((), ()),                        # empty blocks
    ],
    ids=["block-count", "ragged", "empty"],
)
def test_trace_function_rejects_malformed_blocks(coeffs):
    geometry = Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0)))
    with pytest.raises(ValidationError):
        TraceFunction(0.9, geometry, coeffs)


def test_mode_regression_values(mode1, modes_wide):
    assert mode1.lam == pytest.approx(LAMBDA1_A1_D2, abs=1e-12)
    assert mode1.c_coeff == pytest.approx(C1_A1_D2, abs=1e-10)
    assert mode1.parity == "even"
    assert [m.lam for m in modes_wide] == pytest.approx(
        [LAMBDA1_A3_D2, LAMBDA2_A3_D2], abs=1e-12
    )
    assert [m.parity for m in modes_wide] == ["even", "odd"]


def test_coeff_c_nonzero_first_two_modes(modes_wide):
    assert abs(modes_wide[0].c_coeff) > 1e-6
    assert abs(modes_wide[1].c_coeff) > 1e-6
    assert modes_wide[0].c_coeff == pytest.approx(C1_A3_D2, abs=1e-10)
    assert modes_wide[1].c_coeff == pytest.approx(C2_A3_D2, abs=1e-10)


def test_coeff_c_parity_self_check(modes_wide):
    from winguide.assembly import assemble_exp_rhs

    for mode in modes_wide:
        w = mode.trace.geometry.windows[0]
        kappa = mode_kappa(1, mode.lam, math.pi)
        x = mode.trace.coeffs[0]
        m_plus = float(x @ assemble_exp_rhs(mode.lam, w, kappa, +1, mode.trace.order))
        m_minus = float(x @ assemble_exp_rhs(mode.lam, w, kappa, -1, mode.trace.order))
        sign = 1.0 if mode.index % 2 == 1 else -1.0
        assert m_plus == pytest.approx(sign * m_minus, abs=1e-10 * abs(m_plus))


def test_coeff_c_matches_far_field(modes_wide):
    b = 8.0
    for mode in modes_wide:
        kappa = mode_kappa(1, mode.lam, math.pi)
        mc = modal_coeffs(mode.trace, side="right", section=b, j_max=12)
        fitted = abs(mc.alpha[0]) * math.exp(kappa * b)
        assert fitted == pytest.approx(abs(mode.c_coeff), rel=1e-5)


def test_solve_u_sign_law_and_energy():
    u = solve_U(0.1, 1.0, 2.0)
    assert u.c < 0.0
    assert u.energy_residual <= 1e-6
    half = solve_U(0.5, 1.0, 2.0)
    assert half.c == pytest.approx(U_C_AT_HALF, abs=1e-10)
    lam1 = LAMBDA1_A1_D2
    for lam in np.linspace(0.05, lam1 - 0.05, 5):
        assert solve_U(float(lam), 1.0, 2.0).c < 0.0


def test_solve_u_matches_spectral_inverse():
    from winguide.assembly import assemble_exp_rhs, assemble_galerkin
    from oracles import jacobi_eig

    lam, a, d = 0.5, 1.0, 2.0
    settings = SolverSettings()
    geometry = Geometry(d=d, windows=(WindowSpec(0.0, a),))
    system = assemble_galerkin(lam, geometry, settings)
    kappa = mode_kappa(1, lam, math.pi)
    g = assemble_exp_rhs(lam, geometry.windows[0], kappa, +1, settings.basis_order)
    dec = jacobi_eig(system)
    inverse_quad = float((dec.vectors.T @ g) ** 2 @ (1.0 / dec.values))
    c_spectral = -inverse_quad / (math.pi * kappa)
    assert solve_U(lam, a, d).c == pytest.approx(c_spectral, abs=1e-10)


def test_solve_u_pole_detection():
    with pytest.raises(ResolventPoleError):
        solve_U(LAMBDA1_A1_D2, 1.0, 2.0)


def test_solve_u_rejects_inaccurate_decomposition(monkeypatch):
    # one branch value off by 1e-6 relative leaves a residual far above 1e-10
    eigh = np.linalg.eigh

    def perturbed(matrix):
        vals, vecs = eigh(matrix)
        vals = vals.copy()
        vals[0] *= 1.0 + 1e-6
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalFailureError, match="solve residual"):
        solve_U(0.5, 1.0, 2.0)


def test_domain_monotonicity_in_half_width():
    lam_12 = compute_modes(Geometry(d=2.0, windows=(WindowSpec(0.0, 1.2),)))[0].lam
    assert lam_12 == pytest.approx(LAMBDA1_A12_D2, abs=1e-12)
    assert lam_12 < LAMBDA1_A1_D2


def test_unit_norm_recomputed(mode1, modes_wide):
    for mode in [mode1, *modes_wide]:
        assert field_norm(mode.trace) == pytest.approx(1.0, abs=1e-8)


def test_compute_modes_normalizes_with_scan_quadrature():
    assembly._build_window_table.cache_clear()
    compute_modes(Geometry(2.0, (WindowSpec(0, 1.0),)), SolverSettings(panel_points=16))
    assert assembly._build_window_table.cache_info().currsize == 1


def test_window_table_shared_by_far_cut_not_d():
    # d = 2 and d = pi both cut at xi_0 = 24, so the second pass over a width
    # hits the first pass's table; d = 0.5 cuts at 80 and builds one more
    settings = SolverSettings()
    window = (WindowSpec(0.0, 0.9),)
    assembly._build_window_table.cache_clear()
    compute_modes(Geometry(2.0, window), settings)
    misses = assembly._build_window_table.cache_info().misses
    for d, new in ((math.pi, 0), (0.5, 1)):
        assemble_galerkin(0.6, Geometry(d, window), settings)
        norm_matrix(0.6, Geometry(d, window), settings)
        assert assembly._build_window_table.cache_info().misses == misses + new


@pytest.mark.parametrize("a, size", [(1.0, 9_960), (1.2, 9_960), (3.0, 18_684)])
def test_energy_table_has_no_far_nodes(monkeypatch, a, size):
    # the quadrature norm routes read the xi_max = 800 table; cut at its
    # xi_max it holds no far node, so no far-moment product is built for it
    seen = []

    def spy(*args):
        seen.append(assembly._window_table(*args))
        return seen[-1]

    monkeypatch.setattr(waveguide, "_window_table", spy)
    solution = solve_U(0.3, a, 2.0)
    field_norm(solution.trace)
    gradient_norm(solution.trace)
    assert len(seen) == 4  # solve_U's energy residual reads it twice
    for table in seen:
        assert table.nodes.size == size
        assert table.near == table.nodes.size
        assert not table.moments.any()
    if a <= 1.2:  # the far moments would have spanned 9,316 of these nodes
        assert np.count_nonzero(seen[0].nodes >= assembly._far_cut(2.0)) == 9_316
