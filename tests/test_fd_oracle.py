"""Tests for the finite-difference oracle and its Richardson extrapolation."""

import functools
import json
import math
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import oracles
from winguide import fd_oracle
from winguide.assembly import assemble_galerkin
from winguide.cli import main
from winguide.errors import InsufficientDataError, NumericalFailureError, ValidationError
from winguide.fd_oracle import (
    MAX_MESH_NODES,
    GridSpec,
    _Mesh,
    _node_count,
    _Reduced,
    fd_eigenvalues,
    richardson_extrapolate,
)
from oracles import fd_assemble, fd_count_below, fd_eigenpairs_near
from winguide.geometry import Geometry, SolverSettings, WindowSpec

LAMBDA1_A1_D2 = 0.934889771227259

# Per-level ground eigenvalues at a = 1.5, d = pi, h = 0.1, L = 12 (h = 0.1 and
# 0.05), from the earlier banded shifted-subspace-iteration solver, printed by
#   PYTHONPATH=src python3 -c "import math; from winguide.fd_oracle import *;
#     from winguide.geometry import *; print(fd_eigenvalues(Geometry(d=math.pi,
#     windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), 2, 2).levels)"
# and also stored in winbench/reference.json ("fd_levels").
LEVELS_A15_DPI = (0.6962737102767286, 0.6909811473436173)


def test_gridspec_validation():
    with pytest.raises(ValidationError):
        GridSpec(h=0.0, L=10.0)
    with pytest.raises(ValidationError):
        GridSpec(h=float("nan"), L=10.0)
    with pytest.raises(ValidationError):
        GridSpec(h=0.1, L=-1.0)


def test_fd_eigenvalues_argument_validation():
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    with pytest.raises(ValidationError):
        fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=0)
    with pytest.raises(ValidationError):
        fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=1, levels=0)
    with pytest.raises(ValidationError):
        fd_eigenvalues(geo, GridSpec(h=0.2, L=12.0), count=1)
    with pytest.raises(ValidationError):
        # truncation must clear the window by at least 10
        fd_eigenvalues(geo, GridSpec(h=0.1, L=10.9), count=1)


def test_validation_rectangle_matches_closed_form():
    # with no windows the mesh covers the single strip (-L, L) x (0, pi) and
    # the discrete eigenvalues have an exact product formula
    h, L = 0.1, 10.0
    res = fd_eigenvalues(Geometry(d=1.0, windows=()), GridSpec(h=h, L=L), count=4, levels=1)
    n_seg = round(2.0 * L / h)
    m_up = round(math.pi / h)
    ref = oracles.rect_fd_eigenvalues(n_seg, 2.0 * L / n_seg, m_up, math.pi / m_up, 4)
    assert len(res.eigenvalues) == 4
    for got, want in zip(res.eigenvalues, ref):
        assert got == pytest.approx(want, abs=1e-10)
    assert not res.fewer_than_requested
    assert res.diagnostics["perron"]["ok"]


def test_rectangle_refinement_order_and_extrapolation():
    # smooth domain: the scheme is second order, so successive differences
    # shrink by ~4x and the extrapolated value hits the continuum eigenvalue
    res = fd_eigenvalues(
        Geometry(d=1.0, windows=()), GridSpec(h=0.1, L=10.0), count=2, levels=3
    )
    assert len(res.levels) == 3
    hs = [h for h, _ in res.levels]
    assert hs == pytest.approx([0.1, 0.05, 0.025], rel=1e-12)
    for i in range(2):
        seq = [vals[i] for _, vals in res.levels]
        ratio = (seq[0] - seq[1]) / (seq[1] - seq[2])
        assert 3.2 <= ratio <= 4.8
    exact = (math.pi / 20.0) ** 2 + 1.0
    assert res.extrapolated[0] == pytest.approx(exact, abs=1e-6)
    assert not any(res.diagnostics["unreliable"])
    for i, est in enumerate(res.error_estimates):
        coarse_gap = abs(res.levels[0][1][i] - res.levels[1][1][i])
        assert est >= coarse_gap / 3.0


def test_windowed_cross_check_against_spectral():
    # two levels at h = 0.1 leave a few-times-1e-3 extrapolation residual
    # (the window tip drags the effective order below 2); the tight 1e-3
    # comparison at three levels belongs to the acceptance suite
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    res = fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=1, levels=2)
    assert len(res.eigenvalues) == 1
    assert abs(res.extrapolated[0] - LAMBDA1_A1_D2) <= 5e-3
    assert abs(res.extrapolated[0] - LAMBDA1_A1_D2) <= 2.0 * res.error_estimates[0]
    assert res.diagnostics["perron"]["ok"]
    assert 0.0 < res.diagnostics["truncation_bias_scale"] < 1e-2


def test_truncation_stability_between_walls():
    # moving the wall from 15 to 20 changes lambda1 by the L = 15 truncation
    # bias, which scales like e^{-2 kappa (L - a)} ~ 5e-4 for this geometry
    # (measured 1.3e-4); no wall placement can do better than that scale
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    lam = {}
    for L in (15.0, 20.0):
        res = fd_eigenvalues(geo, GridSpec(h=0.05, L=L), count=1, levels=1)
        lam[L] = res.eigenvalues[0]
    diff = abs(lam[15.0] - lam[20.0])
    kappa = math.sqrt(1.0 - LAMBDA1_A1_D2)
    assert diff <= math.exp(-2.0 * kappa * 14.0)
    assert diff <= 2e-4


def test_fewer_than_requested_flag():
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    res = fd_eigenvalues(geo, GridSpec(h=0.1, L=11.0), count=5, levels=1)
    assert res.fewer_than_requested
    assert len(res.eigenvalues) == 1
    # a single level cannot estimate its own error
    assert res.error_estimates == (math.inf,)
    assert res.diagnostics["unreliable"] == [True]


def test_richardson_exact_second_order():
    values = [(h, 1.0 + 0.3 * h * h) for h in (0.4, 0.2, 0.1)]
    ext = richardson_extrapolate(values)
    assert ext.lambda_star == pytest.approx(1.0, abs=1e-14)
    assert ext.order == pytest.approx(2.0, abs=1e-10)
    assert not ext.unreliable


def test_richardson_fitted_fractional_order():
    values = [(h, 2.0 + h ** 1.5) for h in (0.4, 0.2, 0.1)]
    ext = richardson_extrapolate(values)
    assert ext.lambda_star == pytest.approx(2.0, abs=1e-12)
    assert ext.order == pytest.approx(1.5, abs=1e-10)
    floor = abs(values[0][1] - values[1][1]) / 3.0
    assert ext.error_estimate >= floor


def test_richardson_two_level_classical():
    ext = richardson_extrapolate([(0.1, 1.04), (0.05, 1.01)])
    assert ext.lambda_star == pytest.approx(1.0, abs=1e-14)
    assert ext.error_estimate == pytest.approx(0.03, abs=1e-15)
    assert ext.order == 2.0
    assert not ext.unreliable


def test_richardson_non_monotone_falls_back():
    ext = richardson_extrapolate([(0.4, 1.0), (0.2, 1.2), (0.1, 1.1)])
    assert ext.unreliable
    assert ext.lambda_star == 1.1
    assert ext.order is None
    assert ext.error_estimate >= 0.1


def test_richardson_growing_differences_fall_back():
    ext = richardson_extrapolate([(0.4, 1.3), (0.2, 1.2), (0.1, 1.05)])
    assert ext.unreliable
    assert ext.lambda_star == 1.05


def test_richardson_extreme_order_marked_unreliable():
    values = [(h, 1.0 + h ** 0.1) for h in (0.4, 0.2, 0.1)]
    ext = richardson_extrapolate(values)
    assert ext.unreliable
    assert ext.order == pytest.approx(0.1, abs=1e-10)


def test_richardson_constant_sequence():
    ext = richardson_extrapolate([(0.4, 0.7), (0.2, 0.7), (0.1, 0.7)])
    assert ext.lambda_star == 0.7
    assert ext.error_estimate == 0.0
    assert not ext.unreliable


def test_richardson_input_validation():
    with pytest.raises(InsufficientDataError):
        richardson_extrapolate([(0.1, 1.0)])
    with pytest.raises(ValidationError):
        richardson_extrapolate([(0.4, 1.0), (0.3, 0.9)])
    with pytest.raises(ValidationError):
        richardson_extrapolate([(0.4, 1.0), (0.2, float("nan"))])
    with pytest.raises(ValidationError):
        richardson_extrapolate([(0.4, 1.0), (-0.2, 0.9)])


@pytest.fixture()
def single_cfg(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"d": 2.0, "windows": [{"center": 0.0, "half_width": 1.0}]}))
    return str(path)


@pytest.fixture(scope="module")
def oracle_a15_dpi():
    geo = Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),))
    return geo, fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=2, levels=2)


def test_levels_match_banded_solver(oracle_a15_dpi):
    _, res = oracle_a15_dpi
    assert [h for h, _ in res.levels] == pytest.approx([0.1, 0.05], rel=1e-12)
    for (_, vals), want in zip(res.levels, LEVELS_A15_DPI):
        assert len(vals) == 1
        assert vals[0] == pytest.approx(want, abs=1e-10)
    # one FD eigenvalue lies below 1, so each level solves for that one alone
    assert res.diagnostics["count_below_one"] == 1
    for level in res.diagnostics["levels"]:
        assert level["converged"] == 1
        assert 0 < level["iterations"] < 60
        assert level["residual_max"] < 1e-10


def test_repeated_calls_bitwise_equal(oracle_a15_dpi):
    geo, res = oracle_a15_dpi
    again = fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=2, levels=2)
    assert again.levels == res.levels


def test_newton_no_convergence_maps_to_exit_three(single_cfg, monkeypatch, capsys):
    # three evaluations of S cannot take Newton's method from sigma = 1 to the root
    monkeypatch.setattr(fd_oracle, "_MAX_EVALUATIONS", 3)
    code = main(["oracle", single_cfg, "--h", "0.1", "--L", "11", "--count", "1", "--levels", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not converge in 3 evaluations" in err


@pytest.mark.parametrize(
    "a, d, L, galerkin_count",
    [(1.0, 2.0, 20.0, 1), (1.5, math.pi, 12.0, 1), (3.0, 2.0, 14.0, 2)],
)
def test_count_below_matches_galerkin_inertia(a, d, L, galerkin_count):
    # three inertia counts of the modes below 0.999: the Schur complement's,
    # the sparse reference's LDL^T, and the Galerkin M(0.999), which decreases
    # in lambda. (a = 2.7, d = 2 is left out: its 0.99849 mode has kappa ~ 0.039
    # and does not fit the FD box.)
    geo = Geometry(d=d, windows=(WindowSpec(0.0, a),))
    mesh = _Mesh(geo, GridSpec(h=0.05, L=L), 1)
    m = assemble_galerkin(0.999, geo, SolverSettings()).matrix
    assert np.count_nonzero(np.linalg.eigvalsh(m) <= 0.0) == galerkin_count
    assert _Reduced(mesh).count(0.999) == galerkin_count
    assert fd_count_below(fd_assemble(mesh), 0.999) == galerkin_count


def test_count_below_matches_wide_eigsh():
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),))
    mesh = _Mesh(geo, GridSpec(h=0.1, L=13.0), 1)
    vals = np.sort(
        scipy.sparse.linalg.eigsh(
            fd_assemble(mesh), 5, sigma=0.0, which="LM", return_eigenvectors=False
        )
    )
    assert vals[-1] > 1.0
    level = _Reduced(mesh)
    assert level.count(1.0) == np.count_nonzero(vals < 1.0) == 2
    # between consecutive eigenvalues the count is the number below
    for k, sigma in enumerate(0.5 * (vals[:-1] + vals[1:]), start=1):
        if sigma < 1.0:
            assert level.count(sigma) == k
    # and the roots are the sparse eigenvalues below 1
    roots, _ = level.lowest(2, 2)
    assert np.max(np.abs(np.array(roots) - vals[:2])) <= 1e-12


def test_no_interface_node_gives_empty_result_without_eigsh(monkeypatch):
    def no_call(*args, **kwargs):
        raise AssertionError("no Schur complement may be evaluated without an interface node")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_call)
    # a 0.04-wide window is one h = 0.1 cell: the coarsest mesh has no
    # interface node, so the strips decouple and nothing lies below 1
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 0.02),))
    res = fd_eigenvalues(geo, GridSpec(h=0.1, L=11.0), count=2, levels=2)
    assert res.diagnostics["count_below_one"] == 0
    assert res.eigenvalues == res.extrapolated == res.error_estimates == ()
    assert res.levels == ((0.1, ()), (0.05, ()))
    assert res.fewer_than_requested
    assert res.diagnostics["perron"] is None
    assert [level["iterations"] for level in res.diagnostics["levels"]] == [0, 0]


def test_inconsistent_count_maps_to_exit_three(single_cfg, monkeypatch, capsys):
    # counts that call every eigenvalue of S negative promise more roots below 1
    # than S's own eigenvalues, from eigh, can give
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: real(s) - 1e6)
    code = main(["oracle", single_cfg, "--h", "0.1", "--L", "11", "--count", "2", "--levels", "1"])
    assert code == 3
    assert "disagrees with the count below" in capsys.readouterr().err


def test_singular_shift_raises():
    with pytest.raises(NumericalFailureError):
        fd_count_below(scipy.sparse.diags([1.0, 2.0, 3.0]).tocsc(), 2.0)


class _Pivoted:
    """What `splu` returns when it pivots off the diagonal: row and column orders differ."""

    def __init__(self, n):
        self.perm_c = np.arange(n)
        self.perm_r = self.perm_c[::-1].copy()


def _reference_matrix():
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    return fd_assemble(_Mesh(geo, GridSpec(h=0.1, L=11.0), 1))


# The sparse reference's own failures raise NumericalFailureError, the class the
# CLI maps to exit 3, so that a reference count or solve is never silently wrong.


def test_arpack_no_convergence_maps_to_exit_three(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalFailureError, match="ARPACK shift-invert about 0.0 failed"):
        fd_eigenpairs_near(_reference_matrix(), 1, 0.0)


def test_pivoted_count_maps_to_exit_three(monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A, **kw: _Pivoted(A.shape[0]))
    with pytest.raises(NumericalFailureError, match="off-diagonal pivots"):
        fd_count_below(_reference_matrix(), 1.0)


@pytest.mark.parametrize("failure", ["singular", "pivoted"])
def test_shifted_factor_failure_maps_to_exit_three(monkeypatch, failure):
    # a shift-invert solve about a nonzero shift, as about a coarser level's eigenvalue
    real_splu = scipy.sparse.linalg.splu
    C = _reference_matrix()
    ground = fd_eigenpairs_near(C, 1, 0.0)[0][0]
    unshifted = C.diagonal()[0]

    def fail_when_shifted(A, **kwargs):
        # the factor shifts C's stored diagonal in place
        if A.diagonal()[0] == unshifted:
            return real_splu(A, **kwargs)
        if failure == "singular":
            raise RuntimeError("Factor is exactly singular")
        return _Pivoted(A.shape[0])

    monkeypatch.setattr(scipy.sparse.linalg, "splu", fail_when_shifted)
    with pytest.raises(NumericalFailureError, match="failed" if failure == "singular" else "pivots"):
        fd_eigenpairs_near(C, 1, ground + 1e-3)


@pytest.mark.parametrize(
    "geo, grid",
    [
        (Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),)), GridSpec(h=0.1, L=11.0)),
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.07, L=12.0)),
        (Geometry(d=1.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 0.02))), GridSpec(h=0.1, L=15.3)),
        (Geometry(d=1.0, windows=()), GridSpec(h=0.1, L=10.0)),
        (Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0))), GridSpec(h=0.1, L=15.0)),
    ],
)
def test_node_count_matches_mesh(geo, grid):
    mirrored = fd_oracle._half_segments(geo, fd_oracle._subdivisions(geo, grid)[0]) is not None
    for refine in (1, 2, 4):
        assert _node_count(geo, grid, refine) == _Mesh(geo, grid, refine).n_nodes
        if mirrored:
            # the halves together, which differ by the x = 0 column alone
            even, odd = (_Mesh(geo, grid, refine, parity) for parity in ("even", "odd"))
            assert even.n_nodes + odd.n_nodes == _node_count(geo, grid, refine)
            assert even.n_nodes - odd.n_nodes == np.count_nonzero(even.present[0])
            assert not odd.present[0].any()


@pytest.mark.parametrize(
    "geo, grid",
    [
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0)),
        (Geometry(d=1.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 0.02))), GridSpec(h=0.1, L=15.3)),
        (Geometry(d=2.0, windows=(WindowSpec(0.31, 0.77),)), GridSpec(h=0.07, L=12.0)),
    ],
)
def test_stencil_exact_on_quadratics(geo, grid):
    # the finite-volume scheme is exact for quadratics at any steps: with the
    # stiffness A = B^{1/2} C B^{1/2}, (A u)_i = -4 area_i for u = x^2 + y^2 at
    # every node whose four neighbours are unknowns. This covers the unequal x
    # steps at window edges and the interface row's (h_down + h_up) / 2.
    mesh = _Mesh(geo, grid, 1)
    C = fd_assemble(mesh)
    x = mesh.x
    y = np.concatenate([[0.0], np.cumsum(mesh.hy)]) - geo.d
    area = np.outer(x[2:] - x[:-2], y[2:] - y[:-2])[mesh.present[1:-1, 1:-1]] / 4.0
    xx, yy = np.meshgrid(x, y, indexing="ij")
    u = (xx**2 + yy**2)[mesh.present]
    root = np.sqrt(area)
    au = root * (C @ (root * u))
    pres = mesh.present
    inner = pres[1:-1, 1:-1] & pres[:-2, 1:-1] & pres[2:, 1:-1] & pres[1:-1, :-2] & pres[1:-1, 2:]
    inner = inner[pres[1:-1, 1:-1]]
    assert np.count_nonzero(inner) > 0.8 * mesh.n_nodes
    assert np.any(inner & (np.abs(yy[mesh.present]) < 1e-12))  # on the interface row
    assert np.max(np.abs(au[inner] / (-4.0 * area[inner]) - 1.0)) <= 1e-10


@pytest.mark.parametrize(
    "geo, grid, parity",
    [
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), None),
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), "even"),
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), "odd"),
        (Geometry(d=0.1, windows=(WindowSpec(-4.0, 1.2), WindowSpec(4.0, 0.8))), GridSpec(h=0.1, L=15.0), None),
        (Geometry(d=1.0, windows=()), GridSpec(h=0.1, L=10.0), None),
    ],
)
def test_reduced_operator_is_the_assembled_matrix(geo, grid, parity):
    # Tx (+) Ty on the present nodes, in the sparse reference's C order, is the
    # finite-volume C entry by entry
    mesh = _Mesh(geo, grid, 1, parity)
    level = _Reduced(mesh)
    (tx_d, tx_o), (ty_d, ty_o) = level.tx, level.ty
    tx = scipy.sparse.diags([tx_o, tx_d, tx_o], [-1, 0, 1])
    ty = scipy.sparse.diags([ty_o, ty_d, ty_o], [-1, 0, 1])
    kron = scipy.sparse.kronsum(ty, tx, format="csr")
    keep = np.flatnonzero(mesh.present[level.columns, 1:-1].ravel())
    C = fd_assemble(mesh)
    difference = kron[keep][:, keep] - C
    assert abs(difference).max() <= 1e-12 * abs(C).max()


def test_mesh_ceiling_admits_acceptance_meshes():
    # criterion 1's finest mesh and level 3 of the benchmark oracle both fit
    a1 = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    assert _node_count(a1, GridSpec(h=0.1, L=20.0), 4) <= MAX_MESH_NODES
    a15 = Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),))
    assert _node_count(a15, GridSpec(h=0.1, L=12.0), 4) <= MAX_MESH_NODES


@pytest.mark.parametrize(
    "options", [["--h", "0.1", "--levels", "12"], ["--h", "0.001", "--levels", "1"]]
)
def test_oversized_mesh_exit_two_before_any_mesh(single_cfg, monkeypatch, capsys, options):
    def no_mesh(*args, **kwargs):
        raise AssertionError("no mesh may be built for an oversized request")

    monkeypatch.setattr(fd_oracle, "_Mesh", no_mesh)
    monkeypatch.setattr(fd_oracle, "_Reduced", no_mesh)
    assert main(["oracle", single_cfg, "--L", "12", "--count", "1", *options]) == 2
    assert f"more than {MAX_MESH_NODES}" in capsys.readouterr().err


def test_too_many_columns_exit_two_before_any_mesh(tmp_path, monkeypatch, capsys):
    def no_mesh(*args, **kwargs):
        raise AssertionError("no mesh may be built for a request with too many columns")

    # d = 0.1 leaves 30 rows, so 1.8M nodes fit MAX_MESH_NODES, but even the
    # mirror half's Tx would have 30,000 columns
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"d": 0.1, "windows": [{"center": 0.0, "half_width": 1.0}]}))
    geo = Geometry(d=0.1, windows=(WindowSpec(0.0, 1.0),))
    assert _node_count(geo, GridSpec(h=0.1, L=3000.0), 1) <= MAX_MESH_NODES
    monkeypatch.setattr(fd_oracle, "_Mesh", no_mesh)
    code = main(["oracle", str(path), "--h", "0.1", "--L", "3000", "--count", "1", "--levels", "1"])
    assert code == 2
    assert f"30000 columns, more than {fd_oracle.MAX_TX_COLUMNS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geo, grid, levels",
    [
        # criterion 1's finest mirror half, and a full box that only just fits
        (Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),)), GridSpec(h=0.1, L=20.0), 3),
        (Geometry(d=2.0, windows=(WindowSpec(0.3, 1.0),)), GridSpec(h=0.1, L=102.4), 2),
    ],
)
def test_column_ceiling_counts_the_reduced_columns(geo, grid, levels, monkeypatch):
    # the ceiling is checked on the columns the finest level actually reduces
    refine = 2 ** (levels - 1)
    mirrored = fd_oracle._half_segments(geo, fd_oracle._subdivisions(geo, grid)[0]) is not None
    mesh = _Mesh(geo, grid, refine, "even" if mirrored else None)
    columns = int(np.count_nonzero(mesh.present.any(axis=1)))
    assert columns <= fd_oracle.MAX_TX_COLUMNS
    monkeypatch.setattr(fd_oracle, "MAX_TX_COLUMNS", columns - 1)
    monkeypatch.setattr(fd_oracle, "_Mesh", None)
    with pytest.raises(ValidationError, match=f"{columns} columns"):
        fd_eigenvalues(geo, grid, 1, levels)


def test_bool_count_and_levels_rejected():
    # a bool is an int to isinstance, but would pass as 1
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    with pytest.raises(ValidationError):
        fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=True)
    with pytest.raises(ValidationError):
        fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=1, levels=True)


def test_gridspec_rejects_overflowing_ratio():
    # L / h overflows a float, which the mesh rounding could not take
    with pytest.raises(ValidationError):
        GridSpec(h=5e-324, L=12.0)


def test_count_at_least_node_count_rejected():
    # the validation rectangle at h = 0.1, L = 10 has 199 x 30 interior nodes,
    # and count must stay below that
    geo = Geometry(d=1.0, windows=())
    nodes = (round(20.0 / 0.1) - 1) * (round(math.pi / 0.1) - 1)
    for count in (nodes, nodes + 1):
        with pytest.raises(ValidationError):
            fd_eigenvalues(geo, GridSpec(h=0.1, L=10.0), count=count, levels=1)


@functools.lru_cache(maxsize=None)
def _unshifted_levels(geo, grid, levels, size):
    """Per-level smallest eigenvalues from scipy's own sigma = 0 shift-invert of each level's C.

    Cached: the tests below share it for a geometry they both solve.
    """
    out = []
    for lev in range(levels):
        C = fd_assemble(_Mesh(geo, grid, 2**lev))
        v0 = np.random.default_rng(5).standard_normal(C.shape[0])
        vals = np.sort(
            scipy.sparse.linalg.eigsh(
                C, size, sigma=0.0, which="LM", tol=0.0, v0=v0, return_eigenvectors=False
            )
        )
        out.append(vals)
    return out


@pytest.mark.parametrize(
    "geo, grid, count, below_one",
    [
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), 2, 1),
        (Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),)), GridSpec(h=0.1, L=14.0), 2, 2),
        # a mirrored pair with count 1 < count_below_one 2, split by less than the
        # refinement moves it
        (
            Geometry(d=2.0, windows=(WindowSpec(-8.0, 1.0), WindowSpec(8.0, 1.0))),
            GridSpec(h=0.1, L=19.0),
            1,
            2,
        ),
    ],
)
def test_shifted_levels_match_unshifted_solve(geo, grid, count, below_one):
    # every level against scipy's shift-invert about 0 of the sparse reference C
    res = fd_eigenvalues(geo, grid, count, levels=2)
    assert res.diagnostics["count_below_one"] == below_one
    wanted = min(count, below_one)
    refs = _unshifted_levels(geo, grid, 2, wanted)
    for (_, vals), ref in zip(res.levels, refs):
        assert len(vals) == wanted
        assert np.max(np.abs(np.array(vals) - ref)) <= 1e-12
    for level in res.diagnostics["levels"]:
        # each mirror half solves for its own count's worth of eigenvalues
        assert level["converged"] == below_one
        assert level["residual_max"] < 1e-10


# geometry, grid, count and levels of the Schur-complement path's sparse reference cases
REFERENCE_CASES = {
    "oracle-fd": (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), 2, 2),
    "a=3,d=2": (Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),)), GridSpec(h=0.1, L=14.0), 2, 2),
    "pair+-4": (
        Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0))),
        GridSpec(h=0.1, L=15.0),
        2,
        2,
    ),
    "pair1.2/0.8": (
        Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.2), WindowSpec(4.0, 0.8))),
        GridSpec(h=0.1, L=16.0),
        2,
        2,
    ),
    "off-centre": (Geometry(d=2.0, windows=(WindowSpec(0.3, 1.0),)), GridSpec(h=0.1, L=12.0), 2, 2),
    # 11 steps across the window: x = 0 is no grid line, the full box is solved
    "a=0.55": (Geometry(d=math.pi, windows=(WindowSpec(0.0, 0.55),)), GridSpec(h=0.1, L=12.0), 2, 2),
    # m_dn = 1 on the coarsest mesh: the lower strip has no rows
    "d=0.1": (Geometry(d=0.1, windows=(WindowSpec(0.0, 2.0),)), GridSpec(h=0.1, L=12.0), 2, 2),
    "rectangle": (Geometry(d=1.0, windows=()), GridSpec(h=0.1, L=10.0), 2, 2),
    # a strip eigenvalue, 0.99983, lies below 1: a pole of S inside (0, 1)
    "L=60": (Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),)), GridSpec(h=0.1, L=60.0), 2, 1),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_matches_sparse_reference(case):
    # the counts below 0.9, 0.99 and 1 equal the sparse LDL^T inertia on the
    # full coarsest mesh, and every level's eigenvalues the sparse shift-invert
    # solve of that level's full mesh
    geo, grid, count, levels = REFERENCE_CASES[case]
    if geo.windows:
        mesh = _Mesh(geo, grid, 1)
        level, C = _Reduced(mesh), fd_assemble(mesh)
        for sigma in (0.9, 0.99, 1.0):
            assert level.count(sigma) == fd_count_below(C, sigma)
    if case == "L=60":
        assert np.count_nonzero(level.poles < 1.0) == 1
    res = fd_eigenvalues(geo, grid, count, levels)
    wanted = len(res.eigenvalues)
    assert wanted >= 1
    for (_, vals), ref in zip(res.levels, _unshifted_levels(geo, grid, levels, wanted)):
        assert np.max(np.abs(np.array(vals) - ref)) <= 1e-12
    assert res.diagnostics["perron"]["ok"]


def test_reductions_are_built_one_at_a_time(monkeypatch):
    # a = 1, d = 2 traps one mode, and it is even: the even half is reduced on
    # all three levels, the odd half (count 0) on the coarsest only, and each
    # reduction is released before the next one is built
    built = alive = peak = 0

    def release():
        nonlocal alive
        alive -= 1

    class Spy(_Reduced):
        def __init__(self, mesh):
            nonlocal built, alive, peak
            built += 1
            alive += 1
            peak = max(peak, alive)
            weakref.finalize(self, release)
            super().__init__(mesh)

    monkeypatch.setattr(fd_oracle, "_Reduced", Spy)
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    res = fd_eigenvalues(geo, GridSpec(0.1, 20.0), 2, levels=3)
    assert res.diagnostics["mirror"] == {"even": 1, "odd": 0}
    assert built == 4
    assert peak == 1
    assert alive == 0


def test_fine_level_takes_few_schur_evaluations(oracle_a15_dpi):
    # one count at sigma = 1 and Newton's method from there: 11 evaluations
    # of S on each level
    _, res = oracle_a15_dpi
    for level in res.diagnostics["levels"]:
        assert level["iterations"] <= 15


@pytest.mark.parametrize("failure", ["tx", "schur", "count"])
def test_fine_level_eigensolver_failure_maps_to_exit_three(single_cfg, monkeypatch, capsys, failure):
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    # the mirror-symmetric geometry's fine level is reduced on the even half only
    fine = _Reduced(_Mesh(geo, GridSpec(h=0.1, L=11.0), 2, "even"))
    size = fine.q.shape[0] if failure == "tx" else fine.window.size
    name = "eigvalsh" if failure == "count" else "eigh"
    real = getattr(np.linalg, name)

    def fail_when_fine(matrix):
        if matrix.shape[0] == size:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(matrix)

    monkeypatch.setattr(np.linalg, name, fail_when_fine)
    code = main(["oracle", single_cfg, "--h", "0.1", "--L", "11", "--count", "1", "--levels", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert {"tx": "of Tx failed", "schur": "decomposition of S(", "count": "eigenvalues of S("}[failure] in err


def test_pole_bisection_cap_raises(monkeypatch):
    # at L = 60 a strip eigenvalue, 0.99983, lies inside (0, 1): bisection on the
    # count needs four steps to move it out of the ground eigenvalue's bracket
    monkeypatch.setattr(fd_oracle, "_MAX_EVALUATIONS", 2)
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    with pytest.raises(NumericalFailureError, match="could not be separated from a strip eigenvalue"):
        fd_eigenvalues(geo, GridSpec(h=0.1, L=60.0), count=1, levels=1)


def test_factor_leaves_the_matrix_bitwise_unchanged():
    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    C = fd_assemble(_Mesh(geo, GridSpec(h=0.1, L=11.0), 1))
    before = C.copy()
    assert fd_count_below(C, 1.0) == 1
    # the shift is undone also when the factorization fails
    singular = scipy.sparse.diags([1.0, 2.0, 3.0]).tocsc()
    with pytest.raises(NumericalFailureError):
        fd_count_below(singular, 2.0)
    for got, want in ((C, before), (singular, scipy.sparse.diags([1.0, 2.0, 3.0]).tocsc())):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


# geometry, grid, count and the coarsest counts below 1 of the even and the odd half
MIRROR_CASES = {
    "a=1.5": (
        Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.1, L=12.0), 2, (1, 0)
    ),
    "a=3,d=2": (
        Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),)), GridSpec(h=0.1, L=14.0), 2, (1, 1)
    ),
    # a split pair: the even and the odd combination of the two windows' modes
    "pair+-4": (
        Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 1.0))),
        GridSpec(h=0.1, L=15.0),
        2,
        (1, 1),
    ),
}


@pytest.mark.parametrize("case", list(MIRROR_CASES))
def test_mirror_halves_match_reflected_full_mesh(case):
    # the oracle's own full mesh misses mirror symmetry by rounding (its x is
    # spaced from -L), so the reference is the full box reflected from the half:
    # reduced whole, which isolates the mirror split (1e-13), and by the sparse
    # reference, whose entries and eigensolver round differently (1e-12)
    geo, grid, count, (even, odd) = MIRROR_CASES[case]
    res = fd_eigenvalues(geo, grid, count, levels=2)
    assert res.diagnostics["mirror"] == {"even": even, "odd": odd}
    assert res.diagnostics["count_below_one"] == even + odd
    wanted = min(count, res.diagnostics["count_below_one"])
    refs, ground = oracles.reflected_full_levels(geo, grid, 2, wanted)
    for lev, ((_, vals), ref) in enumerate(zip(res.levels, refs)):
        whole = _Reduced(oracles.reflected_full_mesh(geo, grid, 2**lev))
        assert whole.count(1.0) == even + odd
        reduced, _ = whole.lowest(wanted, even + odd)
        assert len(vals) == wanted
        assert np.max(np.abs(np.array(vals) - reduced)) <= 1e-13
        assert np.max(np.abs(np.array(vals) - ref)) <= 1e-12
    for i, ext in enumerate(res.extrapolated):
        want = richardson_extrapolate([(h, ref[i]) for (h, _), ref in zip(res.levels, refs)])
        assert abs(ext - want.lambda_star) <= 1e-12
    perron = fd_oracle._perron_check(ground)
    assert res.diagnostics["perron"]["ok"] is perron["ok"] is True
    assert abs(res.diagnostics["perron"]["min_over_max"] - perron["min_over_max"]) <= 1e-9
    for lev, level in enumerate(res.diagnostics["levels"]):
        assert level["nodes"] == _node_count(geo, grid, 2**lev)
        assert level["converged"] >= wanted


@pytest.mark.parametrize("case", list(MIRROR_CASES))
def test_mirror_counts_add_up_to_full_count(case):
    geo, grid, _, _ = MIRROR_CASES[case]
    full = fd_assemble(_Mesh(geo, grid, 1))
    halves = [_Reduced(_Mesh(geo, grid, 1, parity)) for parity in ("even", "odd")]
    for sigma in (0.999, 1.0):
        assert sum(level.count(sigma) for level in halves) == fd_count_below(full, sigma)


@pytest.mark.parametrize(
    "geo, grid",
    [
        # unequal mirrored pair
        (Geometry(d=2.0, windows=(WindowSpec(-4.0, 1.2), WindowSpec(4.0, 0.8))), GridSpec(h=0.1, L=16.0)),
        # off-centre window
        (Geometry(d=2.0, windows=(WindowSpec(0.3, 1.0),)), GridSpec(h=0.1, L=12.0)),
        # centred, but 2a / h = 11 steps: x = 0 is no grid line
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 0.55),)), GridSpec(h=0.1, L=12.0)),
        (Geometry(d=1.0, windows=()), GridSpec(h=0.1, L=10.0)),
    ],
)
def test_unmirrored_geometries_solve_the_full_box(geo, grid, monkeypatch):
    parities = []
    real_mesh = fd_oracle._Mesh

    def spy(geometry, grid, refine, parity=None):
        parities.append(parity)
        return real_mesh(geometry, grid, refine, parity)

    monkeypatch.setattr(fd_oracle, "_Mesh", spy)
    res = fd_eigenvalues(geo, grid, 2, levels=2)
    monkeypatch.undo()
    assert parities == [None, None]
    assert res.diagnostics["mirror"] is None
    assert len(res.eigenvalues) >= 1
    # the coarsest level holds the full box's lowest eigenvalues
    vals, _, _ = fd_eigenpairs_near(fd_assemble(_Mesh(geo, grid, 1)), len(res.eigenvalues), 0.0)
    assert np.max(np.abs(np.array(res.eigenvalues) - vals)) <= 1e-12


def _mirror_length(draw, lo, hi):
    """A length in [lo, hi] of an even number of steps h = 0.1, so that x = 0 is a grid line.

    Drawn as a step count, not a float moved onto one: a float near an odd
    half-step could round either way in the mesh's own step count.
    """
    return 0.2 * draw(st.integers(math.ceil(lo / 0.2), math.floor(hi / 0.2)))


@st.composite
def _mirrored_geometries(draw):
    d = draw(st.floats(0.1, math.pi))
    if draw(st.booleans()):
        a = 0.5 * _mirror_length(draw, 0.6, 6.0)
        return Geometry(d=d, windows=(WindowSpec(0.0, a),))
    a = draw(st.floats(0.3, 2.0))
    centre = a + 0.5 * _mirror_length(draw, 0.3, 3.0)
    return Geometry(d=d, windows=(WindowSpec(-centre, a), WindowSpec(centre, a)))


@st.composite
def _asymmetric_geometries(draw):
    """An off-centre window, or a pair of unequal windows at any offset."""
    d = draw(st.floats(0.1, math.pi))
    if draw(st.booleans()):
        return Geometry(d=d, windows=(WindowSpec(draw(st.floats(0.1, 2.0)), draw(st.floats(0.3, 3.0))),))
    a, b = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    left = draw(st.floats(-2.0, 2.0)) - a
    right = left + a + draw(st.floats(0.3, 3.0)) + b
    return Geometry(d=d, windows=(WindowSpec(left, a), WindowSpec(right, b)))


def _galerkin_count(geo, lam):
    m = assemble_galerkin(lam, geo, SolverSettings()).matrix
    return int(np.count_nonzero(np.linalg.eigvalsh(m) <= 0.0))


def _fd_grid(geo):
    """h = 0.1, with the walls 10 beyond the outermost window edge."""
    return GridSpec(h=0.1, L=max(max(abs(w.left), abs(w.right)) for w in geo.windows) + 10.0)


def _assert_counts_agree(geo, counts):
    # FD at h = 0.1 lies 5e-3 to 8e-3 above the Galerkin value and the box
    # raises it further, so a Galerkin root in the guard band [0.92, 0.955]
    # may count on one side only; there the Galerkin comparison is left out
    full = fd_assemble(_Mesh(geo, _fd_grid(geo), 1))
    for sigma, count in counts.items():
        assert count == fd_count_below(full, sigma)
    if _galerkin_count(geo, 0.92) == _galerkin_count(geo, 0.955):
        assert counts[0.95] == _galerkin_count(geo, 0.95)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(geo=_mirrored_geometries())
def test_mirrored_count_matches_full_mesh_and_galerkin(geo):
    # four inertia counts of one geometry: the two FD halves' Schur complements
    # together, the FD full box's, the sparse LDL^T of the full box, and the
    # Galerkin M(0.95), which decreases in lambda
    grid = _fd_grid(geo)
    assert fd_oracle._half_segments(geo, fd_oracle._subdivisions(geo, grid)[0]) is not None
    halves = [_Reduced(_Mesh(geo, grid, 1, parity)) for parity in ("even", "odd")]
    full = _Reduced(_Mesh(geo, grid, 1))
    counts = {}
    for sigma in (0.95, 1.0):
        counts[sigma] = sum(level.count(sigma) for level in halves)
        assert counts[sigma] == full.count(sigma)
    _assert_counts_agree(geo, counts)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(geo=_asymmetric_geometries())
def test_asymmetric_count_matches_full_mesh_and_galerkin(geo):
    # three inertia counts of a geometry with no mirror halves: the Schur
    # complement's, the sparse LDL^T's and the Galerkin M(0.95)'s
    level = _Reduced(_Mesh(geo, _fd_grid(geo), 1))
    _assert_counts_agree(geo, {sigma: level.count(sigma) for sigma in (0.95, 1.0)})
