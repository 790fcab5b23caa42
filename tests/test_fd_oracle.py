"""Tests for the finite-difference oracle and its Richardson extrapolation."""

import json
import math

import numpy as np
import pytest

import oracles
from winguide import fd_oracle
from winguide.assembly import assemble_galerkin
from winguide.cli import main
from winguide.errors import InsufficientDataError, NumericalFailureError, ValidationError
from winguide.fd_oracle import (
    MAX_MESH_NODES,
    Extrapolation,
    GridSpec,
    _assemble,
    _count_below,
    _Mesh,
    _node_count,
    fd_eigenvalues,
    richardson_extrapolate,
)
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
    # the dataclass unpacks as a (value, error) pair
    lam, err = ext
    assert (lam, err) == (ext.lambda_star, ext.error_estimate)


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
    # one FD eigenvalue lies below 1, so ARPACK solves for that one alone;
    # asking for two took 90 solves per level, the second chasing the continuum
    assert res.diagnostics["count_below_one"] == 1
    for level in res.diagnostics["levels"]:
        assert level["converged"] == 1
        assert 0 < level["iterations"] < 60
        assert level["residual_max"] < 1e-10


def test_repeated_calls_bitwise_equal(oracle_a15_dpi):
    geo, res = oracle_a15_dpi
    again = fd_eigenvalues(geo, GridSpec(h=0.1, L=12.0), count=2, levels=2)
    assert again.levels == res.levels


def test_arpack_no_convergence_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    cfg = tmp_path / "single.json"
    cfg.write_text(json.dumps({"d": 2.0, "windows": [{"center": 0.0, "half_width": 1.0}]}))
    code = main(["oracle", str(cfg), "--h", "0.1", "--L", "11", "--count", "1", "--levels", "1"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "a, d, L, galerkin_count",
    [(1.0, 2.0, 20.0, 1), (1.5, math.pi, 12.0, 1), (3.0, 2.0, 14.0, 2)],
)
def test_count_below_matches_galerkin_inertia(a, d, L, galerkin_count):
    # two independent inertia counts of the modes below 0.999: the FD LDL^T
    # and the Galerkin M(0.999), which decreases in lambda. (a = 2.7, d = 2 is
    # left out: its 0.99849 mode has kappa ~ 0.039 and does not fit the FD box.)
    geo = Geometry(d=d, windows=(WindowSpec(0.0, a),))
    C = _assemble(_Mesh(geo, GridSpec(h=0.05, L=L), 1))
    m = assemble_galerkin(0.999, geo, SolverSettings()).matrix
    assert np.count_nonzero(np.linalg.eigvalsh(m) <= 0.0) == galerkin_count
    assert _count_below(C, 0.999) == galerkin_count


def test_count_below_matches_wide_eigsh():
    from scipy.sparse.linalg import eigsh

    geo = Geometry(d=2.0, windows=(WindowSpec(0.0, 3.0),))
    C = _assemble(_Mesh(geo, GridSpec(h=0.1, L=13.0), 1))
    vals = np.sort(eigsh(C, 5, sigma=0.0, which="LM", return_eigenvectors=False))
    assert vals[-1] > 1.0
    assert _count_below(C, 1.0) == np.count_nonzero(vals < 1.0) == 2
    # between consecutive eigenvalues the count is the number below
    for k, sigma in enumerate(0.5 * (vals[:-1] + vals[1:]), start=1):
        assert _count_below(C, sigma) == k


def test_no_interface_node_gives_empty_result_without_eigsh(monkeypatch):
    import scipy.sparse.linalg

    def no_call(*args, **kwargs):
        raise AssertionError("eigsh must not run when no mode lies below 1")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_call)
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


def test_pivoted_count_maps_to_exit_three(single_cfg, monkeypatch, capsys):
    import scipy.sparse.linalg

    class Pivoted:
        def __init__(self, n):
            self.perm_c = np.arange(n)
            self.perm_r = self.perm_c[::-1].copy()

    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A, **kw: Pivoted(A.shape[0]))
    code = main(["oracle", single_cfg, "--h", "0.1", "--L", "11", "--count", "1", "--levels", "1"])
    assert code == 3
    assert "off-diagonal pivots" in capsys.readouterr().err


def test_singular_shift_raises():
    from scipy import sparse

    with pytest.raises(NumericalFailureError):
        _count_below(sparse.diags([1.0, 2.0, 3.0]).tocsc(), 2.0)


@pytest.mark.parametrize(
    "geo, grid",
    [
        (Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),)), GridSpec(h=0.1, L=11.0)),
        (Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.5),)), GridSpec(h=0.07, L=12.0)),
        (Geometry(d=1.0, windows=(WindowSpec(-4.0, 1.0), WindowSpec(4.0, 0.02))), GridSpec(h=0.1, L=15.3)),
        (Geometry(d=1.0, windows=()), GridSpec(h=0.1, L=10.0)),
    ],
)
def test_node_count_matches_mesh(geo, grid):
    for refine in (1, 2, 4):
        assert _node_count(geo, grid, refine) == _Mesh(geo, grid, refine).n_nodes


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
    C = _assemble(mesh)
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
    monkeypatch.setattr(fd_oracle, "_assemble", no_mesh)
    assert main(["oracle", single_cfg, "--L", "12", "--count", "1", *options]) == 2
    assert f"more than {MAX_MESH_NODES}" in capsys.readouterr().err


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
    # the validation rectangle at h = 0.1, L = 10 has 199 x 30 interior nodes;
    # ARPACK needs count < nodes
    geo = Geometry(d=1.0, windows=())
    nodes = (round(20.0 / 0.1) - 1) * (round(math.pi / 0.1) - 1)
    for count in (nodes, nodes + 1):
        with pytest.raises(ValidationError):
            fd_eigenvalues(geo, GridSpec(h=0.1, L=10.0), count=count, levels=1)
