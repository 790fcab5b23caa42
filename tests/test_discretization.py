"""The default discretization against a pinned 24-point reference.

Roots, c coefficients and verify verdicts at the default settings
(basis order 32, 12 Gauss points per panel) must match those at 24 points
per panel.  The geometries include a = 0.1/d = 0.5, a = 6/d = 0.5 and
a = 8/d = pi, where basis order 16 is not enough: it fails the branch
residual check on the first and is off by 1e-11 to 1e-10 on the others.
At a = 4/d = 0.1 basis order 24 is off by 3e-10.  A cut of either default
that loses accuracy fails here.
"""

import math

import pytest

from winguide.experiments import DEFAULT_DOUBLE_CONFIG, DEFAULT_SIMPLE_CONFIG, verify_report
from winguide.geometry import Geometry, SolverSettings, WindowSpec
from winguide.waveguide import compute_modes

# pinned in full, so that a change of either default is measured against it
REFERENCE = SolverSettings(basis_order=32, panel_points=24)

GEOMETRIES = {
    "a=1, d=2": (2.0, ((0.0, 1.0),)),
    "a=1.5, d=pi": (math.pi, ((0.0, 1.5),)),
    "a=3, d=2": (2.0, ((0.0, 3.0),)),
    "a=0.6, d=2": (2.0, ((0.0, 0.6),)),
    "a=0.5, d=0.5": (0.5, ((0.0, 0.5),)),
    "a=0.1, d=0.5": (0.5, ((0.0, 0.1),)),
    "a=6, d=0.5": (0.5, ((0.0, 6.0),)),
    "a=8, d=pi": (math.pi, ((0.0, 8.0),)),
    "a=4, d=0.1": (0.1, ((0.0, 4.0),)),
    "pair a=1 at +-4, d=2": (2.0, ((-4.0, 1.0), (4.0, 1.0))),
    "pair 1.2/0.8 at +-2.5, d=2": (2.0, ((-2.5, 1.2), (2.5, 0.8))),
}


@pytest.mark.parametrize("name", GEOMETRIES)
def test_default_quadrature_matches_24_points(name):
    d, windows = GEOMETRIES[name]
    geometry = Geometry(d=d, windows=tuple(WindowSpec(c, a) for c, a in windows))
    got = compute_modes(geometry)
    want = compute_modes(geometry, REFERENCE)
    assert len(got) == len(want) > 0
    for mode, ref in zip(got, want):
        assert abs(mode.lam - ref.lam) <= 1e-12
        assert mode.parity == ref.parity
        if ref.c_coeff is None:
            assert mode.c_coeff is None
        else:
            assert mode.c_coeff == pytest.approx(ref.c_coeff, rel=1e-10)


@pytest.mark.parametrize(
    "config", [DEFAULT_DOUBLE_CONFIG, DEFAULT_SIMPLE_CONFIG], ids=["double", "simple"]
)
def test_default_verify_bundle_matches_24_points(config):
    got = verify_report(dict(config))
    want = verify_report(
        {**config, "settings": {"basis_order": 32, "quadrature": {"panel_points": 24}}}
    )
    assert {k: v["pass"] for k, v in got.verdicts.items()} == {
        k: v["pass"] for k, v in want.verdicts.items()
    }
    assert len(got.sweep) == len(want.sweep)
    for record, ref in zip(got.sweep, want.sweep):
        assert record.l == ref.l
        assert len(record.eigenvalues) == len(ref.eigenvalues)
        for lam, lam_ref in zip(record.eigenvalues, ref.eigenvalues):
            assert abs(lam - lam_ref) <= 1e-12
    assert len(got.u_problem) == len(want.u_problem)
    for entry, ref in zip(got.u_problem, want.u_problem):
        assert entry["c"] == pytest.approx(ref["c"], rel=1e-10)
