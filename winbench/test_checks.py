"""Tests of the benchmark's own checks, tracer and per-layer reporting.

Run from the repository root with ``python3 -m pytest winbench``. Each check
must pass a well-formed output built from the closed forms (with a realistic
higher-order remainder) and reject the same output after one deliberate
corruption: an eigenvalue moved by 2e-3, a parity label swapped, a monotone
sequence reversed, or a decay rate off by 5%. No winguide import is needed.
"""

import json
import math
import pathlib
import types

import pytest

import checks
import child
import run
from tracer import Tracer

# single-window data of the default configs (a=1, d=2; a=1.2 and a=0.8, d=2)
LAM_D, C_D = 0.934889771227259, 0.39615024725481757
LAM_S, C_S, C_OTHER = 0.8850111499964259, 0.45112082202870385, -0.9765537471539455
LAM_P, C_P = 0.9710272613088602, 0.3270392302359242


def _double_bundle(rate_scale=1.0):
    kappa = math.sqrt(1.0 - LAM_D)
    two_mu = 2.0 * math.pi * kappa * C_D ** 2
    ls = [4.0, 5.0, 6.0, 7.0, 8.0]
    gaps = [two_mu * math.exp(-2 * kappa * l) * (1 + 0.5 * math.exp(-2 * kappa * l)) for l in ls]
    gaps = [gaps[0] * (g / gaps[0]) ** rate_scale for g in gaps]
    return {
        "config": {"d": 2.0},
        "single_windows": {"minus": {"modes": [{"lambda": LAM_D, "c": C_D}]}},
        "sweep": [
            {"l": l, "eigenvalues": [LAM_D - 0.55 * g, LAM_D + 0.45 * g],
             "parities": ["even", "odd"]}
            for l, g in zip(ls, gaps)
        ],
    }


def _simple_bundle(rate_scale=1.0):
    kappa = math.sqrt(1.0 - LAM_S)
    mu = math.pi * kappa * C_S ** 2 * C_OTHER
    ls = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    shifts = [mu * math.exp(-4 * kappa * l) * (1 - 0.3 * math.exp(-kappa * l)) for l in ls]
    shifts = [shifts[0] * (s / shifts[0]) ** rate_scale for s in shifts]
    return {
        "config": {"d": 2.0},
        "single_windows": {
            "minus": {"modes": [{"lambda": LAM_S, "c": C_S}]},
            "plus": {"modes": [{"lambda": LAM_P, "c": C_P}]},
        },
        "u_problem": [
            {"lambda_star": LAM_S, "host_side": "minus", "c": C_OTHER, "energy_residual": 4.5e-10},
            {"lambda_star": LAM_P, "host_side": "plus", "c": 1.945, "energy_residual": 1.3e-10},
        ],
        "sweep": [
            {"l": l, "eigenvalues": [LAM_S + s, LAM_P - 0.1 * math.exp(-l)],
             "parities": ["none", "none"]}
            for l, s in zip(ls, shifts)
        ],
    }


def _lam1(a, d):
    return 1.0 - 0.03 * a ** 1.5 * d


def _modes_results():
    out = []
    for d in (2.0, math.pi):
        for a in (0.6, 1.0, 1.5, 2.0, 2.8):
            lams = [_lam1(a, d)]
            if a * d > 5.0:
                lams.append(1.0 - 0.01 * (a * d - 5.0))
            out.append({"a": a, "d": d, "lambdas": lams,
                        "parities": ["even", "odd"][: len(lams)]})
    return out


MODES_REFERENCE = {
    "a=1.0,d=2.0": {"half_width": 1.0, "d": 2.0,
                    "fd_extrapolated": [_lam1(1.0, 2.0) + 3e-4]},
    "a=1.5,d=pi": {"half_width": 1.5, "d": math.pi,
                   "fd_extrapolated": [_lam1(1.5, math.pi) - 1e-4]},
}
SPECTRAL = [0.6855742534813472]
ORACLE_INPUTS = {"geometry": {"windows": [{"half_width": 1.5}]}, "L": 12.0}


def _oracle_output():
    coarse = [lam + 0.1023 * 0.1 ** 0.977 for lam in SPECTRAL]
    fine = [lam + 0.1023 * 0.05 ** 0.977 for lam in SPECTRAL]
    return {
        "levels": [[0.1, coarse], [0.05, fine]],
        "extrapolated": [f + (f - c) / 3.0 for c, f in zip(coarse, fine)],
    }


# --- well-formed outputs pass ----------------------------------------------

def test_well_formed_outputs_pass():
    assert checks.check_verify_double(_double_bundle()) == []
    assert checks.check_verify_simple(_simple_bundle()) == []
    assert checks.check_modes_widths(_modes_results(), MODES_REFERENCE) == []
    assert checks.check_oracle_fd(_oracle_output(), SPECTRAL, ORACLE_INPUTS) == []


# --- verify-double ---------------------------------------------------------

@pytest.mark.parametrize("index, root", [(0, 0), (2, 1), (4, 1)])
def test_double_rejects_moved_eigenvalue(index, root):
    bundle = _double_bundle()
    bundle["sweep"][index]["eigenvalues"][root] += 2e-3
    assert checks.check_verify_double(bundle)


def test_double_rejects_swapped_parity():
    bundle = _double_bundle()
    bundle["sweep"][3]["parities"] = ["odd", "even"]
    assert checks.check_verify_double(bundle)


def test_double_rejects_reversed_gaps():
    bundle = _double_bundle()
    eigs = [rec["eigenvalues"] for rec in bundle["sweep"]]
    for rec, e in zip(bundle["sweep"], reversed(eigs)):
        rec["eigenvalues"] = e
    assert checks.check_verify_double(bundle)


@pytest.mark.parametrize("scale", [0.95, 1.05])
def test_double_rejects_rate_off_by_5_percent(scale):
    assert checks.check_verify_double(_double_bundle(rate_scale=scale))


# --- verify-simple ---------------------------------------------------------

# A +2e-3 move at l=2.5 is not among these: there the shift (-6.4e-3) is
# within the law's O(l^2 e^{-8 kappa l}) remainder, and only the first local
# rate changes, which no check constrains from below (see README).
@pytest.mark.parametrize("index, delta", [(0, -2e-3), (1, 2e-3), (2, 2e-3), (5, -2e-3)])
def test_simple_rejects_moved_eigenvalue(index, delta):
    bundle = _simple_bundle()
    bundle["sweep"][index]["eigenvalues"][0] += delta
    assert checks.check_verify_simple(bundle)


def test_simple_rejects_reversed_shifts():
    bundle = _simple_bundle()
    eigs = [rec["eigenvalues"] for rec in bundle["sweep"]]
    for rec, e in zip(bundle["sweep"], reversed(eigs)):
        rec["eigenvalues"] = e
    assert checks.check_verify_simple(bundle)


@pytest.mark.parametrize("scale", [0.95, 1.05])
def test_simple_rejects_rate_off_by_5_percent(scale):
    assert checks.check_verify_simple(_simple_bundle(rate_scale=scale))


def test_simple_rejects_energy_residual():
    bundle = _simple_bundle()
    bundle["u_problem"][1]["energy_residual"] = 2e-6
    assert checks.check_verify_simple(bundle)


# --- modes-widths ----------------------------------------------------------

@pytest.mark.parametrize("index", [1, 7])      # a=1 at d=2, a=1.5 at d=pi
def test_modes_rejects_moved_eigenvalue(index):
    results = _modes_results()
    results[index]["lambdas"][0] += 2e-3
    assert checks.check_modes_widths(results, MODES_REFERENCE)


def test_modes_rejects_swapped_parity():
    results = _modes_results()
    results[9]["parities"] = ["odd", "even"]
    assert checks.check_modes_widths(results, MODES_REFERENCE)


def test_modes_rejects_reversed_width_sequence():
    results = _modes_results()
    first_pass = [r["lambdas"] for r in results[:5]]
    for r, lams in zip(results[:5], reversed(first_pass)):
        r["lambdas"] = lams
    assert checks.check_modes_widths(results, MODES_REFERENCE)


def test_modes_rejects_reversed_depth_order():
    results = _modes_results()
    for lo, hi in zip(results[:5], results[5:]):
        lo["lambdas"], hi["lambdas"] = hi["lambdas"], lo["lambdas"]
        lo["parities"], hi["parities"] = hi["parities"], lo["parities"]
    assert checks.check_modes_widths(results, MODES_REFERENCE)


# --- oracle-fd -------------------------------------------------------------

@pytest.mark.parametrize("where", ["extrapolated", "coarse", "fine"])
@pytest.mark.parametrize("delta", [2e-3, -2e-3])
def test_oracle_rejects_moved_eigenvalue(where, delta):
    output = _oracle_output()
    if where == "extrapolated":
        output["extrapolated"][0] += delta
    else:
        output["levels"][0 if where == "coarse" else 1][1][0] += delta
    assert checks.check_oracle_fd(output, SPECTRAL, ORACLE_INPUTS)


def test_oracle_rejects_reversed_levels():
    output = _oracle_output()
    output["levels"].reverse()
    assert checks.check_oracle_fd(output, SPECTRAL, ORACLE_INPUTS)


def test_oracle_rejects_missing_eigenvalue():
    output = _oracle_output()
    assert checks.check_oracle_fd(output, SPECTRAL + [0.99], ORACLE_INPUTS)


# --- tracer and per-layer reporting ----------------------------------------

def test_tracer_wraps_every_module_holding_a_function():
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return base.leaf(x) * 2

    leaf.__module__ = base.__name__
    outer.__module__ = base.__name__
    base.leaf, base.outer = leaf, outer
    user.leaf = leaf                          # imported by name, as winguide modules do
    tracer = Tracer()
    tracer.install({base.__name__: base, user.__name__: user})
    assert user.leaf(1) == 2 and base.outer(1) == 4
    totals = tracer.totals()
    assert totals["base.leaf"]["calls"] == 2
    assert tracer.calls_within("base.leaf", "base.outer") == 1
    assert totals["base.outer"]["self_s"] <= totals["base.outer"]["s"]


def test_missing_layers_are_reported_absent():
    values, absent = child._layer_metrics(Tracer())
    assert values == {}
    assert set(absent) == set(run.PER_LAYER)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
