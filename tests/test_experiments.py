"""Tests for sweep orchestration, exponential fits, overlap diagnostics, and the CSV export."""

import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from winguide.assembly import basis_overlap_gram
from winguide.errors import InsufficientDataError, ValidationError
from winguide.experiments import (
    DEFAULT_DOUBLE_CONFIG,
    DEFAULT_SIMPLE_CONFIG,
    SweepConfig,
    SweepRecord,
    _overlap_diagnostics,
    fit_exponential,
    parse_experiment_config,
    sweep_l,
    write_sweep_csv,
)
from winguide.waveguide import TraceFunction

LAMBDA1_A1_D2 = 0.934889771227259


def _decay_samples(rate, log_prefactor, ls):
    return [(l, math.exp(log_prefactor - rate * l)) for l in ls]


def test_fit_exponential_exact():
    fit = fit_exponential(_decay_samples(1.7, 3.0, [5.0, 6.0, 7.0, 8.0]))
    assert fit.rate == pytest.approx(1.7, abs=1e-12)
    assert fit.log_prefactor == pytest.approx(3.0, abs=1e-11)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples == 4
    assert fit.l_range == (5.0, 8.0)
    assert not fit.sign_mixed


def test_fit_exponential_band_filter():
    samples = _decay_samples(1.7, 3.0, [5.0, 6.0, 7.0, 8.0])
    samples.append((1.0, 0.5))        # above the ceiling: preasymptotic
    samples.append((40.0, 1e-15))     # below the floor: quadrature noise
    fit = fit_exponential(samples)
    assert fit.n_samples == 4
    assert fit.rate == pytest.approx(1.7, abs=1e-12)
    assert fit.l_range == (5.0, 8.0)


def test_fit_exponential_custom_band():
    samples = _decay_samples(0.9, 1.0, [1.0, 2.0, 3.0])
    fit = fit_exponential(samples, floor=1e-30, ceiling=10.0)
    assert fit.rate == pytest.approx(0.9, abs=1e-12)


def test_fit_exponential_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_exponential(_decay_samples(1.7, 3.0, [5.0, 6.0]))
    with pytest.raises(InsufficientDataError):
        fit_exponential([(l, 1e-14) for l in (4.0, 5.0, 6.0, 7.0)])


def test_fit_exponential_noise_robustness():
    rng = np.random.default_rng(20260817)
    samples = [
        (l, d * math.exp(rng.uniform(-1e-3, 1e-3)))
        for l, d in _decay_samples(1.7, 3.0, [5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0])
    ]
    fit = fit_exponential(samples)
    assert fit.rate == pytest.approx(1.7, abs=1e-2)
    assert fit.r_squared > 0.999


def test_fit_exponential_sign_mixed_flag():
    samples = [
        (l, (-1.0) ** i * d)
        for i, (l, d) in enumerate(_decay_samples(1.7, 3.0, [5.0, 6.0, 7.0, 8.0]))
    ]
    fit = fit_exponential(samples)
    assert fit.sign_mixed
    assert fit.rate == pytest.approx(1.7, abs=1e-12)


def test_parse_experiment_config_defaults():
    config, l_values, settings = parse_experiment_config(dict(DEFAULT_DOUBLE_CONFIG))
    assert config.case == "double"
    assert config.a_minus == config.a_plus == 1.0
    assert l_values == (4.0, 5.0, 6.0, 7.0, 8.0)
    assert settings.basis_order > 0

    config, l_values, _ = parse_experiment_config(dict(DEFAULT_SIMPLE_CONFIG))
    assert config.case == "simple"
    assert l_values[0] == 2.5


def test_parse_experiment_config_json_text():
    text = '{"a_minus": 1.0, "a_plus": 1.0, "d": 2.0, "l_values": [4, 5], "settings": {"basis_order": 16}}'
    config, l_values, settings = parse_experiment_config(text)
    assert config.case == "double"
    assert l_values == (4.0, 5.0)
    assert settings.basis_order == 16


def test_parse_experiment_config_rejections():
    base = {"a_minus": 1.0, "a_plus": 1.0, "d": 2.0, "l_values": [4.0]}
    with pytest.raises(ValidationError):
        parse_experiment_config({**base, "bogus": 1})
    with pytest.raises(ValidationError):
        parse_experiment_config({k: v for k, v in base.items() if k != "a_minus"})
    with pytest.raises(ValidationError):
        parse_experiment_config({**base, "case": "simple"})
    with pytest.raises(ValidationError):
        parse_experiment_config({**base, "l_values": []})
    with pytest.raises(ValidationError):
        parse_experiment_config({**base, "settings": 3})
    with pytest.raises(ValidationError):
        parse_experiment_config("[1, 2]")
    with pytest.raises(ValidationError):
        parse_experiment_config("{not json")
    with pytest.raises(ValidationError):
        parse_experiment_config({**base, "d": 4.0})


def test_sweep_config_properties():
    assert SweepConfig(1.0, 1.0, 2.0).case == "double"
    assert SweepConfig(1.2, 0.8, 2.0).case == "simple"
    with pytest.raises(ValidationError):
        SweepConfig(0.0, 1.0, 2.0)
    geo = SweepConfig(1.2, 0.8, 2.0).geometry(3.0)
    assert [w.center for w in geo.windows] == [-3.0, 3.0]
    assert [w.half_width for w in geo.windows] == [1.2, 0.8]


def test_sweep_separation_precondition():
    config = SweepConfig(1.0, 1.0, 2.0)
    with pytest.raises(ValidationError):
        sweep_l(config, [1.5])
    with pytest.raises(ValidationError):
        sweep_l(config, [])
    with pytest.raises(ValidationError):
        sweep_l("not a config", [4.0])


def _record_double():
    return SweepRecord(
        l=4.0,
        eigenvalues=(0.921, 0.999),
        element_index=(0, -1),
        lambda_star=(0.9349, math.nan),
        shifts=(-0.0139, math.nan),
        predictions=({"double_plus": 0.9209, "double_minus": 0.9206}, {}),
        residuals=(0.0004, math.nan),
        overlaps=({"residual": 1e-05, "weights": {"minus": 0.7, "plus": 0.7}}, {}),
        parities=("even", "none"),
        flags=("unmatched root at lambda=0.999",),
    )


def _record_simple():
    return SweepRecord(
        l=2.5,
        eigenvalues=(0.88,),
        element_index=(0,),
        lambda_star=(0.885,),
        shifts=(-0.005,),
        predictions=({"printed": 0.8845, "derived": 0.8843},),
        residuals=(-0.0007,),
        overlaps=({"residual": 0.002, "weights": {"minus": 1.0}},),
        parities=("none",),
        flags=(),
    )


GOLDEN_CSV = (
    "l,index,lambda,lambda_star,delta,pred_printed,pred_derived,"
    "pred_double_plus,pred_double_minus,overlap_residual\n"
    "4.0,1,0.921,0.9349,-0.0139,,,0.9209,0.9206,1e-05\n"
    "4.0,2,0.999,,,,,,,\n"
    "2.5,1,0.88,0.885,-0.005,0.8845,0.8843,,,0.002\n"
)


def test_sweep_csv_golden():
    records = [_record_double(), _record_simple()]
    buf = io.StringIO()
    write_sweep_csv(records, buf)
    assert buf.getvalue() == GOLDEN_CSV


def test_sweep_record_roundtrip():
    rec = _record_double()
    data = rec.to_dict()
    assert data["l"] == 4.0
    assert data["element_index"] == [0, -1]
    assert data["flags"] == ["unmatched root at lambda=0.999"]


def test_mini_double_sweep_structure():
    config = SweepConfig(1.0, 1.0, 2.0)
    records = sweep_l(config, [6.0])
    assert len(records) == 1
    rec = records[0]
    assert rec.l == 6.0
    assert len(rec.eigenvalues) == 2
    assert rec.element_index == (0, 0)
    assert rec.flags == ()
    assert rec.parities == ("even", "odd")
    assert rec.lambda_star == (pytest.approx(LAMBDA1_A1_D2, abs=1e-9),) * 2

    # the pair straddles lambda*: lower root even, upper root odd
    assert rec.shifts[0] < 0.0 < rec.shifts[1]
    for i in range(2):
        pred = rec.predictions[i]
        assert set(pred) == {"double_plus", "double_minus"}
        assigned = pred["double_minus"] if i == 0 else pred["double_plus"]
        assert rec.residuals[i] == pytest.approx(
            rec.eigenvalues[i] - assigned, abs=1e-15
        )
        # leading-order law holds to the subleading remainder at l = 6
        assert abs(rec.residuals[i]) <= 2e-3
        assert rec.overlaps[i]["residual"] <= 0.05
        w = rec.overlaps[i]["weights"]
        assert abs(abs(w["minus"]) - abs(w["plus"])) <= 0.1 * abs(w["minus"])


@pytest.mark.parametrize("hosts", [("minus", "plus"), ("minus",)])
def test_overlap_residual_accurate_near_a_host_trace(hosts):
    # x = +-c + e on each window with e g-orthogonal to c (up to a 2^-50 grid
    # that keeps c + e exact), so the residual is known in closed form and is
    # ~1e-5 of the norm: a difference of squared norms would cancel ~10 digits.
    order, eps = 32, 1e-5
    rng = np.random.default_rng(20261019)
    g = basis_overlap_gram(1.0, order)
    c = rng.integers(-1024, 1025, order) / 1024.0
    blocks, expected_sq = [], 0.0
    for side, sign in (("minus", 1.0), ("plus", -1.0)):
        v = rng.standard_normal(order)
        r = v - (c @ g @ v) / (c @ g @ c) * c
        e = np.round(eps * r * 2.0**50) * 2.0**-50
        if side in hosts:
            x = sign * c + e
            expected_sq += e @ g @ e - (c @ g @ e) ** 2 / (c @ g @ c)
        else:
            x = e
            expected_sq += e @ g @ e
        blocks.append(x)
    norm_sq = sum(x @ g @ x for x in blocks)
    trace = TraceFunction(
        lam=0.9,
        geometry=SweepConfig(1.0, 1.0, 2.0).geometry(4.0),
        coeffs=tuple(tuple(x) for x in blocks),
    )
    got = _overlap_diagnostics(trace, {side: c for side in hosts}, (g, g))
    expected = math.sqrt(expected_sq / norm_sq)
    assert abs(got["residual"] / expected - 1.0) <= 1e-12
    assert got["weights"] == {
        side: pytest.approx(sign, abs=1e-9)
        for side, sign in (("minus", 1.0), ("plus", -1.0))
        if side in hosts
    }


_BUNDLE_SUMMARY = """
import json, sys
from winguide.experiments import DEFAULT_DOUBLE_CONFIG, DEFAULT_SIMPLE_CONFIG, verify_report
summary = []
for config in (DEFAULT_DOUBLE_CONFIG, DEFAULT_SIMPLE_CONFIG):
    bundle = verify_report(json.dumps(config)).to_dict()
    singles = [m["lambda"] for side in bundle["single_windows"].values() for m in side["modes"]]
    summary.append({
        "verdicts": {name: v["pass"] for name, v in bundle["verdicts"].items()},
        "eigenvalues": [singles] + [rec["eigenvalues"] for rec in bundle["sweep"]],
    })
json.dump(summary, sys.stdout)
"""


_ORACLE_SUMMARY = """
import json, sys
from winguide.fd_oracle import GridSpec, fd_eigenvalues
from winguide.geometry import Geometry, WindowSpec
geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
res = fd_eigenvalues(geometry, GridSpec(h=0.1, L=20.0), 2, levels=3)
json.dump({
    "levels": [values for _, values in res.levels],
    "extrapolated": res.extrapolated,
    "diagnostics": res.diagnostics,
}, sys.stdout)
"""


def _at_blas_thread_counts(script: str) -> list:
    """The JSON that `script` prints in a child process at 1 and at 2 BLAS threads."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(result.stdout))
    return runs


def test_verify_bundles_agree_across_blas_thread_counts():
    # The contract as it holds: bundles are bitwise reproducible only at a
    # fixed BLAS thread count; across counts the assembly's reductions may
    # round differently, so eigenvalues agree to 1e-12 and verdicts exactly.
    for one, two in zip(*_at_blas_thread_counts(_BUNDLE_SUMMARY)):
        assert one["verdicts"] == two["verdicts"]
        assert [len(e) for e in one["eigenvalues"]] == [len(e) for e in two["eigenvalues"]]
        for a, b in zip(one["eigenvalues"], two["eigenvalues"]):
            assert np.max(np.abs(np.subtract(a, b)), initial=0.0) <= 1e-12


def test_oracle_agrees_across_blas_thread_counts():
    # The same contract for the FD oracle on criterion 1's a = 1 grid: across
    # thread counts the finest level moved by 1.4e-15 and Newton's method took
    # a different number of steps there, so counts and converged pairs must
    # agree exactly, values to 1e-12, and `iterations` may differ.
    one, two = _at_blas_thread_counts(_ORACLE_SUMMARY)
    for key in ("count_below_one", "mirror"):
        assert one["diagnostics"][key] == two["diagnostics"][key]
    converged = [[level["converged"] for level in run["diagnostics"]["levels"]] for run in (one, two)]
    assert converged[0] == converged[1]
    for a, b in [*zip(one["levels"], two["levels"]), (one["extrapolated"], two["extrapolated"])]:
        assert len(a) == len(b) >= 1
        assert np.max(np.abs(np.subtract(a, b))) <= 1e-12
