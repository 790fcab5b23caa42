"""Tests for geometry parsing, validation, and serialization."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from winguide.errors import ValidationError
from winguide.experiments import parse_experiment_config
from winguide.geometry import (
    MAX_BASIS_ORDER,
    MAX_PANEL_POINTS,
    Geometry,
    SolverSettings,
    WindowSpec,
    parse_problem,
    serialize_problem,
)


def test_parse_single_window_defaults():
    geometry, settings = parse_problem(
        {"d": 2.0, "windows": [{"center": 0, "half_width": 1.0}]}
    )
    assert geometry.d == 2.0
    assert len(geometry.windows) == 1
    assert geometry.windows[0].half_width == 1.0
    assert settings.basis_order == 32
    assert settings.panel_points == 12
    assert settings.threshold_margin == 1e-6


def test_parse_rejects_wide_lower_strip():
    with pytest.raises(ValidationError, match="pi"):
        parse_problem({"d": 4.0, "windows": [{"center": 0, "half_width": 1.0}]})


def test_parse_two_window_shorthand():
    geometry, _ = parse_problem({"d": 2.0, "a_minus": 1.0, "a_plus": 1.0, "l": 6.0})
    assert [w.center for w in geometry.windows] == [-6.0, 6.0]
    assert [w.half_width for w in geometry.windows] == [1.0, 1.0]


def test_parse_accepts_json_text():
    text = json.dumps({"d": 2.0, "windows": [{"center": 0, "half_width": 1.0}]})
    geometry, _ = parse_problem(text)
    assert geometry.d == 2.0


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown"):
        parse_problem({"d": 2.0, "a_minus": 1.0, "a_plus": 1.0, "l": 4.0, "zz": 1})
    with pytest.raises(ValidationError, match="unknown"):
        parse_problem(
            {"d": 2.0, "windows": [{"center": 0, "half_width": 1.0, "w": 2}]}
        )


def test_parse_rejects_bad_windows():
    with pytest.raises(ValidationError):
        parse_problem({"d": 2.0, "windows": [{"center": 0, "half_width": -1.0}]})
    # overlapping windows
    with pytest.raises(ValidationError):
        parse_problem(
            {
                "d": 2.0,
                "windows": [
                    {"center": -1.0, "half_width": 1.5},
                    {"center": 1.0, "half_width": 1.5},
                ],
            }
        )
    # touching windows violate the minimal gap
    with pytest.raises(ValidationError):
        parse_problem(
            {
                "d": 2.0,
                "windows": [
                    {"center": -1.0, "half_width": 1.0},
                    {"center": 1.0, "half_width": 1.0},
                ],
            }
        )


def test_parse_roundtrip_idempotent():
    document = {
        "d": 1.5,
        "windows": [
            {"center": -4.0, "half_width": 1.2},
            {"center": 4.0, "half_width": 0.8},
        ],
        "settings": {"basis_order": 20, "scan": {"grid_step": 1e-3}},
    }
    geometry, settings = parse_problem(document)
    echoed = serialize_problem(geometry, settings)
    geometry2, settings2 = parse_problem(echoed)
    assert geometry2 == geometry
    assert settings2 == settings
    assert serialize_problem(geometry2, settings2) == echoed


def test_parse_roundtrip_keeps_panel_width():
    settings = SolverSettings(panel_width=0.5)
    geometry = Geometry(d=2.0, windows=(WindowSpec(0.0, 1.0),))
    echoed = serialize_problem(geometry, settings)
    geometry2, settings2 = parse_problem(echoed)
    assert settings2.panel_width == 0.5
    assert (geometry2, settings2) == (geometry, settings)
    assert serialize_problem(geometry2, settings2) == echoed


_SETTINGS_FIELDS = {
    "basis_order": st.integers(4, 64),
    "threshold_margin": st.floats(1e-12, 0.4),
    "lambda_floor": st.floats(0.0, 0.5),
    "xi_max": st.floats(50.0, 5000.0),
    "panel_points": st.integers(4, 64),
    "panel_width": st.floats(1e-3, 4.0),
    "bisect_tol": st.floats(1e-16, 1e-3),
}


@st.composite
def _geometries(draw):
    d = draw(st.floats(0.05, math.pi))
    first = WindowSpec(draw(st.floats(-10.0, 10.0)), draw(st.floats(0.05, 3.0)))
    if not draw(st.booleans()):
        return Geometry(d=d, windows=(first,))
    half = draw(st.floats(0.05, 3.0))
    center = first.right + draw(st.floats(0.01, 5.0)) + half
    return Geometry(d=d, windows=(first, WindowSpec(center, half)))


@hyp_settings(max_examples=60, deadline=None, derandomize=True)
@given(geometry=_geometries(), settings=st.builds(SolverSettings, **_SETTINGS_FIELDS))
def test_parse_roundtrip_every_settings_field(geometry, settings):
    assert set(_SETTINGS_FIELDS) == {f.name for f in dataclasses.fields(SolverSettings)}
    document = serialize_problem(geometry, settings)
    assert parse_problem(document) == (geometry, settings)
    assert parse_problem(json.dumps(document)) == (geometry, settings)


def test_windows_sorted_by_center():
    geometry, _ = parse_problem(
        {
            "d": 2.0,
            "windows": [
                {"center": 5.0, "half_width": 0.5},
                {"center": -5.0, "half_width": 0.7},
            ],
        }
    )
    assert [w.center for w in geometry.windows] == [-5.0, 5.0]


def test_geometry_invariants_direct():
    with pytest.raises(ValidationError):
        Geometry(d=0.0, windows=(WindowSpec(0.0, 1.0),))
    with pytest.raises(ValidationError):
        Geometry(d=2.0, windows=(WindowSpec(0.0, 0.0),))
    g = Geometry(d=math.pi, windows=(WindowSpec(0.0, 1.0),))
    assert g.windows[0].left == -1.0
    assert g.windows[0].right == 1.0


def test_settings_reject_non_finite_values():
    for name in ("threshold_margin", "lambda_floor", "xi_max", "panel_width", "bisect_tol"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                SolverSettings(**{name: bad})


def test_settings_integer_ceilings():
    assert SolverSettings(basis_order=MAX_BASIS_ORDER, panel_points=MAX_PANEL_POINTS)
    with pytest.raises(ValidationError, match="basis_order"):
        SolverSettings(basis_order=MAX_BASIS_ORDER + 1)
    with pytest.raises(ValidationError, match="panel_points"):
        SolverSettings(panel_points=MAX_PANEL_POINTS + 1)
    assert MAX_BASIS_ORDER >= 64 and MAX_PANEL_POINTS >= 64  # the round-trip strategy's top


def test_settings_validation():
    with pytest.raises(ValidationError):
        SolverSettings(basis_order=2)
    with pytest.raises(ValidationError):
        SolverSettings(lambda_floor=0.9999, threshold_margin=1e-2)
    s = SolverSettings()
    assert 0.0 < s.lambda_floor < s.lambda_max < 1.0


def test_randomized_invalid_configs_rejected():
    rng = np.random.default_rng(404)
    for _ in range(50):
        kind = rng.integers(0, 3)
        if kind == 0:
            doc = {"d": float(rng.uniform(math.pi + 1e-6, 10.0)),
                   "windows": [{"center": 0, "half_width": 1.0}]}
        elif kind == 1:
            doc = {"d": 2.0,
                   "windows": [{"center": 0, "half_width": float(-rng.uniform(0, 3))}]}
        else:
            l = float(rng.uniform(0.0, 1.0))
            a = l + float(rng.uniform(0.0, 1.0))  # windows overlap at +-l
            doc = {"d": 2.0, "a_minus": a, "a_plus": a, "l": l}
        with pytest.raises(ValidationError):
            parse_problem(doc)


_SETTINGS_DOCUMENT = {
    "basis_order": 16,
    "threshold_margin": 1e-6,
    "lambda_floor": 1e-2,
    "quadrature": {"xi_max": 200.0, "panel_points": 12, "panel_width": 1.0},
    "scan": {"grid_step": 1e-3, "bisect_tol": 1e-12},
}
_SETTINGS_PATHS = [
    ("settings", "basis_order"),
    ("settings", "threshold_margin"),
    ("settings", "lambda_floor"),
    ("settings", "quadrature", "xi_max"),
    ("settings", "quadrature", "panel_points"),
    ("settings", "quadrature", "panel_width"),
    ("settings", "scan", "grid_step"),
    ("settings", "scan", "bisect_tol"),
]
_WINDOWS_DOCUMENT = {
    "d": 2.0,
    "windows": [{"center": -3.0, "half_width": 1.2}, {"center": 3.0, "half_width": 0.8}],
    "settings": _SETTINGS_DOCUMENT,
}
_SHORTHAND_DOCUMENT = {"d": 2.0, "a_minus": 1.2, "a_plus": 0.8, "l": 3.0}
_EXPERIMENT_DOCUMENT = {
    "case": "simple",
    "a_minus": 1.2,
    "a_plus": 0.8,
    "d": 2.0,
    "l_values": [2.5, 3.0],
    "settings": _SETTINGS_DOCUMENT,
}
_NUMERIC_FIELDS = [
    *(
        (parse_problem, _WINDOWS_DOCUMENT, path)
        for path in [
            ("d",),
            ("windows", 0, "center"),
            ("windows", 1, "half_width"),
            *_SETTINGS_PATHS,
        ]
    ),
    *((parse_problem, _SHORTHAND_DOCUMENT, (key,)) for key in ("d", "a_minus", "a_plus", "l")),
    *(
        (parse_experiment_config, _EXPERIMENT_DOCUMENT, path)
        for path in [("a_minus",), ("a_plus",), ("d",), ("l_values", 1), *_SETTINGS_PATHS]
    ),
]
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    | st.text(max_size=6)
)
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@hyp_settings(max_examples=300, deadline=None, derandomize=True)
@given(field=st.sampled_from(_NUMERIC_FIELDS), value=_JSON_VALUES, as_text=st.booleans())
def test_any_json_value_in_a_numeric_field_raises_only_validation_errors(field, value, as_text):
    parse, base, path = field
    document = copy.deepcopy(base)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        parsed = parse(json.dumps(document) if as_text else document)
    except ValidationError:
        return
    # every accepted float setting is finite, so no NaN or inf reaches the solver
    values = [getattr(parsed[-1], f.name) for f in dataclasses.fields(SolverSettings)]
    assert all(math.isfinite(v) for v in values if isinstance(v, float))


@pytest.mark.parametrize("parse", [parse_problem, parse_experiment_config])
def test_integers_beyond_float_or_digit_range_rejected(parse):
    base = _WINDOWS_DOCUMENT if parse is parse_problem else _EXPERIMENT_DOCUMENT
    with pytest.raises(ValidationError, match="d is an integer too large"):
        parse({**base, "d": 10**400})
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse('{"d": ' + "1" * 5000 + "}")
