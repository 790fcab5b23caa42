"""Problem geometry, solver settings, and JSON config ingestion.

Lengths are always in scaled units with the upper strip width fixed at pi; the
lower strip width d must satisfy 0 < d <= pi (wider lower strips are the same
problem reflected and rescaled, so they are rejected rather than silently
normalized).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import ValidationError

GAP_MIN = 1e-6
MAX_BASIS_ORDER = 128  # well above the N = 48 of the basis-convergence check
MAX_PANEL_POINTS = 128

_SETTINGS_KEYS = {"basis_order", "threshold_margin", "lambda_floor", "quadrature", "scan"}
_QUAD_KEYS = {"xi_max", "panel_points", "panel_width"}
_SCAN_KEYS = {"grid_step", "bisect_tol"}


@dataclass(frozen=True)
class WindowSpec:
    """One boundary window: the open interval |x1 - center| < half_width on x2 = 0."""

    center: float
    half_width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise ValidationError("window parameters must be finite")
        if self.half_width <= 0:
            raise ValidationError(f"window half_width must be positive, got {self.half_width}")

    @property
    def left(self) -> float:
        return self.center - self.half_width

    @property
    def right(self) -> float:
        return self.center + self.half_width


@dataclass(frozen=True)
class Geometry:
    """Two straight strips (widths pi above, d below) coupled through windows.

    Windows are kept sorted by center. An empty window tuple is allowed only for
    the finite-difference oracle's validation mode (a plain rectangle); the
    parser never produces it.
    """

    d: float
    windows: tuple[WindowSpec, ...]

    def __post_init__(self):
        if not (0.0 < self.d <= math.pi):
            raise ValidationError(
                f"lower strip width must satisfy 0 < d <= pi (scaling convention), got {self.d}"
            )
        ws = tuple(self.windows)
        object.__setattr__(self, "windows", ws)
        for i in range(1, len(ws)):
            if ws[i].center <= ws[i - 1].center:
                raise ValidationError("windows must have strictly increasing centers")
            gap = ws[i].left - ws[i - 1].right
            if gap < GAP_MIN:
                raise ValidationError(
                    f"windows {i - 1} and {i} overlap or touch (gap {gap:.3e} < {GAP_MIN})"
                )


@dataclass(frozen=True)
class SolverSettings:
    basis_order: int = 32
    threshold_margin: float = 1e-6
    lambda_floor: float = 1e-2
    xi_max: float = 200.0
    panel_points: int = 12
    panel_width: float = 1.0
    bisect_tol: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.basis_order, int) or not 4 <= self.basis_order <= MAX_BASIS_ORDER:
            raise ValidationError(f"basis_order must be an integer in [4, {MAX_BASIS_ORDER}]")
        for name in ("threshold_margin", "lambda_floor", "xi_max", "panel_width", "bisect_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.threshold_margin <= 0:
            raise ValidationError("threshold_margin must be positive")
        if self.lambda_floor < 0:
            raise ValidationError("lambda_floor must be >= 0")
        if 1.0 - self.threshold_margin <= self.lambda_floor:
            raise ValidationError("admissible band (lambda_floor, 1 - threshold_margin) is empty")
        if self.xi_max < 50.0:
            raise ValidationError("xi_max must be >= 50")
        if not isinstance(self.panel_points, int) or not 4 <= self.panel_points <= MAX_PANEL_POINTS:
            raise ValidationError(f"panel_points must be an integer in [4, {MAX_PANEL_POINTS}]")
        if self.panel_width <= 0:
            raise ValidationError("panel_width must be positive")
        if self.bisect_tol <= 0:
            raise ValidationError("bisect_tol must be positive")

    @property
    def lambda_max(self) -> float:
        return 1.0 - self.threshold_margin


def _object(value, allowed: set, where: str) -> dict:
    """A config object with no keys outside `allowed`."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(value) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")
    return value


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{where} is an integer too large for a float") from exc


def parse_settings(raw) -> SolverSettings:
    _object(raw, _SETTINGS_KEYS, "settings")
    kwargs = {}
    if "basis_order" in raw:
        kwargs["basis_order"] = _integer(raw["basis_order"], "basis_order")
    for key in ("threshold_margin", "lambda_floor"):
        if key in raw:
            kwargs[key] = _number(raw[key], f"settings.{key}")
    quad = _object(raw.get("quadrature", {}), _QUAD_KEYS, "settings.quadrature")
    if "xi_max" in quad:
        kwargs["xi_max"] = _number(quad["xi_max"], "settings.quadrature.xi_max")
    if "panel_points" in quad:
        kwargs["panel_points"] = _integer(quad["panel_points"], "panel_points")
    if "panel_width" in quad:
        kwargs["panel_width"] = _number(quad["panel_width"], "settings.quadrature.panel_width")
    scan = _object(raw.get("scan", {}), _SCAN_KEYS, "settings.scan")
    if "grid_step" in scan:  # echoed by verify bundles at SCHEMA_VERSION 1; no longer used
        _number(scan["grid_step"], "settings.scan.grid_step")
    if "bisect_tol" in scan:
        kwargs["bisect_tol"] = _number(scan["bisect_tol"], "settings.scan.bisect_tol")
    return SolverSettings(**kwargs)


def _load_object(document) -> dict:
    """The JSON object of a config given as JSON text or an already-loaded dict."""
    if isinstance(document, (str, bytes)):
        try:
            raw = json.loads(document)
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    elif isinstance(document, dict):
        raw = document
    else:
        raise ValidationError(f"config must be JSON text or a mapping, got {type(document)!r}")
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    return raw


def parse_problem(document) -> tuple[Geometry, SolverSettings]:
    """Parse a JSON config (text or already-loaded dict) into validated objects.

    Two-window shorthand {a_minus, a_plus, l} is normalized to explicit windows
    at centers -l and +l. Unknown keys are rejected at every level.
    """
    raw = _load_object(document)
    allowed = {"d", "windows", "a_minus", "a_plus", "l", "settings"}
    _object(raw, allowed, "config")
    if "d" not in raw:
        raise ValidationError("config requires the lower strip width 'd'")
    d = _number(raw["d"], "d")

    shorthand = {"a_minus", "a_plus", "l"} & set(raw)
    if shorthand and "windows" in raw:
        raise ValidationError("give either 'windows' or the (a_minus, a_plus, l) shorthand, not both")
    if shorthand:
        if shorthand != {"a_minus", "a_plus", "l"}:
            raise ValidationError("shorthand requires all of a_minus, a_plus, l")
        a_minus = _number(raw["a_minus"], "a_minus")
        a_plus = _number(raw["a_plus"], "a_plus")
        l = _number(raw["l"], "l")
        windows = [WindowSpec(-l, a_minus), WindowSpec(l, a_plus)]
    else:
        if "windows" not in raw:
            raise ValidationError("config requires 'windows' or the (a_minus, a_plus, l) shorthand")
        spec = raw["windows"]
        if not isinstance(spec, list) or not 1 <= len(spec) <= 2:
            raise ValidationError("'windows' must be a list of 1 or 2 window objects")
        windows = []
        for i, item in enumerate(spec):
            _object(item, {"center", "half_width"}, f"windows[{i}]")
            if "center" not in item or "half_width" not in item:
                raise ValidationError(f"windows[{i}] requires center and half_width")
            windows.append(
                WindowSpec(
                    _number(item["center"], f"windows[{i}].center"),
                    _number(item["half_width"], f"windows[{i}].half_width"),
                )
            )

    windows.sort(key=lambda w: w.center)
    geometry = Geometry(d=d, windows=tuple(windows))
    return geometry, parse_settings(raw.get("settings", {}))


def serialize_problem(geometry: Geometry, settings: SolverSettings) -> dict:
    """Round-trippable document: parse_problem(serialize_problem(...)) is identity."""
    return {
        "d": geometry.d,
        "windows": [asdict(w) for w in geometry.windows],
        "settings": serialize_settings(settings),
    }


def serialize_settings(settings: SolverSettings) -> dict:
    """Round-trippable settings document: parse_settings(serialize_settings(s)) == s."""
    return {
        "basis_order": settings.basis_order,
        "threshold_margin": settings.threshold_margin,
        "lambda_floor": settings.lambda_floor,
        "quadrature": {
            "xi_max": settings.xi_max,
            "panel_points": settings.panel_points,
            "panel_width": settings.panel_width,
        },
        "scan": {"bisect_tol": settings.bisect_tol},
    }
