"""Distance sweeps, exponential fits, and verification reports.

A sweep places the two windows at centers -l and +l, solves the coupled
problem for each l, and compares the measured eigenvalues against the
single-window limits: every eigenvalue converges to an element of sigma*,
the union of the two single-window spectra, with an exponentially small
shift whose rate and prefactor are predicted in closed form (`asymptotics`).
`verify_report` packages the whole comparison (eigenvalue fits, prefactor
adjudication, trace-overlap decay, parity checks) into one reproducible
bundle.

All numbers in a bundle are deterministic functions of the echoed
configuration: rerunning `verify_report` on `bundle.config` reproduces the
bundle bitwise. Per-l solves are independent and could be dispatched to a
parallel map; records are always emitted in increasing-l order.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticPrediction, double_prediction, simple_prediction
from .assembly import basis_overlap_gram
from .errors import InsufficientDataError, ValidationError
from .geometry import (
    Geometry,
    SolverSettings,
    WindowSpec,
    _load_object,
    _number,
    _reject_unknown,
    parse_settings,
    serialize_problem,
)
from .waveguide import compute_modes, solve_U

SCHEMA_VERSION = 1

DELTA_FLOOR = 1e-12
DELTA_CEILING = 1e-2
_MATCH_FLOOR = 1e-6
_STAR_MERGE_TOL = 1e-9

DEFAULT_DOUBLE_CONFIG = {
    "case": "double",
    "a_minus": 1.0,
    "a_plus": 1.0,
    "d": 2.0,
    "l_values": [4.0, 5.0, 6.0, 7.0, 8.0],
}
DEFAULT_SIMPLE_CONFIG = {
    "case": "simple",
    "a_minus": 1.2,
    "a_plus": 0.8,
    "d": 2.0,
    "l_values": [2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
}

_CSV_COLUMNS = (
    "l",
    "index",
    "lambda",
    "lambda_star",
    "delta",
    "pred_printed",
    "pred_derived",
    "pred_double_plus",
    "pred_double_minus",
    "overlap_residual",
)


@dataclass(frozen=True)
class SweepConfig:
    """Two windows of half-widths a_minus (center -l) and a_plus (center +l)."""

    a_minus: float
    a_plus: float
    d: float

    def __post_init__(self):
        for name in ("a_minus", "a_plus"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive number, got {v!r}")

    @property
    def case(self) -> str:
        return "double" if self.a_minus == self.a_plus else "simple"

    def geometry(self, l: float) -> Geometry:
        return Geometry(
            d=self.d,
            windows=(WindowSpec(-l, self.a_minus), WindowSpec(l, self.a_plus)),
        )


@dataclass(frozen=True)
class SweepRecord:
    """Measured eigenvalues at one half-separation l, matched to sigma*.

    Per eigenvalue (aligned tuples): the matched limiting value lambda*, the
    shift delta = lambda - lambda*, the closed-form predictions that apply
    (keys among printed/derived/double_plus/double_minus), the residual
    against the assigned prediction, trace-overlap diagnostics against the
    shifted single-window modes, and the parity label. Roots farther from
    every sigma* element than both the match floor and 10x the largest
    predicted shift are kept but flagged unmatched (element index -1).
    """

    l: float
    eigenvalues: tuple[float, ...]
    element_index: tuple[int, ...]
    lambda_star: tuple[float, ...]
    shifts: tuple[float, ...]
    predictions: tuple[dict, ...]
    residuals: tuple[float, ...]
    overlaps: tuple[dict, ...]
    parities: tuple[str, ...]
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "eigenvalues": list(self.eigenvalues),
            "element_index": list(self.element_index),
            "lambda_star": list(self.lambda_star),
            "shifts": list(self.shifts),
            "predictions": [dict(p) for p in self.predictions],
            "residuals": list(self.residuals),
            "overlaps": [dict(o) for o in self.overlaps],
            "parities": list(self.parities),
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class FitResult:
    """Least-squares exponential fit |delta(l)| ~ e^{log_prefactor - rate l}."""

    rate: float
    log_prefactor: float
    r_squared: float
    l_range: tuple[float, float]
    n_samples: int
    sign_mixed: bool

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "log_prefactor": self.log_prefactor,
            "r_squared": self.r_squared,
            "l_range": list(self.l_range),
            "n_samples": self.n_samples,
            "sign_mixed": self.sign_mixed,
        }


@dataclass(frozen=True)
class ReportBundle:
    """Self-contained verification report; `config` reproduces it exactly."""

    schema_version: int
    config: dict
    case: str
    single_windows: dict
    u_problem: list
    sweep: tuple[SweepRecord, ...]
    fits: dict
    verdicts: dict
    mu_adjudication: dict | None

    def all_pass(self) -> bool:
        return all(v.get("pass") for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "case": self.case,
            "single_windows": self.single_windows,
            "u_problem": self.u_problem,
            "sweep": [r.to_dict() for r in self.sweep],
            "fits": self.fits,
            "verdicts": self.verdicts,
            "mu_adjudication": self.mu_adjudication,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def parse_experiment_config(document) -> tuple[SweepConfig, tuple[float, ...], SolverSettings]:
    """Validate a sweep/verify config document (JSON text or mapping)."""
    raw = _load_object(document)
    allowed = {"case", "a_minus", "a_plus", "d", "l_values", "settings"}
    _reject_unknown(raw, allowed, "sweep config")
    for key in ("a_minus", "a_plus", "d"):
        if key not in raw:
            raise ValidationError(f"sweep config requires '{key}'")
    config = SweepConfig(**{key: _number(raw[key], key) for key in ("a_minus", "a_plus", "d")})
    Geometry(d=config.d, windows=(WindowSpec(0.0, config.a_minus),))
    if "case" in raw and raw["case"] != config.case:
        raise ValidationError(
            f"config says case={raw['case']!r} but half-widths imply {config.case!r}"
        )
    l_raw = raw.get("l_values", [])
    if not isinstance(l_raw, list) or not l_raw:
        raise ValidationError("sweep config requires a non-empty 'l_values' list")
    l_values = tuple(_number(v, f"l_values[{i}]") for i, v in enumerate(l_raw))
    settings_raw = raw.get("settings", {})
    if not isinstance(settings_raw, dict):
        raise ValidationError("settings must be an object")
    settings = parse_settings(settings_raw)
    return config, l_values, settings


def fit_exponential(
    samples, floor: float = DELTA_FLOOR, ceiling: float = DELTA_CEILING
) -> FitResult:
    """Fit log|delta| = log_prefactor - rate * l by least squares.

    Samples with |delta| outside (floor, ceiling) are discarded: below the
    floor the values are quadrature noise, above the ceiling the asymptotic
    regime has not set in. Fewer than three surviving samples is an error.
    Mixed signs among the survivors are tolerated (the fit runs on |delta|)
    but flagged.
    """
    kept = []
    signs = set()
    for l, delta in samples:
        mag = abs(float(delta))
        if floor < mag < ceiling:
            kept.append((float(l), mag))
            signs.add(float(delta) > 0.0)
    if len(kept) < 3:
        raise InsufficientDataError(
            f"exponential fit needs >= 3 samples with |delta| in ({floor:g}, {ceiling:g}); "
            f"got {len(kept)}"
        )
    ls = np.array([l for l, _ in kept])
    ys = np.log(np.array([m for _, m in kept]))
    slope, intercept = np.polyfit(ls, ys, 1)
    fitted = slope * ls + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(
        rate=float(-slope),
        log_prefactor=float(intercept),
        r_squared=r2,
        l_range=(float(np.min(ls)), float(np.max(ls))),
        n_samples=len(kept),
        sign_mixed=len(signs) > 1,
    )


@dataclass(frozen=True)
class _StarElement:
    """One sigma* element: a limiting eigenvalue with its host window(s)."""

    lambda_star: float
    kind: str                       # 'double' (both windows) or 'simple' (one host)
    sides: tuple[str, ...]          # ('minus', 'plus') or ('minus',) / ('plus',)
    mode_index: int                 # 1-based index within the host spectrum
    host_coeffs: dict               # side -> single-window trace coefficients
    prediction: AsymptoticPrediction


def _single_window_modes(half_width: float, d: float, settings: SolverSettings):
    geometry = Geometry(d=d, windows=(WindowSpec(0.0, half_width),))
    return compute_modes(geometry, settings)


def _build_elements(config: SweepConfig, settings: SolverSettings):
    """sigma* elements with their closed-form predictions.

    In the double (equal half-width) case each single-window eigenvalue is
    shared by both windows and splits at rate 2 kappa with prefactor
    mu = (-1)^{m+1} tau pi kappa c^2. In the simple case each eigenvalue
    belongs to one host window and shifts at rate 4 kappa; the partner
    amplitude is the non-resonant window's response coefficient at lambda*
    (a resolvent solve, not an eigenmode), so both windows contribute even
    though only one is resonant.
    """
    singles = {"minus": _single_window_modes(config.a_minus, config.d, settings)}
    singles["plus"] = (
        singles["minus"]
        if config.a_plus == config.a_minus
        else _single_window_modes(config.a_plus, config.d, settings)
    )
    u_entries = []
    elements = []
    if config.case == "double":
        for m, mode in enumerate(singles["minus"], start=1):
            pred = double_prediction(mode.lam, mode.c_coeff, mode.c_coeff, m, config.d)
            elements.append(
                _StarElement(
                    lambda_star=mode.lam,
                    kind="double",
                    sides=("minus", "plus"),
                    mode_index=m,
                    host_coeffs={
                        "minus": mode.trace.window_coeffs(0),
                        "plus": mode.trace.window_coeffs(0),
                    },
                    prediction=pred,
                )
            )
    else:
        other = {"minus": ("plus", config.a_plus), "plus": ("minus", config.a_minus)}
        for side in ("minus", "plus"):
            for m, mode in enumerate(singles[side], start=1):
                other_side, other_a = other[side]
                u = solve_U(mode.lam, other_a, config.d, settings)
                u_entries.append(
                    {
                        "lambda_star": mode.lam,
                        "host_side": side,
                        "other_half_width": other_a,
                        "c": u.c,
                        "energy_residual": u.energy_residual,
                    }
                )
                pred = simple_prediction(mode.lam, mode.c_coeff, u.c, config.d)
                elements.append(
                    _StarElement(
                        lambda_star=mode.lam,
                        kind="simple",
                        sides=(side,),
                        mode_index=m,
                        host_coeffs={side: mode.trace.window_coeffs(0)},
                        prediction=pred,
                    )
                )
    elements.sort(key=lambda e: e.lambda_star)
    return singles, elements, u_entries


def _window_gram(config: SweepConfig, order: int):
    return (
        basis_overlap_gram(config.a_minus, order),
        basis_overlap_gram(config.a_plus, order),
    )


def _overlap_diagnostics(mode, element: _StarElement, grams) -> dict:
    """Trace-overlap residual against the shifted single-window mode(s).

    Projects the two-window eigen-trace onto the span of the single-window
    traces recentered on their windows (one column for a simple element, two
    for a shared one), in the window-wise L2 norm, and reports the relative
    residual plus the projection weights. The residual is the trace-level
    measure of how far the mode is from the predicted superposition.
    """
    side_block = {"minus": 0, "plus": 1}
    x0 = np.asarray(mode.trace.window_coeffs(0))
    x1 = np.asarray(mode.trace.window_coeffs(1))
    g0, g1 = grams
    norm_sq = float(x0 @ g0 @ x0 + x1 @ g1 @ x1)
    cols = []
    for side in element.sides:
        col0 = np.zeros_like(x0)
        col1 = np.zeros_like(x1)
        coeffs = np.asarray(element.host_coeffs[side])
        if side_block[side] == 0:
            col0 = coeffs
        else:
            col1 = coeffs
        cols.append((col0, col1))
    gram = np.array(
        [[c0 @ g0 @ d0 + c1 @ g1 @ d1 for d0, d1 in cols] for c0, c1 in cols]
    )
    rhs = np.array([c0 @ g0 @ x0 + c1 @ g1 @ x1 for c0, c1 in cols])
    weights = np.linalg.solve(gram, rhs)
    resid_sq = norm_sq - float(weights @ rhs)
    residual = math.sqrt(max(resid_sq, 0.0) / norm_sq)
    return {
        "residual": residual,
        "weights": {side: float(w) for side, w in zip(element.sides, weights)},
    }


def _assign_predictions(records_for_element, element: _StarElement, l: float):
    """Per-root prediction dicts and residuals for one element at one l."""
    preds = element.prediction.predicted(l)
    out = []
    if element.kind == "simple":
        for lam_root in records_for_element:
            p = {"printed": preds["printed"], "derived": preds["derived"]}
            out.append((p, lam_root - preds["derived"]))
    else:
        plus, minus = preds
        ordered = sorted(records_for_element)
        for lam_root in records_for_element:
            p = {"double_plus": plus, "double_minus": minus}
            assigned = minus if (len(ordered) == 2 and lam_root == ordered[0]) else (
                plus if len(ordered) == 2 else (minus if abs(lam_root - minus) <= abs(lam_root - plus) else plus)
            )
            out.append((p, lam_root - assigned))
    return out


def sweep_l(config: SweepConfig, l_values, settings: SolverSettings | None = None):
    """Solve the two-window problem for each l and match roots to sigma*.

    Every l must satisfy l >= max(a_minus, a_plus) + 1 (below that the
    windows are not meaningfully separated and the asymptotics do not
    apply). Returns one SweepRecord per l, in increasing-l order; an
    unmatched root flags the record instead of aborting the sweep.
    """
    if settings is None:
        settings = SolverSettings()
    if not isinstance(config, SweepConfig):
        raise ValidationError(f"config must be a SweepConfig, got {type(config)!r}")
    return _sweep(config, l_values, settings)[3]


def _sweep(config: SweepConfig, l_values, settings: SolverSettings):
    """Single-window spectra, sigma* elements, u-problem entries and one record per l."""
    l_values = _separated_l_values(config, l_values)
    singles, elements, u_entries = _build_elements(config, settings)
    grams = _window_gram(config, settings.basis_order)
    records = [_sweep_one(config, elements, grams, l, settings) for l in l_values]
    return singles, elements, u_entries, records


def _separated_l_values(config: SweepConfig, l_values) -> list[float]:
    """The l values in increasing order, all in the separated regime l >= max(a_minus, a_plus) + 1."""
    l_values = sorted(float(l) for l in l_values)
    if not l_values:
        raise ValidationError("sweep needs at least one l value")
    l_min = max(config.a_minus, config.a_plus) + 1.0
    if l_values[0] < l_min:
        raise ValidationError(f"l = {l_values[0]} below the separated regime l >= {l_min}")
    return l_values


def _sweep_one(config, elements, grams, l, settings) -> SweepRecord:
    modes = compute_modes(config.geometry(l), settings)
    largest_shift = 0.0
    for e in elements:
        pred = e.prediction.predicted(l)
        if e.kind == "simple":
            largest_shift = max(largest_shift, abs(pred["derived"] - e.lambda_star))
        else:
            largest_shift = max(largest_shift, abs(pred[0] - e.lambda_star))
    match_radius = max(10.0 * largest_shift, _MATCH_FLOOR)

    element_idx = []
    flags = []
    for mode in modes:
        dists = [abs(mode.lam - e.lambda_star) for e in elements]
        best = int(np.argmin(dists))
        if dists[best] > match_radius:
            element_idx.append(-1)
            flags.append(f"unmatched root at lambda={mode.lam!r}")
        else:
            element_idx.append(best)

    by_element: dict[int, list[float]] = {}
    for mode, idx in zip(modes, element_idx):
        if idx >= 0:
            by_element.setdefault(idx, []).append(mode.lam)
    assigned: dict[tuple[int, float], tuple[dict, float]] = {}
    for idx, lam_list in by_element.items():
        for lam_root, pair in zip(lam_list, _assign_predictions(lam_list, elements[idx], l)):
            assigned[(idx, lam_root)] = pair

    lam_star, shifts, predictions, residuals, overlaps, parities = [], [], [], [], [], []
    for mode, idx in zip(modes, element_idx):
        parities.append(mode.parity)
        if idx < 0:
            lam_star.append(math.nan)
            shifts.append(math.nan)
            predictions.append({})
            residuals.append(math.nan)
            overlaps.append({})
            continue
        e = elements[idx]
        lam_star.append(e.lambda_star)
        shifts.append(mode.lam - e.lambda_star)
        pred, resid = assigned[(idx, mode.lam)]
        predictions.append(pred)
        residuals.append(resid)
        overlaps.append(_overlap_diagnostics(mode, e, grams))

    return SweepRecord(
        l=l,
        eigenvalues=tuple(m.lam for m in modes),
        element_index=tuple(element_idx),
        lambda_star=tuple(lam_star),
        shifts=tuple(shifts),
        predictions=tuple(predictions),
        residuals=tuple(residuals),
        overlaps=tuple(overlaps),
        parities=tuple(parities),
        flags=tuple(flags),
    )


def write_sweep_csv(records, target) -> None:
    """Write one row per (l, eigenvalue) with `.` decimals and `,` separators.

    Prediction columns not applicable to a row (printed/derived for shared
    elements, double_plus/minus for simple ones) are left empty; numbers use
    shortest round-trip formatting.
    """

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float) and math.isnan(value):
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    def emit(fh):
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for rec in records:
            for i in range(len(rec.eigenvalues)):
                pred = rec.predictions[i]
                row = [
                    cell(rec.l),
                    str(i + 1),
                    cell(rec.eigenvalues[i]),
                    cell(rec.lambda_star[i]),
                    cell(rec.shifts[i]),
                    cell(pred.get("printed")),
                    cell(pred.get("derived")),
                    cell(pred.get("double_plus")),
                    cell(pred.get("double_minus")),
                    cell(rec.overlaps[i].get("residual")),
                ]
                fh.write(",".join(row) + "\n")

    if isinstance(target, (str, bytes)):
        with open(target, "w", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(target)


def _series(records, element_pos: int, rank: int):
    """(l, value) series for the rank-th root (by eigenvalue) of one element."""
    shift_series, overlap_series, gap_series = [], [], []
    for rec in records:
        roots = [
            (rec.eigenvalues[i], i)
            for i in range(len(rec.eigenvalues))
            if rec.element_index[i] == element_pos
        ]
        roots.sort()
        if len(roots) == 2:
            gap_series.append((rec.l, roots[1][0] - roots[0][0]))
        if rank < len(roots):
            _, i = roots[rank]
            shift_series.append((rec.l, rec.shifts[i]))
            if rec.overlaps[i]:
                overlap_series.append((rec.l, rec.overlaps[i]["residual"]))
    return shift_series, overlap_series, gap_series


def _fit_or_error(samples, **kwargs):
    try:
        return fit_exponential(samples, **kwargs).to_dict()
    except InsufficientDataError as exc:
        return {"error": str(exc)}


def _pinned_prefactor(samples, rate: float) -> float | None:
    """Prefactor estimate with the decay rate fixed at its theoretical value.

    The free-slope fit's intercept absorbs the curvature that the
    higher-order remainder puts into log|delta| at moderate l, biasing the
    prefactor systematically low; with the rate pinned, each sample gives an
    independent prefactor estimate and the geometric mean is taken. Uses the
    same in-band filter as the fits.
    """
    logs = [
        math.log(abs(d)) + rate * l
        for l, d in samples
        if DELTA_FLOOR < abs(d) < DELTA_CEILING
    ]
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))


def verify_report(document) -> ReportBundle:
    """Run the full sweep-and-check pipeline for one configuration.

    The bundle records the single-window spectra, the non-resonant response
    coefficients, the sweep table, exponential fits of shifts, gaps, and
    trace-overlap residuals, pass/fail verdicts for the closed-form laws,
    and (simple case) the adjudication between the two prefactor variants.
    Sub-run failures are recorded in the affected entries rather than
    aborting the bundle.
    """
    config, l_values, settings = parse_experiment_config(document)
    singles, elements, u_entries, records = _sweep(config, l_values, settings)

    single_windows = {}
    for side, half_width in (("minus", config.a_minus), ("plus", config.a_plus)):
        single_windows[side] = {
            "half_width": half_width,
            "modes": [
                {"index": m.index, "lambda": m.lam, "parity": m.parity, "c": m.c_coeff}
                for m in singles[side]
            ],
        }

    fits: dict = {"elements": []}
    verdicts: dict = {}
    counts = [len(r.eigenvalues) for r in records]
    verdicts["count_constant"] = {
        "pass": len(set(counts)) == 1 and not any(r.flags for r in records),
        "counts": counts,
    }
    min_single = min(
        min(m.lam for m in singles["minus"]), min(m.lam for m in singles["plus"])
    )
    ground_ok = all(min(r.eigenvalues) < min_single for r in records)
    verdicts["ground_below_min_single"] = {"pass": ground_ok, "min_single": min_single}

    overlap_rates_ok, parity_ok = [], True
    for pos, element in enumerate(elements):
        kappa = element.prediction.kappa
        entry: dict = {
            "lambda_star": element.lambda_star,
            "kind": element.kind,
            "kappa": kappa,
            "two_kappa": 2.0 * kappa,
            "four_kappa": 4.0 * kappa,
        }
        n_roots = 2 if element.kind == "double" else 1
        for rank in range(n_roots):
            shift_series, overlap_series, gap_series = _series(records, pos, rank)
            entry[f"shift_fit_rank{rank}"] = _fit_or_error(shift_series)
            entry[f"overlap_fit_rank{rank}"] = _fit_or_error(overlap_series, ceiling=1.0)
            fit = entry[f"overlap_fit_rank{rank}"]
            if "rate" in fit:
                overlap_rates_ok.append(abs(fit["rate"] / (2.0 * kappa) - 1.0) <= 0.25)
        if element.kind == "double":
            _, _, gap_series = _series(records, pos, 0)
            half = [(l, 0.5 * g) for l, g in gap_series]
            fit = _fit_or_error(half)
            if "rate" in fit:
                fit["gap_prefactor"] = 2.0 * math.exp(fit["log_prefactor"])
            pinned = _pinned_prefactor(half, 2.0 * kappa)
            if pinned is not None:
                fit["gap_prefactor_pinned"] = 2.0 * pinned
            entry["gap_fit"] = fit
        fits["elements"].append(entry)

    mu_adjudication = None
    if config.case == "double":
        element = elements[0]
        entry = fits["elements"][0]
        mu = element.prediction.mu
        gap_fit = entry.get("gap_fit", {})
        rate_ok = "rate" in gap_fit and abs(gap_fit["rate"] / entry["two_kappa"] - 1.0) <= 0.02
        fitted_gap = gap_fit.get("gap_prefactor_pinned", gap_fit.get("gap_prefactor"))
        pref_ok = fitted_gap is not None and abs(fitted_gap / (2.0 * abs(mu)) - 1.0) <= 0.10
        verdicts["splitting_rate_2kappa"] = {
            "pass": bool(rate_ok),
            "fit": gap_fit,
            "expected": entry["two_kappa"],
        }
        verdicts["splitting_prefactor_2mu"] = {
            "pass": bool(pref_ok),
            "expected": 2.0 * abs(mu),
            "fitted": fitted_gap,
            "fitted_free_slope": gap_fit.get("gap_prefactor"),
        }
        straddle = all(
            min(r.eigenvalues) < element.lambda_star < max(r.eigenvalues) for r in records
        )
        verdicts["pair_straddles_lambda_star"] = {"pass": straddle}
        for r in records:
            order = np.argsort(r.eigenvalues)
            if [r.parities[i] for i in order[:2]] != ["even", "odd"]:
                parity_ok = False
        verdicts["parity_split_even_odd"] = {"pass": parity_ok}
    else:
        ground_pos = 0
        element = elements[ground_pos]
        entry = fits["elements"][ground_pos]
        shift_fit = entry.get("shift_fit_rank0", {})
        rate_ok = "rate" in shift_fit and abs(shift_fit["rate"] / entry["four_kappa"] - 1.0) <= 0.05
        verdicts["shift_rate_4kappa"] = {
            "pass": bool(rate_ok),
            "fit": shift_fit,
            "expected": entry["four_kappa"],
        }
        ground_shifts = [
            s for r in records for s, i in zip(r.shifts, r.element_index) if i == ground_pos
        ]
        # Domain monotonicity pins the sign only for the eigenvalue converging
        # to the lowest single-window level; a higher element's shift carries
        # the sign of its partner-window response coefficient, which flips
        # above the partner's own eigenvalue.
        negative = bool(ground_shifts) and all(s < 0.0 for s in ground_shifts)
        verdicts["shift_negative"] = {
            "pass": negative,
            "lambda_star": element.lambda_star,
            "shifts": ground_shifts,
        }
        mu_printed, mu_derived = element.prediction.mu_variants
        shift_series, _, _ = _series(records, ground_pos, 0)
        fitted = _pinned_prefactor(shift_series, entry["four_kappa"])
        free = math.exp(shift_fit["log_prefactor"]) if "log_prefactor" in shift_fit else None
        rel = {
            "printed": abs(fitted / abs(mu_printed) - 1.0) if fitted and mu_printed else None,
            "derived": abs(fitted / abs(mu_derived) - 1.0) if fitted and mu_derived else None,
        }
        matching = [k for k, v in rel.items() if v is not None and v <= 0.15]
        mu_adjudication = {
            "fitted_prefactor": fitted,
            "free_slope_prefactor": free,
            "mu_printed": mu_printed,
            "mu_derived": mu_derived,
            "relative_error": rel,
            "verdict": "+".join(matching) if matching else "neither",
        }
        verdicts["prefactor_matches_a_variant"] = {
            "pass": bool(matching),
            "adjudication": mu_adjudication,
        }

    verdicts["overlap_rate_2kappa"] = {
        "pass": bool(overlap_rates_ok) and all(overlap_rates_ok),
        "checked": len(overlap_rates_ok),
    }

    echo = {
        "case": config.case,
        "a_minus": config.a_minus,
        "a_plus": config.a_plus,
        "d": config.d,
        "l_values": sorted(l_values),
        "settings": serialize_problem(
            Geometry(d=config.d, windows=(WindowSpec(0.0, config.a_minus),)), settings
        )["settings"],
    }
    return ReportBundle(
        schema_version=SCHEMA_VERSION,
        config=echo,
        case=config.case,
        single_windows=single_windows,
        u_problem=u_entries,
        sweep=tuple(records),
        fits=fits,
        verdicts=verdicts,
        mu_adjudication=mu_adjudication,
    )


def sweep_csv_text(records) -> str:
    buf = io.StringIO()
    write_sweep_csv(records, buf)
    return buf.getvalue()
