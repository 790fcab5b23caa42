"""Distance sweeps, exponential fits, and verification reports.

A sweep places the two windows at centers -l and +l, solves the coupled
problem for each l, and compares the measured eigenvalues against the
single-window limits: every eigenvalue converges to an element of sigma*,
the union of the two single-window spectra, with an exponentially small
shift whose rate and prefactor are predicted in closed form (`asymptotics`).
Each sigma* element owns its law: a shared element splits into two branches
at rate 2 kappa, a lone one shifts along one branch at rate 4 kappa, and
every root is matched to its nearest element and measured against that
element's branches. `verify_report` packages the whole comparison
(eigenvalue fits, prefactor adjudication, trace-overlap decay, parity
checks) into one reproducible bundle.

All numbers in a bundle are deterministic functions of the echoed
configuration: rerunning `verify_report` on `bundle.config` reproduces the
bundle bitwise. Per-l solves are independent and could be dispatched to a
parallel map; records are always emitted in increasing-l order.
"""

from __future__ import annotations

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
    _object,
    parse_settings,
    serialize_settings,
)
from .waveguide import compute_modes, solve_U

SCHEMA_VERSION = 1

DELTA_FLOOR = 1e-12
DELTA_CEILING = 1e-2
_MATCH_FLOOR = 1e-6

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


def parse_experiment_config(document) -> tuple[SweepConfig, tuple[float, ...], SolverSettings]:
    """Validate a sweep/verify config document (JSON text or mapping)."""
    raw = _load_object(document)
    allowed = {"case", "a_minus", "a_plus", "d", "l_values", "settings"}
    _object(raw, allowed, "sweep config")
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
    return config, l_values, parse_settings(raw.get("settings", {}))


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
    """One sigma* element: its closed-form law and the traces of its host window(s)."""

    prediction: AsymptoticPrediction
    host_coeffs: dict               # side -> single-window trace coefficients

    @property
    def lambda_star(self) -> float:
        return self.prediction.lambda_star

    @property
    def kind(self) -> str:
        return self.prediction.kind

    def law(self, l: float) -> tuple[dict, tuple[float, ...]]:
        """A record's prediction entries at l and the branches its roots follow, ascending.

        A lone element has one branch, the derived-prefactor shift; a shared
        element splits into lambda* -+ |mu| e^{-2 kappa l}.
        """
        if self.kind == "simple":
            preds = self.prediction.predicted(l)
            return preds, (preds["derived"],)
        plus, minus = self.prediction.predicted(l)
        return {"double_plus": plus, "double_minus": minus}, (minus, plus)


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
    half_widths = {"minus": config.a_minus, "plus": config.a_plus}
    singles = {
        side: compute_modes(Geometry(d=config.d, windows=(WindowSpec(0.0, a),)), settings)
        for side, a in half_widths.items()
        if side == "minus" or config.case == "simple"
    }
    singles.setdefault("plus", singles["minus"])  # equal half-widths share one spectrum
    u_entries = []
    elements = []
    if config.case == "double":
        for m, mode in enumerate(singles["minus"], start=1):
            coeffs = mode.trace.window_coeffs(0)
            pred = double_prediction(mode.lam, mode.c_coeff, mode.c_coeff, m, config.d)
            elements.append(_StarElement(pred, {"minus": coeffs, "plus": coeffs}))
    else:
        other = {"minus": "plus", "plus": "minus"}
        for side in ("minus", "plus"):
            other_a = half_widths[other[side]]
            for mode in singles[side]:
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
                elements.append(_StarElement(pred, {side: mode.trace.window_coeffs(0)}))
    elements.sort(key=lambda e: e.lambda_star)
    return singles, elements, u_entries


def _overlap_diagnostics(trace, host_coeffs: dict, grams) -> dict:
    """Trace-overlap residual against the shifted single-window mode(s).

    Projects the two-window eigen-trace onto the span of the single-window
    traces recentered on their host windows, in the window-wise L2 norm, and
    reports the relative residual plus the projection weights. The host traces
    sit on different windows, so the projection is window by window,
    w = c^T g x / c^T g c, and the residual is summed from r = x - w c: the
    difference |x|^2 - w c^T g x would cancel about 10 digits.
    """
    weights = {}
    norm_sq = resid_sq = 0.0
    for block, (side, g) in enumerate(zip(("minus", "plus"), grams)):
        x = trace.window_coeffs(block)
        norm_sq += float(x @ g @ x)
        r = x
        if side in host_coeffs:
            c = np.asarray(host_coeffs[side])
            cg = c @ g
            weights[side] = float(cg @ x / (cg @ c))
            r = x - weights[side] * c
        resid_sq += float(r @ g @ r)
    return {"residual": math.sqrt(resid_sq / norm_sq), "weights": weights}


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
    """Single-window spectra, sigma* elements, u-problem entries and one record per l.

    The l values are taken in increasing order, must be distinct and must all
    lie in the separated regime l >= max(a_minus, a_plus) + 1; sigma* must not
    be empty.
    """
    l_values = sorted(float(l) for l in l_values)
    if not l_values:
        raise ValidationError("sweep needs at least one l value")
    if len(set(l_values)) < len(l_values):
        raise ValidationError(f"l values must be distinct, got {l_values}")
    l_min = max(config.a_minus, config.a_plus) + 1.0
    if l_values[0] < l_min:
        raise ValidationError(f"l = {l_values[0]} below the separated regime l >= {l_min}")
    singles, elements, u_entries = _build_elements(config, settings)
    if not elements:
        raise InsufficientDataError(
            "sigma* is empty: no single-window mode in the admissible band "
            f"({settings.lambda_floor}, {settings.lambda_max})"
        )
    grams = (
        basis_overlap_gram(config.a_minus, settings.basis_order),
        basis_overlap_gram(config.a_plus, settings.basis_order),
    )
    records = [_sweep_one(config, elements, grams, l, settings) for l in l_values]
    return singles, elements, u_entries, records


def _sweep_one(config, elements, grams, l, settings) -> SweepRecord:
    """Solve at l and measure each root against a branch of its nearest sigma* element.

    An element with as many roots as branches hands them out in ascending
    order; otherwise each root follows its nearest branch (the lower on a
    tie).
    """
    modes = compute_modes(config.geometry(l), settings)
    laws = [e.law(l) for e in elements]
    largest_shift = max(
        (abs(branches[-1] - e.lambda_star) for e, (_, branches) in zip(elements, laws)),
        default=0.0,
    )
    match_radius = max(10.0 * largest_shift, _MATCH_FLOOR)

    element_idx, flags = [], []
    roots_of: dict[int, list[int]] = {}
    for i, mode in enumerate(modes):
        dists = [abs(mode.lam - e.lambda_star) for e in elements]
        best = int(np.argmin(dists))
        if dists[best] > match_radius:
            best = -1
            flags.append(f"unmatched root at lambda={mode.lam!r}")
        else:
            roots_of.setdefault(best, []).append(i)
        element_idx.append(best)

    branch_of: dict[int, float] = {}
    for idx, roots in roots_of.items():
        branches = laws[idx][1]
        if len(roots) == len(branches):
            branch_of.update(zip(sorted(roots, key=lambda i: modes[i].lam), branches))
        else:
            for i in roots:
                branch_of[i] = min(branches, key=lambda b: abs(modes[i].lam - b))

    lam_star, shifts, predictions, residuals, overlaps, parities = [], [], [], [], [], []
    for i, (mode, idx) in enumerate(zip(modes, element_idx)):
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
        predictions.append(dict(laws[idx][0]))
        residuals.append(mode.lam - branch_of[i])
        overlaps.append(_overlap_diagnostics(mode.trace, e.host_coeffs, grams))

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


def write_sweep_csv(records, fh) -> None:
    """Write one row per (l, eigenvalue) to the text stream fh, `.` decimals and `,` separators.

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


def _series(records, element_pos: int):
    """One element's (l, value) series: shifts and overlap residuals per rank, and gaps.

    Roots are ranked by eigenvalue within each record; a record contributes a
    gap only when the element has exactly two roots there.
    """
    shift_series: dict[int, list] = {}
    overlap_series: dict[int, list] = {}
    gap_series = []
    for rec in records:
        roots = sorted(
            (lam, i)
            for i, (lam, idx) in enumerate(zip(rec.eigenvalues, rec.element_index))
            if idx == element_pos
        )
        if len(roots) == 2:
            gap_series.append((rec.l, roots[1][0] - roots[0][0]))
        for rank, (_, i) in enumerate(roots):
            shift_series.setdefault(rank, []).append((rec.l, rec.shifts[i]))
            if rec.overlaps[i]:
                overlap_series.setdefault(rank, []).append((rec.l, rec.overlaps[i]["residual"]))
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
    min_single = min(m.lam for modes in singles.values() for m in modes)
    ground_ok = all(min(r.eigenvalues) < min_single for r in records)
    verdicts["ground_below_min_single"] = {"pass": ground_ok, "min_single": min_single}

    overlap_rates_ok = []
    series = [_series(records, pos) for pos in range(len(elements))]
    for element, (shift_series, overlap_series, gap_series) in zip(elements, series):
        kappa = element.prediction.kappa
        entry: dict = {
            "lambda_star": element.lambda_star,
            "kind": element.kind,
            "kappa": kappa,
            "two_kappa": 2.0 * kappa,
            "four_kappa": 4.0 * kappa,
        }
        for rank in range(len(element.host_coeffs)):  # one root per host window
            entry[f"shift_fit_rank{rank}"] = _fit_or_error(shift_series.get(rank, []))
            fit = _fit_or_error(overlap_series.get(rank, []), ceiling=1.0)
            entry[f"overlap_fit_rank{rank}"] = fit
            if "rate" in fit:
                overlap_rates_ok.append(abs(fit["rate"] / (2.0 * kappa) - 1.0) <= 0.25)
        if element.kind == "double":
            half = [(l, 0.5 * g) for l, g in gap_series]
            fit = _fit_or_error(half)
            if "rate" in fit:
                fit["gap_prefactor"] = 2.0 * math.exp(fit["log_prefactor"])
            pinned = _pinned_prefactor(half, 2.0 * kappa)
            if pinned is not None:
                fit["gap_prefactor_pinned"] = 2.0 * pinned
            entry["gap_fit"] = fit
        fits["elements"].append(entry)

    # The case verdicts read the ground element: the lowest sigma* value.
    element, entry, mu_adjudication = elements[0], fits["elements"][0], None
    if config.case == "double":
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
        parity_ok = all(
            [r.parities[i] for i in np.argsort(r.eigenvalues)[:2]] == ["even", "odd"]
            for r in records
        )
        verdicts["parity_split_even_odd"] = {"pass": parity_ok}
    else:
        shift_fit = entry.get("shift_fit_rank0", {})
        rate_ok = "rate" in shift_fit and abs(shift_fit["rate"] / entry["four_kappa"] - 1.0) <= 0.05
        verdicts["shift_rate_4kappa"] = {
            "pass": bool(rate_ok),
            "fit": shift_fit,
            "expected": entry["four_kappa"],
        }
        ground_shifts = [
            s for r in records for s, i in zip(r.shifts, r.element_index) if i == 0
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
        fitted = _pinned_prefactor(series[0][0].get(0, []), entry["four_kappa"])
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
        "settings": serialize_settings(settings),
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
