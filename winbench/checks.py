"""Correctness checks on the outputs of one workload round.

Every check compares the program's output with an independent computation
(the paper's closed forms, recomputed here from the amplitudes the program
reports) or with a property the method must have (domain monotonicity,
parity alternation, mesh convergence), or with reference eigenvalues that
`reference.py` recomputes from the other solver. None compares with a stored
copy of the program's own output. Each function returns a list of failure
messages; an empty list means the output passed.

Standard library only: the checks share no code with winguide.
"""

from __future__ import annotations

import math

FD_MATCH_TOL = 1e-3        # spectral vs extrapolated FD at the acceptance grids
DOUBLE_RATE_TOL = 0.02     # last local gap rate vs 2 kappa
DOUBLE_PREF_TOL = 0.10     # gap prefactor at the largest l vs 2|mu|
SIMPLE_RATE_TOL = 0.05     # last local shift rate vs 4 kappa
SIMPLE_PREF_TOL = 0.15     # shift prefactor at the largest l vs the derived mu
ENERGY_TOL = 1e-6          # solve_U energy identity residual
CUTOFF = 0.999             # eigenvalues compared with the FD oracle lie below this


def _tau(d: float) -> int:
    return 2 if abs(d - math.pi) <= 1e-12 else 1


def local_rates(ls, values):
    """-d log|v| / dl between successive samples."""
    return [
        math.log(abs(v0) / abs(v1)) / (l1 - l0)
        for (l0, v0), (l1, v1) in zip(zip(ls, values), zip(ls[1:], values[1:]))
    ]


def _strictly(seq, increasing: bool) -> bool:
    pairs = list(zip(seq, seq[1:]))
    return all((b > a) if increasing else (b < a) for a, b in pairs)


def check_verify_double(bundle: dict) -> list[str]:
    """Mirrored pair: the 2 kappa splitting law, from the raw sweep eigenvalues."""
    fails = []
    ground = bundle["single_windows"]["minus"]["modes"][0]
    lam_star, c = ground["lambda"], ground["c"]
    d = bundle["config"]["d"]
    kappa = math.sqrt(1.0 - lam_star)
    two_mu = 2.0 * _tau(d) * math.pi * kappa * c * c     # 2|mu|, mu = (-1)^(m+1) tau pi kappa c^2

    ls, gaps = [], []
    for rec in sorted(bundle["sweep"], key=lambda r: r["l"]):
        pair = sorted(
            range(len(rec["eigenvalues"])),
            key=lambda i: abs(rec["eigenvalues"][i] - lam_star),
        )[:2]
        if len(pair) < 2:
            fails.append(f"l={rec['l']}: fewer than two roots near lambda*")
            continue
        lo, hi = sorted(pair, key=lambda i: rec["eigenvalues"][i])
        lam_lo, lam_hi = rec["eigenvalues"][lo], rec["eigenvalues"][hi]
        if not lam_lo < lam_star < lam_hi:
            fails.append(f"l={rec['l']}: pair ({lam_lo}, {lam_hi}) does not straddle {lam_star}")
        if (rec["parities"][lo], rec["parities"][hi]) != ("even", "odd"):
            fails.append(
                f"l={rec['l']}: lower/upper parities {rec['parities'][lo]}/{rec['parities'][hi]}"
            )
        ls.append(rec["l"])
        gaps.append(lam_hi - lam_lo)
    if fails:
        return fails
    if not _strictly(gaps, increasing=False):
        fails.append(f"gap does not fall with l: {gaps}")
    if any(g <= 0.0 for g in gaps):
        return fails + ["non-positive gap"]
    rates = local_rates(ls, gaps)
    if not _strictly(rates, increasing=False):
        fails.append(f"local gap rates do not decrease toward 2 kappa: {rates}")
    if abs(rates[-1] / (2.0 * kappa) - 1.0) > DOUBLE_RATE_TOL:
        fails.append(f"last local rate {rates[-1]:.6f} vs 2 kappa = {2.0 * kappa:.6f}")
    prefactor = gaps[-1] * math.exp(2.0 * kappa * ls[-1])
    if abs(prefactor / two_mu - 1.0) > DOUBLE_PREF_TOL:
        fails.append(f"gap prefactor {prefactor:.6e} at l={ls[-1]} vs 2|mu| = {two_mu:.6e}")
    return fails


def check_verify_simple(bundle: dict) -> list[str]:
    """Unequal pair: the 4 kappa shift law of the ground eigenvalue."""
    fails = []
    d = bundle["config"]["d"]
    host, ground = min(
        ((side, entry["modes"][0]) for side, entry in bundle["single_windows"].items()),
        key=lambda item: item[1]["lambda"],
    )
    lam_star, c_host = ground["lambda"], ground["c"]
    partner = [
        u for u in bundle["u_problem"]
        if u["host_side"] == host and u["lambda_star"] == lam_star
    ]
    if len(partner) != 1:
        return [f"no unique partner response for the ground eigenvalue {lam_star}"]
    c_other = partner[0]["c"]
    for u in bundle["u_problem"]:
        if not u["energy_residual"] <= ENERGY_TOL:
            fails.append(
                f"solve_U energy residual {u['energy_residual']:.3e} at {u['lambda_star']}"
            )
    kappa = math.sqrt(1.0 - lam_star)
    mu = _tau(d) * math.pi * kappa * c_host * c_host * c_other   # derived variant

    records = sorted(bundle["sweep"], key=lambda r: r["l"])
    ls = [r["l"] for r in records]
    shifts = [min(r["eigenvalues"]) - lam_star for r in records]
    if not all(s < 0.0 for s in shifts):
        return fails + [f"ground shift not negative at every l: {shifts}"]
    rates = local_rates(ls, shifts)
    if not _strictly(rates, increasing=True):
        fails.append(f"local shift rates do not increase toward 4 kappa: {rates}")
    if abs(rates[-1] / (4.0 * kappa) - 1.0) > SIMPLE_RATE_TOL:
        fails.append(f"last local rate {rates[-1]:.6f} vs 4 kappa = {4.0 * kappa:.6f}")
    prefactor = abs(shifts[-1]) * math.exp(4.0 * kappa * ls[-1])
    if abs(prefactor / abs(mu) - 1.0) > SIMPLE_PREF_TOL:
        fails.append(f"shift prefactor {prefactor:.6e} at l={ls[-1]} vs |mu| = {abs(mu):.6e}")
    return fails


def check_modes_widths(results: list[dict], reference: dict) -> list[str]:
    """Single windows over half-widths and two lower-strip widths."""
    fails = []
    by_geometry = {(r["a"], r["d"]): r for r in results}
    widths = sorted({r["a"] for r in results})
    depths = sorted({r["d"] for r in results})
    for r in results:
        expected = ["even" if i % 2 == 0 else "odd" for i in range(len(r["parities"]))]
        if r["parities"] != expected:
            fails.append(f"a={r['a']}, d={r['d']}: parities {r['parities']} do not alternate")
        if not r["lambdas"]:
            fails.append(f"a={r['a']}, d={r['d']}: no trapped mode")
    # domain monotonicity: enlarging the window or the lower strip lowers
    # every indexed eigenvalue and never loses a mode
    chains = [[(a, d) for a in widths] for d in depths] + [[(a, d) for d in depths] for a in widths]
    for chain in chains:
        for small, big in zip(chain, chain[1:]):
            lo, hi = by_geometry[small]["lambdas"], by_geometry[big]["lambdas"]
            if len(hi) < len(lo):
                fails.append(f"mode count falls from {small} to {big}: {len(lo)} -> {len(hi)}")
            for k, (x, y) in enumerate(zip(lo, hi)):
                if not y < x:
                    fails.append(f"eigenvalue {k + 1} does not decrease from {small} to {big}")
    for ref in reference.values():
        got = by_geometry.get((ref["half_width"], ref["d"]))
        if got is None:
            fails.append(f"acceptance geometry a={ref['half_width']}, d={ref['d']} missing")
            continue
        lams = [lam for lam in got["lambdas"] if lam < CUTOFF]
        fd = ref["fd_extrapolated"]
        if len(fd) < len(lams):
            fails.append(f"a={ref['half_width']}: more modes than the FD reference")
        for k, (lam, want) in enumerate(zip(lams, fd)):
            if abs(lam - want) > FD_MATCH_TOL:
                fails.append(
                    f"a={ref['half_width']}, d={ref['d']}: eigenvalue {k + 1} = {lam} "
                    f"vs FD {want}"
                )
    return fails


def oracle_tolerance(coarse: float, fine: float, spectral: float, L: float, a: float) -> float:
    """Error budget of a two-level extrapolation, see README (oracle-fd)."""
    truncation = math.exp(-2.0 * math.sqrt(1.0 - spectral) * (L - a))
    return abs(coarse - fine) + truncation


def check_oracle_fd(output: dict, spectral: list[float], inputs: dict) -> list[str]:
    """Two-level FD oracle against the spectral eigenvalues of the same geometry."""
    fails = []
    (h0, coarse), (h1, fine) = output["levels"][:2]
    if not h1 < h0:
        fails.append(f"levels not ordered coarse to fine: h = {h0}, {h1}")
    wanted = [lam for lam in spectral if lam < CUTOFF]
    if len(output["extrapolated"]) < len(wanted):
        found = len(output["extrapolated"])
        fails.append(f"oracle found {found} eigenvalues, expected {len(wanted)}")
    a = inputs["geometry"]["windows"][0]["half_width"]
    for k, lam in enumerate(wanted[: len(output["extrapolated"])]):
        if not abs(fine[k] - lam) < abs(coarse[k] - lam):
            fails.append(f"eigenvalue {k + 1}: finer level {fine[k]} not closer than {coarse[k]}")
        ext = output["extrapolated"][k]
        richardson = fine[k] + (fine[k] - coarse[k]) / 3.0
        if abs(ext - richardson) > 1e-12:
            fails.append(f"eigenvalue {k + 1}: extrapolated {ext} is not Richardson's {richardson}")
        tol = oracle_tolerance(coarse[k], fine[k], lam, inputs["L"], a)
        if not abs(ext - lam) <= tol:
            fails.append(f"eigenvalue {k + 1}: extrapolated {ext} off {lam} by more than {tol:.3e}")
    return fails
