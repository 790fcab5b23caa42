"""Command-line interface.

Subcommands:

* ``modes``    single-geometry eigenvalue scan (JSON or CSV records)
* ``coeff-c``  response coefficient of the driven single-window problem
* ``sweep``    two-window distance sweep, written as a flat CSV table
* ``oracle``   finite-difference reference eigenvalues with extrapolation
* ``verify``   full asymptotics verification report (JSON bundle)

Exit codes: 0 on success, 2 for configuration or validation problems (any
``ValidationError``, an ``--out`` file that cannot be written included), 3 for
numerical failures (any other ``WaveguideError``), 4 when ``verify`` produces
failing verdicts.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys

from .errors import ValidationError, WaveguideError
from .experiments import (
    SCHEMA_VERSION,
    parse_experiment_config,
    sweep_l,
    verify_report,
    write_sweep_csv,
)
from .fd_oracle import GridSpec, fd_eigenvalues
from .geometry import parse_problem
from .waveguide import compute_modes, solve_U


def _load_config(path: str) -> str:
    """The text of a config file; the parsers check that it holds a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write the output text to stdout or to the --out file, newline-terminated."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out!r}: {exc}") from exc


def _sanitize(value):
    """Replace non-finite floats with None so the output is strict JSON."""
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _json_text(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2)


def _mode_records(modes) -> list[dict]:
    return [
        {
            "index": m.index,
            "lambda": m.lam,
            "parity": m.parity,
            "c": m.c_coeff,
            "source": "spectral",
        }
        for m in modes
    ]


def _cmd_modes(args: argparse.Namespace) -> int:
    geometry, settings = parse_problem(_load_config(args.config))
    modes = compute_modes(geometry, settings)
    records = _mode_records(modes)
    if args.format == "csv":
        lines = ["index,lambda,parity,c,source"]
        for rec in records:
            c = "" if rec["c"] is None else repr(rec["c"])
            lines.append(f"{rec['index']},{rec['lambda']!r},{rec['parity']},{c},{rec['source']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text({"schema_version": SCHEMA_VERSION, "modes": records}), args.out)
    return 0


def _cmd_coeff_c(args: argparse.Namespace) -> int:
    geometry, settings = parse_problem(_load_config(args.config))
    if len(geometry.windows) != 1:
        raise ValidationError(
            "coeff-c requires a single-window geometry; got "
            f"{len(geometry.windows)} windows"
        )
    window = geometry.windows[0]
    solution = solve_U(args.lam, window.half_width, geometry.d, settings)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "lambda": solution.lam,
        "half_width": window.half_width,
        "d": geometry.d,
        "c": solution.c,
        "energy_residual": solution.energy_residual,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _parse_l_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"cannot parse --l list {text!r}: {exc}") from exc
    if not values:
        raise ValidationError("--l list is empty")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, l_values, settings = parse_experiment_config(_load_config(args.config))
    if args.l_list is not None:
        l_values = _parse_l_list(args.l_list)
    records = sweep_l(config, l_values, settings)
    text = io.StringIO()
    write_sweep_csv(records, text)
    _emit(text.getvalue(), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    geometry, _ = parse_problem(_load_config(args.config))
    grid = GridSpec(h=args.h, L=args.L)
    result = fd_eigenvalues(geometry, grid, args.count, levels=args.levels)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": result.to_records(),
        "diagnostics": result.diagnostics,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    bundle = verify_report(_load_config(args.config))
    _emit(_json_text(bundle.to_dict()), args.out)
    if not bundle.all_pass():
        failing = sorted(k for k, v in bundle.verdicts.items() if not v.get("pass"))
        print(f"verify: failing verdicts: {', '.join(failing)}", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winguide",
        description="Spectral laboratory for window-coupled Dirichlet strips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="eigenvalue scan for one geometry")
    p_modes.add_argument("config", help="geometry config JSON file")
    p_modes.add_argument("--format", choices=("json", "csv"), default="json")
    p_modes.add_argument("--out", default=None, help="output file (default stdout)")
    p_modes.set_defaults(func=_cmd_modes)

    p_coeff = sub.add_parser("coeff-c", help="driven-problem response coefficient")
    p_coeff.add_argument("config", help="single-window geometry config JSON file")
    p_coeff.add_argument("--lambda", dest="lam", type=float, required=True)
    p_coeff.add_argument("--out", default=None)
    p_coeff.set_defaults(func=_cmd_coeff_c)

    p_sweep = sub.add_parser("sweep", help="two-window distance sweep (CSV)")
    p_sweep.add_argument("config", help="experiment config JSON file")
    p_sweep.add_argument("--l", dest="l_list", default=None, help="comma list of half-distances")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="finite-difference reference eigenvalues")
    p_oracle.add_argument("config", help="geometry config JSON file")
    p_oracle.add_argument("--h", type=float, required=True, help="coarsest grid step")
    p_oracle.add_argument("--L", type=float, required=True, help="truncation half-length")
    p_oracle.add_argument("--count", type=int, default=2)
    p_oracle.add_argument("--levels", type=int, default=3)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the asymptotics verification report")
    p_verify.add_argument("config", help="experiment config JSON file")
    p_verify.add_argument("--out", default=None, help="report JSON file (default stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an --out in a missing directory fails as `_emit` would, before the command runs
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
            raise ValidationError(f"cannot write output file {args.out!r}: {missing}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WaveguideError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
