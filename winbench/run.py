"""Benchmark for winguide: cold end-to-end runs and a traced per-layer run.

Usage, from the repository root:

    python3 winbench/run.py --workload verify-double --seed 1 --seconds 30 --trace 0

Each round of a workload runs in a fresh interpreter (`child.py`), because
every ``winguide`` command pays interpreter start, imports and cold module
caches. The child's BLAS and OpenMP pools are pinned to one thread. A run
repeats whole rounds while the next one is expected to fit in ``--seconds``
(at least one), checks every round's outputs (`checks.py`), and prints one
JSON object as its last line: with ``--trace 0`` the end-to-end metrics
(medians over the rounds), with ``--trace 1`` the per-layer metrics of a
traced run. A per-run record with every round's figures and call-path
profile goes to ``winbench/runs/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

import checks

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
RUN_LIMIT_S = 170.0          # every run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "assembly.assemble_galerkin.calls": "count",
    "assembly.assemble_galerkin.self_s": "s",
    "assembly.beta_matrix.calls": "count",
    "assembly.beta_matrix.s": "s",
    "assembly.beta_matrix.mb": "MB",
    "spectral.scan_eigenvalues.s": "s",
    "spectral.scan_eigenvalues.self_s": "s",
    "spectral.roots": "count",
    "spectral.assemblies_per_root": "count/root",
    "waveguide.normalize_mode.calls": "count",
    "waveguide.normalize_mode.s": "s",
    "waveguide.solve_U.s": "s",
    "experiments.verify_report.self_s": "s",
    "fd_oracle.fd_eigenvalues.self_s": "s",
    "fd_oracle.banded_matvec.calls": "count",
    "fd_oracle.banded_matvec.s": "s",
    "fd_oracle.cholesky_banded.calls": "count",
    "fd_oracle.cholesky_banded.s": "s",
    "fd_oracle.cho_solve_banded.calls": "count",
    "fd_oracle.cho_solve_banded.s": "s",
    "fd_oracle.iterations": "count",
    "fd_oracle.shift_retries": "count",
    "fd_oracle.nodes": "count",
}

# ---------------------------------------------------------------------------
# workloads: inputs are made here from the seed; the program sees only them

ACCEPTANCE_WIDTHS = (1.0, 1.5)      # a=1 (d=2) and a=1.5 (d=pi) are acceptance geometries
LOW_WIDTHS = (0.5, math.pi / 2)     # window tables have the same size for every a here
HIGH_WIDTHS = (math.pi / 2, 3.0)    # table size grows linearly with a here
MIN_WIDTH_SPACING = 0.05


def _modes_widths(seed: int) -> dict:
    """The acceptance half-widths plus three seeded ones in [0.5, 3].

    One width is drawn from LOW_WIDTHS; one from HIGH_WIDTHS together with
    its mirror about that interval's centre, so that the pair's total table
    size, and with it peak memory, is nearly the same for every seed.
    """
    rng = random.Random(seed)
    widths = list(ACCEPTANCE_WIDTHS)

    def spaced(*candidates):
        pool = widths + list(candidates)
        return all(abs(x - y) >= MIN_WIDTH_SPACING for i, x in enumerate(pool) for y in pool[:i])

    while True:
        low = round(rng.uniform(*LOW_WIDTHS), 4)
        if spaced(low):
            break
    widths.append(low)
    while True:
        high = round(rng.uniform(*HIGH_WIDTHS), 4)
        mirror = round(sum(HIGH_WIDTHS) - high, 4)
        if spaced(high, mirror):
            break
    widths += [high, mirror]
    return {"half_widths": sorted(widths), "d_values": [2.0, math.pi]}


def _verify_double(seed: int) -> dict:
    return {"config": {"case": "double", "a_minus": 1.0, "a_plus": 1.0, "d": 2.0,
                       "l_values": [4.0, 5.0, 6.0, 7.0, 8.0]}}


def _verify_simple(seed: int) -> dict:
    return {"config": {"case": "simple", "a_minus": 1.2, "a_plus": 0.8, "d": 2.0,
                       "l_values": [2.5, 3.0, 3.5, 4.0, 4.5, 5.0]}}


def _oracle_fd(seed: int) -> dict:
    return {
        "geometry": {"d": math.pi, "windows": [{"center": 0.0, "half_width": 1.5}]},
        "h": 0.1, "L": 12.0, "count": 2, "levels": 2,
    }


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _check_verify_double(outputs, inputs):
    return checks.check_verify_double(outputs[0])


def _check_verify_simple(outputs, inputs):
    return checks.check_verify_simple(outputs[0])


def _check_modes(outputs, inputs):
    return checks.check_modes_widths(outputs, _reference())


def _check_oracle(outputs, inputs):
    return checks.check_oracle_fd(outputs[0], _reference()["a=1.5,d=pi"]["spectral"], inputs)


# name -> (child operation kind, input generator, output check)
WORKLOADS = {
    "verify-double": ("verify", _verify_double, _check_verify_double),
    "verify-simple": ("verify", _verify_simple, _check_verify_simple),
    "modes-widths": ("modes", _modes_widths, _check_modes),
    "oracle-fd": ("oracle", _oracle_fd, _check_oracle),
}

# ---------------------------------------------------------------------------


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, crashed round)."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    # cached bytecode, as an installed package has; the first round writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_round(kind: str, inputs: dict, trace: bool, timeout: float) -> dict:
    """One cold round in a fresh interpreter; returns the child's result."""
    request = {"kind": kind, "inputs": inputs, "src": str(SRC), "trace": trace}
    request["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_child_env(), cwd=str(ROOT), text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request) + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"round did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"round exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if not pathlib.Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"winguide imported from {result['package']}, not from {SRC}")
    return result


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "winguide" / "cli.py").is_file():
        print(f"error: no winguide sources under {SRC}", file=sys.stderr)
        return 2
    kind, make_inputs, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)

    rounds, failures = [], []
    start = time.monotonic()
    try:
        while True:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            result = run_round(kind, inputs, bool(args.trace), remaining)
            rounds.append(result)
            if result["errors"]:
                failures += result["errors"]
            else:
                failures += check(result["outputs"], inputs)
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["errors"]) for r in rounds)
    if args.trace:
        metrics = {
            name: _metric(statistics.median(r["layers"].get(name, 0) for r in rounds), unit)
            for name, unit in PER_LAYER.items()
        }
        absent = sorted({name for r in rounds for name in r["absent"]})
        if absent:
            print(f"absent per-layer metrics (reported as 0): {absent}", file=sys.stderr)
    else:
        metrics = {
            name: _metric(statistics.median(r[name] for r in rounds), unit)
            for name, unit in END_TO_END.items()
        }
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    RUNS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "failures": failures,
        "rounds": rounds,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
