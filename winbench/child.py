"""One cold round of a benchmark workload, in a fresh interpreter.

`run.py` starts this script once per round and writes one JSON request line
to its standard input: the workload name, its generated inputs, the path of
the package sources, the parent's monotonic clock reading just before the
spawn, and whether to trace. The script imports winguide the way the
``winguide`` command does (``winguide.cli`` pulls in every module), parses
the workload's configs, runs the operations with cold module caches, and
prints one JSON result line: set-up time, operation wall time, peak resident
memory, the outputs the parent checks, and (when traced) per-layer figures.
"""

from __future__ import annotations

import json
import resource
import sys
import time


# Operations call the program through module attributes, looked up at call
# time, so that the tracer's wrappers (installed after set-up) see them.

def _prepare_verify(inputs):
    from winguide import experiments

    document = inputs["config"]
    experiments.parse_experiment_config(document)
    return [lambda: experiments.verify_report(document).to_dict()]


def _prepare_modes(inputs):
    from winguide import waveguide
    from winguide.geometry import parse_problem

    def op(a, d, geometry, settings):
        def run():
            modes = waveguide.compute_modes(geometry, settings)
            return {
                "a": a,
                "d": d,
                "lambdas": [m.lam for m in modes],
                "parities": [m.parity for m in modes],
            }
        return run

    ops = []
    for d in inputs["d_values"]:
        for a in inputs["half_widths"]:
            document = {"d": d, "windows": [{"center": 0.0, "half_width": a}]}
            ops.append(op(a, d, *parse_problem(document)))
    return ops


def _prepare_oracle(inputs):
    from winguide import fd_oracle
    from winguide.geometry import parse_problem

    geometry, _ = parse_problem(inputs["geometry"])
    grid = fd_oracle.GridSpec(h=inputs["h"], L=inputs["L"])

    def run():
        result = fd_oracle.fd_eigenvalues(geometry, grid, inputs["count"], levels=inputs["levels"])
        return {
            "levels": [[h, list(v)] for h, v in result.levels],
            "extrapolated": list(result.extrapolated),
            "error_estimates": list(result.error_estimates),
            "diagnostics": result.diagnostics,
        }

    return [run]


PREPARE = {
    "verify": _prepare_verify,
    "modes": _prepare_modes,
    "oracle": _prepare_oracle,
}


def _layer_metrics(tracer) -> tuple[dict, list]:
    """Named per-layer figures from the trace; names the program lacks are listed as absent."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    absent: list[str] = []

    def span(name, *fields):
        for field in fields:
            key = f"{name}.{field}"
            if name in tracer.wrapped:
                values[key] = totals.get(name, {}).get(field, 0)
            else:
                absent.append(key)

    span("assembly.assemble_galerkin", "calls", "self_s")
    span("assembly.beta_matrix", "calls", "s")
    span("spectral.scan_eigenvalues", "s", "self_s")
    span("waveguide.normalize_mode", "calls", "s")
    span("waveguide.solve_U", "s")
    span("experiments.verify_report", "self_s")
    span("fd_oracle.fd_eigenvalues", "self_s")
    for name in ("banded_matvec", "cholesky_banded", "cho_solve_banded"):
        span(f"fd_oracle.{name}", "calls", "s")

    counters = tracer.counters
    if "assembly.beta_matrix" in tracer.wrapped:
        values["assembly.beta_matrix.mb"] = counters.get("beta_mb", 0.0)
    else:
        absent.append("assembly.beta_matrix.mb")
    if {"spectral.scan_eigenvalues", "assembly.assemble_galerkin"} <= tracer.wrapped:
        roots = counters.get("roots", 0)
        scan_assemblies = tracer.calls_within(
            "assembly.assemble_galerkin", "spectral.scan_eigenvalues"
        )
        values["spectral.roots"] = roots
        values["spectral.assemblies_per_root"] = scan_assemblies / roots if roots else 0.0
    else:
        absent += ["spectral.roots", "spectral.assemblies_per_root"]
    oracle_runs = counters.get("oracle_runs", 0)
    for key in ("iterations", "shift_retries", "nodes"):
        name = f"fd_oracle.{key}"
        missing = oracle_runs and key not in counters
        if "fd_oracle.fd_eigenvalues" not in tracer.wrapped or missing:
            absent.append(name)
        else:
            values[name] = counters.get(key, 0)
    return values, absent


def _on_beta(tracer, result):
    tracer.count("beta_mb", result.nbytes / 1e6)


def _on_scan(tracer, result):
    tracer.count("roots", len(result))


def _on_oracle(tracer, result):
    tracer.count("oracle_runs")
    for level in result.diagnostics.get("levels", ()):
        for key in ("iterations", "shift_retries", "nodes"):
            if key in level:
                tracer.count(key, level[key])


HOOKS = {
    "assembly.beta_matrix": _on_beta,
    "spectral.scan_eigenvalues": _on_scan,
    "fd_oracle.fd_eigenvalues": _on_oracle,
}


def main() -> int:
    request = json.loads(sys.stdin.readline())
    sys.path.insert(0, request["src"])
    import winguide.cli  # noqa: F401  (loads every module, as the command does)
    from winguide.errors import WaveguideError

    ops = PREPARE[request["kind"]](request["inputs"])
    setup_s = time.monotonic() - request["spawned"]

    tracer = None
    if request["trace"]:
        from tracer import Tracer, package_modules

        tracer = Tracer()
        tracer.install(package_modules(), HOOKS)

    outputs, errors, op_s = [], [], []
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        try:
            outputs.append(op())
        except WaveguideError as exc:
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - t_op)
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "op_s": op_s,
        "attempted": len(ops),
        "errors": errors,
        "outputs": outputs,
        "package": winguide.cli.__file__,
    }
    if tracer is not None:
        result["layers"], result["absent"] = _layer_metrics(tracer)
        result["trace"] = tracer.to_records()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
