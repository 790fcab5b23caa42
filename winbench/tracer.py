"""Call-tree tracing of the winguide modules, installed from outside.

`Tracer.install` replaces every public function of the given modules (all
imported ``winguide.*`` modules, see `package_modules`) with a timing
wrapper. The modules import each other's
functions by name (``spectral.assemble_galerkin`` and
``waveguide.assemble_galerkin`` are the same object as
``assembly.assemble_galerkin``), so each wrapper is written into every module
attribute that holds the original; otherwise calls made through the importing
module would go untraced. Foreign callables that a module imports and that a
per-layer metric names (the scipy banded solvers in ``fd_oracle``) are wrapped
under the importing module's name.

Spans are aggregated in memory by call path (the tuple of traced names from
the outermost traced call down), with call count, total and self time; a
span's self time is its duration minus the time of its traced children. The
program's own code is not modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Callables that are not defined in the winguide module holding them, but are
# layer boundaries a per-layer metric names.
FOREIGN = {"winguide.fd_oracle": ("cholesky_banded", "cho_solve_banded")}


def package_modules(package: str = "winguide") -> dict:
    """The imported submodules of `package`, by qualified name."""
    return {n: m for n, m in sys.modules.items() if n.startswith(package + ".")}


class Tracer:
    """Aggregated spans keyed by call path, plus result-derived counters."""

    def __init__(self):
        self.paths: dict[tuple[str, ...], list] = {}   # path -> [calls, total_s, self_s]
        self.stack: list[list] = []                     # open spans: [name, child_s]
        self.counters: dict[str, float] = {}
        self.wrapped: set[str] = set()

    def _wrap(self, name: str, fn, on_return=None):
        stack = self.stack
        paths = self.paths
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                path = tuple(f[0] for f in stack)
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                entry = paths.get(path)
                if entry is None:
                    entry = paths[path] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def install(self, modules: dict, hooks: dict | None = None) -> None:
        """Wrap the public functions of `modules` (qualified name -> module).

        `hooks` maps a traced name to on_return(tracer, result).
        """
        hooks = hooks or {}
        originals: dict[int, tuple[str, object]] = {}
        for mod_name, module in modules.items():
            short = mod_name.split(".", 1)[1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod_name:
                    originals[id(obj)] = (f"{short}.{attr}", obj)
            for attr in FOREIGN.get(mod_name, ()):
                obj = getattr(module, attr, None)
                if obj is not None:
                    originals.setdefault(id(obj), (f"{short}.{attr}", obj))
        wrappers = {
            key: self._wrap(name, fn, hooks.get(name)) for key, (name, fn) in originals.items()
        }
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self.wrapped = {name for name, _ in originals.values()}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def totals(self) -> dict[str, dict]:
        """Per-name calls, total time (outermost spans only) and self time."""
        out: dict[str, dict] = {}
        for path, (calls, total, self_s) in self.paths.items():
            name = path[-1]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            if name not in path[:-1]:
                entry["s"] += total
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of `name` made while a span of `ancestor` was open."""
        return sum(
            calls for path, (calls, _, _) in self.paths.items()
            if path[-1] == name and ancestor in path[:-1]
        )

    def to_records(self) -> list[dict]:
        return [
            {"path": list(path), "calls": c, "s": t, "self_s": s}
            for path, (c, t, s) in sorted(self.paths.items(), key=lambda kv: -kv[1][1])
        ]
