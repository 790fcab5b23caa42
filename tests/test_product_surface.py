"""Every public function or class in src/ is reached by the product, not only by tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Reached only by tests on purpose: the far-route modal sections that criteria
# 5 and 10 measure, and the config round-trip witness.
ALLOWED = {"waveguide.modal_coeffs", "geometry.serialize_problem"}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(node: ast.AST) -> set[str]:
    """Every identifier that `node` refers to: names, attributes and imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _reached_only_by_tests() -> set[str]:
    """Public top-level functions and classes of src/winguide that no product code names.

    A name counts as reached when another src/ module, its own module outside
    its definition, or a winbench file other than its tests refers to it.
    """
    modules = {path.stem: _parse(path) for path in sorted((ROOT / "src" / "winguide").glob("*.py"))}
    bench = set().union(*(
        _names(_parse(path)) for path in (ROOT / "winbench").glob("*.py")
        if not path.name.startswith("test_")
    ))
    unreached = set()
    for stem, tree in modules.items():
        reached = bench.union(*(_names(t) for s, t in modules.items() if s != stem))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            own = set().union(*(_names(s) for s in tree.body if s is not stmt))
            if stmt.name not in reached | own:
                unreached.add(f"{stem}.{stmt.name}")
    return unreached


def test_no_public_src_function_is_reached_only_by_tests():
    # a name outside ALLOWED belongs in tests/; a stale ALLOWED entry would
    # let a later test-only function hide behind it
    assert _reached_only_by_tests() == ALLOWED
