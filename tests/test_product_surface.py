"""Every public function or class in src/, and every attribute a src/ class stores on
`self`, is reached by the product, not only by tests."""

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


def _product_trees() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The parsed src/winguide modules by stem, and the non-test winbench files."""
    modules = {path.stem: _parse(path) for path in sorted((ROOT / "src" / "winguide").glob("*.py"))}
    bench = [
        _parse(path) for path in sorted((ROOT / "winbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    return modules, bench


def _reached_only_by_tests() -> set[str]:
    """Public top-level functions and classes of src/winguide that no product code names.

    A name counts as reached when another src/ module, its own module outside
    its definition, or a winbench file other than its tests refers to it.
    """
    modules, bench_trees = _product_trees()
    bench = set().union(*(_names(tree) for tree in bench_trees))
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


def _attributes_stored_never_loaded() -> set[str]:
    """Attributes that src/ classes store on `self` but no product code reads.

    A read is an attribute load of that name anywhere in src/winguide or in a
    winbench file other than its tests.
    """
    modules, bench = _product_trees()
    loaded = {
        sub.attr
        for tree in [*modules.values(), *bench]
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    unread = set()
    for stem, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for sub in ast.walk(cls):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr not in loaded
                ):
                    unread.add(f"{stem}.{cls.name}.{sub.attr}")
    return unread


def test_no_attribute_stored_on_self_is_read_only_by_tests():
    # an attribute that only tests read belongs in tests/, computed there
    assert _attributes_stored_never_loaded() == set()
