"""Every name a module of the package, or a demo, imports is used there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bregmanqn"
DEMOS = ROOT / "demos"

# Unused, but bench/selftest.py wraps and compares this module binding.
# The list is exact: drop the entry when the benchmark stops pinning it.
# The benchmark wraps the cholesky_factorize bindings of geometry, sparse
# and updates too, but those modules call it, so no entry holds them.
PINNED = {("updates", "newton_bisect_log")}


def _unused_imports(path):
    """Names that path imports (outside from __future__) and never reads;
    a name listed in __all__ counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py is left out: its imports are the package's re-exports
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert found == PINNED


def test_no_demo_imports_a_name_it_does_not_use():
    found = {
        (path.stem, name)
        for path in sorted(DEMOS.glob("*.py"))
        for name in _unused_imports(path)
    }
    assert found == set()
