"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bregmanqn"

# Unused, but bench/selftest.py wraps and compares these module bindings.
# The list is exact: drop an entry when the benchmark stops pinning it.
PINNED = {
    ("geometry", "cholesky_factorize"),
    ("sparse", "cholesky_factorize"),
    ("updates", "cholesky_factorize"),
    ("updates", "newton_bisect_log"),
}


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
