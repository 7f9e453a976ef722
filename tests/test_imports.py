"""Every module-level import in the package is used by the module that makes it."""

import ast
from pathlib import Path

import pytest

import gradesync

PACKAGE = Path(gradesync.__file__).parent
# Imported for a caller outside the package: bench/tracer.py wraps sim.on_beacon_tick.
KEPT = {"sim.py": {"on_beacon_tick"}}


def unused_imports(source: str) -> set[str]:
    """Names a module's top-level imports bind that nothing in the module reads."""
    tree = ast.parse(source)
    bound = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound |= {a.asname or a.name for a in stmt.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(source) == {"math", "s"}


# __init__.py is left out: its imports are the package's public names.
@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_module_has_an_unused_import(name):
    assert unused_imports((PACKAGE / name).read_text()) == KEPT.get(name, set())
