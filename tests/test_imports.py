"""Every module-level import in the package is used by the module that makes it, and
every name the benchmark's tracer wraps or reads exists in the package."""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

import gradesync

PACKAGE = Path(gradesync.__file__).parent
TRACER = PACKAGE.parents[1] / "bench" / "tracer.py"
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


def tracer_targets(source: str) -> tuple[dict[str, str], list[str]]:
    """The gradesync modules ``install`` unpacks, by local name, and every dotted name on them
    it reads or wraps: each attribute chain and each ``_patch(tracer, owner, "attr", ...)``."""
    install = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    unpack = next(node for node in ast.walk(install) if isinstance(node, ast.Assign)
                  and ast.unparse(node.value) == "gradesync_modules")
    modules = {name.id: f"gradesync.{name.id}" for name in unpack.targets[0].elts}
    targets = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_patch":
            targets.add(f"{ast.unparse(node.args[1])}.{node.args[2].value}")
        elif isinstance(node, ast.Attribute) and ast.unparse(node).split(".")[0] in modules:
            targets.add(ast.unparse(node))
    return modules, sorted(targets)


MODULES, TARGETS = tracer_targets(TRACER.read_text())


def test_the_tracer_check_reads_every_patch():
    assert set(MODULES) == {"cli", "scenarios", "sim", "clocks", "errors"}
    assert len([t for t in TARGETS if t.count(".") == 1]) >= 15
    assert "clocks.HardwareClock.advance_to" in TARGETS and "sim.run" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_every_name_the_tracer_wraps_exists(target):
    # bench/ is frozen outside a benchmark change; a name deleted from src/
    # would otherwise show only as a failed benchmark run.
    root, *attrs = target.split(".")
    reduce(getattr, attrs, importlib.import_module(MODULES[root]))
