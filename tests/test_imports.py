"""Every module-level import in the package is used by the module that makes it, every
name the package defines is read somewhere in it, and every name the benchmark's tracer
wraps or reads exists in the package."""

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


def unread_names(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """Every top-level function and class of the modules ``sources`` maps by name, and every
    non-dunder method, property and annotated field of those classes, that nothing in
    ``sources`` reads.  A top-level name is read by a ``Name`` or ``Attribute`` load, a member
    only by an ``Attribute`` load.  A name is left out when ``exempt`` holds its dotted or its
    bare name."""
    names, attrs, defined = set(), set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.append((f"{module}.{node.name}", node.name, False))
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                elif isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    name = member.name
                else:
                    continue
                defined.append((f"{module}.{node.name}.{name}", name, True))
    return [q for q, name, member in defined
            if name not in (attrs if member else names | attrs) and not {q, name} & exempt]


def test_the_check_sees_a_name_nothing_reads():
    sources = {
        "a": "class C:\n    x: int\n    y: int\n    def f(self): pass\n    def __eq__(s, o): pass\n"
             "    def __g(self): pass\n"
             "def g(): pass\ndef h(): pass\ndef main(): pass\n",
        "b": "from .a import g\nprint(C(), g, y, ob.x)\n",
    }
    # y is only loaded as a bare name, which cannot reach a member.
    assert unread_names(sources, {"a.main", "f"}) == ["a.C.y", "a.C.__g", "a.h"]


# __init__.py re-exports names and so reads none; what the tracer wraps or reads is kept for
# bench/, and cli.main is the console script.
def test_every_name_in_the_package_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    exempt = {part for target in TARGETS for part in target.split(".")[1:]} | {"cli.main"}
    assert unread_names(sources, exempt) == []
