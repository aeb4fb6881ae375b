"""One way into a :class:`~repro.core.schedule.Schedule`, one IR.

A schedule is its labels and its columns, made by ``Schedule._seal``
from :meth:`~repro.core.schedule.Schedule.from_columns`, a pickle load
or the JSON import.  The op objects (``SendOp`` …) live in
``tests/oracle.py`` as the test suite's reference IR; no module of the
package defines, imports, exports or reads them, and a schedule has no
constructor and no op-object view.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
import repro.core
import repro.core.schedule
from repro.core.registry import build_schedule
from repro.core.schedule import Schedule

#: The op-object IR and the walks between it and the columns.
REMOVED = ("SendOp", "RecvOp", "CopyOp", "Op", "Step", "RankProgram")
REMOVED_FUNCTIONS = ("_walk", "_programs_of")

#: ``self.programs`` inside these classes is their own view, not a
#: schedule's: a compiled artifact's per-rank tables.
OWN_PROGRAMS = {"CompiledSchedule"}

PACKAGE = Path(repro.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE), ast.parse(path.read_text())


class _Finder(ast.NodeVisitor):
    """Every use of a removed name, and every ``.programs`` /
    ``.program`` read that is not a class's read of its own view."""

    def __init__(self):
        self.found = []
        self.classes = []

    def visit_ClassDef(self, node):
        if node.name in REMOVED:
            self.found.append(f"defines class {node.name}")
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        if node.name in REMOVED_FUNCTIONS:
            self.found.append(f"defines {node.name}()")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name in REMOVED or alias.asname in REMOVED:
                self.found.append(f"imports {alias.name}")

    def visit_Name(self, node):
        if node.id in REMOVED:
            self.found.append(f"names {node.id} (line {node.lineno})")

    def visit_Attribute(self, node):
        if node.attr in REMOVED:
            self.found.append(f"reads .{node.attr} (line {node.lineno})")
        if node.attr in ("programs", "program") and not (
            isinstance(node.value, ast.Name) and node.value.id == "self"
            and self.classes and self.classes[-1] in OWN_PROGRAMS
        ):
            self.found.append(f"reads .{node.attr} (line {node.lineno})")
        self.generic_visit(node)

    def visit_Constant(self, node):
        # ``__all__`` entries and ``getattr`` names are strings.
        if node.value in REMOVED + REMOVED_FUNCTIONS:
            self.found.append(f"spells {node.value!r} (line {node.lineno})")


def test_no_module_defines_imports_exports_or_reads_an_op_object():
    found = []
    for path, tree in _modules():
        finder = _Finder()
        finder.visit(tree)
        found += [f"{path}: {what}" for what in finder.found]
    assert not found, "\n".join(found)


@pytest.mark.parametrize("name", REMOVED)
def test_the_package_exports_no_op_object(name):
    assert name not in repro.core.__all__
    assert name not in repro.core.schedule.__all__
    assert name not in repro.__all__
    for module in (repro, repro.core, repro.core.schedule):
        assert not hasattr(module, name), module.__name__


def test_a_schedule_has_no_constructor_and_no_op_object_view():
    with pytest.raises(TypeError):
        Schedule("bcast", "t", 2, 1, [])
    assert "__init__" not in vars(Schedule)
    for member in ("programs", "program"):
        assert not hasattr(Schedule, member)
    assert not dataclasses.is_dataclass(Schedule)
    sched = build_schedule("bcast", "binomial", 4)
    with pytest.raises(TypeError):
        dataclasses.replace(sched, algorithm="other")
    for member in REMOVED_FUNCTIONS:
        assert not hasattr(repro.core.schedule, member)
