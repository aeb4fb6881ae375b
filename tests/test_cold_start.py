"""Cold start: ``import repro`` loads only what the caller touches.

Package ``__init__``s are lazy name tables (PEP 562, DESIGN.md §3): the
first access to an exported name imports the module that defines it.
These tests pin what that buys and what it must not break:

* a bare ``import repro`` runs no submodule and no NumPy, and the cold
  library paths (build + simulate, a serial tune) never load the
  subsystems they do not use;
* every module imports on its own, with no sibling loaded before it
  (an import cycle the old eager order hid fails here);
* the namespace is the eager one: every exported name is its defining
  module's object, every ``__all__`` is unchanged, and every dotted
  path the eager ``import repro`` bound still resolves by attribute
  access to the same kind of object (``tests/golden/
  eager_namespace.json`` records the eager tree; it is compared, never
  regenerated);
* each console script's parser is unchanged (``tests/golden/
  cli_help.json``), every console script's ``--help`` loads no NumPy
  (the parsers' choices come from the leaf :mod:`repro.names`), and the
  tuning and checking verbs' ``--help`` load no experiment definitions.

Import state is per process, so everything that depends on it runs in a
fresh interpreter.
"""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
EAGER = json.loads(
    (Path(__file__).parent / "golden" / "eager_namespace.json").read_text()
)

#: Subsystems a cold build + simulate or a cold serial tune never uses.
NOT_ON_COLD_PATHS = (
    "repro.bench.experiments",
    "repro.server",
    "repro.adapt",
    "repro.recovery",
    "repro.runtime.threaded",
    "asyncio",
)


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.') or m in ('numpy', "
    "'asyncio'))))"
)


def test_import_repro_loads_only_the_package():
    assert fresh("import repro\n" + LOADED) == ["repro"]


@pytest.mark.parametrize("work", [
    "s = repro.build('allreduce', 'recursive_multiplying', p=16, k=4)\n"
    "repro.simulate(s, repro.frontier(nodes=4, ppn=4), nbytes=65536)",
    "repro.tune(repro.machine('frontier-2x4'), (8, 65536, 1 << 20))",
], ids=["build-simulate", "tune"])
def test_cold_paths_skip_unused_subsystems(work):
    loaded = fresh("import repro\n" + work + "\n" + LOADED)
    assert "repro.core.schedule" in loaded
    assert not [m for m in loaded if m.startswith(NOT_ON_COLD_PATHS)]


def test_every_module_imports_on_its_own():
    """Each module of the package imports with no other ``repro``
    module loaded first — the order the eager inits used to impose
    cannot hide an import cycle."""
    failures = fresh(
        "import importlib, json, pkgutil, sys, traceback\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__,"
        " 'repro.')]\n"
        "failures = {}\n"
        "for name in names:\n"
        "    for key in [k for k in sys.modules\n"
        "                if k == 'repro' or k.startswith('repro.')]:\n"
        "        del sys.modules[key]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc(limit=3)\n"
        "print(json.dumps([len(names), failures]))\n"
    )
    count, failed = failures
    assert count > len(EAGER["import_repro_loads"])
    assert not failed, failed


def _table(package: str) -> dict:
    """A lazy package's ``{name: "module[:attr]"}`` table, read from its
    ``__init__`` source (the ``_lazy_exports(...)`` dict literal)."""
    rel = package.split(".")[1:]
    init = SRC.joinpath(*rel, "__init__.py")
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", "") == "_lazy_exports"):
            return ast.literal_eval(node.value.args[2])
    raise AssertionError(f"{package} has no lazy table")


@pytest.mark.parametrize("package", sorted(EAGER["package_all"]))
def test_lazy_exports_are_their_defining_objects(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__ == EAGER["package_all"][package]
    assert "__all__" in dir(pkg)
    assert set(pkg.__all__) <= set(dir(pkg))
    table = _table(package)
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        if name not in table:  # eager: __version__, simnet's simulate
            assert name in vars(pkg), (package, name)
            continue
        module, _, attr = table[name].partition(":")
        defining = importlib.import_module(module, package)
        assert obj is getattr(defining, attr or name), (package, name)
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == defining.__name__, (package, name)


def test_eager_dotted_paths_resolve_by_attribute():
    """Every module the eager ``import repro`` loaded is reachable as an
    attribute path after a bare ``import repro`` — ``repro.simnet.
    machines.frontier`` works without importing ``repro.simnet.machines``
    — and resolves to the same kind of object (``repro.simnet.simulate``
    is the function, as it always was)."""
    kinds = fresh(
        "import json, types\n"
        "import repro\n"
        f"paths = {sorted(EAGER['import_repro_loads'])!r}\n"
        "out = {}\n"
        "for path in paths:\n"
        "    obj = repro\n"
        "    for part in path.split('.')[1:]:\n"
        "        obj = getattr(obj, part)\n"
        "    out[path] = ('module' if isinstance(obj, types.ModuleType)\n"
        "                 else type(obj).__name__)\n"
        "obj = repro.simnet.machines.frontier\n"
        "print(json.dumps(out))\n"
    )
    assert kinds == EAGER["import_repro_loads"]


@pytest.mark.parametrize("package", sorted(EAGER["package_all"]))
def test_unknown_attribute_names_module_and_attribute(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError) as exc:
        pkg.no_such_name  # noqa: B018
    assert str(exc.value) == (
        f"module {package!r} has no attribute 'no_such_name'"
    )
    assert not hasattr(pkg, "__wrapped__")


def _parser_record(parser) -> dict:
    """Everything ``--help`` renders, independent of argparse's layout
    (which varies across Python versions)."""
    return {
        "prog": parser.prog,
        "description": parser.description,
        "epilog": parser.epilog,
        "actions": [
            {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": repr(action.default),
                "choices": (None if action.choices is None
                            else list(action.choices)),
                "nargs": repr(action.nargs),
                "type": getattr(action.type, "__name__", repr(action.type)),
                "metavar": repr(action.metavar),
                "required": action.required,
                "help": action.help,
            }
            for action in parser._actions
        ],
    }


class _Captured(Exception):
    pass


def test_cli_parsers_unchanged(golden, monkeypatch):
    """Every ``main_*`` entry point builds the parser it built before
    its imports moved into the verbs (captured at ``parse_args``)."""
    from repro import cli

    parsers = []

    def spy(self, args=None, namespace=None):
        parsers.append(self)
        raise _Captured

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for name in cli.__all__:
        with pytest.raises(_Captured):
            getattr(cli, name)([])
    golden("cli_help").check(
        {parser.prog: _parser_record(parser) for parser in parsers}
    )


def _help_loads(entry: str) -> list:
    """What a fresh interpreter has loaded after ``entry(['--help'])``."""
    return fresh(
        "import contextlib, io\n"
        f"from repro.cli import {entry}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        {entry}(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        + LOADED
    )


@pytest.mark.parametrize("verb", ["tune", "check"])
def test_help_loads_no_experiments(verb):
    loaded = _help_loads(f"main_{verb}")
    assert "repro.cli" in loaded
    assert "repro.bench.experiments" not in loaded


@pytest.mark.parametrize("entry", importlib.import_module("repro.cli").__all__)
def test_help_loads_no_numpy(entry):
    loaded = _help_loads(entry)
    assert "repro.cli" in loaded
    assert "numpy" not in loaded
