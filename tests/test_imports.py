"""Every name a program module imports is used in that module, and every
function and class it defines is used outside the tests.

Static scans with the standard ``ast`` module.  A name bound by an import
counts as used when it is read anywhere in the module, appears in a string
annotation, or is listed in ``__all__`` (the package's re-exports).  A
module-level function or class, or a method other than a dunder, counts
as used when the package reads its name outside its own definition, when
a click decorator registers it, or when ``perfbench/`` or README.md names
it; re-exports alone do not count.

``import qgenus`` itself imports no module: each export loads on first use.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qgenus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qgenus"

#: Names that only tests call, kept in the package on purpose.
KEEP = {
    "analytic.sin_half": "public float-lane function in qgenus.__all__; "
                         "tests/test_analytic.py checks it against scipy",
    "grouplaw.specialize_ones": "acceptance gate (tests/test_acceptance.py)",
    "qfunctions.lambda_duality_check": "acceptance gate "
                                       "(tests/test_acceptance.py)",
    "virasoro.alpha_apply": "acceptance gate (tests/test_acceptance.py)",
    "witt.nondegeneracy_witness": "acceptance gate (tests/test_acceptance.py)",
    "witt.NondegeneracyWitness.directions_paired":
        "acceptance gate (tests/test_acceptance.py)",
    "witt.witt_add": "acceptance gate (tests/test_acceptance.py)",
    "witt.witt_unit": "acceptance gate (tests/test_acceptance.py)",
    "witt.witt_neg": "the Witt group inverse, in qgenus.__all__ beside "
                     "witt_add and witt_zero",
    "witt.root_of_unity_check": "the root-of-unity quotient criterion, in "
                                "qgenus.__all__ beside q_subfunctor_check",
    "witt.gamma_log_check": "named oracle: the Gamma-log route for vertex "
                            "operators (ROADMAP aim 2)",
    "__init__.__getattr__": "the PEP 562 hook: Python calls it for a "
                            "package attribute not yet imported",
    "cli._Cli.invoke": "overrides click.Group.invoke, which click calls",
}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "SparsePoly | None"
                used |= {n.id for n in ast.walk(ast.parse(node.value))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ("from typing import Any, Iterable\n"
              "import json\n"
              "def f(x: 'Any') -> None:\n"
              "    return json.dumps(x)\n")
    assert _unused_imports(source) == ["Iterable (line 1)"]


def _names_read(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _registered(node: ast.AST) -> bool:
    """A click command or group: its decorator is what calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _unreferenced(modules: dict[str, str], elsewhere: str) -> list[str]:
    """``module.name`` of every module-level function and class, and
    ``module.Class.name`` of every method other than a dunder, in
    ``modules`` (name -> source) that no other part of the package reads,
    no click decorator registers and ``elsewhere`` (text) does not name.
    The parts are the top-level statements, with each class split into its
    methods and the rest of its body."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    parts = []  # (the definitions a part lies in, the names it reads)
    for tree in trees.values():
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                parts.append(((stmt,), _names_read(stmt)))
                continue
            rest = set()
            for node in [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                         *stmt.body]:
                if isinstance(node, ast.FunctionDef):
                    parts.append(((stmt, node), _names_read(node)))
                else:
                    rest |= _names_read(node)
            parts.append(((stmt,), rest))
    words = set(re.findall(r"\w+", elsewhere))

    def unused(node) -> bool:
        return not (any(node.name in names for owners, names in parts
                        if node not in owners)
                    or _registered(node) or node.name in words)

    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if unused(node):
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", m.name) and unused(m)]
    return sorted(out)


def test_every_definition_is_used_outside_the_tests():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    elsewhere = "\n".join([(ROOT / "README.md").read_text()] + [
        p.read_text() for p in (ROOT / "perfbench").glob("*.py")])
    found = _unreferenced(modules, elsewhere)
    # move each name listed here into the test that calls it, or KEEP it
    assert [name for name in found if name not in KEEP] == []
    # a KEEP entry that is gone or now used elsewhere
    assert [name for name in KEEP if name not in found] == []


def test_the_scan_sees_an_unused_function():
    modules = {
        "m": ("import click\n"
              "def used():\n    return 1\n"
              "def unused(n):\n    return unused(n - 1) if n else used\n"
              "class C:\n    def make(self):\n        return C()\n"
              "    def helper(self):\n        return self.inner()\n"
              "    def inner(self):\n        return self.inner\n"
              "    def __len__(self):\n        return 0\n"
              "@click.command()\ndef cmd():\n    pass\n"
              "X = used()\n"),
        "n": "from .m import C\ndef f(c: C):\n    return c.make()\n",
    }
    assert _unreferenced(modules, "f is named in the README") == [
        "m.C.helper", "m.unused"]


def test_importing_the_package_loads_no_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qgenus; print(sorted(m for m in "
         "sys.modules if m.startswith('qgenus')))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout == "['qgenus']\n"


def test_every_export_is_the_object_its_module_defines():
    for module, names in qgenus._EXPORTS.items():
        owner = importlib.import_module(f"qgenus.{module}")
        for name in names:
            obj = getattr(qgenus, name)
            assert obj is getattr(owner, name), name
            assert getattr(obj, "__module__", owner.__name__) == owner.__name__
    # a name listed under two modules would resolve to one of them only
    assert len(qgenus.__all__) == 1 + sum(map(len, qgenus._EXPORTS.values()))
    star: dict = {}
    exec("from qgenus import *", star)
    assert star.keys() - {"__builtins__"} == set(qgenus.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        qgenus.nonsense
    from qgenus import cli  # a submodule, not an export
    assert cli.__name__ == "qgenus.cli"
