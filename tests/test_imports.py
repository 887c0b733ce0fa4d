"""Every name a program module imports is used in that module.

A static scan with the standard ``ast`` module: a name bound by an import
counts as used when it is read anywhere in the module, appears in a string
annotation, or is listed in ``__all__`` (the package's re-exports).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgenus"


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
