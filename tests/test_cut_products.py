"""No program module truncates a product after forming it.

A static scan with the standard ``ast`` module: a call of ``.truncate(``
or ``.weight_truncate(`` whose receiver is a ``*`` or ``**`` expression
forms every pair of terms and only then drops those beyond the window.
The kernels take the window into the product instead
(``TruncatedSeries.__mul__(other, order)``,
``SparsePoly.__mul__(other, wmax)``), so such a call is a regression.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgenus"
_CUTS = {"truncate", "weight_truncate"}


def _truncated_products(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CUTS
                and isinstance(node.func.value, ast.BinOp)
                and isinstance(node.func.value.op, (ast.Mult, ast.Pow))):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_product_is_truncated_after_it_is_formed(path):
    assert _truncated_products(path.read_text()) == []


def test_the_scan_sees_a_truncated_product():
    source = ("def f(a, b, s, n):\n"
              "    a.truncate(n)\n"
              "    (a + b).weight_truncate(n)\n"
              "    a.__mul__(b, n)\n"
              "    (a * b).weight_truncate(n)\n"
              "    return (s ** 3).truncate(n)\n")
    assert _truncated_products(source) == [
        "(a * b).weight_truncate(n) (line 5)",
        "(s ** 3).truncate(n) (line 6)"]
