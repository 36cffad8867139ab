"""Arithmetic in src/ncpark stays exact: no true division, no float or
complex literal, no float() or complex() call and no cmath.  Floor
division (//) and divmod are the exact forms; a quotient that must be
whole checks its remainder."""

import ast

import pytest

from test_no_dead_code import PACKAGE


def float_entries(tree):
    """(line, what) for each way a float or complex could enter."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex"):
            yield node.lineno, f"{node.func.id}()"
        elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            yield node.lineno, "import cmath"
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node.lineno, "from cmath import"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_float_enters_src(path):
    assert list(float_entries(ast.parse(path.read_text()))) == []


@pytest.mark.parametrize(
    "source",
    [
        "c = 2 * b / a",
        "c /= 2",
        "x = 0.5",
        "z = 1j",
        "y = float(3)",
        "z = complex(1, 2)",
        "import cmath",
        "from cmath import exp",
    ],
)
def test_each_float_entry_is_caught(source):
    assert len(list(float_entries(ast.parse(source)))) == 1
