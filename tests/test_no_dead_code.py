"""src/ncpark holds only what a command runs.  Every function, class and
method there must have a reference in the package outside its own body;
helpers that only tests call live in tests/conftest.py.

Exempt are dunders, the console entry point cli.main, and the names that
the benchmark's tracer wraps, read from perfbench/trace_child.py.  A
reference is matched by name: a method by any attribute of its name, a
module-level name by any name or attribute of its name."""

import ast
from collections import defaultdict
from pathlib import Path

from test_trace_names import load_trace_child

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncpark"


def definitions(tree):
    """(dotted path, node, is_method) for each def and class at module
    level or inside a class; closures are local and not listed."""
    out = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child, in_class))
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", True)

    walk(tree, "", False)
    return out


def test_every_definition_has_a_caller():
    tc = load_trace_child()
    exempt = {(mod, path) for _, mod, path, *_ in tc.SPANS + tc.COUNTS} | {("cli", "main")}
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}
    attrs, names = defaultdict(list), defaultdict(list)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs[node.attr].append((mod, node.lineno))
            elif isinstance(node, ast.Name):
                names[node.id].append((mod, node.lineno))
    checked, dead = 0, []
    for mod, tree in trees.items():
        for path, node, is_method in definitions(tree):
            name = path.rsplit(".", 1)[-1]
            if (name.startswith("__") and name.endswith("__")) or (mod, path) in exempt:
                continue
            checked += 1
            refs = attrs[name] + ([] if is_method else names[name])
            body = range(node.lineno, node.end_lineno + 1)
            if all(m == mod and line in body for m, line in refs):
                dead.append(f"{mod}.{path}")
    assert checked > 100
    assert dead == []
