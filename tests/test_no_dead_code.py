"""src/ncpark holds only what a command runs.  Every function, class and
method there must be reachable: referenced from code that is itself live.
Helpers that only tests call live in tests/conftest.py.

The walk starts from the roots: module-level code, the console entry
point cli.main, and the names that the benchmark's tracer wraps, read from
perfbench/trace_child.py.  A live definition makes live what its body
references, and a live class its dunder methods.  A reference is matched
by name: a method by any attribute of its name, a module-level name by any
name or attribute of its name."""

import ast
from collections import defaultdict
from pathlib import Path

from test_trace_names import load_trace_child

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncpark"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(dotted path, node, is_method) for each def and class at module
    level or inside a class; closures are local and not listed."""
    out = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                out.append((prefix + child.name, child, in_class))
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", True)

    walk(tree, "", False)
    return out


def references(node, listed):
    """(is_attribute, name) for each name and attribute read in node,
    outside the definitions in listed, which are walked on their own."""
    stack = [node]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if id(child) in listed:
                continue
            if isinstance(child, ast.Attribute):
                yield True, child.attr
            elif isinstance(child, ast.Name):
                yield False, child.id
            stack.append(child)


def dead_definitions(trees, roots):
    """The dotted names of the definitions no walk from module-level code
    or from roots, a list of (module, path), reaches; dunders are left to
    their class."""
    defs, by_attr, by_name, dunders = {}, defaultdict(list), defaultdict(list), defaultdict(list)
    for mod, tree in trees.items():
        for path, node, is_method in definitions(tree):
            key, name = (mod, path), path.rsplit(".", 1)[-1]
            defs[key] = node
            by_attr[name].append(key)
            if not is_method:
                by_name[name].append(key)
            if is_dunder(name):
                dunders[(mod, path.rsplit(".", 1)[0])].append(key)
    listed = {id(node) for node in defs.values()}
    live, todo = set(), list(roots)

    def reach(node):
        for is_attr, name in references(node, listed):
            todo.extend(by_attr[name] if is_attr else by_name[name])

    for tree in trees.values():
        reach(tree)
    while todo:
        key = todo.pop()
        if key not in live:
            live.add(key)
            reach(defs[key])
            todo.extend(dunders[key])
    dead = [k for k in defs if k not in live and not is_dunder(k[1].rsplit(".", 1)[-1])]
    return len(defs), [f"{mod}.{path}" for mod, path in dead]


def test_every_definition_has_a_caller():
    tc = load_trace_child()
    roots = [(mod, path) for _, mod, path, *_ in tc.SPANS + tc.COUNTS] + [("cli", "main")]
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}
    count, dead = dead_definitions(trees, roots)
    assert count > 100
    assert dead == []


def test_a_helper_only_dead_code_calls_is_dead():
    source = """
def main():
    return used()

def used():
    return 1

def unused():
    return helper()

def helper():
    return used()

class Kept:
    def __init__(self):
        self.x = inner()

def inner():
    return 2

KEEP = Kept
"""
    count, dead = dead_definitions({"m": ast.parse(source)}, [("m", "main")])
    assert count == 7
    assert sorted(dead) == ["m.helper", "m.unused"]
