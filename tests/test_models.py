"""One W protocol: group() picks a model, ReflectionGroup for A, B and D
or DihedralGroup for I2, and the layers above call the methods both
answer without asking which.  An "I2" test is left only where the family
is input: the spec, the flats, the choice of model and the commands'
input policies."""

import ast
import json
import subprocess
import sys

import pytest

from conftest import child_env
from test_no_dead_code import PACKAGE, ROOT

from ncpark import reflgroup

# the methods the layers above reflgroup call on a model
PROTOCOL = (
    "family",
    "identity",
    "coxeter_element",
    "elements",
    "reflections",
    "fixed_flat",
    "flat_reflections",
    "flat_literal",
    "spectrum",
    "eigenvalue_multiplicity",
    "conjugacy_class_reps",
    "class_id",
    "class_sizes",
    "coset_classes",
    "cosets",
    "rep_record",
    "locus_moves",
)

# (module, outermost definition) of each "I2" test that reads input
ALLOWED = {
    ("reflgroup", "GroupSpec"),
    ("reflgroup", "FlatPartition"),
    ("reflgroup", "group"),
    ("cli", "parse_spec"),
    ("locus", "locus_order"),
    ("nonnesting", "reject_dihedral"),
}


def names_i2(node) -> bool:
    """Whether node is the constant "I2" or a literal collection holding it."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(names_i2, node.elts))
    return isinstance(node, ast.Constant) and node.value == "I2"


def i2_tests(tree) -> list[tuple[str, int]]:
    """(dotted path of the enclosing definition, line) of each comparison
    with "I2" as an operand, or with a literal collection that holds it."""
    out = []

    def walk(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = path + [child.name]
            if isinstance(child, ast.Compare) and any(map(names_i2, [child.left, *child.comparators])):
                out.append((".".join(path), child.lineno))
            walk(child, inner)

    walk(tree, [])
    return out


def package_i2_tests() -> list[tuple[str, str, int]]:
    """(module, dotted path, line) of each "I2" test in src/ncpark."""
    found = []
    for f in sorted(PACKAGE.glob("*.py")):
        found += [(f.stem, path, line) for path, line in i2_tests(ast.parse(f.read_text()))]
    return found


def test_the_finder_sees_each_form_of_an_i2_test():
    source = """
def f(spec, x):
    if spec.family == "I2":
        return 1
    if "I2" != x:
        return x in ("B", "D", "I2")
    return x not in ["A", "I2"] or GroupSpec("I2", 5)


class C:
    def m(self):
        return self.family == "I2"


FAMILIES = ("A", "I2")
"""
    assert i2_tests(ast.parse(source)) == [("f", 3), ("f", 5), ("f", 6), ("f", 7), ("C.m", 12)]


def test_no_layer_above_the_spec_tests_for_i2():
    found = package_i2_tests()
    assert {(mod, path.split(".")[0]) for mod, path, _ in found} <= ALLOWED
    # the layers that act on W: the models, the park space, NC(W) and
    # the locus action
    models = ("ReflectionGroup", "DihedralGroup")
    assert [t for t in found if t[0] == "reflgroup" and t[1].split(".")[0] in models] == []
    assert [t for t in found if t[0] in ("parkspace", "ncw")] == []
    assert [t for t in found if t[0] == "locus" and t[1] in ("locus_act_w", "locus_w_table", "locus_cycles")] == []


@pytest.mark.parametrize("model", ["ReflectionGroup", "DihedralGroup"])
def test_both_models_define_the_protocol(model):
    tree = ast.parse((PACKAGE / "reflgroup.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == model)
    defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    defined |= {t.id for n in cls.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    assert [name for name in PROTOCOL if name not in defined] == []


@pytest.mark.parametrize("family,param", [("A", 4), ("B", 3), ("D", 4), ("I2", 5)])
def test_group_picks_the_model(family, param):
    grp = reflgroup.group(family, param)
    assert type(grp).__name__ == ("DihedralGroup" if family == "I2" else "ReflectionGroup")
    assert (grp.family, grp.spec.param) == (family, param)


@pytest.mark.parametrize(
    "args,fixed_flat",
    [
        ("verify-weak --family D --rank 4 --k 2", 50),
        ("torus-character --family B --rank 4 --k 2", 20),
    ],
)
def test_traced_a_b_d_spans_record_calls(args, fixed_flat, tmp_path):
    # the benchmark's tracer wraps five ReflectionGroup methods by name:
    # the A, B and D model keeps them, so their spans still fire
    result = tmp_path / "trace.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(result), *args.split(), "--out", "-"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(result.read_text())["calls"]
    assert calls["reflgroup.fixed_flat"] == fixed_flat
    assert calls["reflgroup.conjugacy_class_reps"] == 1
