"""The benchmark's tracer wraps library functions by name; each name must
still exist, or every traced benchmark run fails before it starts."""

import importlib
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # the same lookup as Tracer.install, without replacing anything
    tc = load_trace_child()
    paths = [(mod, path) for _, mod, path, _, _ in tc.SPANS]
    paths += [(mod, path) for _, mod, path, _ in tc.COUNTS]
    missing = []
    for modname, path in paths:
        owner = importlib.import_module("ncpark." + modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{modname}.{path}")
    assert paths
    assert missing == []
