"""Run one ncpark CLI command with a span around every call into a layer.

Usage: python3 perfbench/trace_child.py RESULT.json CLI-ARGS...

Before the command runs, each function in SPANS is replaced by a wrapper
that records a span (name, parent, start, end) per call, and each function
in COUNTS by one that only counts calls.  The replacement is rebound
wherever the library holds the original: in the defining module, in every
ncpark module that imported the name, and on the class for methods.

Spans stay in memory.  When the command ends they are folded into
per-name call counts and self time (span time minus the time of its child
spans) and written, with the counters, to RESULT.json.  The command's exit
code is passed through.

Element arithmetic (SignedPerm, DihedralElement) and SetPartition
construction are not wrapped: they run millions of times, so a span there
would swamp the layers, and their cost stays with the calling layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter


def _group_key(args):
    grp = args[0]
    spec = getattr(grp, "spec", grp)
    return (spec.family, spec.param)


def _count_filters(tr, args, result):
    tr.counters["nonnesting.filters_found"] += len(result)
    tr.counters["nonnesting.subsets_scanned"] += 2 ** len(args[0].roots)


def _count_geometric(tr, args, result):
    tr.counters["nonnesting.geometric_chains"] += bool(result)


def _count_torus(tr, args, result):
    spec, k = args[0], args[1]
    tr.counters["nonnesting.torus_vectors"] += (k * spec.coxeter_number + 1) ** spec.rank


def _count_classes(tr, args, result):
    space = args[0]
    if id(space) not in tr.spaces:
        tr.spaces[id(space)] = space
        tr.counters["parkspace.classes_count"] += len(result)


def _count_emit(tr, args, result):
    records, out = args[0], args[1]
    tr.counters["cli.records"] += len(records)
    if out != "-":
        tr.counters["cli.output_bytes"] += os.path.getsize(out)


# (span name, module, attribute path, distinct-argument key, after-call hook)
SPANS = [
    ("reflgroup.elements", "reflgroup", "ReflectionGroup.elements", None, None),
    ("reflgroup.conjugacy_class_reps", "reflgroup", "ReflectionGroup.conjugacy_class_reps", None, None),
    ("reflgroup.fixed_flat", "reflgroup", "ReflectionGroup.fixed_flat", None, None),
    ("reflgroup.isotropy_elements", "reflgroup", "ReflectionGroup.isotropy_elements", None, None),
    ("reflgroup.eigenvalue_multiplicity", "reflgroup", "ReflectionGroup.eigenvalue_multiplicity", None, None),
    ("ncw.build_nc", "ncw", "build_nc", _group_key, None),
    ("ncw.multichains", "ncw", "NCPoset.multichains", None, None),
    ("ncw.g_act_chain", "ncw", "g_act_chain", None, None),
    ("parkspace.build_park", "parkspace", "build_park", None, None),
    ("parkspace.classes", "parkspace", "ParkSpace.classes", None, _count_classes),
    ("parkspace.g_table", "parkspace", "ParkSpace.g_table", None, None),
    ("parkspace.w_table", "parkspace", "ParkSpace.w_table", None, None),
    ("parkspace.verify_weak", "parkspace", "ParkSpace.verify_weak", None, None),
    ("parkspace.labeled_pair", "parkspace", "ParkSpace.labeled_pair", None, None),
    ("parkspace.from_labeled_pair", "parkspace", "ParkSpace.from_labeled_pair", None, None),
    ("parkspace.to_classical", "parkspace", "ParkSpace.to_classical", None, None),
    ("parkspace.class_record", "parkspace", "ParkSpace.class_record", None, None),
    ("parkspace.enumerate_classical", "parkspace", "enumerate_classical", None, None),
    ("setpart.kreweras", "setpart", "kreweras", None, None),
    ("setpart.nabla", "setpart", "nabla", lambda args: args[0], None),
    ("setpart.nabla_block_map", "setpart", "nabla_block_map", None, None),
    ("setpart.bc_nabla", "setpart", "bc_nabla", None, None),
    ("setpart.openers", "setpart", "openers", None, None),
    ("setpart.format_partition", "setpart", "format_partition", None, None),
    ("locus.build_locus", "locus", "build_locus", None, None),
    ("locus.bc_phi", "locus", "bc_phi", None, None),
    ("locus.bc_psi", "locus", "bc_psi", None, None),
    ("locus.close_parens", "locus", "close_parens", None, None),
    ("locus.verify_bc_bijection", "locus", "verify_bc_bijection", None, None),
    ("locus.dihedral_bijection", "locus", "dihedral_bijection", None, None),
    ("locus.verify_intermediate_character", "locus", "verify_intermediate_character", None, None),
    ("qcatalan.fixed_chain_counts", "qcatalan", "fixed_chain_counts", None, None),
    ("qcatalan.cat_poly", "qcatalan", "cat_poly", None, None),
    ("qcatalan.eval_at_root", "qcatalan", "eval_at_root", None, None),
    ("qcatalan.verify_csp", "qcatalan", "verify_csp", None, None),
    ("nonnesting.build_root_poset", "nonnesting", "build_root_poset", None, None),
    ("nonnesting.filters", "nonnesting", "RootPoset.filters", None, _count_filters),
    ("nonnesting.geometric_chains", "nonnesting", "geometric_chains", None, None),
    ("nonnesting.torus_matrix", "nonnesting", "torus_matrix", None, None),
    ("nonnesting.torus_fixed_count", "nonnesting", "torus_fixed_count", None, _count_torus),
    ("nonnesting.verify_nn_character", "nonnesting", "verify_nn_character", None, None),
    ("cli.run", "cli", "run", None, None),
    ("cli.emit", "cli", "emit", None, _count_emit),
]

# (counter name, module, attribute path, after-call hook): calls too frequent
# and too cheap for a span each; their time stays with the caller.
COUNTS = [
    ("parkspace.make_class", "parkspace", "ParkSpace.make_class", None),
    ("locus.locus_act_w", "locus", "locus_act_w", None),
    ("nonnesting.is_geometric", "nonnesting", "is_geometric", _count_geometric),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.spaces: dict[int, object] = {}

    def span(self, name, fn, key, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if seen is not None:
                seen.add(key(args))
            if after:
                after(self, args, result)
            return result

        return wrapper

    def count(self, name, fn, after):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            result = fn(*args, **kwargs)
            if after:
                after(self, args, result)
            return result

        return wrapper

    def install(self):
        import ncpark.cli  # noqa: F401  (loads every library module)

        modules = [m for n, m in sys.modules.items() if n.startswith("ncpark.")]
        entries = [(n, m, p, self.span, (k, a)) for n, m, p, k, a in SPANS]
        entries += [(n, m, p, self.count, (a,)) for n, m, p, a in COUNTS]
        for name, modname, path, make, extra in entries:
            owner = sys.modules["ncpark." + modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            wrapped = make(name, orig, *extra)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for mod in modules:
                for alias in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, alias, wrapped)

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] += 1
        return {
            "self_s": self_s,
            "calls": dict(calls),
            "counters": dict(self.counters),
            "distinct": {n: len(s) for n, s in self.distinct.items()},
        }


def main(argv: list[str]) -> int:
    result_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from ncpark import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(result_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
