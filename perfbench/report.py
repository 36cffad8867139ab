"""Print every benchmark metric for every workload, and optionally save them.

Usage: python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Runs perfbench/run.py on each workload, once with --trace 0 (end-to-end
metrics) and once with --trace 1 (per-layer metrics), and prints one line
per metric with its unit.  With --out it also writes the figures, each
workload's reason and LAYER_TARGETS to FILE as JSON (baseline.json holds
the seed's).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

# Which end-to-end metric each layer metric should move, and on which
# workloads.  On every other workload the prediction is no change.
LAYER_TARGETS = [
    ("reflgroup.", ["wall_s"], ["weak-sweep"]),
    ("ncw.", ["wall_s"], ["weak-sweep", "enumerate-write"]),
    ("parkspace.build_park_s parkspace.classes_s parkspace.classes_count "
     "parkspace.make_class_calls", ["wall_s", "peak_rss_mb"], ["enumerate-write", "weak-sweep"]),
    ("parkspace.g_table_s parkspace.w_table_s parkspace.w_table_calls", ["wall_s"], ["weak-sweep"]),
    ("parkspace.labeled_pair_s", ["wall_s"], ["disc-bijection"]),
    ("parkspace.class_record_s", ["wall_s"], ["enumerate-write"]),
    ("parkspace.self_s", ["wall_s"], ["weak-sweep", "enumerate-write", "disc-bijection"]),
    ("setpart.", ["wall_s"], ["disc-bijection"]),
    ("locus.bc_phi_s locus.bc_psi_s locus.dihedral_bijection_s", ["wall_s"], ["disc-bijection"]),
    ("locus.verify_intermediate_character_s locus.locus_act_w_calls", ["wall_s"], ["weak-sweep"]),
    ("locus.self_s", ["wall_s"], ["disc-bijection", "weak-sweep"]),
    ("qcatalan.", ["wall_s"], ["weak-sweep"]),
    ("nonnesting.", ["wall_s"], ["root-torus"]),
    ("cli.", ["peak_rss_mb", "wall_s"], ["enumerate-write"]),
    ("trace.overhead_s", [], []),
]


def targets(metric: str) -> dict:
    for names, moves, workloads in LAYER_TARGETS:
        if any(metric == n or (n.endswith(".") and metric.startswith(n)) for n in names.split()):
            return {"moves": moves, "on": workloads}
    raise KeyError(f"no layer target for {metric}")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", help="write the figures to this JSON file")
    args = ap.parse_args()
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name, (why, _) in run.WORKLOADS.items():
        entry = {"why": why}
        for trace, part in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, args.seed, args.seconds, trace)
            ok = ok and result["correct"]
            entry[part] = result["metrics"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}")
            for metric, v in result["metrics"].items():
                print(f"  {name:16s} {metric:40s} {v['value']:14.4f} {v['unit']}")
        report["workloads"][name] = entry
    report["layer_targets"] = {m: targets(m) for m in [*run.LAYER_METRICS, "trace.overhead_s"]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
