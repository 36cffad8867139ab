"""Self-checks of the benchmark.

Usage: python3 perfbench/check.py [WORKLOAD ...]   (default: every workload)

For each workload:
  - a short untraced run and two traced runs with different seeds succeed,
    so every output matched its reference digest under both command
    orders (and both sets of child hash seeds);
  - the two traced runs give exactly the same counts, so the counters
    repeat and no state is shared between commands;
  - the metrics printed are the ones BENCHMARK.json lists, with its units.
Then run.py must exit non-zero, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from report import bench


def declared() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "workloads": {w["name"] for w in spec["workloads"]},
        "end_to_end": {m["name"] for m in spec["end_to_end"]},
        "per_layer": {m["name"] for m in spec["per_layer"]},
        "units": units,
    }


def check_metrics(result: dict, names: set, units: dict) -> list[str]:
    got = result["metrics"]
    problems = []
    if set(got) != names:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ names)}")
    problems += [f"{n}: unit {v['unit']} != {units.get(n)}"
                 for n, v in got.items() if v["unit"] != units.get(n)]
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} children failed")
    return problems


def check_workload(name: str, spec: dict) -> list[str]:
    problems = check_metrics(bench(name, 1, 1, 0), spec["end_to_end"], spec["units"])
    traced = [bench(name, seed, 1, 1) for seed in (1, 2)]
    for result in traced:
        problems += check_metrics(result, spec["per_layer"], spec["units"])
    counts = [{n: v["value"] for n, v in r["metrics"].items() if v["unit"] != "s"} for r in traced]
    problems += [f"{n}: {counts[0][n]} != {counts[1].get(n)} across seeds"
                 for n in counts[0] if counts[0][n] != counts[1].get(n)]
    return problems


def check_bare_directory() -> list[str]:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "root-torus",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py printed a result without a source tree"]
    return []


def main(argv: list[str]) -> int:
    spec = declared()
    names = argv or list(run.WORKLOADS)
    problems = []
    if spec["workloads"] != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in names:
        found = check_workload(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += [f"{name}: {p}" for p in found]
    problems += check_bare_directory()
    for p in problems:
        print(p, file=sys.stderr)
    print("all checks passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
