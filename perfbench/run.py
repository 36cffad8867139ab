"""Closed-loop benchmark of the ncpark CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/ncpark).  One client
runs the workload's commands one after another, each in a fresh child
process (`python3 -m ncpark.cli ... --out FILE`, `--threads` left at 1),
in an order shuffled by --seed, pass after pass, until --seconds have
passed and every command has run at least once.  A command fails if it
exits non-zero, if its output holds a `"pass": false` record, or if the
output's sha256 differs from the seed's in reference.json.

--trace 0 reports the end-to-end metrics:
    wall_s       one pass over the commands: per command, the median wall
                 time from spawn to reap; summed over the commands
    cpu_s        the same with the child's user+sys CPU time
    peak_rss_mb  largest peak RSS of any one child (os.wait4, per child)
    setup_s      median time to start python and import ncpark.cli

--trace 1 runs one plain pass and one traced pass (trace_child.py) and
reports the per-layer metrics in LAYER_METRICS plus trace.overhead_s
(traced minus plain pass wall time).

Times are in reference seconds (see Client).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Every child process launched is one attempted operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7
CALIBRATION_STEPS = 100_000
REFERENCE_CALIBRATION_S = 0.1


def cmd(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# Seed runtimes in a fresh process on a 2-core x86-64 box are in the
# comments; each workload loads a different mix of library layers.
WORKLOADS = {
    "weak-sweep": (
        "fixed-point sweeps over action tables: reflgroup, ncw, parkspace tables, qcatalan",
        [
            cmd("verify-weak --family D --rank 4 --k 2"),  # 3.4 s
            cmd("verify-weak --family A --rank 5 --k 1"),  # 3.1 s
            cmd("verify-weak --family B --rank 4 --k 1"),  # 1.6 s
            cmd("verify-weak --family I2 --m 8 --k 4"),  # 0.2 s
            cmd("verify-csp --family D --rank 4 --k 2"),  # 0.3 s
            cmd("verify-csp --family B --rank 4 --k 1"),  # 0.5 s
            cmd("verify-intermediate --family D --rank 4 --k 2"),  # 6.0 s
        ],
    ),
    "disc-bijection": (
        "disc pictures and loci: setpart kreweras/nabla/openers and locus phi/psi on small class sets",
        [
            cmd("verify-bijection --kind bc --family B --rank 3 --k 2"),  # 8.6 s
            cmd("verify-bijection --kind bc --family B --rank 2 --k 3"),  # 0.6 s
            cmd("classical-park --family A --rank 3 --k 3"),  # 2.6 s
            cmd("verify-bijection --kind dihedral --family I2 --m 8 --k 4"),  # 0.3 s
        ],
    ),
    "root-torus": (
        "nonnesting filter scan and brute-force torus, plus NC(W) for the expected counts; no parkspace or setpart work",
        [
            cmd(f"{c} --family {f} --rank 4 --k 2")  # 0.3 to 4.8 s each
            for f in ("B", "D", "A")
            for c in ("nonnesting-count", "torus-character")
        ],
    ),
    "enumerate-write": (
        "the write side: build and serialize every class (class_record, format_partition, emit)",
        [
            cmd("enumerate --family D --rank 4 --k 2"),  # 2.0 s, 5.1 MB out
            cmd("enumerate --family A --rank 5 --k 1"),  # 1.7 s, 2.5 MB out
            cmd("enumerate --family B --rank 3 --k 3"),  # 0.6 s, 1.2 MB out
        ],
    ),
}


def _self(span):
    return lambda p: p["self_s"].get(span, 0.0)


def _calls(name):
    return lambda p: p["calls"].get(name, 0) + p["counters"].get(name, 0)


def _distinct(name):
    return lambda p: p["distinct"].get(name, 0)


def _ratio(num, den):
    return lambda p: num(p) / den(p) if den(p) else 0.0


def _layer(layer):
    return lambda p: sum(v for n, v in p["self_s"].items() if n.split(".")[0] == layer)


LAYERS = ("reflgroup", "ncw", "parkspace", "setpart", "locus", "qcatalan", "nonnesting", "cli")

# name -> (unit, value from one traced pass).  Every *_s is self time: the
# span's time minus the time of the spans it called.
LAYER_METRICS = {
    "reflgroup.elements_s": ("s", _self("reflgroup.elements")),
    "reflgroup.conjugacy_class_reps_s": ("s", _self("reflgroup.conjugacy_class_reps")),
    "reflgroup.fixed_flat_s": ("s", _self("reflgroup.fixed_flat")),
    "reflgroup.fixed_flat_calls": ("count", _calls("reflgroup.fixed_flat")),
    "reflgroup.isotropy_elements_s": ("s", _self("reflgroup.isotropy_elements")),
    "ncw.build_nc_s": ("s", _self("ncw.build_nc")),
    "ncw.build_nc_calls": ("count", _calls("ncw.build_nc")),
    "ncw.build_nc_per_group": (
        "ratio",
        _ratio(_calls("ncw.build_nc"), _distinct("ncw.build_nc")),
    ),
    "ncw.multichains_s": ("s", _self("ncw.multichains")),
    "ncw.g_act_chain_calls": ("count", _calls("ncw.g_act_chain")),
    "parkspace.build_park_s": ("s", _self("parkspace.build_park")),
    "parkspace.classes_s": ("s", _self("parkspace.classes")),
    "parkspace.classes_count": ("count", _calls("parkspace.classes_count")),
    "parkspace.make_class_calls": ("count", _calls("parkspace.make_class")),
    "parkspace.g_table_s": ("s", _self("parkspace.g_table")),
    "parkspace.w_table_s": ("s", _self("parkspace.w_table")),
    "parkspace.w_table_calls": ("count", _calls("parkspace.w_table")),
    "parkspace.labeled_pair_s": ("s", _self("parkspace.labeled_pair")),
    "parkspace.class_record_s": ("s", _self("parkspace.class_record")),
    "setpart.kreweras_s": ("s", _self("setpart.kreweras")),
    "setpart.kreweras_calls": ("count", _calls("setpart.kreweras")),
    "setpart.nabla_s": ("s", _self("setpart.nabla")),
    "setpart.nabla_calls": ("count", _calls("setpart.nabla")),
    "setpart.nabla_per_chain": (
        "ratio",
        _ratio(_calls("setpart.nabla"), _distinct("setpart.nabla")),
    ),
    "setpart.openers_s": ("s", _self("setpart.openers")),
    "setpart.bc_nabla_s": ("s", _self("setpart.bc_nabla")),
    "locus.bc_phi_s": ("s", _self("locus.bc_phi")),
    "locus.bc_psi_s": ("s", _self("locus.bc_psi")),
    "locus.dihedral_bijection_s": ("s", _self("locus.dihedral_bijection")),
    "locus.verify_intermediate_character_s": ("s", _self("locus.verify_intermediate_character")),
    "locus.locus_act_w_calls": ("count", _calls("locus.locus_act_w")),
    "qcatalan.fixed_chain_counts_s": ("s", _self("qcatalan.fixed_chain_counts")),
    "qcatalan.cat_poly_s": ("s", _self("qcatalan.cat_poly")),
    "qcatalan.eval_at_root_s": ("s", _self("qcatalan.eval_at_root")),
    "nonnesting.filters_s": ("s", _self("nonnesting.filters")),
    "nonnesting.filter_yield": (
        "ratio",
        _ratio(_calls("nonnesting.filters_found"), _calls("nonnesting.subsets_scanned")),
    ),
    "nonnesting.is_geometric_calls": ("count", _calls("nonnesting.is_geometric")),
    "nonnesting.geometric_yield": (
        "ratio",
        _ratio(_calls("nonnesting.geometric_chains"), _calls("nonnesting.is_geometric")),
    ),
    "nonnesting.torus_fixed_count_s": ("s", _self("nonnesting.torus_fixed_count")),
    "nonnesting.torus_vectors": ("count", _calls("nonnesting.torus_vectors")),
    "cli.run_s": ("s", _self("cli.run")),
    "cli.emit_s": ("s", _self("cli.emit")),
    "cli.records": ("count", _calls("cli.records")),
    "cli.output_bytes": ("B", _calls("cli.output_bytes")),
    **{f"{layer}.self_s": ("s", _layer(layer)) for layer in LAYERS},
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Let the warm-up child write bytecode so that every timed import
    # reads it, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, float, float, float]:
    """Run argv to completion; return (exit code, wall s, cpu s, peak RSS MB)."""
    with open(WORK / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (WORK / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cli_argv(command: tuple[str, ...], out: Path, trace: Path | None = None) -> list[str]:
    """argv of one CLI command writing to out, under trace_child.py if trace."""
    prefix = [sys.executable, "-m", "ncpark.cli"] if trace is None \
        else [sys.executable, str(HERE / "trace_child.py"), str(trace)]
    return prefix + list(command) + ["--out", str(out)]


def clean_digest(out: Path) -> str | None:
    """sha256 of a command's output, or None if it is missing or holds a
    failing record.  Reads line by line: a child's peak RSS can include
    the memory of the parent it was forked from."""
    if not out.is_file():
        return None
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for line in fh:
            if b'"pass": false' in line:
                return None
            digest.update(line)
    return digest.hexdigest()


def calibrate() -> float:
    """Time a fixed piece of pure-Python work like the library's inner loops
    (tuple permutations, dict counts)."""
    t0 = time.perf_counter()
    perms = [tuple((i * a) % 7 for i in range(7)) for a in range(1, 7)]
    seen: dict[tuple, int] = {}
    p = perms[0]
    for i in range(CALIBRATION_STEPS):
        p = tuple(p[x] for x in perms[i % 6])
        seen[p] = seen.get(p, 0) + 1
    return time.perf_counter() - t0


class Client:
    """One closed-loop client: runs children one at a time, checks their
    output, and counts attempted and failed children.

    The speed of a shared machine drifts by tens of percent within a
    minute, and a child's time follows the drift.  So the client runs
    calibrate() between children and scales each child's times by
    REFERENCE_CALIBRATION_S over the mean of the two calibrations around
    it: times are in reference seconds, those of a machine on which the
    calibration takes REFERENCE_CALIBRATION_S.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.calibration = calibrate()

    def launch(self, argv: list[str]) -> tuple[int, float, float, float, float]:
        """(exit code, scaled wall s, scaled cpu s, peak RSS MB, scale) of one child."""
        code, wall, cpu, rss = spawn(argv, self.env)
        before, self.calibration = self.calibration, calibrate()
        scale = 2 * REFERENCE_CALIBRATION_S / (before + self.calibration)
        self.attempted += 1
        return code, wall * scale, cpu * scale, rss, scale

    def setup_s(self) -> float:
        argv = [sys.executable, "-c", "import ncpark.cli"]
        spawn(argv, self.env)  # warm-up: bytecode and file cache
        walls = []
        for _ in range(SETUP_SAMPLES):
            code, wall, _, _, _ = self.launch(argv)
            self.failed += code != 0
            walls.append(wall)
        return statistics.median(walls)

    def command(self, command: tuple[str, ...], traced: bool = False):
        """Run one CLI command; return (wall, cpu, rss, trace summary or None)."""
        out, trace = WORK / "out.jsonl", WORK / "trace.json"
        for path in (out, trace):
            path.unlink(missing_ok=True)
        code, wall, cpu, rss, scale = self.launch(cli_argv(command, out, trace if traced else None))
        summary = None
        if traced and trace.is_file():
            summary = json.loads(trace.read_text())
            summary["self_s"] = {n: v * scale for n, v in summary["self_s"].items()}
        key = " ".join(command)
        ok = code == 0 and clean_digest(out) == self.reference[key]
        ok = ok and (summary is not None or not traced)
        if code == 0 and not ok:
            print(f"wrong output: {key}", file=sys.stderr)
        self.failed += not ok
        return wall, cpu, rss, summary


def shuffled_passes(rng: random.Random, commands: list):
    while True:
        yield from rng.sample(commands, len(commands))


def end_to_end(client: Client, commands: list, rng: random.Random, seconds: int) -> dict:
    setup = client.setup_s()
    samples: dict[tuple, list] = {c: [] for c in commands}
    deadline = time.perf_counter() + seconds
    for command in shuffled_passes(rng, commands):
        if time.perf_counter() >= deadline and all(samples.values()):
            break
        samples[command].append(client.command(command))
    for command, runs in samples.items():
        walls = [r[0] for r in runs]
        print(f"{len(runs):3d} runs  median {statistics.median(walls):8.3f} s  {' '.join(command)}")

    def per_pass(i):
        return sum(statistics.median(r[i] for r in runs) for runs in samples.values())

    return {
        "wall_s": (per_pass(0), "s"),
        "cpu_s": (per_pass(1), "s"),
        "peak_rss_mb": (max(r[2] for runs in samples.values() for r in runs), "MB"),
        "setup_s": (setup, "s"),
    }


def merge(summaries: list[dict]) -> dict:
    total = {"self_s": {}, "calls": {}, "counters": {}, "distinct": {}}
    for summary in summaries:
        for part, values in total.items():
            for name, v in summary[part].items():
                values[name] = values.get(name, 0) + v
    return total


def per_layer(client: Client, commands: list, rng: random.Random) -> dict:
    plain = sum(client.command(c)[0] for c in rng.sample(commands, len(commands)))
    runs = [client.command(c, traced=True) for c in rng.sample(commands, len(commands))]
    traced = merge([r[3] for r in runs if r[3] is not None])
    metrics = {name: (fn(traced), unit) for name, (unit, fn) in LAYER_METRICS.items()}
    metrics["trace.overhead_s"] = (sum(r[0] for r in runs) - plain, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncpark" / "cli.py").is_file():
        print(f"no ncpark source tree under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    WORK.mkdir(exist_ok=True)
    commands = WORKLOADS[args.workload][1]
    rng = random.Random(args.seed)
    client = Client(reference)
    if args.trace:
        metrics = per_layer(client, commands, rng)
    else:
        metrics = end_to_end(client, commands, rng, args.seconds)
    print(f"fail_ratio {client.failed / client.attempted:.4f} "
          f"({client.failed} of {client.attempted} children)")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
