"""Write reference.json: the sha256 of each workload command's output.

Usage: python3 perfbench/record.py

Run it from the root of a checkout whose output is the reference (the
CLI promises byte-identical output, so this changes only when the output
format does).  Every command must exit 0 with no "pass": false record.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    reference = {}
    for _, commands in run.WORKLOADS.values():
        for command in commands:
            out = run.WORK / "out.jsonl"
            out.unlink(missing_ok=True)
            code, wall, _, _ = run.spawn(run.cli_argv(command, out), env)
            digest = run.clean_digest(out) if code == 0 else None
            key = " ".join(command)
            print(f"{wall:7.2f} s  exit {code}  {key}")
            if digest is None:
                print(f"no clean output from {key}", file=sys.stderr)
                return 1
            reference[key] = digest
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
