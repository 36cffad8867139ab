"""Batch driver: build objects, run verification sweeps, emit JSON lines.

Every record carries schema: 1 and a pass field; each command ends with a
summary record.  Exit code 0 means every check passed; 1 means at least
one failed; 2 is a configuration error (a ConfigError); 3 means an
enumeration cap was exceeded; 4 means an internal invariant failed,
including any other ValueError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .reflgroup import DEFAULT_CAP, CapExceeded, ConfigError, GroupSpec, group
from . import locus, ncw, nonnesting, parkspace, qcatalan

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

COMMANDS = (
    "enumerate",
    "verify-weak",
    "verify-csp",
    "verify-intermediate",
    "verify-bijection",
    "nonnesting-count",
    "torus-character",
    "classical-park",
)

# the sweeps over cyclic powers, the only commands that read --d
D_COMMANDS = ("verify-weak", "verify-csp", "verify-intermediate")

# json.dumps(r, sort_keys=True, default=str), without a new encoder per record
ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncpark",
        description="Fuss noncrossing parking spaces: enumeration and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--family", required=True, choices=["A", "B", "D", "I2"])
        p.add_argument("--rank", type=int, help="Coxeter label: A_r is S_{r+1}, B_r, D_r")
        p.add_argument("--m", type=int, help="m for I2(m)")
        p.add_argument("--k", type=int, default=1, help="Fuss parameter")
        if name in D_COMMANDS:
            p.add_argument("--d", type=str, default=None, help="restrict to d or d0:d1")
        p.add_argument("--out", type=str, default="-", help="output path or -")
        p.add_argument("--cap", type=int, help="enumeration cap (env NCPARK_CAP)")
        if name == "verify-bijection":
            p.add_argument("--kind", choices=["bc", "dihedral"], required=True)
    return ap


def parse_spec(args) -> GroupSpec:
    if args.family == "I2":
        if args.m is None:
            raise ConfigError("--m is required for I2")
        if args.rank is not None:
            raise ConfigError("--rank is not read for I2; give --m only")
        return GroupSpec("I2", args.m)
    if args.rank is None:
        raise ConfigError("--rank is required for A/B/D")
    if args.m is not None:
        raise ConfigError("--m is read for I2 only")
    param = args.rank + 1 if args.family == "A" else args.rank
    return GroupSpec(args.family, param)


def parse_cap(args) -> int:
    """--cap if given, else NCPARK_CAP, else DEFAULT_CAP; a positive integer."""
    if args.cap is not None:
        cap, given = args.cap, f"--cap {args.cap}"
    else:
        text = os.environ.get("NCPARK_CAP", str(DEFAULT_CAP))
        given = f"NCPARK_CAP={text!r}"
        try:
            cap = int(text)
        except ValueError:
            raise ConfigError(f"{given} is not an integer") from None
    if cap < 1:
        raise ConfigError(f"{given} is not a positive integer")
    return cap


def parse_d_filter(text, kh: int) -> range:
    """--d as a nonempty range of powers inside [0, kh): d or d0:d1."""
    if text is None:
        return range(kh)
    try:
        bounds = [int(t) for t in text.split(":")]
    except ValueError:
        bounds = []
    if not 1 <= len(bounds) <= 2:
        raise ConfigError(f"--d {text} is not an integer d or a range d0:d1")
    out = range(bounds[0], bounds[-1] if len(bounds) == 2 else bounds[0] + 1)
    if not out or out.start < 0 or out.stop > kh:
        raise ConfigError(f"--d {text} is not a nonempty range inside [0, {kh})")
    return out


def run(args) -> int:
    spec = parse_spec(args)
    k = args.k
    if k < 1:
        raise ConfigError("--k must be >= 1")
    kh = k * spec.coxeter_number
    cap = parse_cap(args)
    base = {
        "schema": SCHEMA,
        "command": args.command,
        "family": spec.family,
        "rank": spec.param,
        "k": k,
    }
    records: list[dict] = []
    d_filter = parse_d_filter(args.d, kh) if args.command in D_COMMANDS else None

    if args.command == "enumerate":
        space = parkspace.build_park(spec, k, cap=cap)
        for p in space.classes():
            records.append({**base, "class": space.class_record(p), "pass": True})
        expected = (kh + 1) ** spec.rank
        records.append(
            {
                **base,
                "summary": True,
                "expected": expected,
                "actual": len(space.classes()),
                "pass": expected == len(space.classes()),
            }
        )
    elif args.command == "verify-weak":
        space = parkspace.build_park(spec, k, cap=cap)
        for row in space.verify_weak():
            if row["d"] in d_filter:
                records.append({**base, **row})
        _summarize(records, base)
    elif args.command == "verify-csp":
        for row in qcatalan.verify_csp(spec, k, cap):
            if row["d"] in d_filter:
                records.append(
                    {
                        **base,
                        "d": row["d"],
                        "expected": row["polynomial_value"],
                        "actual": row["fixed_chains"],
                        "pass": row["pass"],
                    }
                )
        _summarize(records, base)
    elif args.command == "verify-intermediate":
        for row in locus.verify_intermediate_character(spec, k, cap):
            if row["d"] in d_filter:
                records.append({**base, **row})
        _summarize(records, base)
    elif args.command == "verify-bijection":
        if args.kind == "bc":
            if spec.family != "B":
                raise ConfigError("--kind bc needs --family B")
            for row in locus.verify_bc_bijection(spec, k, cap):
                records.append({**base, **row})
        else:
            if spec.family != "I2":
                raise ConfigError("--kind dihedral needs --family I2")
            fwd = locus.dihedral_bijection(spec.param, k, cap)
            records.append(
                {
                    **base,
                    "check": "dihedral_bijection",
                    "expected": (kh + 1) ** 2,
                    "actual": len(fwd),
                    "pass": len(fwd) == (kh + 1) ** 2,
                }
            )
        _summarize(records, base)
    elif args.command == "nonnesting-count":
        nonnesting.reject_dihedral(spec, "root posets")
        expected = len(ncw.build_nc(group(spec.family, spec.param, cap)).multichains(k))
        actual = nonnesting.count_geometric(spec, k)
        records.append({**base, "expected": expected, "actual": actual, "pass": expected == actual})
        _summarize(records, base)
    elif args.command == "torus-character":
        for row in nonnesting.verify_nn_character(spec, k, cap):
            records.append({**base, **row})
        _summarize(records, base)
    elif args.command == "classical-park":
        if spec.family != "A":
            raise ConfigError("classical-park needs --family A")
        n = spec.param
        classical = parkspace.enumerate_classical(n, k)
        expected = (k * n + 1) ** (n - 1)
        records.append(
            {
                **base,
                "check": "count",
                "expected": expected,
                "actual": len(classical),
                "pass": len(classical) == expected,
            }
        )
        space = parkspace.build_park(spec, k, cap=cap)
        images = [space.to_classical(p) for p in space.classes()]
        ok = len(set(images)) == len(images) and set(images) == classical
        records.append(
            {
                **base,
                "check": "bijection_with_parking_space",
                "expected": expected,
                "actual": len(set(images)),
                "pass": ok,
            }
        )
        _summarize(records, base)
    return emit(records, args.out)


def _summarize(records: list[dict], base: dict):
    fails = sum(1 for r in records if not r.get("pass", True))
    records.append(
        {
            **base,
            "summary": True,
            "checks": len(records),
            "failures": fails,
            "pass": fails == 0,
        }
    )


def _temp_path(out: str) -> str:
    return f"{out}.{os.getpid()}.tmp"


def reserve_out(out: str) -> str | None:
    """Create emit's temporary file for --out, or raise a configuration
    error naming a path that cannot be written (a directory, a missing
    directory).  None for stdout."""
    if out == "-":
        return None
    if os.path.isdir(out):
        raise ConfigError(f"cannot write --out {out}: it is a directory")
    tmp = _temp_path(out)
    try:
        open(tmp, "x").close()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror}") from None
    return tmp


def emit(records: list[dict], out: str) -> int:
    """Write one JSON line per record, to stdout for "-".  A file goes to
    the temporary name that reserve_out created and is renamed into place,
    so a failed write leaves a previous file whole."""
    if out == "-":
        _write_lines(records, sys.stdout)
    else:
        tmp = _temp_path(out)
        with open(tmp, "w") as fh:
            _write_lines(records, fh)
        os.replace(tmp, out)
    return EXIT_OK if all(r.get("pass", True) for r in records) else EXIT_FAIL


def _write_lines(records: list[dict], fh):
    for r in records:
        fh.write(ENCODER.encode(r) + "\n")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    tmp = None
    try:
        # --out is checked before any work; a failed run removes the file
        tmp = reserve_out(args.out)
        return run(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyError as exc:
        print(f"internal error: missing key {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


if __name__ == "__main__":
    sys.exit(main())
