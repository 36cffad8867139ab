"""Command line: check the input, run one command, emit JSON lines.

TABLE holds each command's input policy: its families, whether it reads
--d, and what the enumeration cap bounds.  run checks the spec, k, the
cap's value, --d, the family and then the cap itself, all before any
group is built; nothing below this module takes a cap.

Every record carries schema: 1 and a pass field; each command ends with a
summary record.  run encodes each record as it is made and hands the
finished lines to emit in batches of BATCH or more, so a run holds one
batch, not its whole output; enumerate encodes each chain once, and a
class adds only its rep.  emit appends each batch to stdout, to a device
or FIFO, or to the temporary file PATH.<pid>.tmp, which main renames over
--out PATH once run returns.  So stdout, a device and a FIFO see each
batch as it is made, and a run that fails part way (exit 4) may leave its
earlier batches there; a previous PATH stays whole.

Exit code 0 means every check passed; 1 means at least one failed; 2 is a
configuration error (a ConfigError); 3 means an enumeration cap was
exceeded; 4 means an internal invariant failed, including any other
ValueError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import IO, Callable, NamedTuple

from .reflgroup import FAMILIES, ConfigError, GroupSpec, group
from . import locus, ncw, nonnesting, parkspace, qcatalan

SCHEMA = 1
DEFAULT_CAP = 10**6
# lines per emit call, at least; at most about 1 MB of enumerate's lines
BATCH = 4096

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

# json.dumps(r, sort_keys=True, default=str), without a new encoder per record
ENCODER = json.JSONEncoder(sort_keys=True, default=str)


class CapExceeded(RuntimeError):
    """The input would make a command enumerate more than the cap allows."""


# What the cap bounds, as (size, its name) for a spec and k.
def _classes(spec, k):
    """The (kh+1)^n classes or locus points; never below |W|."""
    return (k * spec.coxeter_number + 1) ** spec.rank, "(kh+1)^n"


def _group(spec, k):
    return spec.order, f"|{spec}|"


def _chains(spec, k):
    """W and the k-multichains, of NC(W) or of root poset filters,
    whichever is larger."""
    cat = spec.fuss_catalan(k)
    return (cat, f"Cat^({k})({spec})") if cat > spec.order else _group(spec, k)


def _closure_checks(spec, k):
    """W and the closure conditions nonnesting-count tests, whichever is
    larger: each of the Cat^(k)(W) geometric chains is cross-checked by
    floor(k^2/4) of them, one per index pair i + j < k."""
    work = spec.fuss_catalan(k) * max(1, k * k // 4)
    what = f"Cat^({k})({spec}) * max(1, floor(k^2/4))"
    return (work, what) if work > spec.order else _group(spec, k)


class Command(NamedTuple):
    """What a command takes and runs.  rows(spec, k) yields each record's
    own fields (enumerate: lists of finished class lines, then its summary
    fields); it calls the library through its modules, so a wrapper
    installed there sees the call."""

    rows: Callable
    families: tuple[str, ...] = FAMILIES  # the families it takes
    refusal: str = ""  # the configuration error for any other family
    reads_d: bool = False  # a sweep over the cyclic powers d, which --d restricts
    bound: Callable = _classes  # what it builds, which the cap bounds


def _base(command: str, spec, k) -> dict:
    """The fields every record of a run carries."""
    return {"schema": SCHEMA, "command": command, "family": spec.family, "rank": spec.param, "k": k}


def _count(expected: int, actual: int, **fields) -> dict:
    return {**fields, "expected": expected, "actual": actual, "pass": expected == actual}


def _enumerate(spec, k):
    """One list of class lines per chain.  A line is the chain's head, the
    rep's JSON and the run's tail, so each chain and each rep is encoded
    once: "class" sorts before the base fields, and the tail closes the
    class field and holds them with "pass": true."""
    space = parkspace.build_park(spec, k)
    encode = ENCODER.encode
    tail = "}, " + encode({**_base("enumerate", spec, k), "pass": True})[1:] + "\n"
    reps = [encode(space.rep_record(w)) for w in space.group.elements()]
    count = 0
    for chain, block in space.blocks():
        head = '{"class": {"chain": ' + encode(list(space.chain_picture(chain).record)) + ', "rep": '
        yield [head + reps[r] + tail for r in block]
        count += len(block)
    yield _count((k * spec.coxeter_number + 1) ** spec.rank, count, summary=True)


def _dihedral_bijection(spec, k):
    """The class count of the bijection; a failed check of the builder is a
    failing row with the classes mapped before it and its witness."""
    total = (k * spec.coxeter_number + 1) ** 2
    try:
        fwd = locus.dihedral_bijection(spec.param, k)
    except locus.BijectionFailure as exc:
        yield {**_count(total, exc.mapped, check="dihedral_bijection"), "pass": False, "witness": exc.witness}
        return
    yield _count(total, len(fwd), check="dihedral_bijection")


def _nonnesting_count(spec, k):
    """The count of geometric filter chains against the NC(W) chains.  A
    failing row carries a witness: both sides split by a statistic they
    share, NC(W) by rank and the filters by their number of minimal
    roots, each the Narayana numbers."""
    nc = ncw.build_nc(group(spec.family, spec.param))
    row = _count(len(nc.multichains(k)), nonnesting.count_geometric(spec, k))
    if not row["pass"]:
        ranks = [0] * (spec.rank + 1)
        for x in nc.flat_of.values():
            ranks[spec.rank - x.dim] += 1
        row["witness"] = {"narayana": {"noncrossing": ranks, "nonnesting": nonnesting.antichain_counts(spec)}}
    yield row


def _classical_park(spec, k):
    """The count of classical k-parking functions, and the bijection from
    the parking space to them: to_classical maps each chain block, and
    each sequence it reaches leaves the set of those not yet reached.  A
    failing row carries a witness: the first class whose sequence is
    reached twice (with the records of both classes) or is not a parking
    function, else the least parking function no class reaches."""
    n = spec.param
    unreached = parkspace.enumerate_classical(n, k)
    expected = (k * n + 1) ** (n - 1)
    yield _count(expected, len(unreached), check="count")
    space = parkspace.build_park(spec, k)
    count, bad = 0, None
    for chain, reps in space.blocks():
        for seq in space.to_classical(chain, reps):
            try:
                unreached.remove(seq)
            except KeyError:
                if bad is None:
                    bad = seq, count
            count += 1
    row = {"check": "bijection_with_parking_space", "expected": expected, "actual": count}
    row["pass"] = bad is None and not unreached
    if bad is not None:
        row["actual"], row["witness"] = _bad_sequence(space, *bad)
    elif unreached:
        row["witness"] = {"unreached": list(min(unreached))}
    yield row


def _bad_sequence(space, seq: tuple, pos: int) -> tuple[int, dict]:
    """The number of distinct sequences the classes reach, and the witness
    for the class at pos, whose sequence seq was reached before or is not
    a parking function: the sequences are made again, and the records
    are read off the class positions."""
    seqs = [s for chain, reps in space.blocks() for s in space.to_classical(chain, reps)]
    first = seqs.index(seq)
    if first < pos:
        witness = {"repeated": list(seq), "classes": [space.record_at(first), space.record_at(pos)]}
    else:
        witness = {"not_parking": list(seq), "class": space.record_at(pos)}
    return len(set(seqs)), witness


# (command, --kind) -> Command
TABLE = {
    ("enumerate", None): Command(_enumerate),
    ("verify-weak", None): Command(
        lambda s, k: parkspace.build_park(s, k).verify_weak(), reads_d=True, bound=_chains
    ),
    ("verify-csp", None): Command(lambda s, k: qcatalan.verify_csp(s, k), reads_d=True, bound=_chains),
    ("verify-intermediate", None): Command(
        lambda s, k: locus.verify_intermediate_character(s, k),
        ("B", "D", "I2"),
        locus.NO_LOCUS,
        reads_d=True,
        bound=_chains,
    ),
    ("verify-bijection", "bc"): Command(
        lambda s, k: locus.verify_bc_bijection(s, k), ("B",), "--kind bc needs --family B"
    ),
    ("verify-bijection", "dihedral"): Command(
        _dihedral_bijection, ("I2",), "--kind dihedral needs --family I2"
    ),
    ("nonnesting-count", None): Command(
        _nonnesting_count,
        ("A", "B", "D"),
        nonnesting.NO_DIHEDRAL.format("root posets"),
        bound=_closure_checks,
    ),
    ("torus-character", None): Command(
        lambda s, k: nonnesting.verify_nn_character(s, k),
        ("A", "B", "D"),
        nonnesting.NO_DIHEDRAL.format("root lattice"),
        bound=_group,
    ),
    ("classical-park", None): Command(_classical_park, ("A",), "classical-park needs --family A"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of command only, or with every
    subparser when command names none (missing, an option, unknown), so
    help and usage errors read as the full parser's."""
    ap = argparse.ArgumentParser(
        prog="ncpark",
        description="Fuss noncrossing parking spaces: enumeration and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    names = dict.fromkeys(name for name, _ in TABLE)
    for name in [command] if command in names else names:
        kinds = [kind for cmd, kind in TABLE if cmd == name]
        p = sub.add_parser(name)
        p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--rank", type=int, help="Coxeter label: A_r is S_{r+1}, B_r, D_r")
        p.add_argument("--m", type=int, help="m for I2(m)")
        p.add_argument("--k", type=int, default=1, help="Fuss parameter")
        if TABLE[name, kinds[0]].reads_d:
            p.add_argument("--d", type=str, default=None, help="restrict to d or d0:d1")
        p.add_argument("--out", type=str, default="-", help="output path or -")
        p.add_argument("--cap", type=int, help="enumeration cap (env NCPARK_CAP)")
        if kinds != [None]:
            p.add_argument("--kind", choices=kinds, required=True)
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


def run(args, dest: str) -> int:
    """Check the input, run the command and emit its lines to dest, the
    path reserve_out gave; the exit code."""
    spec = parse_spec(args)
    k = args.k
    if k < 1:
        raise ConfigError("--k must be >= 1")
    kh = k * spec.coxeter_number
    cap = parse_cap(args)
    cmd = TABLE[args.command, getattr(args, "kind", None)]
    d_filter = parse_d_filter(args.d, kh) if cmd.reads_d else None
    if spec.family not in cmd.families:
        raise ConfigError(cmd.refusal)
    size, what = cmd.bound(spec, k)
    if size > cap:
        raise CapExceeded(f"{what} = {size} exceeds cap {cap}")
    base = _base(args.command, spec, k)
    encode = ENCODER.encode
    lines: list[str] = []
    row, checks, fails = {}, 0, 0
    for row in cmd.rows(spec, k):
        if isinstance(row, list):  # enumerate's class lines, each "pass": true
            lines += row
        elif d_filter is None or row["d"] in d_filter:
            lines.append(encode({**base, **row}) + "\n")
            checks += 1
            fails += not row.get("pass", True)
        if len(lines) >= BATCH:
            emit(lines, dest)
            lines = []
    if "summary" not in row:  # enumerate's rows end with its own summary
        summary = {"summary": True, "checks": checks, "failures": fails, "pass": fails == 0}
        lines.append(encode({**base, **summary}) + "\n")
    emit(lines, dest)
    return EXIT_FAIL if fails else EXIT_OK


def reserve_out(out: str) -> tuple[str, IO | None]:
    """The path emit appends to for --out, and the file main holds open
    while the run lasts, or a configuration error naming a path that
    cannot be written (a directory, a missing directory).  "-" is stdout.
    A device or FIFO is written in place, and held open so that a FIFO's
    reader sees no end of file between batches.  Else the path is a new
    temporary file beside --out, which main renames over it."""
    if out == "-":
        return out, None
    if os.path.isdir(out):
        raise ConfigError(f"cannot write --out {out}: it is a directory")
    try:
        if os.path.exists(out) and not os.path.isfile(out):  # a device or FIFO
            return out, open(out, "a")
        tmp = f"{out}.{os.getpid()}.tmp"
        open(tmp, "x").close()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror}") from None
    return tmp, None


def emit(lines: list[str], path: str) -> None:
    """Append a batch of finished lines, one item per output line, to
    stdout for "-", else to path.  Appending, not reopening with
    truncation, spares the temporary file a forced writeback at close
    (ext4's auto_da_alloc), which would also slow its later unlink."""
    if path == "-":
        sys.stdout.writelines(lines)
    else:
        with open(path, "a") as fh:
            fh.writelines(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    dest = held = None
    try:
        # --out is checked before any work; a failed run removes the file
        dest, held = reserve_out(args.out)
        code = run(args, dest)
        if dest != args.out:  # the temporary file
            os.replace(dest, args.out)
        return code
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
        if held is not None:
            held.close()
        if dest not in (None, args.out) and os.path.exists(dest):
            os.unlink(dest)


if __name__ == "__main__":
    sys.exit(main())
