import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest
from conftest import KS, MAIN_GRID, child_env, element_index, enumerate_lines_by_records
from test_locus import swapped_c_table
from test_import_cost import HEAVY
from test_no_dead_code import ROOT, console_scripts
from test_reference_outputs import REFERENCE

from ncpark import cli, locus, nonnesting, parkspace, qcatalan
from ncpark.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    TABLE,
    main,
)
from ncpark.reflgroup import FAMILIES, DihedralGroup, GroupSpec, ReflectionGroup, SignedPerm


def run_cli(args, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    return code, lines


def test_enumerate_a2(tmp_path):
    code, lines = run_cli(["enumerate", "--family", "A", "--rank", "2", "--k", "1"], tmp_path)
    assert code == EXIT_OK
    classes = [r for r in lines if "class" in r]
    assert len(classes) == 16
    summary = lines[-1]
    assert summary["summary"] and summary["pass"]
    assert all(r["schema"] == 1 for r in lines)


def test_verify_weak(tmp_path):
    code, lines = run_cli(["verify-weak", "--family", "A", "--rank", "3", "--k", "2"], tmp_path)
    assert code == EXIT_OK
    rows = [r for r in lines if "summary" not in r]
    assert all(r["pass"] for r in rows)
    assert all(r["expected"] == r["fixed"] for r in rows)


def test_verify_csp_i2(tmp_path):
    code, lines = run_cli(["verify-csp", "--family", "I2", "--m", "5", "--k", "2"], tmp_path)
    assert code == EXIT_OK
    rows = [r for r in lines if "summary" not in r]
    assert len(rows) == 10
    assert all(r["expected"] == r["actual"] for r in rows)


def test_verify_intermediate(tmp_path):
    code, lines = run_cli(
        ["verify-intermediate", "--family", "D", "--rank", "3", "--k", "1"], tmp_path
    )
    assert code == EXIT_OK
    assert lines[-1]["failures"] == 0


def test_verify_bijections(tmp_path):
    code, _ = run_cli(
        ["verify-bijection", "--family", "B", "--rank", "2", "--k", "2", "--kind", "bc"], tmp_path
    )
    assert code == EXIT_OK
    code, _ = run_cli(
        ["verify-bijection", "--family", "I2", "--m", "4", "--k", "2", "--kind", "dihedral"],
        tmp_path,
    )
    assert code == EXIT_OK


def test_nonnesting_and_torus(tmp_path):
    code, lines = run_cli(["nonnesting-count", "--family", "B", "--rank", "2", "--k", "2"], tmp_path)
    assert code == EXIT_OK
    assert lines[0]["expected"] == lines[0]["actual"] == 15
    code, lines = run_cli(["torus-character", "--family", "A", "--rank", "2", "--k", "3"], tmp_path)
    assert code == EXIT_OK


def test_classical_park(tmp_path):
    code, lines = run_cli(["classical-park", "--family", "A", "--rank", "2", "--k", "2"], tmp_path)
    assert code == EXIT_OK
    counts = {r["check"]: r for r in lines if "check" in r}
    assert counts["count"]["actual"] == 49


def collide(real):
    """to_classical with every class over a chain sent to its first
    class's sequence."""
    return lambda self, chain, reps: [real(self, chain, reps)[0]] * len(reps)


@pytest.mark.parametrize(
    "patch,witness",
    [
        # A2 k=1: the first chain is the identity, whose six coset minima
        # are all of S3; its first class, with rep the identity, reaches
        # (1, 2, 3), and the second class repeats it
        pytest.param(
            ("ParkSpace", "to_classical", collide),
            {
                "repeated": [1, 2, 3],
                "classes": [
                    {"chain": ["1/2/3"], "rep": [1, 2, 3]},
                    {"chain": ["1/2/3"], "rep": [1, 3, 2]},
                ],
            },
            id="repeated",
        ),
        # a parking function list with one sequence too many: none reaches it
        pytest.param(
            (None, "enumerate_classical", lambda real: lambda n, k: real(n, k) | {(3, 3, 3)}),
            {"unreached": [3, 3, 3]},
            id="unreached",
        ),
        # and with (1, 2, 3) left out: the first class still reaches it
        pytest.param(
            (None, "enumerate_classical", lambda real: lambda n, k: real(n, k) - {(1, 2, 3)}),
            {"not_parking": [1, 2, 3], "class": {"chain": ["1/2/3"], "rep": [1, 2, 3]}},
            id="not-parking",
        ),
    ],
)
def test_classical_bijection_failure_carries_a_witness(patch, witness, tmp_path, monkeypatch):
    owner, name, wrap = patch
    owner = getattr(parkspace, owner) if owner else parkspace
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))

    # the witness records are read off class positions: the classes are
    # never listed
    def refuse(self):
        raise AssertionError("the witness listed the classes")

    monkeypatch.setattr(parkspace.ParkSpace, "classes", refuse)
    code, lines = run_cli(["classical-park", "--family", "A", "--rank", "2", "--k", "1"], tmp_path)
    assert code == EXIT_FAIL
    row = {r["check"]: r for r in lines if "check" in r}["bijection_with_parking_space"]
    assert not row["pass"]
    assert row["witness"] == witness


def test_nonnesting_cap_counts_the_closure_checks(tmp_path, capsys):
    # A1 k=300: 301 chains, each cross-checked by 22,500 closure conditions
    out = tmp_path / "out.jsonl"
    assert main(["nonnesting-count", "--family", "A", "--rank", "1", "--k", "300", "--out", str(out)]) == EXIT_CAP
    assert "= 6772500 exceeds cap 1000000" in capsys.readouterr().err
    assert not out.exists()


def test_d_filter(tmp_path):
    code, lines = run_cli(
        ["verify-weak", "--family", "A", "--rank", "2", "--k", "1", "--d", "0:2"], tmp_path
    )
    assert code == EXIT_OK
    assert {r["d"] for r in lines if "d" in r} == {0, 1}


@pytest.mark.parametrize("d", ["5:3", "2:2", "99", "3", "-1", "0:4", "1:2:3", "x"])
def test_d_filter_rejects_empty_or_out_of_range(d, tmp_path, capsys):
    # A2 k=1 has kh = 3: an empty range or a d outside [0, 3) checks
    # nothing, and a text that is not d or d0:d1 names no range
    out = tmp_path / "out.jsonl"
    args = ["verify-weak", "--family", "A", "--rank", "2", "--k", "1", "--d", d, "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert f"configuration error: --d {d} is not" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", dict.fromkeys(c for (c, _), cmd in TABLE.items() if not cmd.reads_d))
def test_d_rejected_where_not_read(command, tmp_path):
    out = tmp_path / "out.jsonl"
    args = [command, "--family", "A", "--rank", "2", "--k", "1", "--d", "1", "--out", str(out)]
    if command == "verify-bijection":
        args += ["--kind", "bc"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_threads_flag():
    with pytest.raises(SystemExit) as exc:
        main(["classical-park", "--family", "A", "--rank", "2", "--k", "1", "--threads", "4"])
    assert exc.value.code == EXIT_CONFIG


def test_deterministic_output(tmp_path):
    _, first = run_cli(["enumerate", "--family", "B", "--rank", "2", "--k", "2"], tmp_path, "a.jsonl")
    _, second = run_cli(["enumerate", "--family", "B", "--rank", "2", "--k", "2"], tmp_path, "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_exit_codes():
    assert main(["verify-weak", "--family", "B"]) == EXIT_CONFIG
    # Cat(B12) = 2,704,156 passes the default cap
    assert main(["verify-weak", "--family", "B", "--rank", "12", "--k", "1"]) == EXIT_CAP
    assert main(["classical-park", "--family", "B", "--rank", "2"]) == EXIT_CONFIG


def test_cap_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NCPARK_CAP", "10")
    out = tmp_path / "cap.jsonl"
    code = main(["enumerate", "--family", "A", "--rank", "2", "--k", "1", "--out", str(out)])
    assert code == EXIT_CAP
    code = main(
        ["enumerate", "--family", "A", "--rank", "2", "--k", "1", "--cap", "100000", "--out", str(out)]
    )
    assert code == EXIT_OK


B3 = ["--family", "B", "--rank", "3", "--k", "1"]


@pytest.mark.parametrize(
    "args,cover",
    [
        # this builds no classes: the cap bounds |W|, and |B3| = 48
        pytest.param(["torus-character"] + B3, 48, id="torus-character"),
        # nonnesting-count never lists W: it builds NC(W) and the filters,
        # Cat(W) of each, against the |Phi+| reflections or roots, and it
        # lists k-multichains with floor(k^2/4) closure conditions per
        # chain.  The cap bounds the larger count: Cat(B3) * 9 = 180 over
        # 20 chains, 6 * 6 = 36 chain checks for A1 k=5 over Cat(A1) * 1,
        # and Cat(A9) * 45 = 755,820 (|A9| = 3,628,800)
        pytest.param(["nonnesting-count"] + B3, 180, id="nonnesting-count"),
        pytest.param(
            ["nonnesting-count", "--family", "A", "--rank", "1", "--k", "5"], 36, id="nonnesting-count-chains"
        ),
        pytest.param(
            ["nonnesting-count", "--family", "A", "--rank", "9", "--k", "1"], 755820, id="nonnesting-count-a9"
        ),
        # verify-csp lists the k-multichains of NC(W) and never W: the cap
        # bounds Cat^(k)(W), which is 20 for B3 k=1, 6 for A1 k=5 and 42
        # for A4 k=1, below |A4| = 120
        pytest.param(["verify-csp"] + B3, 20, id="verify-csp"),
        pytest.param(["verify-csp", "--family", "A", "--rank", "1", "--k", "5"], 6, id="verify-csp-chains"),
        pytest.param(["verify-csp", "--family", "A", "--rank", "4", "--k", "1"], 42, id="verify-csp-a4"),
        # verify-weak counts by the class equation over chain g-cycles,
        # with each coset histogram by rule: it lists no class and no
        # element of W, so the cap bounds Cat^(k)(W), which is 20 for B3
        # k=1, 6 for A1 k=5 and 42 for A4 k=1 (|A4| = 120)
        pytest.param(["verify-weak"] + B3, 20, id="verify-weak"),
        pytest.param(["verify-weak", "--family", "A", "--rank", "1", "--k", "5"], 6, id="verify-weak-chains"),
        pytest.param(["verify-weak", "--family", "A", "--rank", "4", "--k", "1"], 42, id="verify-weak-a4"),
        # verify-intermediate also builds the locus by its closed form, and
        # its cap bounds the larger of |W| and Cat^(k)(W), 48 for B3 k=1
        pytest.param(["verify-intermediate"] + B3, 48, id="verify-intermediate"),
        # these build (kh+1)^n classes or points, and the cap bounds that:
        # 7^3 for B3, 9^2 for I2(8), 4^2 for A2
        pytest.param(["enumerate"] + B3, 343, id="enumerate"),
        pytest.param(["verify-bijection", "--kind", "bc"] + B3, 343, id="verify-bijection-bc"),
        pytest.param(
            ["verify-bijection", "--kind", "dihedral", "--family", "I2", "--m", "8", "--k", "1"],
            81,
            id="verify-bijection-dihedral",
        ),
        pytest.param(["classical-park", "--family", "A", "--rank", "2", "--k", "1"], 16, id="classical-park"),
    ],
)
def test_cap_bounds_group_order(args, cover, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    args = args + ["--out", str(out)]
    assert main(args + ["--cap", str(cover - 1)]) == EXIT_CAP
    assert capsys.readouterr().err.endswith(f" = {cover} exceeds cap {cover - 1}\n")
    assert main(args + ["--cap", str(cover)]) == EXIT_OK


def test_csp_cap_names_the_chains(capsys):
    args = ["verify-csp", "--family", "A", "--rank", "4", "--out", os.devnull, "--cap", "41"]
    assert main(args) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: Cat^(1)(A4) = 42 exceeds cap 41\n"


def test_weak_cap_names_the_chains(capsys):
    args = ["verify-weak", "--family", "D", "--rank", "4", "--k", "2", "--out", os.devnull]
    assert main(args + ["--cap", "336"]) == EXIT_OK
    assert main(args + ["--cap", "335"]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: Cat^(2)(D4) = 336 exceeds cap 335\n"


@pytest.mark.parametrize("command,kind", list(TABLE), ids=[f"{c}-{k}" if k else c for c, k in TABLE])
def test_no_work_before_the_input_checks(command, kind, tmp_path, monkeypatch):
    # the cap and the family are checked before any group is listed, any
    # classical parking function scanned or any root poset built
    def never(*args, **kwargs):
        raise AssertionError("work started before the input checks")

    for model in (ReflectionGroup, DihedralGroup):
        monkeypatch.setattr(model, "elements", never)
    monkeypatch.setattr(parkspace, "enumerate_classical", never)
    monkeypatch.setattr(nonnesting, "build_root_poset", never)
    out = tmp_path / "out.jsonl"
    base = [command] + (["--kind", kind] if kind else []) + ["--k", "2", "--cap", "1", "--out", str(out)]
    for family in FAMILIES:
        size = ["--m", "8"] if family == "I2" else ["--rank", "5"]
        code = main(base + ["--family", family] + size)
        assert code == (EXIT_CAP if family in TABLE[command, kind].families else EXIT_CONFIG)
    assert not out.exists()


@pytest.mark.parametrize("cap,env", [("0", None), ("-5", None), (None, "-5"), (None, "0")])
def test_cap_must_be_positive(cap, env, tmp_path, monkeypatch, capsys):
    # a cap below 1 is bad input, not an exceeded cap
    out = tmp_path / "out.jsonl"
    args = ["enumerate", "--family", "A", "--rank", "2", "--out", str(out)]
    if cap is not None:
        args += ["--cap", cap]
    if env is not None:
        monkeypatch.setenv("NCPARK_CAP", env)
    assert main(args) == EXIT_CONFIG
    assert "is not a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--family", "A", "--rank", "2", "--m", "3"], id="m-outside-I2"),
        pytest.param(["--family", "B", "--rank", "2", "--m", "4"], id="m-with-B"),
        pytest.param(["--family", "I2", "--m", "4", "--rank", "9"], id="rank-with-I2"),
    ],
)
def test_flags_outside_their_family(args, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(["enumerate"] + args + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(["--family", "A", "--rank", "0"], "type A needs rank >= 1, got 0", id="A-rank-0"),
        pytest.param(["--family", "B", "--rank", "0"], "type B needs rank >= 1, got 0", id="B-rank-0"),
        pytest.param(["--family", "D", "--rank", "2"], "type D needs rank >= 3, got 2", id="D-rank-2"),
        pytest.param(["--family", "I2", "--m", "2"], "type I2 needs m >= 3, got 2", id="I2-m-2"),
    ],
)
def test_size_errors_name_the_flag_given(args, message, tmp_path, capsys):
    # the group's size is reported as --rank (the Coxeter rank) or --m
    out = tmp_path / "out.jsonl"
    assert main(["enumerate"] + args + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("m", ["4", "5"])
def test_torus_character_rejects_dihedral(m, tmp_path, capsys):
    # I2(m) has no root lattice here, as nonnesting-count has no root poset
    out = tmp_path / "out.jsonl"
    assert main(["torus-character", "--family", "I2", "--m", m, "--out", str(out)]) == EXIT_CONFIG
    assert "no dihedral root lattice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["torus-character", "nonnesting-count"])
def test_dihedral_rejected_before_the_cap(command, tmp_path, capsys):
    # I2 is bad input for these two, whatever the cap: exit 2, not 3
    out = tmp_path / "out.jsonl"
    args = [command, "--family", "I2", "--m", "8", "--cap", "10", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert "no dihedral root" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--rank", "2", "--cap", "10"], ["--rank", "7"]])
def test_family_without_locus_rejected_before_the_cap(extra, tmp_path, capsys):
    # A has no explicit locus: exit 2 before the parking space is built,
    # not 3 for a cap that a small cap or a large rank exceeds
    out = tmp_path / "out.jsonl"
    args = ["verify-intermediate", "--family", "A", "--k", "1", *extra, "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert "explicit loci exist" in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(self):
        raise RuntimeError("psi did not invert phi (logic error)")

    monkeypatch.setattr(parkspace.ParkSpace, "verify_weak", broken)
    out = tmp_path / "out.jsonl"
    assert main(["verify-weak", "--family", "A", "--rank", "2", "--out", str(out)]) == EXIT_INTERNAL
    assert "internal error: psi did not invert phi" in capsys.readouterr().err
    assert not out.exists()


def test_internal_value_error_exit_code(tmp_path, monkeypatch, capsys):
    # only a ConfigError is bad input: a ValueError from a broken invariant,
    # here a factor (1 - q^4)/(1 - q^2) whose exponents differ mod the
    # order 3 of omega^1, where the product rule does not apply, is an
    # internal error
    monkeypatch.setattr(qcatalan, "cat_poly", lambda spec, k: ((4, 2),))
    out = tmp_path / "out.jsonl"
    assert main(["verify-csp", "--family", "A", "--rank", "2", "--out", str(out)]) == EXIT_INTERNAL
    assert "internal error: factors [(4, 2)] have exponents that differ" in capsys.readouterr().err
    assert not out.exists()


def test_csp_failure_carries_a_witness(tmp_path, monkeypatch):
    # one count off by one at d = 1 fails that row only, and the row names
    # the order of omega^1 and the factors the product rule multiplied
    counts = qcatalan.fixed_chain_counts

    def off_at_one(spec, k):
        return [c + (d == 1) for d, c in enumerate(counts(spec, k))]

    monkeypatch.setattr(qcatalan, "fixed_chain_counts", off_at_one)
    code, lines = run_cli(["verify-csp", "--family", "A", "--rank", "2"], tmp_path)
    assert code == EXIT_FAIL
    rows = [r for r in lines if "summary" not in r]
    assert [r["pass"] for r in rows] == [True, False, True]
    assert [r["d"] for r in rows if "witness" in r] == [1]
    assert rows[1]["witness"] == {"order": 3, "factors": [[6, 3]]}
    assert (rows[1]["expected"], rows[1]["actual"]) == (2, 3)
    assert lines[-1]["failures"] == 1


def off_by_one(monkeypatch, c, d):
    """Patch ParkSpace.burnside_counts to count one class too many for the
    c-th class representative at d."""
    counts = parkspace.ParkSpace.burnside_counts

    def patched(self):
        out = counts(self)
        out[c][d] += 1
        return out

    monkeypatch.setattr(parkspace.ParkSpace, "burnside_counts", patched)


def test_weak_failure_carries_a_witness(tmp_path, monkeypatch):
    # A2 k=1: the third class is the 3-cycle, with omega^1 once in its
    # spectrum, so (kh+1)^1 = 4 classes are fixed at d = 1
    off_by_one(monkeypatch, 2, 1)
    code, lines = run_cli(["verify-weak", "--family", "A", "--rank", "2"], tmp_path)
    assert code == EXIT_FAIL
    rows = [r for r in lines if "summary" not in r]
    assert [i for i, r in enumerate(rows) if not r["pass"]] == [7]
    assert [i for i, r in enumerate(rows) if "witness" in r] == [7]
    assert (rows[7]["d"], rows[7]["expected"], rows[7]["fixed"]) == (1, 4, 5)
    assert rows[7]["witness"] == {"multiplicity": 1}
    assert lines[-1]["failures"] == 1


def test_intermediate_failure_carries_a_witness(tmp_path, monkeypatch):
    # B2 k=1: the second class, v = [-2, 1], moves coordinate 1 to 2 with a
    # sign change and 2 to 1: one cycle of length 2 and shift kh/2 = 2,
    # which closes up at d = 1, where 5 points are fixed
    off_by_one(monkeypatch, 1, 1)
    code, lines = run_cli(["verify-intermediate", "--family", "B", "--rank", "2"], tmp_path)
    assert code == EXIT_FAIL
    rows = [r for r in lines if "summary" not in r]
    assert [i for i, r in enumerate(rows) if not r["pass"]] == [5]
    assert [i for i, r in enumerate(rows) if "witness" in r] == [5]
    row = rows[5]
    assert (row["d"], row["expected"], row["park_fixed"], row["locus_fixed"]) == (1, 5, 6, 5)
    assert row["witness"] == {"multiplicity": 1, "cycles": [[2, 2]]}
    assert lines[-1]["failures"] == 1


@pytest.mark.parametrize("command", ["verify-weak", "verify-intermediate"])
def test_burnside_remainder_is_an_internal_error(command, tmp_path, monkeypatch, capsys):
    # B2 k=1, with class 0 given |W| + 1 = 9 members: 9 is prime to
    # |W| = 8, so the first chain whose W_X1 y_d^-1 meets the class leaves
    # a remainder
    sizes = ReflectionGroup.class_sizes

    def grown(self):
        out = sizes(self)
        out[0] = self.spec.order + 1
        return out

    monkeypatch.setattr(ReflectionGroup, "class_sizes", grown)
    out = tmp_path / "out.jsonl"
    assert main([command, "--family", "B", "--rank", "2", "--out", str(out)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: class 0 meets W_X1 y_d^-1 in ")
    assert "is not a multiple of 9 * " in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-weak", "verify-intermediate"])
def test_weak_sweeps_pass_past_the_class_count(command, tmp_path):
    # B5 k=2 has 21^5 = 4,084,101 classes, over the default cap, but
    # |B5| = 3,840 and Cat^(2)(B5) = 3,003
    code, lines = run_cli([command, "--family", "B", "--rank", "5", "--k", "2"], tmp_path)
    assert code == EXIT_OK
    assert lines[-1]["checks"] == 720
    assert lines[-1]["failures"] == 0


def test_missing_key_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # no input check raises KeyError: a miss is a broken invariant, here
    # a nabla that psi cannot find among the chains
    monkeypatch.setattr(parkspace.ParkSpace, "_nabla_index", {})
    out = tmp_path / "out.jsonl"
    args = ["verify-bijection", "--family", "B", "--rank", "2", "--kind", "bc", "--out", str(out)]
    assert main(args) == EXIT_INTERNAL
    assert "internal error: missing key" in capsys.readouterr().err
    assert not out.exists()


# expressions that raise an exception main names in no clause of its own
UNEXPECTED = {
    "IndexError": "[][0]",
    "TypeError": "None + 1",
    "ZeroDivisionError": "1 // 0",
    "AttributeError": "None.missing",
    "two-line-message": "(_ for _ in ()).throw(LookupError('first\\nsecond'))",
}
CSP_A2 = ["verify-csp", "--family", "A", "--rank", "2"]


@pytest.mark.parametrize("expr", UNEXPECTED.values(), ids=UNEXPECTED)
def test_any_other_exception_is_a_one_line_internal_error(expr, tmp_path, monkeypatch, capsys):
    # exit 1 means a check failed: a fault of any other type is exit 4 with
    # one stderr line, not a traceback
    monkeypatch.setattr(qcatalan, "fixed_chain_counts", eval(f"lambda spec, k: {expr}"))
    out = tmp_path / "out.jsonl"
    assert main(CSP_A2 + ["--out", str(out)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1 and err[16:].strip()
    assert not out.exists()


@pytest.mark.parametrize("expr", UNEXPECTED.values(), ids=UNEXPECTED)
def test_any_other_exception_in_a_process_is_a_one_line_internal_error(expr):
    probe = "import sys; from ncpark import cli, qcatalan; "
    probe += f"qcatalan.fixed_chain_counts = lambda spec, k: {expr}; sys.argv[1:] = {CSP_A2!r}; sys.exit(cli.entry())"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT / "src", env=child_env()
    )
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ") and proc.stderr.count("\n") == 1


# a 4,000-digit --k: Python writes no int of more than 4,300 digits
HUGE_K = "1" + "0" * 3999


@pytest.mark.parametrize(
    "args",
    [
        ["torus-character", "--family", "A", "--rank", "1800"],
        ["torus-character", "--family", "A", "--rank", "1500"],
        ["verify-weak", "--family", "B", "--rank", "1800"],
        ["enumerate", "--family", "D", "--rank", "1800"],
        ["nonnesting-count", "--family", "A", "--rank", "1800"],
        ["enumerate", "--family", "A", "--rank", "2", "--k", HUGE_K],
        ["verify-csp", "--family", "I2", "--m", HUGE_K],
        ["enumerate", "--family", "A", "--rank", "2", "--k", HUGE_K, "--cap", HUGE_K],
    ],
    ids=["torus-A1800", "torus-A1500", "weak-B1800", "enumerate-D1800", "nonnesting-A1800", "huge-k", "huge-m",
         "huge-cap"],
)
def test_cap_refusal_of_a_huge_size_is_one_short_line(args, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(args + ["--out", str(out)]) == EXIT_CAP
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: ") and err.count("\n") == 1 and len(err) < 200
    assert not out.exists()


def test_cap_message_names_a_long_size_by_its_digits(capsys):
    # in full below 2^330, which has 100 digits
    assert cli._decimal(2**330 - 1) == str(2**330 - 1)
    assert cli._decimal(10**99) == str(10**99)
    for d in (100, 101, 5000, 100000):
        assert cli._decimal(10**d - 1) == f"a {d}-digit number"
        assert cli._decimal(10**d) == f"a {d + 1}-digit number"
    out = ["--out", os.devnull]
    assert main(["enumerate", "--family", "A", "--rank", "2", "--k", HUGE_K, *out]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: (kh+1)^n = a 7999-digit number exceeds cap 1000000\n"
    assert main(["verify-weak", "--family", "A", "--rank", "20", *out]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded: |A20| >= 2^20 exceeds cap 1000000\n"


def test_d_refusal_names_a_long_power_range_by_its_digits(tmp_path, capsys):
    # kh = 2 (10^4300 - 1) has 4,301 digits, past what Python writes
    args = ["verify-csp", "--family", "A", "--rank", "1", "--k", "9" * 4300, "--d", "-1"]
    assert main(args + ["--out", str(tmp_path / "out.jsonl")]) == EXIT_CONFIG
    err = "configuration error: --d -1 is not a nonempty range inside [0, a 4301-digit number)\n"
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command,family", [
    ("torus-character", "A"), ("verify-weak", "B"), ("enumerate", "D"), ("nonnesting-count", "A"),
])
def test_a_million_ranks_are_refused_at_once(command, family):
    # every bound is at least |W| >= 2^rank or Cat(W) >= 2^rank: no
    # product of a million factors is formed
    proc = run_process("module", [command, "--family", family, "--rank", "1000000"], timeout=30)
    assert proc.returncode == EXIT_CAP
    assert proc.stdout == b""
    assert proc.stderr == f"cap exceeded: |{family}1000000| >= 2^1000000 exceeds cap 1000000\n".encode()


def test_psi_fault_is_a_failing_row(tmp_path, monkeypatch):
    # psi sends every point over one chain to a wrong class: phi is still
    # a bijection, so the fault is a failing mutual_inverse row that names
    # the first such point, not an internal error
    spec = GroupSpec("B", 2)
    space = parkspace.build_park(spec, 1)
    chain = (space.group.identity(),)  # first flat V: trivial isotropy, so w t != w
    assert chain in space.chains
    t = space.group.reflections()[0]
    els, idx = space.group.elements(), element_index(space.group)
    # every element is a coset minimum of V, so a coset position is an element index
    assert sum(1 for p in space.classes() if p.chain == chain) == len(els)
    first = next(i for i, p in enumerate(space.classes()) if p.chain == chain)
    witness = locus.build_locus(spec, 1)[locus.bc_phi(space)[first]].to_json()
    real = locus.bc_psi

    def wrong(sp, points):
        # the class of w over this chain goes to that of w t
        out = real(sp, points)
        return array("q", (first + idx[els[i - first] * t] if 0 <= i - first < len(els) else i for i in out))

    monkeypatch.setattr(locus, "bc_psi", wrong)
    code, lines = run_cli(
        ["verify-bijection", "--family", "B", "--rank", "2", "--k", "1", "--kind", "bc"], tmp_path
    )
    assert code == EXIT_FAIL
    rows = {r["check"]: r for r in lines if "check" in r}
    assert rows["bijection"]["pass"] and rows["equivariance"]["pass"]
    assert rows["mutual_inverse"]["pass"] is False
    assert rows["mutual_inverse"]["witness"] == witness


@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
def test_unwritable_out_is_a_configuration_error(kind, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("build_park called before --out was checked")

    # the path is checked before the run: no parking space is built
    monkeypatch.setattr(parkspace, "build_park", never)
    if kind == "directory":
        out = tmp_path / "dir"
        out.mkdir()
    else:
        out = tmp_path / "missing" / "out.jsonl"
    assert main(["enumerate", "--family", "A", "--rank", "2", "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: cannot write --out {out}" in capsys.readouterr().err
    # nothing written: no temporary file beside the path or inside it
    assert list(tmp_path.rglob("*")) == ([out] if kind == "directory" else [])


def test_failed_run_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("previous\n")
    args = ["verify-weak", "--family", "A", "--rank", "4", "--cap", "10", "--out", str(out)]
    assert main(args) == EXIT_CAP
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "previous\n"


class FailingLines(list):
    """Lines whose third fails as it is written."""

    def __iter__(self):
        for i, line in enumerate(list.__iter__(self)):
            if i == 2:
                raise RuntimeError("write failed")
            yield line


def test_out_is_replaced_whole(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.jsonl"
    out.write_text("previous\n")
    args = ["enumerate", "--family", "A", "--rank", "2", "--k", "1"]
    emit = cli.emit
    written = []

    def failing(lines, path):
        # the first two lines reach the temporary file before the third fails
        written.append(path)
        return emit(FailingLines(lines), path)

    monkeypatch.setattr(cli, "emit", failing)
    assert main(args + ["--out", str(out)]) == EXIT_INTERNAL
    # emit appends to the temporary file, which main renames over --out
    assert written == [f"{out}.{os.getpid()}.tmp"]
    assert out.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [out]
    monkeypatch.undo()

    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert list(tmp_path.iterdir()) == [out]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    capsys.readouterr()
    assert main(args + ["--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_out_writes_a_fifo_in_place(tmp_path):
    # a device or FIFO is written straight to; renaming a temporary file
    # over it would turn it into a regular file
    fifo, out = tmp_path / "rows", tmp_path / "out.jsonl"
    os.mkfifo(fifo)
    args = ["verify-csp", "--family", "A", "--rank", "2", "--k", "1", "--out"]
    # a reader opened without blocking lets the command open the FIFO
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(args + [str(fifo)]) == EXIT_OK
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        data = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert main(args + [str(out)]) == EXIT_OK
    assert data == out.read_bytes()
    assert sorted(tmp_path.iterdir()) == [out, fifo]


def test_cap_env_var_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NCPARK_CAP", "abc")
    out = tmp_path / "out.jsonl"
    args = ["enumerate", "--family", "A", "--rank", "2", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert "configuration error: NCPARK_CAP='abc'" in capsys.readouterr().err
    assert not out.exists()
    # an explicit --cap does not read the variable
    assert main(args + ["--cap", "16"]) == EXIT_OK


# the two routes into a process: the module's __main__ block, and the
# console script's sys.exit(entry())
ROUTES = {
    "module": ["-m", "ncpark.cli"],
    "script": ["-c", "import sys; from ncpark.cli import entry; sys.exit(entry())"],
}


def run_process(route, args, **kwargs):
    # run from src/, so that a checkout needs no install and no PYTHONPATH
    return subprocess.run(
        [sys.executable, *ROUTES[route], *args], capture_output=True, cwd=ROOT / "src", env=child_env(), **kwargs
    )


def test_console_entry_point(tmp_path, capsys):
    # a process on either route writes what main writes in process, to
    # stdout and to a file
    for args in (
        ["verify-csp", "--family", "A", "--rank", "2", "--k", "1"],
        ["enumerate", "--family", "B", "--rank", "2", "--k", "2"],
        ["verify-bijection", "--kind", "dihedral", "--family", "I2", "--m", "5", "--k", "2"],
    ):
        assert main(args + ["--out", "-"]) == EXIT_OK
        ref = capsys.readouterr().out.encode()
        assert all(json.loads(line)["schema"] == 1 for line in ref.splitlines())
        for route in ROUTES:
            proc = run_process(route, args + ["--out", "-"])
            assert proc.returncode == EXIT_OK
            assert proc.stdout == ref
            out = tmp_path / f"{route}.jsonl"
            assert run_process(route, args + ["--out", str(out)]).returncode == EXIT_OK
            assert out.read_bytes() == ref


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("args,code", [
    (["verify-weak", "--family", "B"], EXIT_CONFIG),  # main's ConfigError
    (["verify-weak", "--rank", "2"], EXIT_CONFIG),  # argparse's usage error
    (["verify-weak", "--family", "B", "--rank", "12", "--k", "1"], EXIT_CAP),  # Cat(B12) = 2,704,156
])
def test_entry_passes_exit_codes_through(route, args, code):
    proc = run_process(route, args)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr


@pytest.mark.parametrize("out", ["-", "file"])
def test_failed_write_is_a_one_line_exit_2(out, tmp_path, monkeypatch, capsys):
    # output that cannot be written is the caller's to fix: one line on
    # stderr and exit 2, not a traceback under exit 1 ("a check failed")
    def closed(lines, path):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(cli, "emit", closed)
    dest = "-" if out == "-" else str(tmp_path / "out.jsonl")
    assert main(["enumerate", "--family", "B", "--rank", "4", "--out", dest]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"cannot write output: {os.strerror(errno.EPIPE)}\n"
    assert list(tmp_path.iterdir()) == []


LARGE = ["enumerate", "--family", "B", "--rank", "4"]  # 6,561 lines, past any pipe buffer
SMALL = ["verify-csp", "--family", "A", "--rank", "2"]  # 7 lines, inside stdout's buffer


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("sink", ["closed-pipe", "full-stdout", "full-out"])
@pytest.mark.parametrize("args", [LARGE, SMALL], ids=["large", "small"])
def test_failed_write_in_a_process_is_a_one_line_exit_2(route, sink, args):
    # a pipe whose reader has gone (as `| head` goes once it has read
    # enough), stdout on a full device, and --out on one: exit 2 and one
    # stderr line, also when the whole output fits in stdout's buffer.
    # The child's stdout is buffered, as it is by default
    extra = ["--out", "/dev/full"] if sink == "full-out" else []
    if sink == "closed-pipe":
        reader, out = os.pipe()
        os.close(reader)
    else:
        out = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, *ROUTES[route], *args, *extra],
            stdout=out,
            stderr=subprocess.PIPE,
            cwd=ROOT / "src",
            env=child_env(),
        )
    finally:
        os.close(out)
    reason = errno.EPIPE if sink == "closed-pipe" else errno.ENOSPC
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.decode() == f"cannot write output: {os.strerror(reason)}\n"


def test_console_script_runs_entry():
    assert console_scripts((ROOT / "pyproject.toml").read_text()) == {"ncpark": "ncpark.cli:entry"}


@pytest.mark.parametrize("route", ROUTES)
def test_entry_exits_without_teardown_and_main_returns(route, tmp_path):
    # both routes end the process through os._exit with main's code, once
    # the atexit handlers have run and stdout is flushed, skipping the
    # interpreter's teardown; main, which tests and library callers run,
    # returns its code
    args = ["verify-csp", "--family", "A", "--rank", "2", "--out", str(tmp_path / "entry.jsonl")]
    call = {
        "module": "import runpy; runpy.run_module('ncpark.cli', run_name='__main__')",
        "script": ROUTES["script"][1],
    }[route]
    probe = "import atexit, os, sys; atexit.register(print, 'atexit'); real = os._exit; "
    probe += "os._exit = lambda code: (print('os._exit', code), sys.stdout.flush(), real(code)); "
    probe += f"sys.argv[1:] = {args!r}; {call}"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT / "src", env=child_env()
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "atexit\nos._exit 0\n"
    assert main(args[:-1] + [str(tmp_path / "main.jsonl")]) == EXIT_OK
    assert (tmp_path / "main.jsonl").read_bytes() == (tmp_path / "entry.jsonl").read_bytes()


@pytest.mark.parametrize("route", ROUTES)
def test_entry_loads_no_heavy_module(route, tmp_path):
    # a run that argv reads directly never imports argparse, nor the
    # gettext and locale argparse's messages bring; read at exit
    args = ["verify-csp", "--family", "A", "--rank", "2", "--out", str(tmp_path / "out.jsonl")]
    call = {
        "module": "import runpy; runpy.run_module('ncpark.cli', run_name='__main__')",
        "script": ROUTES["script"][1],
    }[route]
    probe = "import atexit, sys; "
    probe += f"atexit.register(lambda: print(' '.join(m for m in {HEAVY!r} if m in sys.modules))); "
    probe += f"sys.argv[1:] = {args!r}; {call}"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT / "src", env=child_env()
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.split() == []


@pytest.mark.parametrize("fam,p", MAIN_GRID)
@pytest.mark.parametrize("k", KS)
def test_enumerate_lines_match_per_class_records(fam, p, k, tmp_path):
    # each line joins its chain's head, the rep and the run's tail; the
    # oracle encodes one whole record per class
    size = ["--m", str(p)] if fam == "I2" else ["--rank", str(p - 1 if fam == "A" else p)]
    out = tmp_path / "out.jsonl"
    assert main(["enumerate", "--family", fam, *size, "--k", str(k), "--out", str(out)]) == EXIT_OK
    *lines, summary = out.read_text().splitlines()
    assert lines == enumerate_lines_by_records(GroupSpec(fam, p), k)
    assert json.loads(summary)["actual"] == len(lines)


def test_enumerate_builds_no_class_list(tmp_path, monkeypatch):
    def never(self):
        raise AssertionError("enumerate listed the classes")

    monkeypatch.setattr(parkspace.ParkSpace, "classes", never)
    command = "enumerate --family D --rank 4 --k 2"
    out = tmp_path / "out.jsonl"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE[command]


TABLE_IDS = [f"{c}-{k}" if k else c for c, k in TABLE]


def table_args(command, kind):
    """A small instance of a TABLE command, without --out."""
    family = TABLE[command, kind].families[0]
    size = ["--m", "4"] if family == "I2" else ["--rank", "2"]
    return [command] + (["--kind", kind] if kind else []) + ["--family", family, *size, "--k", "1"]


def record_emits(monkeypatch):
    """The batches emit is given, in order."""
    emit = cli.emit
    seen = []

    def counted(lines, path):
        seen.append(lines)
        return emit(lines, path)

    monkeypatch.setattr(cli, "emit", counted)
    return seen


@pytest.mark.parametrize("command,kind", list(TABLE), ids=TABLE_IDS)
def test_emit_takes_one_item_per_line(command, kind, tmp_path, monkeypatch):
    # the benchmark's tracer counts len(emit's first argument) as the
    # records written, over one or more calls
    seen = record_emits(monkeypatch)
    out = tmp_path / "out.jsonl"
    assert main(table_args(command, kind) + ["--out", str(out)]) == EXIT_OK
    assert seen
    assert all(type(lines) is list for lines in seen)
    assert sum(map(len, seen)) == len(out.read_text().splitlines())


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("command,kind", list(TABLE), ids=TABLE_IDS)
def test_batches_match_one_batch(command, kind, batch, tmp_path, monkeypatch, capsys):
    # small batches write the bytes of one batch, to a file and to stdout
    args = table_args(command, kind)
    one, out = tmp_path / "one.jsonl", tmp_path / "out.jsonl"
    monkeypatch.setattr(cli, "BATCH", 10**9)
    assert main(args + ["--out", str(one)]) == EXIT_OK
    monkeypatch.setattr(cli, "BATCH", batch)
    seen = record_emits(monkeypatch)
    assert main(args + ["--out", str(out)]) == EXIT_OK
    expected = one.read_bytes()
    assert out.read_bytes() == expected
    lines = expected.decode().splitlines(keepends=True)
    assert sum(map(len, seen)) == len(lines)
    # a batch goes out once it holds BATCH lines; enumerate adds a chain's
    # lines at a time, every other command one line
    assert len(seen) >= min(2, len(lines) // batch)
    assert [line for lines in seen for line in lines] == lines
    capsys.readouterr()
    assert main(args + ["--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == expected
    assert sorted(tmp_path.iterdir()) == [one, out]


@pytest.mark.parametrize("command,kind", list(TABLE), ids=TABLE_IDS)
def test_failed_second_batch_keeps_previous_out(command, kind, tmp_path, monkeypatch, capsys):
    # one line a batch, so that every command, a two-line one too, has a
    # second batch; it is written and then fails
    monkeypatch.setattr(cli, "BATCH", 1)
    emit = cli.emit
    calls = []

    def failing(lines, path):
        calls.append((path, lines))
        emit(lines, path)
        if len(calls) == 2:
            raise RuntimeError("write failed")

    monkeypatch.setattr(cli, "emit", failing)
    args = table_args(command, kind)
    out = tmp_path / "out.jsonl"
    out.write_text("previous\n")
    assert main(args + ["--out", str(out)]) == EXIT_INTERNAL
    assert "internal error: write failed" in capsys.readouterr().err
    assert [path for path, _ in calls] == [f"{out}.{os.getpid()}.tmp"] * 2
    assert out.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [out]
    # stdout streams: the lines of the two batches written stay there
    calls.clear()
    assert main(args + ["--out", "-"]) == EXIT_INTERNAL
    assert capsys.readouterr().out == "".join(line for _, lines in calls for line in lines)
    assert [path for path, _ in calls] == ["-"] * 2


@pytest.mark.parametrize("command,kind", list(TABLE), ids=TABLE_IDS)
def test_fifo_reader_sees_every_batch(command, kind, tmp_path, monkeypatch):
    # emit opens the FIFO once a batch, and main holds it open for the
    # whole run, so a reader reading to end of file gets every line.  Each
    # batch waits until the reader has it, so an end of file between
    # batches would cut the reader short.  The test holds a nonblocking
    # read end of its own, so that no open for writing blocks, and no
    # write end, so the reader's end of file comes when the command's last
    # writer closes.
    monkeypatch.setattr(cli, "BATCH", 3)
    args = table_args(command, kind)
    fifo, out = tmp_path / "rows", tmp_path / "out.jsonl"
    os.mkfifo(fifo)
    got, done = bytearray(), threading.Event()

    def read_to_eof():
        with open(fifo, "rb", buffering=0) as fh:
            while chunk := fh.read(1 << 16):
                got.extend(chunk)
        done.set()

    emit, sent = cli.emit, bytearray()

    def paced(lines, path):
        emit(lines, path)
        sent.extend("".join(lines).encode())
        deadline = time.monotonic() + 30
        while len(got) < len(sent) and not done.is_set() and time.monotonic() < deadline:
            time.sleep(0.001)

    monkeypatch.setattr(cli, "emit", paced)
    guard = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        reader = threading.Thread(target=read_to_eof, daemon=True)
        reader.start()
        assert main(args + ["--out", str(fifo)]) == EXIT_OK
        assert done.wait(timeout=30), "the reader saw no end of file"
    finally:
        os.close(guard)
    monkeypatch.undo()
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert got == sent == out.read_bytes()
    assert sorted(tmp_path.iterdir()) == [out, fifo]


def test_enumerate_memory_is_one_batch(tmp_path):
    # B4 k=3 writes 390,626 lines (78 MB); held whole they take about
    # 100 MB under tracemalloc, a batch at a time a few MB
    out = tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        code = main(["enumerate", "--family", "B", "--rank", "4", "--k", "3", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 16 * 2**20
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) == 390_626


def test_torus_failure_carries_a_witness(tmp_path, monkeypatch):
    # A2 k=1: the second class is the transposition (2 3), whose fixed line
    # gives 4 = gcd(1, 4) * gcd(0, 4) fixed vectors on Q/4Q; one too many
    # fails the row, which names that diagonal
    real = nonnesting.torus_fixed_count

    def patched(spec, k, w):
        return real(spec, k, w) + (w.images == (1, 3, 2))

    monkeypatch.setattr(nonnesting, "torus_fixed_count", patched)
    code, lines = run_cli(["torus-character", "--family", "A", "--rank", "2"], tmp_path)
    assert code == EXIT_FAIL
    rows = [r for r in lines if "summary" not in r]
    assert [r["pass"] for r in rows] == [True, False, True]
    assert [i for i, r in enumerate(rows) if "witness" in r] == [1]
    assert (rows[1]["fixed"], rows[1]["expected"]) == (5, 4)
    assert rows[1]["witness"] == {"multiplicity": 1, "divisors": [1, 4]}


def parser_text(argv, capsys):
    """What the argparse parser prints, and its exit code, on argv."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def cross_route_grid(command, kind):
    """(argv, whether parse_direct reads it) for one command form: argv
    that argparse reads, some in ways parse_direct leaves to it, and argv
    that argparse refuses or answers with help."""
    cmd = TABLE[command, kind]
    family = cmd.families[-1]
    size = ["--m", "5"] if family == "I2" else ["--rank", "2"]
    kinds = ["--kind", kind] if kind else []
    base = [command, "--family", family, *size, *kinds]
    grid = [
        (base, True),
        ([command, *kinds, "--k", "2", *size, "--family", family], True),
        (base + ["--k", "2", "--family", "A", "--k", "3", "--family", family], True),  # the last wins
        (base + ["--out", "-"], True),
        (base + ["--out", ""], True),
        (base + ["--k", "+3"], True),
        (base + ["--cap", "1_0"], True),
        (base + ["--fam", family], False),  # an abbreviation
        (base + ["--k=2"], False),
        (base + ["--k", "-1"], False),  # a negative number
        (base + ["--out", "-x"], False),
        (base + ["--rank", ""], False),
        (base + ["--k"], False),
        (base + ["--bogus", "1"], False),
        (base + ["extra", "1"], False),
        ([command, *size, *kinds], False),  # no --family
        (base + ["--family", "E"], False),  # a bad choice
        (base + ["-h"], False),
        (base + ["--help"], False),
        (["bogus", "--family", family], False),
        (base + ["--d", "1:2"], cmd.reads_d),
    ]
    if kind:
        grid += [([command, "--family", family, *size], False), (base + ["--kind", "x"], False)]
    else:
        grid += [(base + ["--kind", "bc"], False)]
    return grid


@pytest.mark.parametrize("command,kind", list(TABLE), ids=[f"{c}-{k}" if k else c for c, k in TABLE])
def test_direct_parse_reads_as_argparse(command, kind, capsys):
    # the direct parse takes only argv that argparse reads the same way,
    # and then gives the attributes argparse's Namespace holds
    parser = cli.build_parser()
    for argv, direct in cross_route_grid(command, kind):
        got = cli.parse_direct(argv)
        assert (got is not None) == direct, argv
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = None
        capsys.readouterr()
        if got is not None:
            assert vars(got) == expected, argv


def test_reference_commands_take_the_direct_parse():
    # every command the benchmark runs is read without argparse
    for command in REFERENCE:
        argv = command.split() + ["--out", "out.jsonl"]
        assert cli.parse_direct(argv) is not None, command


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify-weak", "--help"],
        ["verify-bijection", "--help"],
        ["bogus"],
        [],
        ["enumerate", "--family", "A", "--d", "2"],
    ],
)
def test_one_command_parser_reads_as_the_full_one(argv, capsys):
    # main leaves argv it does not read directly to the full parser: help
    # and usage errors are the full parser's, byte for byte, and an
    # unrecognized argument's usage lists every command
    full = parser_text(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == full


def test_main_reads_its_argv_not_sys_argv(tmp_path, monkeypatch):
    # the benchmark's tracer calls main with a list while sys.argv[1] is
    # its result path
    monkeypatch.setattr(sys, "argv", ["trace_child.py", str(tmp_path / "result.json")])
    code, lines = run_cli(["verify-csp", "--family", "A", "--rank", "2"], tmp_path)
    assert code == EXIT_OK and lines[-1]["pass"]


# sha256 of each command's output at the release before the class rule;
# the four benchmark commands among them are also in perfbench/reference.json
NO_W_LISTING = {
    "verify-weak --family B --rank 4 --k 1": "289a07c892c9942fb72067585b9c76279041e0be3e8003089fe06887971074a1",
    "verify-weak --family D --rank 4 --k 2": "f6571e731dac8fc95a08f568f7487123aa4e77f1f73b4eb2cbd0f152e940acd8",
    "verify-weak --family A --rank 4 --k 1": "4007203b75570760be80643033e851ae3270453c1a7fefa3dd3b7681d48aa631",
    "verify-weak --family I2 --m 8 --k 4": "b00b7378ba0792a4e6b6aa3455e3791dfd6b84752f2edf9857b7b9a7b57f5ee4",
    "verify-intermediate --family B --rank 4 --k 1": "9ace0ea5775bfc66193d8f35dbbd89a64ce7d2b8751f5096e9303790c73c4261",
    "verify-intermediate --family D --rank 4 --k 2": "822c1a600f923b86ca0f9bae9b26e82e24815d681f976642bb98a054ba46534f",
    "verify-intermediate --family I2 --m 8 --k 4": "64a954d97f4ecfd47856b4f79a38156d40fb1e206cfee02910fe3f28c05406c3",
    "verify-csp --family B --rank 4 --k 1": "4d14132612ad4a23ac3b397c304684f182dc6d4d3e42d28cc78e28f19fb664e2",
    "verify-csp --family D --rank 4 --k 2": "334301aa3893661ec75cbbd2eeb3a2878d5bf5f15a3e2d84d015e1b7a0dc1593",
    "verify-csp --family A --rank 4 --k 1": "1b71ec23093164f373b785f73903fbf674576bf7924b1b9f8666f120f6ecc47f",
    "verify-csp --family I2 --m 8 --k 4": "b1e1145e7f55f648502c8412bda722d352d3e4fbe33f7a0d15d5c69b0edcfead",
    "torus-character --family B --rank 4 --k 1": "0c42e6bf3cc9a9f6588c1cfeb12ae5799e04bcb9b6b6c5bc2e2395ba56ad657d",
    "torus-character --family D --rank 4 --k 2": "9f096371844b0820773e7d94f558f86db2dcc9e149f6da2bd072a013100aaabb",
    "torus-character --family A --rank 4 --k 1": "561a92937105d22d45279b45d7d18d990a15f26d8530df7280382fcc6f89a201",
    "nonnesting-count --family B --rank 4 --k 1": "a1af508d2cd0df66ac7db08b08c08c6850cf561a4171b267c36fb86cf765d723",
    "nonnesting-count --family D --rank 4 --k 2": "0cfb0912e1967be17231867a089945241463b252c22e7df0c6b5842c37db4957",
    "nonnesting-count --family A --rank 4 --k 1": "3151485b5b0f06936db10d6d9c6f80719c01d1e02d2a1f33ca72de7524affc73",
}


@pytest.mark.parametrize("command", sorted(NO_W_LISTING))
def test_character_commands_list_no_element_of_w(command, tmp_path, monkeypatch):
    # classes, sizes and NC(W) come by rule and W_X1 streams: the list of
    # W is never made
    def refuse(self):
        raise AssertionError(f"{command} listed W")

    for model in (ReflectionGroup, DihedralGroup):
        monkeypatch.setattr(model, "elements", refuse)
    out = tmp_path / "out.jsonl"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NO_W_LISTING[command]


# sha256 of each command's output at the release before the inequality
# rule for coset minima (the listings) and before the coset keys (the
# bijections)
WALKS_NO_COSET = {
    "enumerate --family A --rank 4 --k 1": "5a75d114b326d71d66bf188057f07741b9b3b8ed7e3e80b203c94f61f615d640",
    "enumerate --family B --rank 3 --k 2": "b5014b2cee45327c8f5a1cdca7272046b8b106c9074bf543a13ff9d95d1f3484",
    "enumerate --family D --rank 4 --k 1": "46f63767c7d859d3959aceea06a05c1e33fa92b8cc7edad6c7ad925bdc9d53f3",
    "enumerate --family I2 --m 5 --k 2": "5f2acd2ceddb499dd043a63a64b55ef04c22619b52491fdbb447463cf3530c16",
    "classical-park --family A --rank 3 --k 2": "d5967b0e9da2bc4d20fd32b07dbcd357ae4cee10d45480f5633a191c0f1291e2",
    "verify-bijection --family B --rank 3 --k 2 --kind bc": "9eb274047a8428464a4e6e9d64e138ea7630cd16518078b0196c01ffc5e48584",
    "verify-bijection --family I2 --m 5 --k 2 --kind dihedral": "510252b3e0c67d8c1e12c5e5fb12d70d2f381639c10a6927549251485162713f",
}


@pytest.mark.parametrize("command", sorted(WALKS_NO_COSET))
def test_listing_walks_no_coset(command, tmp_path, monkeypatch):
    # coset minima and positions come by rule from the element: no command
    # walks W once per first flat.  Each walk makes one list over W (the
    # image columns of the inequality masks, enumerate's rep records,
    # phi's image list, the dihedral tables of both sides), and no command
    # makes more than two
    walks = []

    class Walked(list):
        def __iter__(self):
            walks.append(len(self))
            return super().__iter__()

    for model in (ReflectionGroup, DihedralGroup):
        monkeypatch.setattr(model, "elements", lambda self, real=model.elements: Walked(real(self)))
    out = tmp_path / "out.jsonl"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WALKS_NO_COSET[command]
    assert len(walks) <= 2, walks


def test_dihedral_bijection_walks_three_tables_a_side(tmp_path, monkeypatch):
    # stabilizers and the extension read the tables of g, s and c only: no
    # table per element, no class list and no list of locus points
    def refuse(*args):
        raise AssertionError("the dihedral bijection listed classes or points")

    calls = []

    def counted(real):
        def table(*args):
            calls.append(real.__name__)
            return real(*args)

        return table

    monkeypatch.setattr(parkspace.ParkSpace, "classes", refuse)
    monkeypatch.setattr(locus, "build_locus", refuse)
    monkeypatch.setattr(parkspace.ParkSpace, "w_table", counted(parkspace.ParkSpace.w_table))
    monkeypatch.setattr(locus, "locus_w_table", counted(locus.locus_w_table))
    command = "verify-bijection --kind dihedral --family I2 --m 8 --k 4"
    out = tmp_path / "out.jsonl"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE[command]
    assert calls.count("w_table") <= 2
    assert calls.count("locus_w_table") <= 2


def test_dihedral_failure_is_a_row_with_a_witness(tmp_path, monkeypatch):
    # I2(4) k=1 with two points of the locus c-table swapped: the extension
    # sends one class to two points, which fails the row (exit 1, not an
    # internal error) with the class and both points
    monkeypatch.setattr(locus, "locus_w_table", swapped_c_table(7, 13))
    args = ["verify-bijection", "--kind", "dihedral", "--family", "I2", "--m", "4", "--k", "1"]
    code, lines = run_cli(args, tmp_path)
    assert code == EXIT_FAIL
    row = lines[0]
    assert (row["check"], row["expected"], row["actual"], row["pass"]) == ("dihedral_bijection", 25, 6, False)
    assert row["witness"] == {
        "conflict": {"class": {"chain": ["line:3"], "rep": ["rotation", 1]}, "points": [[1, 0], [2, 1]]}
    }
    assert lines[-1]["failures"] == 1


def test_nonnesting_failure_carries_a_witness(tmp_path, monkeypatch):
    # A3 k=1: one geometric chain too many fails the row, which splits both
    # sides by a shared statistic: NC(W) by rank and the filters by their
    # number of minimal roots, each the Narayana numbers 1, 6, 6, 1
    real = nonnesting.geometric_chains
    monkeypatch.setattr(nonnesting, "geometric_chains", lambda spec, k: real(spec, k) + real(spec, k)[:1])
    code, lines = run_cli(["nonnesting-count", "--family", "A", "--rank", "3"], tmp_path)
    assert code == EXIT_FAIL
    row = lines[0]
    assert (row["expected"], row["actual"], row["pass"]) == (14, 15, False)
    assert row["witness"] == {"narayana": {"noncrossing": [1, 6, 6, 1], "nonnesting": [1, 6, 6, 1]}}


ODD_TEXT = ['say "hi"', "back\\slash", "tab\there", "new\nline", "\x7f", "\x00", "café", "\U0001f600", ""]


@pytest.mark.parametrize(
    "value",
    [
        {"schema": 1, "command": "verify-weak", "v": "SignedPerm(-4, -3, -2, -1)", "d": 0, "pass": True},
        {"b": [1, -2, [3, (4, 5)], {"z": None, "a": False}], "a": {}, "c": [], "big": 10**40, "neg": -7},
        {"witness": {"classes": [{"chain": ["1,2/3"], "rep": [2, 1, 3]}], "unreached": [1, 1, 2]}},
        {2: "an int key"},
        {"flag": True, "score": 0.5, "path": Path("/x"), "perm": SignedPerm((2, -1))},
        *ODD_TEXT,
        {text: text for text in ODD_TEXT},
        [ODD_TEXT, (True, None)],
    ],
)
def test_encode_writes_what_json_writes(value):
    assert cli.encode(value) == json.dumps(value, sort_keys=True, default=str)


@pytest.mark.parametrize("fam,p", MAIN_GRID)
@pytest.mark.parametrize("command", ["verify-weak", "verify-csp"])
def test_command_lines_are_json_lines(fam, p, command, tmp_path):
    size = ["--m", str(p)] if fam == "I2" else ["--rank", str(p - 1 if fam == "A" else p)]
    out = tmp_path / "out.jsonl"
    assert main([command, "--family", fam, *size, "--k", "2", "--out", str(out)]) == EXIT_OK
    for line in out.read_text().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)
