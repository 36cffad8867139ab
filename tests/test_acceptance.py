"""Acceptance suite: every release criterion at its stated scale.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); every
comparison is exact integer equality.
"""

import random
import time
from collections import Counter

from conftest import (
    KS,
    MAIN_GRID,
    act_g,
    act_on_flat,
    act_w,
    acts_as_minus_one,
    all_flats,
    all_noncrossing_partitions,
    block_sizes,
    equivariant_function_count,
    element_of_flat,
    full_partition,
    isotropy_list,
    label_of,
    nc_lambda_count,
    omega,
    orbit_decomposition,
    parse_partition,
    to_classical_of,
)

from ncpark import ncw, qcatalan
from ncpark.locus import (
    ZERO,
    bc_phi,
    bc_psi,
    build_locus,
    dihedral_bijection,
    locus_position,
    verify_bc_bijection,
    verify_intermediate_character,
)
from ncpark.nonnesting import geometric_chains, verify_nn_character
from ncpark.parkspace import build_park, enumerate_classical
from ncpark.reflgroup import GroupSpec, balanced_cycle, group, perm_from_cycles
from ncpark.setpart import LabeledPartition, SetPartition, bc_nabla


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_01_cardinality():
    worst = 0.0
    for fam, p in MAIN_GRID:
        spec = GroupSpec(fam, p)
        for k in KS:
            t0 = time.time()
            space = build_park(spec, k)
            count = len(space.classes())
            elapsed = time.time() - t0
            worst = max(worst, elapsed)
            assert count == (k * spec.coxeter_number + 1) ** spec.rank, (fam, p, k, count)
            assert elapsed < 60, (fam, p, k, elapsed)
    report("criterion 1: |Park| = (kh+1)^n on the full grid", True, f"max {worst:.1f}s per run")


def test_criterion_02_weak_conjecture_sweep():
    t0 = time.time()
    for fam, p in MAIN_GRID:
        spec = GroupSpec(fam, p)
        for k in KS:
            rows = build_park(spec, k).verify_weak()
            bad = [r for r in rows if not r["pass"]]
            assert not bad, (fam, p, k, bad[:3])
    elapsed = time.time() - t0
    assert elapsed < 600
    report("criterion 2: weak identity fixed counts, all classes x d", True, f"{elapsed:.1f}s total")


def test_criterion_03_cyclic_sieving():
    for fam, p in MAIN_GRID:
        spec = GroupSpec(fam, p)
        for k in KS:
            rows = qcatalan.verify_csp(spec, k)
            assert all(r["pass"] for r in rows), (fam, p, k)
    report("criterion 3: cyclic sieving against exact root-of-unity evaluation", True)


def test_criterion_04_bc_bijection():
    for n in (2, 3):
        for k in KS:
            rows = verify_bc_bijection(GroupSpec("B", n), k)
            assert all(r["pass"] for r in rows), (n, k, rows)
    # pinned test vectors
    ps = build_park(GroupSpec("B", 3), 2)
    X1 = parse_partition("1,-3/2,-2/-1,3", 3, signed=True)
    X2 = full_partition(3, signed=True)
    w = perm_from_cycles(3, (1, 3, -2))
    upper = ps.from_labeled_pair(bc_nabla((X1, X2), {b: tuple(w(x) for x in b) for b in X1.blocks}))
    phi = bc_phi(ps)
    assert phi[ps.index(upper.chain, upper.rep)] == locus_position(12, (ZERO, 10, 10))
    Y1 = parse_partition("1,2/3/-1,-2/-3", 3, signed=True)
    Y2 = parse_partition("1,2,3/-1,-2,-3", 3, signed=True)
    w2 = perm_from_cycles(3, (1, -3)) * balanced_cycle(3, (2,))
    lower = ps.from_labeled_pair(bc_nabla((Y1, Y2), {b: tuple(w2(x) for x in b) for b in Y1.blocks}))
    assert phi[ps.index(lower.chain, lower.rep)] == locus_position(12, (10, 7, 7))
    # the pinned inverse example
    ps4 = build_park(GroupSpec("B", 4), 2)
    cls = ps4.classes()[bc_psi(ps4, [locus_position(16, (4, ZERO, 12, 5))])[0]]
    lp = ps4.labeled_pair(cls)
    assert lp.partition == parse_partition("1,-4,-7,-8/2,3,-2,-3/4,7,8,-1/5,6/-5,-6", 8, signed=True)
    assert set(label_of(lp, (-1, 4, 7, 8))) == {1, -3}
    assert set(label_of(lp, (-3, -2, 2, 3))) == {2, -2}
    report("criterion 4: type BC bijection, inverses + equivariance + test vectors", True)


def test_criterion_05_dihedral_bijection():
    for m in (3, 4, 5, 6, 7, 8):
        for k in (1, 2, 3, 4):
            fwd = dihedral_bijection(m, k)
            pts = build_locus(GroupSpec("I2", m), k)
            assert len(fwd) == len(pts) == (k * m + 1) ** 2
            assert len(set(fwd)) == len(fwd)
            assert set(map(pts.__getitem__, fwd)) == set(pts)
    report("criterion 5: dihedral constructive bijection, m in 3..8, k in 1..4", True)


def test_criterion_06_type_d_intermediate_character():
    for p, kmax in ((3, 3), (4, 2)):
        for k in range(1, kmax + 1):
            rows = verify_intermediate_character(GroupSpec("D", p), k)
            assert all(r["pass"] for r in rows), (p, k)
    report("criterion 6: type D locus and parking characters agree (D3 k<=3, D4 k<=2)", True)


def test_criterion_07_type_a_models():
    # classical bijection plus the pinned picture-to-sequence triples
    for n in (2, 3, 4):
        for k in KS:
            space = build_park(GroupSpec("A", n), k)
            images = [to_classical_of(space, cls) for cls in space.classes()]
            classical = enumerate_classical(n, k)
            assert len(classical) == (k * n + 1) ** (n - 1)
            assert len(set(images)) == len(images)
            assert set(images) == classical, (n, k)
    ps = build_park(GroupSpec("A", 3), 3)
    pi = parse_partition("1,8,9/2,3,4,5,6,7", 9)
    left = ps.from_labeled_pair(LabeledPartition.of(pi, {(1, 8, 9): (2,), (2, 3, 4, 5, 6, 7): (1, 3)}))
    triple_a = (
        to_classical_of(ps, left),
        to_classical_of(ps, act_w(ps, perm_from_cycles(3, (1, 2)), left)),
        to_classical_of(ps, act_g(ps, left)),
    )
    assert triple_a == ((2, 1, 2), (1, 2, 2), (3, 1, 3))
    triple_k1 = _k1_sequences()
    assert triple_k1 == (
        (2, 5, 2, 1, 2, 2, 5, 1, 6),
        (1, 1, 2, 2, 5, 5, 6, 2, 2),
        (3, 6, 3, 1, 3, 3, 6, 1, 7),
    )
    # equivariant function counts against brute force, all w and d
    for n in (2, 3, 4):
        grp = group("A", n)
        for k in KS:
            kn = k * n
            for w in grp.elements():
                for d in range(1, kn):
                    equivariant_function_count(n, k, w, d)  # raises on mismatch
    report("criterion 7: type A classical model, six pinned sequences, function counts", True)


def _k1_sequences():
    grp = group("A", 9)
    pi = parse_partition("1,9/2,3,4,8/5,7/6", 9)
    labels = {(1, 9): (4, 8), (2, 3, 4, 8): (1, 3, 5, 6), (5, 7): (2, 7), (6,): (9,)}

    def classical(partition, f):
        out = [0] * 9
        for b, lab in f.items():
            for i in lab:
                out[i - 1] = min(b)
        return tuple(out)

    left = classical(pi, labels)
    u = perm_from_cycles(9, (1, 3, 4), (2, 5, 8), (6, 9, 7))
    mid = classical(pi, {b: tuple(u(x) for x in lab) for b, lab in labels.items()})
    img = [0] * 9
    for b, lab in labels.items():
        for s, t in zip(sorted(b), sorted(lab)):
            img[s - 1] = t
    from ncpark.reflgroup import SignedPerm

    w = SignedPerm(tuple(img))
    w1 = omega(pi)
    chain2 = ncw.g_act_chain((w1,), grp)
    w2 = w * (w1 * grp.coxeter_element().inverse())
    pi2 = SetPartition.of(9, grp.fixed_flat(chain2[0]).blocks)
    right = classical(pi2, {b: tuple(w2(x) for x in b) for b in pi2.blocks})
    return left, mid, right


def test_criterion_08_counting_oracles():
    # Kreweras counts against enumeration
    for n in range(1, 9):
        counts = Counter(block_sizes(p) for p in all_noncrossing_partitions(n))
        for lam, c in counts.items():
            assert nc_lambda_count(lam) == c
    # symmetric k-divisible counts against enumeration, kn <= 12: every N,
    # k and m are checked once, by test_setpart's
    # test_symmetric_kdiv_count_vs_enumeration[2..12]
    # orbit multiplicities against k-divisible block data
    for n in (2, 3, 4):
        for k in KS:
            dec = orbit_decomposition(build_park(GroupSpec("A", n), k))
            expect = Counter()
            for p in all_noncrossing_partitions(k * n):
                sizes = block_sizes(p)
                if all(s % k == 0 for s in sizes):
                    expect[tuple(s // k for s in sizes)] += 1
            assert dec == dict(expect), (n, k)
    report("criterion 8: counting formulas match exhaustive enumeration", True)


def test_criterion_09_nonnesting():
    for fam, p in [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)]:
        spec = GroupSpec(fam, p)
        for k in KS:
            assert len(geometric_chains(spec, k)) == spec.fuss_catalan(k), (fam, p, k)
            rows = verify_nn_character(spec, k)
            assert all(r["pass"] for r in rows), (fam, p, k)
    report("criterion 9: geometric multichain counts and finite torus characters", True)


def test_criterion_10_structural_suites():
    rng = random.Random(2024)
    # representative fuzzing of the cyclic action, >= 10^3 raw pairs
    fuzz_spaces = [build_park(GroupSpec(*fp), k) for fp, k in [
        (("A", 3), 2), (("B", 2), 2), (("I2", 5), 3), (("D", 3), 1),
    ]]
    trials = 0
    for space in fuzz_spaces:
        classes = space.classes()
        for _ in range(300):
            cls = rng.choice(classes)
            iso = isotropy_list(space.group, space.nc.flat_of[cls.chain[0]])
            raw = cls.rep * rng.choice(iso)
            gch = ncw.g_act_chain(cls.chain, space.group, space.c)
            moved = space.make_class(gch, raw * (cls.chain[-1] * space.c.inverse()))
            assert moved == act_g(space, cls)
            trials += 1
    assert trials >= 1000
    # g^(kh) = id and the k-th power rule on whole spaces
    for space in fuzz_spaces:
        kh = space.k * space.spec.coxeter_number
        for cls in space.classes():
            cur = cls
            for _ in range(space.k):
                cur = act_g(space, cur)
            conj = tuple(space.c * u * space.c.inverse() for u in cls.chain)
            assert cur == space.make_class(conj, cls.rep * space.c.inverse())
            for _ in range(kh - space.k):
                cur = act_g(space, cur)
            assert cur == cls
    # first-component rule for flats of moved chains
    grp = group("A", 4)
    nc = ncw.build_nc(grp)
    for ch in nc.multichains(2):
        moved = ncw.g_act_chain(ch, grp, nc.c)
        expected = act_on_flat(grp, nc.c * ch[-1].inverse(), grp.fixed_flat(ch[0]))
        assert grp.fixed_flat(moved[0]) == expected
    # flat-orbit properties and the even Coxeter number fact, exhaustively
    for fam, p in [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)] + [
        ("I2", m) for m in range(3, 9)
    ]:
        g = group(fam, p)
        nc_flats = set(element_of_flat(ncw.build_nc(g)))
        for x in all_flats(g):
            assert any(act_on_flat(g, w, x) in nc_flats for w in g.elements())
        c = g.coxeter_element()
        for x in nc_flats:
            if x.dim != 1:
                continue
            orbit_nc = {act_on_flat(g, w, x) for w in g.elements()} & nc_flats
            c_orbit = set()
            y = x
            for _ in range(g.spec.coxeter_number):
                c_orbit.add(y)
                y = act_on_flat(g, c, y)
            assert orbit_nc == c_orbit
        if g.spec.coxeter_number % 2 == 1:
            lines = [x for x in all_flats(g) if x.dim == 1]
            assert not any(acts_as_minus_one(g, x, w) for x in lines for w in g.elements())
    report("criterion 10: structural properties (fuzzing, action laws, flat lemmas)", True)
