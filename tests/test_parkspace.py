import itertools
import random
from array import array
from collections import Counter

import pytest
from conftest import (
    KS,
    MAIN_GRID,
    RULE_GRID,
    Cycles,
    act_g,
    act_g_power,
    act_w,
    all_noncrossing_partitions,
    block_sizes,
    coset_arrays_by_products,
    coset_classes_by_stream,
    element_of_flat,
    enumerate_classical_by_scan,
    equivariant_function_count,
    fixed_counts,
    fixed_counts_by_powers,
    g_cycles,
    inverse_images,
    isotropy_elements,
    isotropy_list,
    nc_lambda_count,
    omega,
    orbit_decomposition,
    parse_partition,
    permute_sequence,
    rotate_partition,
    table_oracle,
    to_classical_by_labels,
    to_classical_of,
    verify_weak_by_tables,
)

from ncpark import cli, ncw, setpart
from ncpark.locus import bc_phi, bc_psi
from ncpark.parkspace import build_park, enumerate_classical, is_classical_park
from ncpark.reflgroup import (
    FlatPartition,
    GroupSpec,
    ReflectionGroup,
    group,
    identity_perm,
    perm_from_cycles,
)
from ncpark.setpart import LabeledPartition, SetPartition, format_partition

TABLE_PARK_3 = {
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 3), (1, 3, 1), (3, 1, 1),
    (1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2),
    (2, 3, 1), (3, 2, 1),
}


def spaces(params):
    for fam, p, k in params:
        yield build_park(GroupSpec(fam, p), k)


def test_rank1_classes():
    for k in (1, 2, 3):
        ps = build_park(GroupSpec("B", 1), k)
        assert len(ps.classes()) == 2 * k + 1
        # one class with the all-zero chain, two for each chain V^i 0^(k-i)
        zero_chain = sum(1 for p in ps.classes() if all(ps.nc.flat_of[w].dim == 0 for w in p.chain))
        assert zero_chain == 1


def test_rank1_g_action_table():
    k = 3
    ps = build_park(GroupSpec("B", 1), k)
    s = ps.c
    ident = ps.group.identity()

    def cls(w, i):
        chain = tuple([ident] * i + [s] * (k - i))
        return ps.make_class(chain, w)

    # g fixes the zero class
    assert act_g(ps, cls(ident, 0)) == cls(ident, 0)
    # g advances the plane prefix
    for w in (ident, s):
        for i in range(1, k):
            assert act_g(ps, cls(w, i)) == cls(w, i + 1)
        # wrap: the full-plane chain picks up the reflection
        assert act_g(ps, cls(w, k)) == cls(s * w, 1)


def test_cardinalities():
    assert len(build_park(GroupSpec("A", 3), 1).classes()) == 16
    assert len(build_park(GroupSpec("I2", 3), 1).classes()) == 16
    assert len(build_park(GroupSpec("B", 2), 2).classes()) == 81


def test_act_w_basics():
    ps = build_park(GroupSpec("A", 3), 1)
    for p in ps.classes():
        assert act_w(ps, identity_perm(3), p) == p
    # full first flat: every group element fixes the class
    full_chain = (element_of_flat(ps.nc)[ps.group.fixed_flat(ps.c)],)
    cls = ps.make_class(full_chain, identity_perm(3))
    for v in ps.group.elements():
        assert act_w(ps, v, cls) == cls
    # (1,2) is in the isotropy of the flat {1,2/3}
    t = perm_from_cycles(3, (1, 2))
    chain = (element_of_flat(ps.nc)[ps.group.fixed_flat(t)],)
    assert act_w(ps, t, ps.make_class(chain, identity_perm(3))) == ps.make_class(
        chain, identity_perm(3)
    )


@pytest.mark.parametrize(
    "fam,p,kmax", [("A", 3, 3), ("B", 2, 3), ("I2", 3, 2), ("I2", 6, 2), ("D", 3, 1)]
)
def test_g_order_and_kth_power(fam, p, kmax):
    for k in range(1, kmax + 1):
        ps = build_park(GroupSpec(fam, p), k)
        kh = k * ps.spec.coxeter_number
        c = ps.c
        for cls in ps.classes():
            cur = act_g_power(ps, cls, k)
            conj = tuple(c * u * c.inverse() for u in cls.chain)
            assert cur == ps.make_class(conj, cls.rep * c.inverse())
            back = cls
            for _ in range(kh):
                back = act_g(ps, back)
            assert back == cls


@pytest.mark.parametrize("fam,p,k", [("A", 3, 2), ("B", 2, 2), ("I2", 4, 2), ("D", 3, 1)])
def test_actions_commute(fam, p, k):
    ps = build_park(GroupSpec(fam, p), k)
    rng = random.Random(11)
    classes = ps.classes()
    els = ps.group.elements()
    for _ in range(200):
        cls = rng.choice(classes)
        v = rng.choice(els)
        assert act_w(ps, v, act_g(ps, cls)) == act_g(ps, act_w(ps, v, cls))


@pytest.mark.parametrize("fam,p,k", [("A", 3, 2), ("B", 2, 2), ("I2", 5, 3), ("D", 3, 1)])
def test_g_action_well_defined_under_representative_fuzzing(fam, p, k):
    # acting from any raw coset representative lands in the same class
    ps = build_park(GroupSpec(fam, p), k)
    rng = random.Random(23)
    classes = ps.classes()
    els = ps.group.elements()
    for _ in range(1100):
        cls = rng.choice(classes)
        iso = isotropy_list(ps.group, ps.nc.flat_of[cls.chain[0]])
        raw = cls.rep * rng.choice(iso)
        mult = cls.chain[-1] * ps.c.inverse()
        from_raw = ps.make_class(ncw.g_act_chain(cls.chain, ps.group, ps.c), raw * mult)
        assert from_raw == act_g(ps, cls)
        assert ps.make_class(cls.chain, raw) == cls
        v = rng.choice(els)
        assert ps.make_class(cls.chain, v * raw) == act_w(ps, v, cls)


def test_fixed_count_examples():
    ps = build_park(GroupSpec("B", 1), 2)
    cycles = g_cycles(ps)
    s = ps.group.coxeter_element()
    assert fixed_counts(cycles, ps.w_table(ps.group.identity()), 1)[0] == 5
    assert fixed_counts(cycles, ps.w_table(s), 1)[0] == 1
    ps2 = build_park(GroupSpec("A", 3), 2)
    cycles = g_cycles(ps2)
    assert fixed_counts(cycles, ps2.w_table(identity_perm(3)), 1)[0] == 49
    # (kn+1)^(r(w)-1): one cycle gives 7^0, two cycles give 7^1
    assert fixed_counts(cycles, ps2.w_table(perm_from_cycles(3, (1, 2, 3))), 1)[0] == 1
    assert fixed_counts(cycles, ps2.w_table(perm_from_cycles(3, (1, 2))), 1)[0] == 7


WEAK_GRID = [
    ("A", 2, 3),
    ("A", 3, 3),
    ("A", 4, 2),
    ("B", 2, 3),
    ("B", 3, 2),
    ("D", 3, 2),
    ("I2", 3, 3),
    ("I2", 4, 2),
    ("I2", 7, 2),
]


@pytest.mark.parametrize("fam,p,kmax", WEAK_GRID)
def test_weak_identity(fam, p, kmax):
    for k in range(1, kmax + 1):
        report = build_park(GroupSpec(fam, p), k).verify_weak()
        assert all(r["pass"] for r in report)


def test_d3_matches_a3():
    # D3 and A3 are isomorphic; the multisets of fixed counts agree
    for k in (1, 2):
        da = sorted(r["fixed"] for r in build_park(GroupSpec("D", 3), k).verify_weak())
        aa = sorted(r["fixed"] for r in build_park(GroupSpec("A", 4), k).verify_weak())
        assert da == aa


def test_weak_identity_rank_four():
    for fam in ("B", "D"):
        report = build_park(GroupSpec(fam, 4), 1).verify_weak()
        assert all(r["pass"] for r in report)


@pytest.mark.parametrize(
    "fam,p,k",
    [(fam, p, k) for fam, p in MAIN_GRID for k in KS] + [("D", 4, 2), ("A", 6, 1), ("B", 4, 1)],
)
def test_burnside_counts_match_tables(fam, p, k):
    # the class equation over chain g-cycles against the fixed points of
    # the class tables, row by row, on the grid and on the larger groups
    # that the benchmark's verify-weak runs
    ps = build_park(GroupSpec(fam, p), k)
    assert ps.verify_weak() == verify_weak_by_tables(ps)


@pytest.mark.parametrize("fam,p", MAIN_GRID)
@pytest.mark.parametrize("k", KS)
def test_action_tables_match_class_actions(fam, p, k):
    ps = build_park(GroupSpec(fam, p), k)
    classes = ps.classes()
    assert ps.g_table() == array("q", table_oracle(classes, lambda q: act_g(ps, q)))
    for v in ps.group.conjugacy_class_reps():
        assert ps.w_table(v) == array("q", table_oracle(classes, lambda q: act_w(ps, v, q)))


@pytest.mark.parametrize("fam,p,k", [("A", 3, 2), ("B", 2, 2), ("D", 3, 1), ("I2", 5, 2)])
def test_index_matches_make_class(fam, p, k):
    # any element of the coset, not only its minimum, finds the class
    ps = build_park(GroupSpec(fam, p), k)
    classes = ps.classes()
    for ch in ps.chains:
        for w in ps.group.elements():
            assert classes[ps.index(ch, w)] == ps.make_class(ch, w)


@pytest.mark.parametrize("fam,p", MAIN_GRID)
@pytest.mark.parametrize("k", KS)
def test_fixed_counts_match_powers(fam, p, k):
    ps = build_park(GroupSpec(fam, p), k)
    kh = k * ps.spec.coxeter_number
    garr, cycles = ps.g_table(), g_cycles(ps)
    for v in ps.group.conjugacy_class_reps():
        varr = ps.w_table(v)
        assert fixed_counts(cycles, varr, kh) == fixed_counts_by_powers(garr, varr, kh)


# the cycles (0)(1 2)(3 4 5)
SMALL_G = [0, 2, 1, 4, 5, 3]


def test_fixed_counts_small_tables():
    cycles = Cycles(SMALL_G)
    # identity: i counts for every d that its cycle length divides,
    # so the fixed point 0 of g counts for every d
    assert fixed_counts(cycles, range(6), 7) == [6, 1, 3, 4, 3, 1, 6]
    # v swaps 0 and 1, which lie on different g-cycles: neither ever counts
    assert fixed_counts(cycles, [1, 0, 2, 3, 4, 5], 7) == [4, 0, 1, 3, 1, 0, 4]
    # v = g on the 3-cycle: g^d(g(i)) = i there exactly when d = 2 mod 3;
    # steps 2 and 5 stop short of a multiple of the cycle length 3
    rotated = [0, 1, 2, 4, 5, 3]
    assert fixed_counts(cycles, rotated, 2) == [3, 1]
    assert fixed_counts(cycles, rotated, 5) == [3, 1, 6, 1, 3]
    # the same cycles found longest first: (0 1 2)(3)(4 5)
    for garr in (SMALL_G, [1, 2, 0, 3, 5, 4]):
        cycles = Cycles(garr)
        for varr in itertools.permutations(range(6)):
            for steps in range(1, 8):
                assert fixed_counts(cycles, varr, steps) == fixed_counts_by_powers(garr, varr, steps)


def test_fixed_count_reads_one_power():
    # a single power d asks fixed_counts for steps = d + 1
    ps = build_park(GroupSpec("B", 2), 2)
    kh = 2 * ps.spec.coxeter_number
    cycles = g_cycles(ps)
    for v in ps.group.conjugacy_class_reps():
        expected = fixed_counts_by_powers(ps.g_table(), ps.w_table(v), kh)
        assert [fixed_counts(cycles, ps.w_table(v), d + 1)[d] for d in range(kh)] == expected


def test_classical_park_predicate():
    assert is_classical_park((1, 3, 5), 3, 2)
    assert not is_classical_park((1, 4, 4), 3, 2)
    assert not is_classical_park((0, 1, 1), 3, 2)
    assert enumerate_classical(3, 1) == TABLE_PARK_3
    two = enumerate_classical(3, 2)
    assert len(two) == 49
    # sequences easy to drop by hand but forced by the count
    for seq in [(1, 1, 4), (1, 4, 1), (4, 1, 1), (1, 1, 5), (1, 5, 1), (5, 1, 1)]:
        assert seq in two


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_classical_count(n, k):
    assert len(enumerate_classical(n, k)) == (k * n + 1) ** (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_classical_generation_matches_scan(n, k):
    # the rearrangements of the accepted nondecreasing sequences against a
    # scan of every sequence in [k(n-1)+1]^n
    assert enumerate_classical(n, k) == enumerate_classical_by_scan(n, k)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_to_classical_bijection(n, k):
    ps = build_park(GroupSpec("A", n), k)
    images = [to_classical_of(ps, p) for p in ps.classes()]
    assert len(set(images)) == len(images)
    assert set(images) == enumerate_classical(n, k)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_to_classical_matches_labeled_route(rank, k):
    # A_rank is S_{rank+1}: the chain record gives the labeled picture's sequence
    ps = build_park(GroupSpec("A", rank + 1), k)
    for p in ps.classes():
        assert to_classical_of(ps, p) == to_classical_by_labels(ps, p)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (2, 3)])
def test_to_classical_equivariance(n, k):
    ps = build_park(GroupSpec("A", n), k)
    rng = random.Random(5)
    classes = ps.classes()
    els = ps.group.elements()
    for _ in range(100):
        p = rng.choice(classes)
        v = rng.choice(els)
        assert to_classical_of(ps, act_w(ps, v, p)) == permute_sequence(v, to_classical_of(ps, p))


def test_pinned_triple_n3_k3():
    ps = build_park(GroupSpec("A", 3), 3)
    pi = parse_partition("1,8,9/2,3,4,5,6,7", 9)
    lp = LabeledPartition.of(pi, {(1, 8, 9): (2,), (2, 3, 4, 5, 6, 7): (1, 3)})
    left = ps.from_labeled_pair(lp)
    assert to_classical_of(ps, left) == (2, 1, 2)
    assert to_classical_of(ps, act_w(ps, perm_from_cycles(3, (1, 2)), left)) == (1, 2, 2)
    assert to_classical_of(ps, act_g(ps, left)) == (3, 1, 3)


def test_pinned_triple_n9_k1():
    # computed without enumerating S9: k = 1 classes are just labeled
    # noncrossing partitions
    grp = group("A", 9)
    nc_pi = parse_partition("1,9/2,3,4,8/5,7/6", 9)
    f = {
        (1, 9): (4, 8),
        (2, 3, 4, 8): (1, 3, 5, 6),
        (5, 7): (2, 7),
        (6,): (9,),
    }

    def to_classical(pi, labels):
        out = [0] * 9
        for b, lab in labels.items():
            for i in lab:
                out[i - 1] = min(b)
        return tuple(out)

    assert to_classical(nc_pi, f) == (2, 5, 2, 1, 2, 2, 5, 1, 6)
    # the symmetric group acts on labels
    u = perm_from_cycles(9, (1, 3, 4), (2, 5, 8), (6, 9, 7))
    fu = {b: tuple(u(x) for x in lab) for b, lab in f.items()}
    assert to_classical(nc_pi, fu) == (1, 1, 2, 2, 5, 5, 6, 2, 2)
    # the cyclic generator: chain action plus representative shift
    w1 = omega(nc_pi)
    w = rep_with_labels(nc_pi, f)
    chain2 = ncw.g_act_chain((w1,), grp)
    c = grp.coxeter_element()
    w2 = w * (w1 * c.inverse())
    pi2 = SetPartition.of(9, grp.fixed_flat(chain2[0]).blocks)
    f2 = {b: tuple(w2(x) for x in b) for b in pi2.blocks}
    assert pi2 == rotate_partition(nc_pi, 1)
    assert to_classical(pi2, f2) == (3, 6, 3, 1, 3, 3, 6, 1, 7)


def rep_with_labels(pi, labels):
    from ncpark.reflgroup import SignedPerm

    img = [0] * pi.n
    for b, lab in labels.items():
        for s, t in zip(sorted(b), sorted(lab)):
            img[s - 1] = t
    return SignedPerm(tuple(img))


def test_orbit_decomposition_a2():
    ps = build_park(GroupSpec("A", 3), 1)
    dec = orbit_decomposition(ps)
    assert dec == {(3,): 1, (2, 1): 3, (1, 1, 1): 1}
    dec2 = orbit_decomposition(build_park(GroupSpec("A", 3), 2))
    assert sum(dec2.values()) == 12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_decomposition_matches_kreweras_at_k1(n):
    dec = orbit_decomposition(build_park(GroupSpec("A", n), 1))
    for lam, mult in dec.items():
        assert mult == nc_lambda_count(lam)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_orbit_decomposition_matches_kdivisible_counts(n, k):
    dec = orbit_decomposition(build_park(GroupSpec("A", n), k))
    counts = Counter()
    for p in all_noncrossing_partitions(k * n):
        sizes = block_sizes(p)
        if all(s % k == 0 for s in sizes):
            counts[tuple(s // k for s in sizes)] += 1
    assert dec == dict(counts)


def test_rank1_orbits():
    for k in (1, 2, 3):
        dec = orbit_decomposition(build_park(GroupSpec("B", 1), k))
        # chains V^i 0^(k-i): k + 1 of them; i = 0 is the singleton orbit
        assert sum(dec.values()) == k + 1


def test_equivariant_function_count_examples():
    ident = identity_perm(3)
    assert equivariant_function_count(3, 1, ident, 1) == 1
    assert equivariant_function_count(3, 2, perm_from_cycles(3, (1, 2, 3)), 2) == 7
    w = perm_from_cycles(4, (1, 2), (3, 4))
    assert equivariant_function_count(4, 1, w, 2) == 25
    with pytest.raises(ValueError):
        equivariant_function_count(3, 1, ident, 0)


def test_labeled_pair_round_trip_b():
    ps = build_park(GroupSpec("B", 2), 2)
    for p in ps.classes():
        lp = ps.labeled_pair(p)
        assert ps.from_labeled_pair(lp) == p


def test_class_serialization():
    ps = build_park(GroupSpec("B", 2), 1)
    rec = ps.class_record(ps.classes()[0])
    assert set(rec) == {"chain", "rep"}
    ps2 = build_park(GroupSpec("I2", 3), 1)
    rec2 = ps2.class_record(ps2.classes()[0])
    assert rec2["rep"][0] in ("rotation", "reflection")


@pytest.mark.parametrize(
    "fam,p,k",
    [(fam, p, k) for fam, p in MAIN_GRID for k in KS]
    + [(fam, p, 1) for fam, p in [("A", 6), ("A", 7), ("B", 4), ("B", 5), ("D", 4), ("D", 5)]],
)
def test_coset_walk_matches_products(fam, p, k):
    # walking W by products with every element of W_X gives the cosets of
    # each first flat, whose record ParkSpace.cosets makes: the inequality
    # rule lists their minima, the key rule puts every element in its
    # coset's position, and the keys over W number |W| / |W_X|.  In A, B
    # and D an element's key is read off its inverse, bid[w^-1(1)], ...,
    # bid[w^-1(n)]: Cosets.key's value, since bid[-x] = -bid[x]
    ps = build_park(GroupSpec(fam, p), k)
    els = ps.group.elements()
    for u in sorted({ch[0] for ch in ps.chains}):
        rec, flat = ps.cosets(u), ps.nc.flat_of[u]
        reps, arr = coset_arrays_by_products(ps, flat)
        assert rec.minima == reps
        if fam == "I2":
            keys = [rec.key(w) for w in els]
        else:
            bid = rec.bid.__getitem__
            keys = [tuple(map(bid, inv)) for inv in inverse_images(ps.group)]
        assert list(map(rec.positions.__getitem__, keys)) == arr
        assert len(set(keys)) * sum(1 for _ in isotropy_elements(ps.group, flat)) == len(els)


@pytest.mark.parametrize("fam,p,k", [("B", 3, 2), ("D", 4, 1), ("I2", 5, 2)])
def test_command_paths_hash_no_flat(fam, p, k, monkeypatch):
    # each per-flat cache is keyed by the NC(W) element whose flat it is:
    # once a space is built, its blocks, action tables, Burnside counts,
    # BC maps and class positions hash no FlatPartition, and read what a
    # space built beside it reads with hashing allowed
    def work(ps):
        els = ps.group.elements()
        out = [list(ps.blocks()), ps.g_table(), [ps.w_table(v) for v in ps.group.reflections()]]
        out += [ps.burnside_counts(), [ps.index(ch, w) for ch in ps.chains for w in els[::5]]]
        if fam == "B":
            phi = bc_phi(ps)
            out += [phi, bc_psi(ps, phi)]
        return out

    spec = GroupSpec(fam, p)
    expected, ps = work(build_park(spec, k)), build_park(spec, k)

    def refuse(flat):
        raise AssertionError(f"hashed {flat!r}")

    monkeypatch.setattr(FlatPartition, "__hash__", refuse)
    assert work(ps) == expected


@pytest.mark.parametrize("fam,p,k", [("A", 5, 1), ("B", 3, 2), ("D", 4, 1), ("I2", 5, 2)])
def test_one_record_per_chain_and_coset_classes(fam, p, k, monkeypatch):
    # pictures lists the chains in order, each starting where the blocks
    # before it end, and the blocks fill (kh+1)^n classes
    spec = GroupSpec(fam, p)
    ps = build_park(spec, k)
    assert list(ps.pictures) == ps.chains
    start = 0
    for (ch, reps), pic in zip(ps.blocks(), ps.pictures.values()):
        assert (pic.chain, pic.start) == (ch, start)
        start += len(reps)
    assert start == pic.start + len(reps) == spec.park_size(k) == ps.size
    # every histogram burnside_counts reads counts the |W_X| elements of
    # its coset W_X y^-1
    seen = []
    model = type(ps.group)
    real = model.coset_classes

    def recorded(grp, x, y):
        seen.append((x, y, real(grp, x, y)))
        return seen[-1][2]

    monkeypatch.setattr(model, "coset_classes", recorded)
    ps.burnside_counts()
    assert seen
    for x, y, hist in seen:
        assert sum(hist.values()) == sum(1 for _ in isotropy_elements(ps.group, x)), (x, y)


@pytest.mark.parametrize("fam,p", RULE_GRID)
@pytest.mark.parametrize("k", KS)
def test_coset_rule_matches_the_stream(fam, p, k, monkeypatch):
    # the wreath-product cycle index counts the classes that streaming
    # W_X1 y_d^-1 meets, for every (X1, y_d) that burnside_counts asks for
    ps = build_park(GroupSpec(fam, p), k)
    seen = {}
    model = type(ps.group)
    real = model.coset_classes

    def recorded(grp, x, y):
        seen[x, y] = real(grp, x, y)
        return seen[x, y]

    monkeypatch.setattr(model, "coset_classes", recorded)
    ps.burnside_counts()
    assert seen
    for (x, y), hist in seen.items():
        assert hist == coset_classes_by_stream(ps.group, x, y), (x, y)


def test_coset_rule_refuses_a_y_that_splits_a_block():
    # (2 3) carries the block {1, 2} of the flat 1,2/3/4 onto {1, 3}
    grp = group("A", 4)
    x = grp.fixed_flat(perm_from_cycles(4, (1, 2)))
    with pytest.raises(RuntimeError, match="does not permute the blocks"):
        grp.coset_classes(x, perm_from_cycles(4, (2, 3)))


def test_verify_weak_reads_each_spectrum_once(monkeypatch):
    ps = build_park(GroupSpec("D", 4), 2)
    expected = ps.verify_weak()
    calls = []
    real = ReflectionGroup.spectrum

    def counted(grp, w, order):
        calls.append(w)
        return real(grp, w, order)

    def never(*args):
        raise AssertionError("a multiplicity read one d at a time")

    monkeypatch.setattr(ReflectionGroup, "spectrum", counted)
    monkeypatch.setattr(ReflectionGroup, "eigenvalue_multiplicity", never)
    assert ps.verify_weak() == expected
    assert calls == ps.group.conjugacy_class_reps()


@pytest.mark.parametrize("fam,rank,k", [("A", 3, 2), ("B", 3, 2), ("D", 4, 1)])
def test_enumerate_formats_each_chain_entry_once(fam, rank, k, tmp_path, monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return format_partition(q)

    monkeypatch.setattr(setpart, "format_partition", counted)
    args = ["enumerate", "--family", fam, "--rank", str(rank), "--k", str(k)]
    assert cli.main(args + ["--out", str(tmp_path / "out.jsonl")]) == cli.EXIT_OK
    # one literal per element of NC(W), however many chain entries hold it
    nc = ncw.build_nc(group(fam, rank + 1 if fam == "A" else rank))
    assert len(calls) == len(set(calls)) == len(nc.elements)


def record_by_class(ps, p):
    """class_record with the chain formatted afresh for the class."""
    if ps.spec.family == "I2":
        flats = [ps.nc.flat_of[w] for w in p.chain]
        chain = [x.kind if x.kind != "line" else f"line:{x.line}" for x in flats]
        return {"chain": chain, "rep": ["reflection" if p.rep.refl else "rotation", p.rep.j]}
    signed = ps.spec.family != "A"
    chain = [
        format_partition(SetPartition.of(ps.spec.param, ps.nc.flat_of[w].blocks, signed=signed))
        for w in p.chain
    ]
    return {"chain": chain, "rep": list(p.rep.images)}


@pytest.mark.parametrize("fam,p,k", [("A", 4, 2), ("B", 3, 2), ("D", 4, 1), ("I2", 5, 2)])
def test_class_record_matches_per_class_formatting(fam, p, k):
    ps = build_park(GroupSpec(fam, p), k)
    for c in ps.classes():
        assert ps.class_record(c) == record_by_class(ps, c)
