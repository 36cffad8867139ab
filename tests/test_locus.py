import itertools
from array import array

import pytest
from conftest import (
    KS,
    MAIN_GRID,
    Cycles,
    act_g,
    all_flats,
    bc_phi_by_class,
    bc_phi_by_labels,
    bc_psi_by_class,
    close_parens_by_rounds,
    fixed_counts,
    full_partition,
    label_of,
    locus_act_g,
    locus_act_w_by_coords,
    locus_fixed_count,
    locus_stabilizer,
    parse_partition,
    park_stabilizer,
    point_dimension,
    table_oracle,
)

from ncpark import locus, parkspace, setpart
from ncpark.locus import (
    ZERO,
    LocusPoint,
    bc_phi,
    bc_psi,
    build_locus,
    close_parens,
    dihedral_bijection,
    locus_act_w,
    locus_cycles,
    locus_fixed,
    locus_g_table,
    locus_order,
    locus_position,
    locus_w_table,
    stabilizer,
    verify_bc_bijection,
    verify_intermediate_character,
)
from ncpark.parkspace import build_park
from ncpark.reflgroup import (
    DihedralElement,
    GroupSpec,
    balanced_cycle,
    group,
    perm_from_cycles,
)
from ncpark.setpart import bc_nabla


def test_build_locus_counts():
    assert len(build_locus(GroupSpec("B", 2), 1)) == 25
    assert len(build_locus(GroupSpec("B", 1), 3)) == 7
    for m in (3, 5, 8):
        for k in (1, 2):
            pts = build_locus(GroupSpec("I2", m), k)
            assert len(pts) == (k * m + 1) ** 2
            # the three strata of the displayed union
            origin = [p for p in pts if p.coords == (ZERO, ZERO)]
            axis = [p for p in pts if (p.coords[0] is ZERO) != (p.coords[1] is ZERO)]
            torus = [p for p in pts if ZERO not in p.coords]
            assert len(origin) == 1
            assert len(axis) == 2 * k * m
            assert len(torus) == (k * m) ** 2
    with pytest.raises(ValueError):
        build_locus(GroupSpec("A", 3), 1)


def test_locus_actions():
    spec = GroupSpec("B", 2)
    p = LocusPoint(4, (ZERO, 3))
    assert locus_act_g(p) == LocusPoint(4, (ZERO, 0))
    # negation is a half-turn of the exponent
    w = balanced_cycle(2, (1,))
    assert locus_act_w(spec, w, LocusPoint(4, (1, ZERO))) == LocusPoint(4, (3, ZERO))
    # dihedral actions: s swaps the diagonal slots, c twists them by +-k
    spec_i = GroupSpec("I2", 5)
    s = DihedralElement(5, True, 0)
    c = DihedralElement(5, False, 1)
    k = 2
    pt = LocusPoint(10, (3, 7))
    assert locus_act_w(spec_i, s, pt) == LocusPoint(10, (7, 3))
    assert locus_act_w(spec_i, c, pt) == LocusPoint(10, ((3 + k) % 10, (7 - k) % 10))
    assert locus_act_g(pt) == LocusPoint(10, (4, 8))


def test_point_dimension():
    b3 = GroupSpec("B", 3)
    assert point_dimension(b3, LocusPoint(6, (ZERO, ZERO, ZERO))) == 0
    assert point_dimension(b3, LocusPoint(6, (1, 1, ZERO))) == 1
    assert point_dimension(b3, LocusPoint(6, (1, 4, ZERO))) == 1  # 4 = 1 + half
    assert point_dimension(b3, LocusPoint(6, (1, 2, ZERO))) == 2
    d3 = GroupSpec("D", 3)
    assert point_dimension(d3, LocusPoint(4, (ZERO, ZERO, ZERO))) == 0
    # a single zero coordinate is unconstrained in type D
    assert point_dimension(d3, LocusPoint(4, (1, 1, ZERO))) == 2
    assert point_dimension(d3, LocusPoint(4, (1, 1, 1))) == 1
    i5 = GroupSpec("I2", 5)
    assert point_dimension(i5, LocusPoint(10, (ZERO, ZERO))) == 0
    assert point_dimension(i5, LocusPoint(10, (4, 2))) == 1  # difference divisible by k
    assert point_dimension(i5, LocusPoint(10, (4, 3))) == 2
    assert point_dimension(i5, LocusPoint(10, (4, ZERO))) == 2


@pytest.mark.parametrize("spec,k", [
    (GroupSpec("B", 2), 2), (GroupSpec("B", 3), 1), (GroupSpec("D", 3), 2), (GroupSpec("I2", 6), 2),
])
def test_stratification(spec, k):
    pts = build_locus(spec, k)
    kh = k * spec.coxeter_number
    dims = [point_dimension(spec, p) for p in pts]
    assert sum(1 for d in dims if d == 0) == 1
    counts = {}
    for d in dims:
        counts[d] = counts.get(d, 0) + 1
    assert sum(counts.values()) == (kh + 1) ** spec.rank
    # every one-dimensional flat carries exactly kh points of the 1-stratum
    grp = group(spec.family, spec.param)
    lines = [x for x in all_flats(grp) if x.dim == 1]
    ones = sum(1 for d in dims if d == 1)
    assert ones == kh * len(lines)


def test_bc_phi_pinned_vectors():
    ps = build_park(GroupSpec("B", 3), 2)
    X1 = parse_partition("1,-3/2,-2/-1,3", 3, signed=True)
    X2 = full_partition(3, signed=True)
    w = perm_from_cycles(3, (1, 3, -2))
    lp = bc_nabla((X1, X2), {b: tuple(w(x) for x in b) for b in X1.blocks})
    upper = ps.from_labeled_pair(lp)
    phi = bc_phi(ps)
    assert phi[ps.index(upper.chain, upper.rep)] == locus_position(12, (ZERO, 10, 10))

    Y1 = parse_partition("1,2/3/-1,-2/-3", 3, signed=True)
    Y2 = parse_partition("1,2,3/-1,-2,-3", 3, signed=True)
    w2 = perm_from_cycles(3, (1, -3)) * balanced_cycle(3, (2,))
    lp2 = bc_nabla((Y1, Y2), {b: tuple(w2(x) for x in b) for b in Y1.blocks})
    lower = ps.from_labeled_pair(lp2)
    assert phi[ps.index(lower.chain, lower.rep)] == locus_position(12, (10, 7, 7))


def test_bc_psi_worked_example():
    ps = build_park(GroupSpec("B", 4), 2)
    pt = locus_position(16, (4, ZERO, 12, 5))
    [i] = bc_psi(ps, [pt])
    cls = ps.classes()[i]
    lp = ps.labeled_pair(cls)
    assert lp.partition == parse_partition(
        "1,-4,-7,-8/2,3,-2,-3/4,7,8,-1/5,6/-5,-6", 8, signed=True
    )
    assert set(label_of(lp, (-1, 4, 7, 8))) == {1, -3}
    # v_4 = w^5 and {5,6} is opened by +5, so 4 labels the positive block
    assert set(label_of(lp, (5, 6))) == {4}
    assert set(label_of(lp, (-6, -5))) == {-4}
    assert set(label_of(lp, (-3, -2, 2, 3))) == {2, -2}
    assert bc_phi(ps)[i] == pt


def test_close_parens_structure():
    pi = close_parens(4, 2, (4, 4, 5))
    assert pi == parse_partition("1,-4,-7,-8/2,3,-2,-3/4,7,8,-1/5,6/-5,-6", 8, signed=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_close_parens_matches_rounds(n):
    # every opener multiset of at most n openers in [kn], k <= 3: the
    # stack walk closes to the rounds' partition, or both fail to close
    for k in (1, 2, 3):
        for size in range(n + 1):
            for ops in itertools.combinations_with_replacement(range(1, k * n + 1), size):
                try:
                    expected = close_parens_by_rounds(n, k, ops)
                except RuntimeError:
                    with pytest.raises(RuntimeError):
                        close_parens(n, k, ops)
                else:
                    assert close_parens(n, k, ops) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bc_bijection_b2(k):
    report = verify_bc_bijection(GroupSpec("B", 2), k)
    assert all(r["pass"] for r in report)


@pytest.mark.parametrize("k", [1, 2])
def test_bc_bijection_b3(k):
    report = verify_bc_bijection(GroupSpec("B", 3), k)
    assert all(r["pass"] for r in report)


def test_one_nabla_per_chain(monkeypatch):
    calls = []
    real_nabla = setpart.nabla

    def counting_nabla(chain):
        calls.append(chain)
        return real_nabla(chain)

    monkeypatch.setattr(setpart, "nabla", counting_nabla)
    assert all(r["pass"] for r in verify_bc_bijection(GroupSpec("B", 2), 2))
    assert len(calls) == len(set(calls)) == len(build_park(GroupSpec("B", 2), 2).chains)
    calls.clear()
    space = build_park(GroupSpec("A", 4), 2)
    for chain, reps in space.blocks():
        space.to_classical(chain, reps)
    assert len(calls) == len(set(calls)) == len(space.chains)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_bc_pair_matches_labeled_route(n, k):
    # phi read off the chain record agrees with the labeled-picture route,
    # and psi inverts it, on every class
    space = build_park(GroupSpec("B", n), k)
    kh = locus_order(space.spec, k)
    phi = bc_phi(space)
    assert list(bc_psi(space, phi)) == list(range(len(phi)))
    for p, j in zip(space.classes(), phi):
        assert j == locus_position(kh, bc_phi_by_labels(space, p).coords)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_bc_position_maps_match_per_class_route(n, k):
    # the position maps against the per-class bodies they replaced: phi
    # class by class through a representative, psi point by point through
    # rep_from_labels, on every class and every point
    space = build_park(GroupSpec("B", n), k)
    kh = locus_order(space.spec, k)
    classes, pts = space.classes(), build_locus(space.spec, k)
    phi = bc_phi(space)
    assert list(phi) == [locus_position(kh, bc_phi_by_class(space, p).coords) for p in classes]
    assert [classes[i] for i in bc_psi(space, range(len(pts)))] == [bc_psi_by_class(space, pt) for pt in pts]


def test_one_close_parens_per_chain(monkeypatch):
    # the opener multiset determines the chain, so psi's rule per multiset
    # runs the parenthesization at most once per chain, not once per point
    calls = []

    def counted(*args):
        calls.append(args)
        return close_parens(*args)

    monkeypatch.setattr(locus, "close_parens", counted)
    assert all(r["pass"] for r in verify_bc_bijection(GroupSpec("B", 3), 2))
    assert 0 < len(calls) <= len(build_park(GroupSpec("B", 3), 2).chains)


def test_bc_equivariance_failure_has_witness(monkeypatch):
    # swap the images of two classes one g-step apart: still a bijection,
    # and bc_psi is patched to invert the swapped map, but not equivariant
    spec = GroupSpec("B", 2)
    space = build_park(spec, 1)
    classes = space.classes()
    a = next(i for i, p in enumerate(classes) if act_g(space, act_g(space, p)) != p)
    b = classes.index(act_g(space, classes[a]))
    swapped = bc_phi(space)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    inverse = {j: i for i, j in enumerate(swapped)}
    monkeypatch.setattr(locus, "bc_phi", lambda sp: array("q", swapped))
    monkeypatch.setattr(locus, "bc_psi", lambda sp, points: array("q", [inverse[j] for j in points]))
    rows = {r["check"]: r for r in verify_bc_bijection(spec, 1)}
    assert rows["bijection"] == {"check": "bijection", "pass": True}
    assert rows["mutual_inverse"] == {"check": "mutual_inverse", "pass": True}
    eq = rows["equivariance"]
    assert eq["pass"] is False
    w = eq["witness"]
    gens = list(space.group.reflections()[:2]) + [space.group.coxeter_element()]
    assert w["generator"] in ["g"] + [repr(v) for v in gens]
    assert w["park_image"] != w["locus_image"]
    assert w["class"] in [space.class_record(p) for p in space.classes()]


def test_bc_bijection_failure_names_colliding_classes(monkeypatch):
    spec = GroupSpec("B", 2)
    space = build_park(spec, 1)
    a, b = space.classes()[:2]
    collided = bc_phi(space)
    collided[1] = target = collided[0]
    monkeypatch.setattr(locus, "bc_phi", lambda sp: array("q", collided))
    row = verify_bc_bijection(spec, 1)[0]
    assert row["pass"] is False
    assert row["witness"] == {
        "classes": [space.class_record(a), space.class_record(b)],
        "point": build_locus(spec, 1)[target].to_json(),
    }


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dihedral_bijection_small(m, k):
    fwd = dihedral_bijection(m, k)
    assert len(fwd) == (k * m + 1) ** 2
    assert len(set(fwd)) == len(fwd)


def test_dihedral_bijection_sizes_from_statement():
    assert len(dihedral_bijection(3, 1)) == 16
    assert len(dihedral_bijection(4, 2)) == 81
    assert len(dihedral_bijection(5, 2)) == 121


def test_dihedral_stabilizer_match():
    # the stabilizer of [1, X 0^(k-1)] for a mirror X equals the stabilizer
    # of its image locus point
    m, k = 5, 2
    fwd = dihedral_bijection(m, k)
    spec = GroupSpec("I2", m)
    space = build_park(spec, k)
    ident = space.group.identity()
    s = DihedralElement(m, True, 0)
    c = space.c
    chain = (s,) + (c,) * (k - 1)
    cls = space.make_class(chain, ident)
    pt = build_locus(spec, k)[fwd[space.index(chain, ident)]]
    assert park_stabilizer(space, cls) == locus_stabilizer(space.group, pt)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dihedral_bijection_commutes_with_every_element(m, k):
    # the builder walks g, s and c only; the map commutes with the tables
    # of g and of every element of W on both sides
    spec = GroupSpec("I2", m)
    space = build_park(spec, k)
    fwd = dihedral_bijection(m, k)
    kh = k * m
    tables = [(space.g_table(), locus_g_table(spec, kh))]
    tables += [(space.w_table(v), locus_w_table(spec, kh, v)) for v in space.group.elements()]
    for park, loc in tables:
        assert [fwd[j] for j in park] == [loc[j] for j in fwd]


@pytest.mark.parametrize("m", [p for fam, p in MAIN_GRID if fam == "I2"])
@pytest.mark.parametrize("k", [1, 2])
def test_stabilizer_matches_object_oracles(m, k):
    # every park position and locus point, through the tables of g, s and c
    spec = GroupSpec("I2", m)
    space = build_park(spec, k)
    grp = space.group
    els = grp.elements()
    kh = k * m
    s = DihedralElement(m, True, 0)

    def by_element(stab):
        # the flag at 2m d + j stands for (elements()[j], d)
        assert len(stab) == len(els) * kh
        return {(els[at % len(els)], at // len(els)) for at, flag in enumerate(stab) if flag}

    park = (space.g_table(), space.w_table(s), space.w_table(space.c))
    for i, cls in enumerate(space.classes()):
        assert by_element(stabilizer(i, m, kh, *park)) == park_stabilizer(space, cls)
    loc = (locus_g_table(spec, kh), locus_w_table(spec, kh, s), locus_w_table(spec, kh, space.c))
    for j, pt in enumerate(build_locus(spec, k)):
        assert by_element(stabilizer(j, m, kh, *loc)) == locus_stabilizer(grp, pt)


def test_dihedral_bijection_builds_one_group():
    # group is an lru_cache keyed on (family, param): the builder makes one
    # group object
    group.cache_clear()
    dihedral_bijection(8, 2)
    assert group.cache_info().misses == 1


def swapped_c_table(a, b):
    """locus_w_table with entries a and b of c's table swapped."""
    real = locus.locus_w_table

    def table(spec, order, w):
        out = real(spec, order, w)
        if w == DihedralElement(spec.param, False, 1):
            out[a], out[b] = out[b], out[a]
        return out

    return table


def identity_table(spec, order, w=None):
    """The identity on the (order+1)^2 locus positions of I2(m), in place
    of locus_g_table or locus_w_table."""
    return array("q", range((order + 1) ** 2))


@pytest.mark.parametrize("a,b,mapped,witness", [
    # a class sent to two points
    (7, 13, 6, {"conflict": {"class": {"chain": ["line:3"], "rep": ["rotation", 1]}, "points": [[1, 0], [2, 1]]}}),
    # a point taken by two classes
    (5, 6, 15, {"conflict": {
        "classes": [{"chain": ["line:2"], "rep": ["rotation", 0]}, {"chain": ["line:0"], "rep": ["rotation", 2]}],
        "point": [2, "0"],
    }}),
])
def test_dihedral_conflict_carries_a_witness(a, b, mapped, witness, monkeypatch):
    # I2(4) k=1 with two points of the locus c-table swapped: the walk
    # meets a class or a point twice
    monkeypatch.setattr(locus, "locus_w_table", swapped_c_table(a, b))
    with pytest.raises(locus.BijectionFailure) as info:
        dihedral_bijection(4, 1)
    assert (info.value.mapped, info.value.witness) == (mapped, witness)


def test_dihedral_unmatched_seed_carries_a_witness(monkeypatch):
    # s and c fix every locus point: the origin's stabilizer (all of
    # W x Z_kh) still matches, the plane seed's matches neither candidate
    monkeypatch.setattr(locus, "locus_w_table", identity_table)
    with pytest.raises(locus.BijectionFailure) as info:
        dihedral_bijection(4, 1)
    assert info.value.mapped == 1
    assert info.value.witness == {
        "unmatched": {"seed": {"chain": ["plane"], "rep": ["rotation", 0]}, "candidates": [[0, "0"], ["0", 0]]}
    }


def test_dihedral_incomplete_map_carries_a_witness(monkeypatch):
    # every table the identity on both sides: each seed matches and is its
    # own orbit, so the first class no seed names stays unmapped
    monkeypatch.setattr(locus, "locus_g_table", identity_table)
    monkeypatch.setattr(locus, "locus_w_table", identity_table)
    monkeypatch.setattr(parkspace.ParkSpace, "g_table", lambda self: identity_table(None, 4))
    monkeypatch.setattr(parkspace.ParkSpace, "w_table", lambda self, v: identity_table(None, 4))
    with pytest.raises(locus.BijectionFailure) as info:
        dihedral_bijection(4, 1)
    # the seeds: the origin, the plane and both mirror orbits (m even, k=1);
    # the plane seed [1, V] sits at position 0, and [c, V] after it
    assert info.value.mapped == 4
    assert info.value.witness == {"unmapped": {"class": {"chain": ["plane"], "rep": ["rotation", 1]}}}


@pytest.mark.parametrize("spec,kmax", [
    (GroupSpec("B", 2), 3),
    (GroupSpec("B", 3), 2),
    (GroupSpec("D", 3), 2),
    (GroupSpec("I2", 4), 2),
    (GroupSpec("I2", 7), 2),
])
def test_intermediate_character(spec, kmax):
    for k in range(1, kmax + 1):
        report = verify_intermediate_character(spec, k)
        assert all(r["pass"] for r in report)


@pytest.mark.parametrize("fam,p", [fp for fp in MAIN_GRID if fp[0] != "A"])
@pytest.mark.parametrize("k", KS)
def test_locus_tables_match_point_actions(fam, p, k):
    spec = GroupSpec(fam, p)
    kh = locus_order(spec, k)
    pts = build_locus(spec, k)
    assert [locus_position(kh, q.coords) for q in pts] == list(range(len(pts)))
    assert locus_g_table(spec, kh) == array("q", table_oracle(pts, locus_act_g))
    for v in group(fam, p).conjugacy_class_reps():
        assert locus_w_table(spec, kh, v) == array("q", table_oracle(pts, lambda q: locus_act_w(spec, v, q)))


@pytest.mark.parametrize("fam,p", [fp for fp in MAIN_GRID if fp[0] != "A"])
@pytest.mark.parametrize("k", KS)
def test_locus_act_w_matches_the_coordinate_rule(fam, p, k):
    # locus_act_w and the tables read the model's moves; the rule written
    # out per coordinate checks them, on generators of W and on c
    spec = GroupSpec(fam, p)
    grp = group(fam, p)
    pts = build_locus(spec, k)
    for v in grp.reflections() + [grp.coxeter_element()]:
        assert [locus_act_w(spec, v, q) for q in pts] == [locus_act_w_by_coords(spec, v, q) for q in pts]


@pytest.mark.parametrize("fam,p", [fp for fp in MAIN_GRID if fp[0] != "A"])
@pytest.mark.parametrize("k", KS)
def test_locus_closed_form_matches_tables(fam, p, k):
    spec = GroupSpec(fam, p)
    kh = locus_order(spec, k)
    cycles = Cycles(locus_g_table(spec, kh))
    for v in group(fam, p).conjugacy_class_reps():
        by_tables = fixed_counts(cycles, locus_w_table(spec, kh, v), kh)
        assert [locus_fixed(locus_cycles(spec, kh, v), kh, d) for d in range(kh)] == by_tables


def test_locus_point_json():
    assert LocusPoint(12, (ZERO, 10, 3)).to_json() == ["0", 10, 3]


def test_locus_fixed_count_direct():
    spec = GroupSpec("B", 2)
    grp = group("B", 2)
    assert locus_fixed_count(spec, 1, grp.identity(), 0) == 25
    c = grp.coxeter_element()
    # c has eigenvalues of order 4 only: no fixed points except the origin
    assert locus_fixed_count(spec, 1, c, 0) == 1


def test_position_typecode_holds_every_position():
    # 'i' below 2^31 positions, 'q' from there: the last position and the
    # -1 of an unmapped entry fit either way, so no raised cap overflows
    limit = parkspace.INT_LIMIT
    assert limit == 1 << 8 * array("i").itemsize - 1
    assert [parkspace.typecode(s) for s in (1, limit - 1, limit, 2**40)] == ["i", "i", "q", "q"]
    for size in (1, limit - 1, limit, limit + 1, 2**40):
        assert list(array(parkspace.typecode(size), [size - 1, -1])) == [size - 1, -1]
    with pytest.raises(OverflowError):
        array("i", [limit])


def test_position_arrays_take_the_typecode_of_their_size(monkeypatch):
    # B2 k=1 and I2(4) k=1 both have 25 classes and 25 locus points.  With
    # the limit at 25 every position array is 'q', at 26 'i', so each
    # builder asks for the typecode of exactly its own size; the entries
    # are the same either way
    spec, k = GroupSpec("B", 2), 1
    space, kh = build_park(spec, k), locus_order(spec, k)
    assert space.size == (kh + 1) ** 2 == 25
    c = space.c
    builds = [
        space.g_table,
        lambda: space.w_table(c),
        lambda: locus_g_table(spec, kh),
        lambda: locus_w_table(spec, kh, c),
        lambda: bc_phi(space),
        lambda: bc_psi(space, range(25)),
        lambda: dihedral_bijection(4, 1),
    ]
    made = {}
    for limit, code in ((25, "q"), (26, "i")):
        monkeypatch.setattr(parkspace, "INT_LIMIT", limit)
        made[code] = [build() for build in builds]
        assert [a.typecode for a in made[code]] == [code] * len(builds)
    assert made["q"] == made["i"]
    assert all(r["pass"] for r in verify_bc_bijection(spec, k))
