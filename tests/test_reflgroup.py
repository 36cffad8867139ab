from fractions import Fraction

import pytest
from conftest import (
    MAIN_GRID,
    RULE_GRID,
    absolute_leq,
    acts_as_minus_one,
    all_flats,
    bfs_reflection_length,
    classes_by_orbit_walk,
    conjugacy_class_reps_by_sets,
    eigenvalue_rotations,
    element_order,
    fixed_flat_by_cycles,
    flat_leq,
    isotropy_contains,
    isotropy_list,
    merge_partitions,
    reflection_length,
)

from ncpark.ncw import build_nc
from ncpark.reflgroup import (
    DihedralElement,
    GroupSpec,
    SignedPerm,
    balanced_cycle,
    group,
    identity_perm,
    orbits,
    paired_cycle,
    partitions,
    perm_from_cycles,
    signed_cycle_type,
)

SMALL = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("I2", 3), ("I2", 5), ("I2", 6)]


def test_degrees_and_coxeter_numbers():
    assert GroupSpec("A", 4).degrees == (2, 3, 4)
    assert GroupSpec("B", 3).degrees == (2, 4, 6)
    assert GroupSpec("D", 4).degrees == (2, 4, 6, 4)
    assert GroupSpec("I2", 7).degrees == (2, 7)
    for fam, p in SMALL:
        spec = GroupSpec(fam, p)
        assert spec.coxeter_number == max(spec.degrees)
    assert GroupSpec("A", 4).coxeter_number == 4
    assert GroupSpec("B", 3).coxeter_number == 6
    assert GroupSpec("D", 4).coxeter_number == 6


def test_group_orders():
    for fam, p in SMALL:
        g = group(fam, p)
        assert len(g.elements()) == g.spec.order
        assert len(g.reflections()) == sum(d - 1 for d in g.spec.degrees)


def test_coxeter_element_order_is_h():
    for fam, p in SMALL:
        g = group(fam, p)
        c = g.coxeter_element()
        assert element_order(c) == g.spec.coxeter_number
    # the distinguished choices
    assert group("A", 3).coxeter_element() == perm_from_cycles(3, (1, 2, 3))
    assert group("B", 2).coxeter_element() == balanced_cycle(2, (1, 2))
    assert group("D", 3).coxeter_element() == balanced_cycle(3, (1, 2)) * balanced_cycle(3, (3,))
    assert element_order(group("D", 3).coxeter_element()) == 4


def test_signed_perm_algebra():
    w = paired_cycle(3, (1, 3, -2))
    assert w(1) == 3 and w(3) == -2 and w(-2) == 1
    assert w * w.inverse() == identity_perm(3)
    u = balanced_cycle(2, (1, 2))
    assert [u(1), u(2), u(-1), u(-2)] == [2, -1, -2, 1]
    assert element_order(u) == 4


def test_dihedral_algebra():
    m = 5
    s = DihedralElement(m, True, 0)
    c = group("I2", m).coxeter_element()
    t = s * c  # the other simple: c = s*t
    assert s * t == c
    assert (s * s) == DihedralElement(m, False, 0)
    assert element_order(c) == m
    for el in group("I2", m).elements():
        assert el * el.inverse() == DihedralElement(m, False, 0)


def test_fixed_flat_examples():
    # pinned cycle example
    g6 = group("A", 6)
    w = perm_from_cycles(6, (1, 2, 5), (3, 4))
    assert g6.fixed_flat(w).blocks == ((1, 2, 5), (3, 4), (6,))
    # identity fixes everything
    for fam, p in SMALL:
        g = group(fam, p)
        assert g.fixed_flat(g.identity()).dim == g.rank
    # signed example: x1 = -x2, x3 = 0
    g3 = group("B", 3)
    w = paired_cycle(3, (1, -2)) * balanced_cycle(3, (3,))
    flat = g3.fixed_flat(w)
    assert set(flat.blocks) == {(-2, 1), (-1, 2), (-3, 3)}
    assert flat.dim == 1


def test_reflection_length_examples():
    g3 = group("A", 3)
    assert reflection_length(g3, identity_perm(3)) == 0
    assert reflection_length(g3, perm_from_cycles(3, (1, 2, 3))) == 2
    g2 = group("B", 2)
    w = balanced_cycle(2, (1,)) * balanced_cycle(2, (2,))
    assert reflection_length(g2, w) == 2
    assert bfs_reflection_length(g2, w) == 2


@pytest.mark.parametrize(
    "fam,p",
    [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("I2", 3), ("I2", 5), ("I2", 6), ("I2", 8), ("D", 3)],
)
def test_reflection_length_matches_bfs(fam, p):
    # exhaustive word-length oracle for every group of order at most 48
    g = group(fam, p)
    assert len(g.elements()) <= 48
    for w in g.elements():
        assert reflection_length(g, w) == bfs_reflection_length(g, w)


def test_absolute_order_examples():
    g = group("A", 3)
    c = perm_from_cycles(3, (1, 2, 3))
    assert absolute_leq(g, identity_perm(3), c)
    assert absolute_leq(g, perm_from_cycles(3, (1, 3)), c)
    assert not absolute_leq(g, c, perm_from_cycles(3, (1, 3, 2)))


def test_absolute_order_vs_flat_containment_below_c():
    # u, v below c: u <= v iff the fixed flat of u contains the fixed flat
    # of v, so the 2-multichains NCPoset builds from flats are exactly the
    # pairs of the length definition, in lexicographic order
    for fam, p in MAIN_GRID + [("A", 6), ("B", 4), ("D", 4)]:
        g = group(fam, p)
        c = g.coxeter_element()
        below = [w for w in g.elements() if absolute_leq(g, w, c)]
        flat = {w: g.fixed_flat(w) for w in below}
        pairs = {(u, v) for u in below for v in below if absolute_leq(g, u, v)}
        assert pairs == {(u, v) for u in below for v in below if flat_leq(g, flat[u], flat[v])}
        # the lists of the elements above each u are built on first use,
        # once: 1-multichains build no lists
        nc = build_nc(g)
        assert nc.multichains(1) == [(w,) for w in below]
        assert "_ups" not in vars(nc)
        assert nc.multichains(2) == sorted(pairs)
        ups = vars(nc)["_ups"]
        nc.multichains(3)
        assert vars(nc)["_ups"] is ups


def test_eigenvalue_multiplicities():
    for fam, p in SMALL:
        g = group(fam, p)
        assert g.eigenvalue_multiplicity(g.identity(), 0, 4) == g.rank
    # type A: d = 0 count is cycles minus one
    g = group("A", 4)
    for w in g.elements():
        assert g.eigenvalue_multiplicity(w, 0, 4) == len(w.cycles()) - 1
    # B2 Coxeter element at k=1: primitive 4th roots
    g2 = group("B", 2)
    c = g2.coxeter_element()
    assert [g2.eigenvalue_multiplicity(c, d, 4) for d in range(4)] == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        g2.eigenvalue_multiplicity(c, 4, 4)


def test_eigenvalues_match_numeric_diagonalization():
    numpy = pytest.importorskip("numpy")
    for fam, p in [("B", 2), ("B", 3), ("D", 3), ("A", 4)]:
        g = group(fam, p)
        n = g.spec.param
        for w in g.elements():
            mat = numpy.zeros((n, n))
            for i in range(1, n + 1):
                j = w(i)
                mat[abs(j) - 1, i - 1] = 1 if j > 0 else -1
            eig = sorted(numpy.angle(numpy.linalg.eigvals(mat)) / (2 * numpy.pi) % 1)
            rots = eigenvalue_rotations(g, w)
            if fam == "A":
                rots = tuple(sorted(rots + (Fraction(0),)))  # ambient adds a trivial line
            assert len(eig) == len(rots)
            for x, q in zip(eig, sorted(rots)):
                assert abs(x - float(q)) < 1e-9 or abs(x - float(q) + 1) < 1e-9


def test_eigenvalue_sum_property():
    # summing mult over d counts exactly the eigenvalues of order dividing kh
    for fam, p in [("A", 4), ("B", 3), ("I2", 5)]:
        g = group(fam, p)
        h = g.spec.coxeter_number
        c = g.coxeter_element()
        assert sum(g.eigenvalue_multiplicity(c, d, h) for d in range(h)) == g.rank
        for w in g.elements():
            total = sum(g.eigenvalue_multiplicity(w, d, h) for d in range(h))
            full = len([q for q in eigenvalue_rotations(g, w) if (q * h).denominator == 1])
            assert total == full


@pytest.mark.parametrize(
    "fam,p",
    [("A", n) for n in range(2, 7)]
    + [("B", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 6)]
    + [("I2", m) for m in range(3, 11)],
)
def test_eigenvalue_multiplicity_matches_rotations(fam, p):
    # the integer rule against the rational oracle, for every element and
    # every power of the order-kh root
    g = group(fam, p)
    h = g.spec.coxeter_number
    for w in g.elements():
        rots = eigenvalue_rotations(g, w)
        for k in (1, 2, 3):
            order = k * h
            expected = [0] * order
            for q in rots:
                if (q * order).denominator == 1:
                    expected[int(q * order)] += 1
            assert [g.eigenvalue_multiplicity(w, d, order) for d in range(order)] == expected, (w, order)


def test_all_flats_counts():
    assert len(all_flats(group("A", 3))) == 5
    assert len(all_flats(group("A", 2))) == 2
    for m in (3, 4, 5, 6, 7, 8):
        assert len(all_flats(group("I2", m))) == m + 2


def test_isotropy_examples():
    g6 = group("A", 6)
    flat = g6.fixed_flat(perm_from_cycles(6, (1, 3), (2, 4, 5)))
    members = isotropy_list(g6, flat)
    assert len(members) == 2 * 6 * 1
    for w in members:
        assert isotropy_contains(g6, flat, w)
    # B2 line x1 = x2
    g2 = group("B", 2)
    line = g2.fixed_flat(paired_cycle(2, (1, 2)))
    assert isotropy_contains(g2, line, paired_cycle(2, (1, 2)))
    assert not isotropy_contains(g2, line, balanced_cycle(2, (1,)) * balanced_cycle(2, (2,)))
    # origin is fixed by everyone
    for fam, p in SMALL:
        g = group(fam, p)
        origin = g.fixed_flat(g.coxeter_element())
        assert origin.dim == 0
        assert all(isotropy_contains(g, origin, w) for w in g.elements())


@pytest.mark.parametrize("fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("I2", 5), ("I2", 6)])
def test_isotropy_elements_match_filter(fam, p):
    g = group(fam, p)
    for flat in all_flats(g):
        direct = isotropy_list(g, flat)
        assert len(set(direct)) == len(direct)
        direct = set(direct)
        filtered = {w for w in g.elements() if isotropy_contains(g, flat, w)}
        assert direct == filtered


@pytest.mark.parametrize("fam,p", [("A", 4), ("B", 3), ("D", 3), ("D", 4), ("I2", 5), ("I2", 6)])
def test_isotropy_generators_generate(fam, p):
    # reflections of W_X whose closure under products is all of W_X
    g = group(fam, p)
    for flat in all_flats(g):
        gens = g.isotropy_generators(flat)
        assert all(t in g.reflections() and isotropy_contains(g, flat, t) for t in gens)
        closure = {g.identity()}
        frontier = list(closure)
        while frontier:
            frontier = [w * t for w in frontier for t in gens if w * t not in closure]
            closure.update(frontier)
        assert closure == set(isotropy_list(g, flat))


@pytest.mark.parametrize("fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)])
def test_galois_correspondence(fam, p):
    # the fixed space of the isotropy group of a flat is the flat itself
    g = group(fam, p)
    ground = list(range(1, p + 1))
    if fam != "A":
        ground += [-i for i in range(1, p + 1)]
    for flat in all_flats(g):
        parts = [g.fixed_flat(w).blocks for w in isotropy_list(g, flat)]
        assert merge_partitions(ground, parts) == flat.blocks


def test_galois_correspondence_dihedral():
    for m in (3, 4, 5):
        g = group("I2", m)
        for flat in all_flats(g):
            iso = isotropy_list(g, flat)
            # the largest flat fixed pointwise by all of W_X is X itself
            fixed = [x for x in all_flats(g) if all(isotropy_contains(g, x, w) for w in iso)]
            assert max(fixed, key=lambda x: x.dim) == flat


@pytest.mark.parametrize(
    "fam,p", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)]
    + [("I2", m) for m in range(3, 9)]
)
def test_minus_one_on_a_line_forces_even_h(fam, p):
    g = group(fam, p)
    h = g.spec.coxeter_number
    lines = [x for x in all_flats(g) if x.dim == 1]
    found = any(acts_as_minus_one(g, x, w) for x in lines for w in g.elements())
    if h % 2 == 1:
        assert not found
    else:
        assert found  # c^(h/2) = -1 realizes it in the even families


def test_conjugacy_class_counts():
    assert len(group("A", 4).conjugacy_class_reps()) == 5
    assert len(group("B", 2).conjugacy_class_reps()) == 5
    assert len(group("B", 3).conjugacy_class_reps()) == 10
    assert len(group("I2", 5).conjugacy_class_reps()) == 4
    assert len(group("I2", 6).conjugacy_class_reps()) == 6


@pytest.mark.parametrize("fam,p", MAIN_GRID + [("A", 7), ("B", 4), ("B", 5), ("D", 5)])
def test_conjugacy_class_reps_match_set_sweep(fam, p):
    # the class rule finds the classes, and their minima in order, that
    # removing g w g^-1 for every g finds
    grp = group(fam, p)
    assert grp.conjugacy_class_reps() == conjugacy_class_reps_by_sets(grp)


@pytest.mark.parametrize("fam,p", RULE_GRID)
def test_class_rule_matches_orbit_walk(fam, p):
    # the signed cycle types (with D's split halves), the closed-form sizes
    # and the lexicographic search for minima against the conjugation
    # orbits over all of W.  B4 is here because for even n, B_n is not
    # D_n x {+-1}, and D4 and D6 because their classes of type (2, 2),
    # (4, 4), (2, 4) and (6) split.
    grp = group(fam, p)
    reps, ids, sizes = classes_by_orbit_walk(grp)
    assert grp.conjugacy_class_reps() == reps
    assert grp.class_sizes() == sizes
    assert [grp.class_id(w if fam == "I2" else w.images) for w in grp.elements()] == ids


@pytest.mark.parametrize("fam,p", [("A", 5), ("B", 4), ("D", 4), ("D", 5)])
def test_fixed_flat_matches_cycles(fam, p):
    # the orbits read off the cycles of |w| with their running signs are
    # the blocks that the cycles of w on +-[n] give
    grp = group(fam, p)
    for w in grp.elements():
        assert grp.fixed_flat(w) == fixed_flat_by_cycles(grp, w)


def test_signed_cycle_type_examples():
    assert signed_cycle_type((1, 2, 3)) == ((1, 1, 1), (), 0)
    assert signed_cycle_type((2, 1, -3)) == ((2,), (1,), 0)
    # 1 -> -2 -> -1: the signs met are -, - so the cycle is positive, and
    # the running product is -1 at 2 only
    assert signed_cycle_type((-2, -1)) == ((2,), (), 1)
    assert signed_cycle_type((2, 1)) == ((2,), (), 0)


def test_partitions_small():
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
    assert [sum(1 for _ in partitions(n)) for n in range(1, 10)] == [1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_d_split_halves_are_not_conjugate():
    # D4: (1 2)(3 4) and its conjugate by the sign change of 1, which lies
    # in B4 but not in D4, have one signed cycle type but lie in different
    # D classes
    grp = group("D", 4)
    w = perm_from_cycles(4, (1, 2), (3, 4))
    flip = SignedPerm((-1, 2, 3, 4))
    v = flip * w * flip.inverse()
    assert signed_cycle_type(v.images)[:2] == signed_cycle_type(w.images)[:2]
    assert grp.class_id(v.images) != grp.class_id(w.images)


def test_orbits_small_tables():
    # (0 1)(4 5) on range(6): 2 and 3 are orbits of their own
    assert orbits(6, [[1, 0, 2, 3, 5, 4]]) == ([0, 2, 3, 4], [0, 0, 1, 2, 3, 3])
    # (1 4) and (2 4): the walk from 1 reaches 2 only through 4, and the
    # orbit {1, 2, 4} keeps position 1 past the singleton 3
    assert orbits(5, [[0, 4, 2, 3, 1], [0, 1, 4, 3, 2]]) == ([0, 1, 3], [0, 1, 1, 2, 1])
    # no tables: every index is alone
    assert orbits(3, []) == ([0, 1, 2], [0, 1, 2])
