import pytest
from conftest import (
    KS,
    MAIN_GRID,
    RULE_GRID,
    act_on_flat,
    all_flats,
    g_act_chain_by_factors,
    g_act_factor,
    integrate,
    is_noncrossing_flat,
    nc_by_scan,
    partial,
    reflection_length,
    table_oracle,
    ups_by_flat_leq,
)

from ncpark.ncw import build_nc, chain_g_table, g_act_chain
from ncpark.reflgroup import GroupSpec, ReflectionGroup, group, identity_perm, perm_from_cycles
from ncpark.setpart import SetPartition, is_noncrossing

GRID = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4)] + [
    ("I2", m) for m in range(3, 9)
]


@pytest.mark.parametrize("fam,p", GRID)
def test_nc_cardinality(fam, p):
    nc = build_nc(group(fam, p))
    assert len(nc.elements) == GroupSpec(fam, p).fuss_catalan(1)


@pytest.mark.parametrize("fam,p", RULE_GRID)
def test_nc_down_from_c_matches_scan(fam, p):
    # the covers ut, t a reflection whose hyperplane holds V^u, reach the
    # elements and flats that testing l_T(w) + l_T(w^-1 c) over W finds
    nc = build_nc(group(fam, p))
    scan = nc_by_scan(group(fam, p))
    assert nc.elements == list(scan)
    assert list(nc.flat_of.items()) == list(scan.items())


def test_nc_size_is_checked_against_the_catalan_number(monkeypatch):
    # covers that miss a reflection leave NC(W) short of Cat(W): an
    # internal error, not a smaller poset
    real = ReflectionGroup.flat_reflections
    monkeypatch.setattr(ReflectionGroup, "flat_reflections", lambda self, x: real(self, x)[1:])
    with pytest.raises(RuntimeError, match=r"NC\(B3\) has \d+ elements, not Cat\(B3\) = 20"):
        build_nc(ReflectionGroup(GroupSpec("B", 3)))


def test_nc_examples():
    assert len(build_nc(group("A", 3)).elements) == 5
    assert len(build_nc(group("B", 2)).elements) == 6
    rank1 = build_nc(group("B", 1))
    assert sorted(rank1.elements) == sorted(group("B", 1).elements())


@pytest.mark.parametrize("fam,p", GRID)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_multichain_counts(fam, p, k):
    nc = build_nc(group(fam, p))
    assert len(nc.multichains(k)) == GroupSpec(fam, p).fuss_catalan(k)


@pytest.mark.parametrize("fam,p", MAIN_GRID + [("A", 6), ("B", 5), ("D", 5)])
def test_ups_from_covers_match_flat_containment(fam, p):
    nc = build_nc(group(fam, p))
    assert nc._ups == ups_by_flat_leq(nc)


def test_multichain_examples():
    assert len(build_nc(group("A", 3)).multichains(2)) == 12
    for k in (1, 2, 3, 4):
        assert len(build_nc(group("B", 1)).multichains(k)) == k + 1


def test_partial_integrate_inverse():
    for fam, p in [("A", 3), ("B", 2), ("I2", 4)]:
        grp = group(fam, p)
        nc = build_nc(grp)
        c = nc.c
        for k in (1, 2, 3):
            for ch in nc.multichains(k):
                factor = partial(ch, c)
                assert len(factor) == k + 1
                assert integrate(factor, grp, c) == ch


def test_partial_examples():
    grp = group("A", 4)
    nc = build_nc(grp)
    c = nc.c
    ident = identity_perm(4)
    assert partial((c, c, c), c) == (c, ident, ident, ident)
    assert partial((ident, ident, ident), c) == (ident, ident, ident, c)
    chain = (
        perm_from_cycles(4, (1, 4)),
        perm_from_cycles(4, (1, 3, 4)),
        perm_from_cycles(4, (1, 3, 4)),
    )
    assert partial(chain, c) == (
        perm_from_cycles(4, (1, 4)),
        perm_from_cycles(4, (1, 3)),
        ident,
        perm_from_cycles(4, (1, 2)),
    )


def test_integrate_rejects_bad_factorizations():
    grp = group("A", 3)
    c = grp.coxeter_element()
    t = perm_from_cycles(3, (1, 2))
    with pytest.raises(ValueError):
        integrate((t, t), grp, c)  # product is not c
    with pytest.raises(ValueError):
        integrate((c, c.inverse() * c * c, identity_perm(3)), grp, c)


def test_g_act_factor_example():
    grp = group("A", 3)
    c = grp.coxeter_element()
    ident = identity_perm(3)
    assert g_act_factor((ident, ident, ident, c), c) == (ident, c, ident, ident)


def test_g_act_factor_rotates_length_multiset():
    for fam, p in [("A", 4), ("B", 2), ("I2", 5)]:
        grp = group(fam, p)
        nc = build_nc(grp)
        for ch in nc.multichains(3):
            factor = partial(ch, nc.c)
            moved = g_act_factor(factor, nc.c)
            lengths = [reflection_length(grp, w) for w in factor]
            expected = [lengths[0]] + [lengths[-1]] + lengths[1:-1]
            assert [reflection_length(grp, w) for w in moved] == expected


@pytest.mark.parametrize("fam,p", [("A", 3), ("B", 2), ("I2", 3), ("I2", 4), ("I2", 5)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_g_has_order_kh(fam, p, k):
    grp = group(fam, p)
    nc = build_nc(grp)
    kh = k * grp.spec.coxeter_number
    for ch in nc.multichains(k):
        cur = ch
        seen_back = False
        for step in range(1, kh + 1):
            cur = g_act_chain(cur, grp, nc.c)
            factor = partial(cur, nc.c)
            assert sum(reflection_length(grp, w) for w in factor) == reflection_length(grp, nc.c)
            if cur == ch and step == kh:
                seen_back = True
        assert seen_back or cur == ch


@pytest.mark.parametrize(
    "fam,p,k",
    [(fam, p, k) for k in KS for fam, p in MAIN_GRID] + [("A", 7, 1), ("B", 5, 1), ("D", 5, 1)],
)
def test_g_act_chain_matches_factorization_oracle(fam, p, k):
    grp = group(fam, p)
    nc = build_nc(grp)
    for ch in nc.multichains(k):
        assert g_act_chain(ch, grp, nc.c) == g_act_chain_by_factors(ch, grp, nc.c)


@pytest.mark.parametrize("fam,p", MAIN_GRID)
@pytest.mark.parametrize("k", KS)
def test_chain_g_table_matches_g_act_chain(fam, p, k):
    grp = group(fam, p)
    nc = build_nc(grp)
    chains = nc.multichains(k)
    # ParkSpace lays its chain blocks out in this order, taking it as sorted
    assert chains == sorted(chains)
    oracle = table_oracle(chains, lambda ch: g_act_chain(ch, grp, nc.c))
    assert chain_g_table(nc, chains) == oracle


def test_first_component_rule():
    # first flat of g.(chain) equals (c w_k^{-1}) applied to the first flat
    grp = group("A", 4)
    nc = build_nc(grp)
    for ch in nc.multichains(2):
        moved = g_act_chain(ch, grp, nc.c)
        expected = act_on_flat(grp, nc.c * ch[-1].inverse(), grp.fixed_flat(ch[0]))
        assert grp.fixed_flat(moved[0]) == expected


def test_gk_is_conjugation_by_c():
    for fam, p in [("A", 3), ("B", 2), ("I2", 5)]:
        grp = group(fam, p)
        nc = build_nc(grp)
        for k in (1, 2, 3):
            for ch in nc.multichains(k):
                cur = ch
                for _ in range(k):
                    cur = g_act_chain(cur, grp, nc.c)
                assert cur == tuple(nc.c * w * nc.c.inverse() for w in ch)


def test_chain_flats():
    grp = group("A", 3)
    nc = build_nc(grp)
    ident = identity_perm(3)
    assert [grp.fixed_flat(w).dim for w in (ident, ident)] == [2, 2]
    assert [grp.fixed_flat(w).dim for w in (nc.c, nc.c)] == [0, 0]
    ch = (perm_from_cycles(3, (1, 2)), nc.c)
    flats = tuple(grp.fixed_flat(w) for w in ch)
    assert flats[0].blocks == ((1, 2), (3,))
    assert flats[1].blocks == ((1, 2, 3),)
    # injective on chains
    for k in (1, 2):
        chains = nc.multichains(k)
        assert len({tuple(grp.fixed_flat(w) for w in c_) for c_ in chains}) == len(chains)


def test_noncrossing_flats():
    # dihedral: every flat is noncrossing
    for m in (3, 4, 5, 6, 7, 8):
        grp = group("I2", m)
        nc = build_nc(grp)
        assert set(nc.element_of_flat) == set(all_flats(grp))
    # type A: the crossing pair pattern is not a noncrossing flat
    grp = group("A", 4)
    nc = build_nc(grp)
    crossing = grp.fixed_flat(perm_from_cycles(4, (1, 3), (2, 4)))
    assert not is_noncrossing_flat(nc, crossing)
    assert is_noncrossing_flat(nc, grp.fixed_flat(identity_perm(4)))


@pytest.mark.parametrize("fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)] + [("I2", m) for m in range(3, 9)])
def test_every_flat_conjugate_to_noncrossing(fam, p):
    grp = group(fam, p)
    nc = build_nc(grp)
    ncf = set(nc.element_of_flat)
    for x in all_flats(grp):
        assert any(act_on_flat(grp, w, x) in ncf for w in grp.elements())


@pytest.mark.parametrize("fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)] + [("I2", m) for m in range(3, 9)])
def test_w_orbit_of_line_meets_noncrossing_in_c_orbit(fam, p):
    grp = group(fam, p)
    nc = build_nc(grp)
    ncf = set(nc.element_of_flat)
    c = grp.coxeter_element()
    for x in ncf:
        if x.dim != 1:
            continue
        w_orbit_nc = {act_on_flat(grp, w, x) for w in grp.elements()} & ncf
        c_orbit = set()
        y = x
        for _ in range(grp.spec.coxeter_number):
            c_orbit.add(y)
            y = act_on_flat(grp, c, y)
        assert w_orbit_nc == c_orbit


def test_geometric_noncrossing_agrees_with_poset_for_a():
    # flats of A: noncrossing in [1,c] iff noncrossing as a partition
    grp = group("A", 4)
    nc = build_nc(grp)
    for x in all_flats(grp):
        geom = is_noncrossing(SetPartition.of(4, x.blocks))
        assert geom == (x in nc.element_of_flat)


def test_geometric_noncrossing_agrees_with_poset_for_b():
    grp = group("B", 3)
    nc = build_nc(grp)
    for x in all_flats(grp):
        geom = is_noncrossing(SetPartition.of(3, x.blocks, signed=True))
        assert geom == (x in nc.element_of_flat)
