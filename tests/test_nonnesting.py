import sys
from collections import Counter

import pytest

from conftest import (
    KS,
    MAIN_GRID,
    ambient_to_simple,
    antichain_to_partition,
    antichains,
    build_root_poset_by_coefficients,
    descending_filter_chains,
    filters_by_subsets,
    is_geometric_by_tuple_sums,
    parse_partition,
    torus_fixed_count_bruteforce,
    torus_matrix_by_back_substitution,
)
from ncpark import nonnesting
from ncpark.ncw import build_nc
from ncpark.nonnesting import (
    FilterChain,
    build_root_poset,
    count_geometric,
    fixed_vector_count,
    geometric_chains,
    is_geometric,
    torus_fixed_count,
    torus_matrix,
    verify_nn_character,
)
from ncpark.reflgroup import GroupSpec, SignedPerm, group, identity_perm, perm_from_cycles

CRYST = [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("D", 4)]


@pytest.mark.parametrize("fam,p", CRYST)
def test_root_counts(fam, p):
    spec = GroupSpec(fam, p)
    poset = build_root_poset(spec)
    assert len(poset.roots) == spec.rank * spec.coxeter_number // 2
    poset.highest()


@pytest.mark.parametrize(
    "fam,p",
    [("A", n) for n in range(2, 10)] + [("B", n) for n in range(2, 8)] + [("D", n) for n in range(3, 8)],
)
def test_closure_roots_match_coefficient_loops(fam, p):
    # A1-A8, B2-B7 and D3-D7: the closure's positive roots are the
    # coefficient loops' roots, and the negative roots are their negatives
    spec = GroupSpec(fam, p)
    roots = build_root_poset(spec).roots
    assert roots == build_root_poset_by_coefficients(spec).roots
    system = nonnesting.root_system(spec)
    assert sorted(system.values()) == sorted(roots + tuple(tuple(-x for x in r) for r in roots))


def test_closure_rejects_a_non_integer_cartan_entry(monkeypatch):
    # (1, -1, 0) and (0, 3, 0): 2(a, b)/(b, b) = -2/3 is no Cartan integer
    monkeypatch.setattr(nonnesting, "_ambient_simple_roots", lambda spec: [(1, -1, 0), (0, 3, 0)])
    with pytest.raises(RuntimeError, match="not an integer"):
        nonnesting.root_system.__wrapped__(GroupSpec("A", 3))


def test_dihedral_posets_rejected():
    with pytest.raises(ValueError):
        build_root_poset(GroupSpec("I2", 5))
    with pytest.raises(ValueError):
        build_root_poset(GroupSpec("I2", 6))


def test_type_c_option_isomorphic_poset():
    b = build_root_poset(GroupSpec("B", 3))
    c = build_root_poset_by_coefficients(GroupSpec("B", 3), long_roots=True)
    # same number of relations means isomorphic here (both are root posets
    # with the same rank generating function)
    rel_b = sum(1 for x in b.roots for y in b.roots if b.leq(x, y))
    rel_c = sum(1 for x in c.roots for y in c.roots if c.leq(x, y))
    assert len(b.roots) == len(c.roots)
    assert rel_b == rel_c
    assert sorted(sum(r) for r in b.roots) == sorted(sum(r) for r in c.roots)


def test_a2_poset_structure():
    poset = build_root_poset(GroupSpec("A", 3))
    assert len(poset.roots) == 3
    top = poset.highest()
    assert top == (1, 1)
    others = [r for r in poset.roots if r != top]
    assert all(poset.leq(r, top) for r in others)
    assert not poset.leq(others[0], others[1])


@pytest.mark.parametrize("fam,p", CRYST)
def test_filters_count_is_catalan(fam, p):
    spec = GroupSpec(fam, p)
    poset = build_root_poset(spec)
    assert len(poset.filters()) == spec.fuss_catalan(1)
    # antichains biject with filters
    assert len(set(antichains(poset))) == len(poset.filters())


@pytest.mark.parametrize("fam,p", CRYST)
def test_antichain_counts_match_antichains_and_nc_ranks(fam, p):
    # nonnesting-count's witness: the filters by their number of minimal
    # roots are the antichains by size, and both are NC(W) by rank
    spec = GroupSpec(fam, p)
    counts = nonnesting.antichain_counts(spec)
    sizes = Counter(map(len, antichains(build_root_poset(spec))))
    assert counts == [sizes[j] for j in range(spec.rank + 1)]
    ranks = Counter(spec.rank - x.dim for x in build_nc(group(fam, p)).flat_of.values())
    assert counts == [ranks[j] for j in range(spec.rank + 1)]


@pytest.mark.parametrize(
    "fam,p", [("A", n) for n in (3, 4, 5, 6)] + [("B", n) for n in (2, 3, 4)] + [("D", 4)]
)
def test_filters_match_subset_scan(fam, p):
    poset = build_root_poset(GroupSpec(fam, p))
    assert poset.filters() == filters_by_subsets(poset)


def test_antichain_to_partition():
    spec = GroupSpec("A", 7)
    poset = build_root_poset(spec)

    def root(i, j):
        v = [0] * 6
        for t in range(i, j):
            v[t - 1] = 1
        return tuple(v)

    A = [root(1, 3), root(2, 4), root(3, 5), root(4, 7)]
    assert antichain_to_partition(poset, A) == parse_partition("1,3,5/2,4,7/6", 7)
    assert antichain_to_partition(poset, []) == parse_partition("1/2/3/4/5/6/7", 7)
    assert antichain_to_partition(poset, [root(1, 2)]) == parse_partition("1,2/3/4/5/6/7", 7)


def test_is_geometric_examples():
    poset = build_root_poset(GroupSpec("A", 3))
    top = poset.highest()
    full = frozenset(poset.roots)
    f13 = frozenset([top])
    assert not is_geometric(FilterChain(poset, (f13, f13)))
    assert not is_geometric(FilterChain(poset, (full, frozenset())))
    # every other descending pair is geometric
    bad = 0
    for f1 in poset.filters():
        for f2 in poset.filters():
            if f2 <= f1 and not is_geometric(FilterChain(poset, (f1, f2))):
                bad += 1
    assert bad == 2
    # k = 1 chains are vacuously geometric
    for f in poset.filters():
        assert is_geometric(FilterChain(poset, (f,)))


@pytest.mark.parametrize(
    "fam,p", [("A", n) for n in (2, 3, 4, 5)] + [("B", n) for n in (2, 3, 4)] + [("D", 3), ("D", 4)]
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_geometric_matches_tuple_sums(fam, p, k):
    poset = build_root_poset(GroupSpec(fam, p))
    for filters in descending_filter_chains(poset, k):
        ch = FilterChain(poset, filters)
        assert is_geometric(ch) == is_geometric_by_tuple_sums(ch), filters


def test_filter_chain_validation():
    poset = build_root_poset(GroupSpec("A", 3))
    full = frozenset(poset.roots)
    with pytest.raises(ValueError):
        FilterChain(poset, (frozenset(), full))


@pytest.mark.parametrize(
    "fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("B", 4), ("D", 4), ("A", 5)]
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_geometric_matches_nc(fam, p, k):
    spec = GroupSpec(fam, p)
    assert count_geometric(spec, k) == spec.fuss_catalan(k)


def test_prefix_search_checks_few_extensions(monkeypatch):
    # A2 at k = 12: each geometric prefix of length j < k (Cat^(j) of them)
    # is offered at most every filter, one check each; is_geometric's
    # cross-check on each listed chain makes k more calls per chain
    spec, k = GroupSpec("A", 3), 12
    calls = {"closed_at": 0, "is_geometric": 0}

    def counting(name):
        original = getattr(nonnesting, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(nonnesting, name, wrapper)

    counting("closed_at")
    counting("is_geometric")
    chains = geometric_chains(spec, k)
    assert len(chains) == calls["is_geometric"] == spec.fuss_catalan(k)
    filters = len(build_root_poset(spec).filters())
    checks = calls["closed_at"] - k * calls["is_geometric"]
    assert checks <= filters * sum(spec.fuss_catalan(j) for j in range(k))


def test_geometric_chains_deeper_than_the_recursion_limit():
    # one frame per chain entry would need k frames: allow only a few dozen
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    k = 120
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        chains = geometric_chains(GroupSpec("A", 2), k)
    finally:
        sys.setrecursionlimit(limit)
    assert len(chains) == k + 1
    assert all(len(ch.filters) == k for ch in chains)


def test_count_geometric_examples():
    assert count_geometric(GroupSpec("A", 3), 2) == 12
    assert count_geometric(GroupSpec("A", 4), 2) == 55


def test_torus_matrices_are_integral_of_right_order():
    for fam, p in CRYST:
        spec = GroupSpec(fam, p)
        grp = group(fam, p)
        for w in grp.conjugacy_class_reps():
            mat = torus_matrix(spec, w)
            assert all(isinstance(x, int) for row in mat for x in row)
        ident = torus_matrix(spec, grp.identity())
        n = spec.rank
        assert ident == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("fam,p", [fp for fp in MAIN_GRID if fp[0] != "I2"])
def test_torus_matrix_matches_back_substitution(fam, p):
    spec = GroupSpec(fam, p)
    for w in group(fam, p).elements():
        assert torus_matrix(spec, w) == torus_matrix_by_back_substitution(spec, w), w


def test_torus_fixed_count_examples():
    spec = GroupSpec("A", 3)
    m = 1 * 3 + 1
    assert torus_fixed_count(spec, 1, identity_perm(3)) == m**2
    assert torus_fixed_count(spec, 1, perm_from_cycles(3, (1, 2))) == 4
    # rank 1: only the origin is fixed by the reflection
    spec1 = GroupSpec("A", 2)
    for k in (1, 2, 3):
        assert torus_fixed_count(spec1, k, perm_from_cycles(2, (1, 2))) == 1


@pytest.mark.parametrize("fam,p", [fp for fp in MAIN_GRID if fp[0] != "I2"])
@pytest.mark.parametrize("k", KS)
def test_torus_count_matches_bruteforce(k, fam, p):
    spec = GroupSpec(fam, p)
    m = k * spec.coxeter_number + 1
    for w in group(fam, p).conjugacy_class_reps():
        assert torus_fixed_count(spec, k, w) == torus_fixed_count_bruteforce(spec, w, m), w


def test_torus_count_modulus_sharing_a_factor():
    # on B2 the rotation 1 -> -2 -> -1 has det(M - I) = 2, so mod 2 it
    # fixes 2 vectors, where (kh+1)^dim V^w would say 2^0 = 1
    spec = GroupSpec("B", 2)
    rot = SignedPerm((-2, 1))
    mat = torus_matrix(spec, rot)
    assert fixed_vector_count(mat, 2) == torus_fixed_count_bruteforce(spec, rot, 2) == 2
    for w in group("B", 2).elements():
        for m in (2, 3, 4, 6, 8):
            assert fixed_vector_count(torus_matrix(spec, w), m) == torus_fixed_count_bruteforce(
                spec, w, m
            ), (w, m)


def test_ambient_to_simple_rejects_vectors_off_the_lattice():
    with pytest.raises(RuntimeError, match="span"):
        ambient_to_simple(GroupSpec("A", 3), (1, 0, 0))
    with pytest.raises(RuntimeError, match="non-integer"):
        ambient_to_simple(GroupSpec("D", 4), (1, 0, 0, 0))
    assert ambient_to_simple(GroupSpec("D", 4), (0, 0, 1, 1)) == (0, 0, 0, 1)


@pytest.mark.parametrize("fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_nn_character(fam, p, k):
    report = verify_nn_character(GroupSpec(fam, p), k)
    assert all(r["pass"] for r in report)


def test_torus_count_is_conjugation_invariant():
    spec = GroupSpec("B", 2)
    grp = group("B", 2)
    for w in grp.conjugacy_class_reps():
        vals = {torus_fixed_count(spec, 1, g * w * g.inverse()) for g in grp.elements()}
        assert len(vals) == 1


def test_geometric_chain_orbit_count_matches_nc_chain_count():
    # sanity on the chain objects themselves
    chains = geometric_chains(GroupSpec("B", 2), 2)
    assert len(chains) == len(build_nc(group("B", 2)).multichains(2))
