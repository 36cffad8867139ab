import math
import sys
import tracemalloc
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
    geometric_chains_by_stack,
    is_geometric_by_tuple_sums,
    parse_partition,
    root_sets,
    torus_fixed_count_bruteforce,
    torus_matrix_by_back_substitution,
)
from ncpark import nonnesting
from ncpark.ncw import build_nc
from ncpark.nonnesting import (
    build_root_poset,
    fixed_vector_divisors,
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
    assert list(root_sets(poset, poset.filters())) == filters_by_subsets(poset)


@pytest.mark.parametrize("fam,p", [("A", 4), ("B", 3), ("D", 4)])
def test_interval_matches_subset_scan(fam, p):
    # A3, B3 and D4: the filters between every pair of filters, and between
    # each single root (no filter unless it is the highest) and each filter
    poset = build_root_poset(GroupSpec(fam, p))
    subsets = filters_by_subsets(poset)
    masks = poset.filters()
    singles = [1 << i for i in range(len(poset.roots))]
    for low in masks + singles:
        (lows,) = root_sets(poset, (low,))
        for high in masks:
            (highs,) = root_sets(poset, (high,))
            listed = root_sets(poset, poset.interval(low, high))
            assert len(set(listed)) == len(listed)
            assert sorted(listed, key=lambda f: (len(f), sorted(f))) == [f for f in subsets if lows <= f <= highs]


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
    full = (1 << len(poset.roots)) - 1
    f13 = 1 << poset.roots.index(top)
    assert not is_geometric(poset, (f13, f13))
    assert not is_geometric(poset, (full, 0))
    # every other descending pair is geometric, and no ascending one
    bad = 0
    for f1 in poset.filters():
        for f2 in poset.filters():
            if f2 | f1 == f1 and not is_geometric(poset, (f1, f2)):
                bad += 1
            if f2 | f1 != f1:
                assert not is_geometric(poset, (f1, f2))
    assert bad == 2
    # k = 1 chains are vacuously geometric
    for f in poset.filters():
        assert is_geometric(poset, (f,))


@pytest.mark.parametrize(
    "fam,p", [("A", n) for n in (2, 3, 4, 5)] + [("B", n) for n in (2, 3, 4)] + [("D", 3), ("D", 4)]
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_geometric_matches_tuple_sums(fam, p, k):
    poset = build_root_poset(GroupSpec(fam, p))
    for masks in descending_filter_chains(poset, k):
        assert is_geometric(poset, masks) == is_geometric_by_tuple_sums(poset, root_sets(poset, masks)), masks


@pytest.mark.parametrize(
    "fam,p", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("B", 4), ("D", 4), ("A", 5)]
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_geometric_matches_nc(fam, p, k):
    spec = GroupSpec(fam, p)
    assert len(geometric_chains(spec, k)) == spec.fuss_catalan(k)


def test_prefix_search_checks_few_extensions(monkeypatch):
    # A2 at k = 12: the level search builds only chains at which the
    # conditions hold, so it makes no failing closed_at call; the only
    # calls are is_geometric's cross-check, k - 1 per listed chain (no
    # condition ends at the first filter)
    spec, k = GroupSpec("A", 3), 12
    calls = {"closed_at": [], "is_geometric": []}

    def counting(name):
        original = getattr(nonnesting, name)

        def wrapper(*args):
            calls[name].append(original(*args))
            return calls[name][-1]

        monkeypatch.setattr(nonnesting, name, wrapper)

    counting("closed_at")
    counting("is_geometric")
    chains = geometric_chains(spec, k)
    assert len(chains) == len(calls["is_geometric"]) == spec.fuss_catalan(k)
    assert all(calls["closed_at"]) and all(calls["is_geometric"])
    assert len(calls["closed_at"]) == (k - 1) * len(chains)


def test_a_listed_chain_that_fails_the_cross_check_is_an_internal_error(monkeypatch):
    # an interval that drops its lower bound lets (F, F) through for the
    # top filter F of A2, and F + F meets Phi+ outside F
    real = nonnesting.RootPoset.interval
    monkeypatch.setattr(nonnesting.RootPoset, "interval", lambda self, low, high: real(self, 0, high))
    with pytest.raises(RuntimeError, match="not geometric"):
        geometric_chains(GroupSpec("A", 3), 2)


@pytest.mark.parametrize(
    "fam,p", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4)]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_geometric_chains_match_stack_search(fam, p, k):
    # growing the chains one level at a time lists what the depth-first
    # search on an explicit stack lists, in the same order
    spec = GroupSpec(fam, p)
    poset = build_root_poset(spec)
    assert [root_sets(poset, ch) for ch in geometric_chains(spec, k)] == geometric_chains_by_stack(spec, k)


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
    assert all(len(ch) == k for ch in chains)


def test_k1_builds_no_filter_pair_table():
    # A7 has 1,430 filters; the table of every comparable pair of them
    # takes about 11 MB under tracemalloc, the filters as sets of roots
    # 2.5 MB, and as masks, with the chains, under 1 MB
    spec = GroupSpec("A", 8)
    nonnesting.root_system.cache_clear()
    tracemalloc.start()
    try:
        chains = geometric_chains(spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chains) == spec.fuss_catalan(1) == 1430
    assert peak < 2**20


def test_count_geometric_examples():
    assert len(geometric_chains(GroupSpec("A", 3), 2)) == 12
    assert len(geometric_chains(GroupSpec("A", 4), 2)) == 55


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
    assert math.prod(fixed_vector_divisors(mat, 2)) == torus_fixed_count_bruteforce(spec, rot, 2) == 2
    for w in group("B", 2).elements():
        for m in (2, 3, 4, 6, 8):
            assert math.prod(fixed_vector_divisors(torus_matrix(spec, w), m)) == torus_fixed_count_bruteforce(
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
