from collections import Counter
from math import prod

import pytest
from conftest import (
    KS,
    MAIN_GRID,
    all_noncrossing_partitions,
    noncrossing_partitions_by_recursion,
    bc_nabla_picture_by_line,
    block_sizes,
    boundary_delta,
    crossing_free_pairwise,
    full_partition,
    kreweras_by_separation,
    label_of,
    nabla_by_partitions,
    nc_lambda_count,
    omega,
    openers_by_peeling,
    parse_partition,
    pi_of,
    relabel,
    rotate_partition,
    set_partitions,
    shuffle,
    singletons,
    symmetric_kdiv_count,
    symmetric_kdiv_type,
)

from ncpark import setpart
from ncpark.parkspace import build_park
from ncpark.reflgroup import GroupSpec, balanced_cycle, identity_perm, paired_cycle, perm_from_cycles, zero_block
from ncpark.setpart import (
    LabeledPartition,
    SetPartition,
    bc_nabla,
    bc_nabla_picture,
    circ_position,
    format_partition,
    is_noncrossing,
    kreweras,
    nabla,
    nabla_block_map,
    openers,
)


def nc_multichains(n, k):
    ncs = list(all_noncrossing_partitions(n))
    out = []

    def extend(chain):
        if len(chain) == k:
            out.append(tuple(chain))
            return
        for q in ncs:
            if chain[-1].refines(q):
                extend(chain + [q])

    for p in ncs:
        extend([p])
    return out


def fuss_catalan_a(n, k):
    return prod(k * n + d for d in range(2, n + 1)) // prod(range(2, n + 1))


def test_literal_round_trip():
    p = parse_partition("1,-4/2,3/-1,4/-2,-3", 4, signed=True)
    assert format_partition(p) == "1,-4/2,3/-1,4/-2,-3"
    q = parse_partition("1,2,5/3,4/6", 6)
    assert format_partition(q) == "1,2,5/3,4/6"
    with pytest.raises(ValueError):
        parse_partition("1,2/2,3", 3)


def test_is_noncrossing():
    assert is_noncrossing(parse_partition("1,2,5/3,4/6", 6))
    assert not is_noncrossing(parse_partition("1,3/2,4", 4))
    assert is_noncrossing(singletons(5))
    # signed boundary order 1..n,-1..-n
    assert is_noncrossing(parse_partition("1,-3/2,-2/-1,3", 3, signed=True))
    assert not is_noncrossing(parse_partition("1,-1/2,-3/-2,3", 3, signed=True))


@pytest.mark.parametrize("n", range(10))
def test_memoized_noncrossing_partitions_match_recursion(n):
    # the segment lists made once per length and shifted give, in the same
    # order, the valid noncrossing partitions that the recursion re-lists
    fast = list(all_noncrossing_partitions(n))
    assert fast == list(noncrossing_partitions_by_recursion(n))
    assert all(SetPartition.of(n, p.blocks) == p and is_noncrossing(p) for p in fast)


def test_noncrossing_walk_matches_pairwise_oracle():
    # every set partition of [n], n <= 8 (5,295 of them), and every
    # partition of +-[n], n <= 4, in the signed boundary order
    count = 0
    for n in range(1, 9):
        for blocks in set_partitions(list(range(1, n + 1))):
            p = SetPartition.of(n, blocks)
            assert is_noncrossing(p) == crossing_free_pairwise(p.blocks, lambda x: x - 1), p
            count += 1
    assert count == 5295
    for n in range(1, 5):
        for blocks in set_partitions(list(range(1, n + 1)) + [-i for i in range(1, n + 1)]):
            p = SetPartition.of(n, blocks, signed=True)
            pos = lambda x: circ_position(x, n)
            assert is_noncrossing(p) == crossing_free_pairwise(p.blocks, pos), p


def test_kreweras_examples():
    p = parse_partition("1,2,5/3,4/6", 6)
    assert kreweras(p) == parse_partition("1,6/2/3,5/4", 6)
    assert kreweras(singletons(5)) == full_partition(5)
    assert kreweras(full_partition(5)) == singletons(5)
    with pytest.raises(ValueError):
        kreweras(parse_partition("1,3/2,4", 4))


@pytest.mark.parametrize("n", range(2, 9))
def test_kreweras_bijection_and_square(n):
    seen = set()
    for p in all_noncrossing_partitions(n):
        q = kreweras(p)
        assert is_noncrossing(q)
        seen.add(q)
        # K^2 is clockwise rotation by one step
        assert kreweras(q) == rotate_partition(p, 1)
    assert len(seen) == sum(1 for _ in all_noncrossing_partitions(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_matches_separation_oracle(n):
    for p in all_noncrossing_partitions(n):
        assert kreweras(p) == kreweras_by_separation(p)


def test_omega_pi():
    p = parse_partition("1,2,5/3,4/6", 6)
    assert omega(p) == perm_from_cycles(6, (1, 2, 5), (3, 4))
    assert pi_of(perm_from_cycles(6, (1, 2, 5), (3, 4))) == p
    assert omega(singletons(4)) == identity_perm(4)
    with pytest.raises(ValueError):
        pi_of(perm_from_cycles(3, (1, 3, 2)))
    for n in range(2, 7):
        for p in all_noncrossing_partitions(n):
            assert pi_of(omega(p)) == p


def test_omega_signed_matches_poset_dictionary():
    from ncpark.ncw import build_nc
    from ncpark.reflgroup import group

    for n in (2, 3):
        nc = build_nc(group("B", n))
        for p in centrally_symmetric_nc(n):
            from ncpark.reflgroup import FlatPartition

            flat = FlatPartition("B", n, blocks=p.blocks)
            assert omega(p) == nc.element_of_flat[flat]


def test_boundary_delta():
    c = perm_from_cycles(4, (1, 2, 3, 4))
    ws = (
        perm_from_cycles(4, (1, 4)),
        perm_from_cycles(4, (1, 3, 4)),
        perm_from_cycles(4, (1, 3, 4)),
    )
    assert boundary_delta(ws, c) == (
        perm_from_cycles(4, (1, 3)),
        identity_perm(4),
        perm_from_cycles(4, (1, 2)),
    )
    assert boundary_delta((c, c), c) == (identity_perm(4), identity_perm(4))
    ident = identity_perm(4)
    assert boundary_delta((ident, ident), c) == (ident, c)


def test_shuffle_and_relabel():
    assert shuffle((full_partition(2), full_partition(2))) == parse_partition("1,3/2,4", 4)
    p = parse_partition("1,3/2,4/5", 5)
    assert sorted(relabel(p, [1, 5, 7, 8, 9])) == [(1, 7), (5, 8), (9,)]
    singles = singletons(3)
    assert shuffle((singles, singles)) == singletons(6)


def test_nabla_worked_chain():
    # the value below is the one forced by the component definitions; a
    # mirrored orientation of the same data is sometimes quoted for this chain
    chain = (
        parse_partition("1,4/2/3", 4),
        parse_partition("1,3,4/2", 4),
        parse_partition("1,3,4/2", 4),
    )
    out = nabla(chain)
    assert out == parse_partition("1,8,9,10,11,12/2,3,7/4,5,6", 12)
    # the restriction bullet: blocks meeting {1,4,7,10} mirror the first entry
    bmap = nabla_block_map(out, chain[0], 3)
    sizes = {tuple(sorted(src)): len(b) for b, src in bmap.items()}
    assert sizes == {(1, 4): 6, (2,): 3, (3,): 3}


@pytest.mark.parametrize("n", range(2, 7))
def test_nabla_k1_is_identity(n):
    for p in all_noncrossing_partitions(n):
        assert nabla((p,)) == p


def test_nabla_singleton_chain():
    s2 = singletons(2)
    assert nabla((s2, s2)) == parse_partition("1,2/3,4", 4)
    s3 = singletons(3)
    assert nabla((s3, s3, s3)) == parse_partition("1,2,3/4,5,6/7,8,9", 9)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_nabla_bijection(n, k):
    chains = nc_multichains(n, k)
    images = set()
    for ch in chains:
        out = nabla(ch)
        assert is_noncrossing(out)
        assert all(len(b) % k == 0 for b in out.blocks)
        images.add(out)
        bmap = nabla_block_map(out, ch[0], k)
        for b, src in bmap.items():
            assert len(b) == k * len(src)  # the size-multiplication bullet
    assert len(images) == len(chains) == fuss_catalan_a(n, k)


def test_nabla_rejects_non_multichain():
    a = parse_partition("1,2/3", 3)
    b = parse_partition("1,3/2", 3)
    with pytest.raises(ValueError):
        nabla((a, b))


def test_nabla_rejects_crossing_entry():
    with pytest.raises(ValueError, match="not noncrossing"):
        nabla((parse_partition("1,3/2,4", 4),))
    with pytest.raises(ValueError, match="different ground sets"):
        nabla((singletons(2), singletons(3)))


@pytest.mark.parametrize("fam,p", [(f, p) for f, p in MAIN_GRID if f in ("A", "B")])
@pytest.mark.parametrize("k", KS)
def test_nabla_matches_partition_route(fam, p, k):
    # the one pass on integer permutations against the route through
    # validated partitions (type B on the +-[n] = [2n] line), on every
    # multichain: the picture and its block map
    space = build_park(GroupSpec(fam, p), k)
    for chain in space.chains:
        pic = space.chain_picture(chain)
        if fam == "A":
            expected = nabla_by_partitions(pic.parts)
            assert (pic.pi, pic.block_map) == (expected, nabla_block_map(expected, pic.parts[0], k))
        else:
            assert (pic.pi, pic.block_map) == bc_nabla_picture_by_line(pic.parts)


def _inverse(perm):
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return inv


@pytest.mark.parametrize(
    "chain,stage,mutant,message",
    [
        # sigma = c on [4]; its inverse has a decreasing 4-cycle, so sigma is
        # not the omega of a noncrossing partition
        ((singletons(4),), "_shuffle", _inverse, r"cyc\(K\) \+ cyc\(sigma\)"),
        # sigma = (1 3) for two singleton entries on [2], replaced by the
        # transposition (0 1): noncrossing, but K = (0 2 3)(1) has blocks
        # of 3 and 1
        ((singletons(2), singletons(2)), "_shuffle", lambda sigma: [1, 0, 2, 3], "not k-divisible"),
        # delta_2 = c set to the identity: sigma = 1 and K = c, one block of
        # 4 that holds both restriction points of a first entry of singletons
        (
            (singletons(2), singletons(2)),
            "_boundary_factors",
            lambda deltas: deltas[:-1] + [list(range(2))],
            "restriction is not order isomorphic",
        ),
    ],
    ids=["biane", "k-divisible", "restriction"],
)
def test_nabla_checks_catch_mutants(chain, stage, mutant, message, monkeypatch):
    # each final condition, alone, turns a corrupted shuffle or boundary
    # factor into an internal error; the chain itself is a valid multichain
    nabla(chain)
    real = getattr(setpart, stage)
    monkeypatch.setattr(setpart, stage, lambda arg: mutant(real(arg)))
    with pytest.raises(RuntimeError, match=message):
        nabla(chain)


def test_bc_nabla_picture_rejects_asymmetric_entries():
    # noncrossing on the line 1, 2, -1, -2, but not centrally symmetric
    with pytest.raises(ValueError, match="centrally symmetric"):
        bc_nabla_picture((parse_partition("1/2/-1,-2", 2, signed=True),))


def test_nc_lambda_count_formula():
    assert nc_lambda_count((3,)) == 1
    assert nc_lambda_count((1, 1, 1)) == 1
    assert nc_lambda_count((2, 1)) == 3
    with pytest.raises(ValueError):
        nc_lambda_count(())


@pytest.mark.parametrize("n", range(1, 9))
def test_nc_lambda_count_vs_enumeration(n):
    counts = Counter(block_sizes(p) for p in all_noncrossing_partitions(n))
    for lam, c in counts.items():
        assert nc_lambda_count(lam) == c


def test_symmetric_kdiv_count_examples():
    # one invariant block only: empty product
    assert symmetric_kdiv_count((), 2, 1, 2) == 1
    # n=2, k=2, m=2: one orbit of size-2 blocks
    assert symmetric_kdiv_count((1,), 2, 2, 2) == 2
    assert symmetric_kdiv_count((1,), 3, 1, 3) == 1
    with pytest.raises(ValueError):
        symmetric_kdiv_count((1,), 3, 1, 2)


@pytest.mark.parametrize("N", range(2, 13))
def test_symmetric_kdiv_count_vs_enumeration(N):
    partitions = list(all_noncrossing_partitions(N))
    found = {}
    for m in range(2, N + 1):
        if N % m:
            continue
        # m-fold symmetry and the orbit lengths do not depend on k, so the
        # symmetric partitions are found once per m and typed per k.  The
        # rotation by N/q, for q the least divisor >= 2 of m, is a power of
        # the rotation by N/m, and an orbit of length m under the latter has
        # length q under the former: so only a prime m scans every
        # partition, and any other m filters those found for q
        q = next(d for d in range(2, m + 1) if m % d == 0)
        pool = partitions if q == m else found[q]
        symmetric = found[m] = [p for p in pool if symmetric_kdiv_type(p, 1, m) is not None]
        for k in range(1, N + 1):
            if N % k:
                continue
            n = N // k
            counts = Counter()
            for p in symmetric:
                mu = symmetric_kdiv_type(p, k, m)
                if mu is not None:
                    counts[mu] += 1
            for mu, c in counts.items():
                assert symmetric_kdiv_count(mu, n, k, m) == c, (N, k, m, mu)


def test_bc_nabla_pinned_pairs():
    X1 = parse_partition("1,-3/2,-2/-1,3", 3, signed=True)
    X2 = full_partition(3, signed=True)
    w = paired_cycle(3, (1, 3, -2))
    labels = {b: tuple(w(x) for x in b) for b in X1.blocks}
    lp = bc_nabla((X1, X2), labels)
    assert lp.partition == parse_partition("1,-4,-5,-6/2,3,-2,-3/4,5,6,-1", 6, signed=True)
    assert set(label_of(lp, (-6, -5, -4, 1))) == {2, 3}
    assert set(label_of(lp, (-3, -2, 2, 3))) == {1, -1}
    assert set(label_of(lp, (-1, 4, 5, 6))) == {-2, -3}

    Y1 = parse_partition("1,2/3/-1,-2/-3", 3, signed=True)
    Y2 = parse_partition("1,2,3/-1,-2,-3", 3, signed=True)
    w2 = paired_cycle(3, (1, -3)) * balanced_cycle(3, (2,))
    labels2 = {b: tuple(w2(x) for x in b) for b in Y1.blocks}
    lp2 = bc_nabla((Y1, Y2), labels2)
    assert lp2.partition == parse_partition("1,2,3,6/4,5/-1,-2,-3,-6/-4,-5", 6, signed=True)
    assert set(label_of(lp2, (1, 2, 3, 6))) == {-2, -3}
    assert set(label_of(lp2, (4, 5))) == {-1}


def test_bc_nabla_k1_identity():
    for n in (2, 3):
        for p in centrally_symmetric_nc(n):
            labels = {b: b for b in p.blocks}
            lp = bc_nabla((p,), labels)
            assert lp.partition == p


def centrally_symmetric_nc(n):
    ground = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    out = []
    for p in all_noncrossing_partitions(2 * n):
        mapped = [tuple(x if x <= n else n - x for x in b) for b in p.blocks]
        try:
            q = SetPartition.of(n, mapped, signed=True)
        except ValueError:
            continue
        if q.is_centrally_symmetric() and is_noncrossing(q):
            zero_blocks = [b for b in q.blocks if frozenset(b) == frozenset(-x for x in b)]
            if len(zero_blocks) <= 1:
                out.append(q)
    return out


def test_openers_examples():
    p = parse_partition("1/2,-4/3,-3/4,-2/-1", 4, signed=True)
    ops = openers(p)
    assert ops[(1,)] == 1
    assert ops[(-4, 2)] == -4
    assert ops[(-2, 4)] == 4
    assert ops[(-1,)] == -1
    assert (-3, 3) not in ops
    # all singletons: each block opened by its element
    singles = singletons(3, signed=True)
    assert openers(singles) == {(i,): i for i in (1, 2, 3, -1, -2, -3)}
    # a single zero block has no openers
    assert openers(full_partition(3, signed=True)) == {}


def test_openers_cover_all_symmetric_partitions():
    # the direct rule against peeling innermost blocks first
    for n in (1, 2, 3, 4):
        for p in centrally_symmetric_nc(n):
            ops = openers(p)
            assert ops == openers_by_peeling(p)
            zero = zero_block(p.blocks)
            expect = len(p.blocks) - (1 if zero else 0)
            assert len(ops) == expect
            for b, o in ops.items():
                assert o in b
                assert ops[tuple(sorted(-x for x in b))] == -o


def test_labeled_partition_validation():
    pi = parse_partition("1,2/3,4", 4)
    LabeledPartition.of(pi, {(1, 2): (1,), (3, 4): (2,)})
    with pytest.raises(ValueError):
        LabeledPartition.of(pi, {(1, 2): (1,), (3, 4): (1,)})
    with pytest.raises(ValueError):
        LabeledPartition.of(pi, {(1, 2): (1, 2)})
