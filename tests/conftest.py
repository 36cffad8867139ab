"""Shared oracles for the test suite, and the helpers that only tests
call: the library keeps what a command runs."""

import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import eq, itemgetter

from ncpark.cli import ENCODER
from ncpark.locus import (
    ZERO,
    LocusPoint,
    build_locus,
    close_parens,
    diagonal_twist,
    exponent_to_opener,
    locus_act_w,
    opener_to_exponent,
)
from ncpark.ncw import build_nc, chain_g_table, g_act_chain
from ncpark.nonnesting import (
    RootPoset,
    _act_ambient,
    _ambient_simple_roots,
    reject_dihedral,
    torus_matrix,
)
from ncpark.parkspace import build_park, is_classical_park, rep_from_labels
from ncpark.reflgroup import (
    DihedralElement,
    FlatPartition,
    SignedPerm,
    balanced_cycle,
    canonical_blocks,
    group,
    identity_perm,
    paired_cycle,
    partition_refines,
    perm_from_cycles,
    zero_block,
)
from ncpark.setpart import (
    SetPartition,
    circ_position,
    is_noncrossing,
    kreweras,
    line_to_signed,
    nabla_block_map,
)

MAIN_GRID = (
    [("A", n) for n in (2, 3, 4)]
    + [("B", n) for n in (2, 3)]
    + [("D", 3)]
    + [("I2", m) for m in range(3, 9)]
)

KS = (1, 2, 3)

# MAIN_GRID with A5, A6, B4, B5, D4, D5 and D6: where a rule replaces a walk over W
RULE_GRID = MAIN_GRID + [("A", 6), ("A", 7), ("B", 4), ("B", 5), ("D", 4), ("D", 5), ("D", 6)]


def table_oracle(items, act):
    """An action table by brute force: the position in items of act(x),
    for each x in items."""
    position = {x: i for i, x in enumerate(items)}
    return [position[act(x)] for x in items]


def fixed_counts_by_powers(garr, varr, steps):
    """#{i : garr^d(varr[i]) == i} for d = 0, ..., steps - 1, by composing
    garr onto varr once per step and comparing with the identity."""
    ident = range(len(garr))
    power = varr
    counts = []
    for d in range(steps):
        if d:
            power = list(map(garr.__getitem__, power))
        counts.append(sum(map(eq, power, ident)))
    return counts


def spec_chain_g_table(spec, k):
    """ncw.chain_g_table on the k-multichains of NC(W) for a group spec."""
    nc = build_nc(group(spec.family, spec.param))
    return chain_g_table(nc, nc.multichains(k))


def enumerate_lines_by_records(spec, k):
    """enumerate's class lines by the per-class route: a record dict for
    each class of classes(), encoded whole."""
    space = build_park(spec, k)
    base = {"schema": 1, "command": "enumerate", "family": spec.family, "rank": spec.param, "k": k}
    return [ENCODER.encode({**base, "class": space.class_record(p), "pass": True}) for p in space.classes()]


def chain_orbit_sizes(spec, k):
    """Sizes of the g-orbits on the k-multichains of NC(W), by walking the
    cycles of the chain g-table."""
    garr = spec_chain_g_table(spec, k)
    seen = [False] * len(garr)
    sizes = []
    for i in range(len(garr)):
        if seen[i]:
            continue
        size = 0
        j = i
        while not seen[j]:
            seen[j] = True
            size += 1
            j = garr[j]
        sizes.append(size)
    return sizes


def absolute_leq(grp, u, v):
    """The absolute order by its length definition:
    u <= v iff l(v) = l(u) + l(u^-1 v)."""
    return reflection_length(grp, v) == reflection_length(grp, u) + reflection_length(
        grp, u.inverse() * v
    )


def partial(chain, c):
    """(w_1 <= ... <= w_k) -> (w_1, w_1^-1 w_2, ..., w_k^-1 c)."""
    out = [chain[0]]
    out += [chain[i].inverse() * chain[i + 1] for i in range(len(chain) - 1)]
    out.append(chain[-1].inverse() * c)
    return tuple(out)


def integrate(factor, grp, c):
    """(w_0, ..., w_k) -> (w_0 <= w_0 w_1 <= ... <= w_0 ... w_{k-1}).

    Raises when the input is not a length-additive factorization of c.
    """
    prod = factor[0]
    chain = [factor[0]]
    for w in factor[1:]:
        prod = prod * w
        chain.append(prod)
    if chain[-1] != c:
        raise ValueError("factor entries do not multiply to the Coxeter element")
    if sum(reflection_length(grp, w) for w in factor) != reflection_length(grp, c):
        raise ValueError("factorization is not length additive")
    return tuple(chain[:-1])


def g_act_factor(factor, c):
    """g.(w_0,...,w_k) = (v, c w_k c^-1, w_1, ..., w_{k-1}),
    v = (c w_k c^-1) w_0 (c w_k c^-1)^-1."""
    t = c * factor[-1] * c.inverse()
    v = t * factor[0] * t.inverse()
    return (v, t) + factor[1:-1]


def g_act_chain_by_factors(chain, grp, c):
    """ncw.g_act_chain through the factorization form: partial, then the
    action on factorizations, then integrate."""
    return integrate(g_act_factor(partial(chain, c), c), grp, c)


@lru_cache(maxsize=None)
def element_index(grp):
    """The position of each element in grp.elements()."""
    return {w: i for i, w in enumerate(grp.elements())}


def orbits(size, tables):
    """(reps, arr) for the orbits on range(size) of the group generated by
    the permutation tables: reps holds the least index of each orbit,
    ascending, and arr[i] is the position in reps of i's orbit.

    Each orbit is walked from its first index through the tables; walking
    the indices in order meets every orbit first at its minimum."""
    arr = [-1] * size
    reps = []
    for i in range(size):
        if arr[i] < 0:
            pos = len(reps)
            reps.append(i)
            arr[i] = pos
            orbit = [i]
            for j in orbit:
                for tab in tables:
                    x = tab[j]
                    if arr[x] < 0:
                        arr[x] = pos
                        orbit.append(x)
    return reps, arr


def isotropy_generators(grp, x):
    """Reflections that generate W_x: for each +- pair of nonzero blocks,
    the transpositions of consecutive members (sorted by |i|); for the
    zero block z1 < z2 < ..., the same plus the sign change of z1 (type
    B) or the swap of z1 and -z2 (type D).  In I2: the line's
    reflection, two adjacent reflections for the origin, none for the
    plane."""
    f, p = grp.family, grp.spec.param
    if f == "I2":
        if x.kind == "line":
            return [DihedralElement(p, True, x.line)]
        if x.kind == "origin":
            return [DihedralElement(p, True, 0), DihedralElement(p, True, 1)]
        return []
    zero = zero_block(x.blocks) or ()
    gens = []
    for b in x.blocks:
        if b != zero and min(abs(t) for t in b) in b:
            slots = sorted(b, key=abs)
            gens += [paired_cycle(p, pair) for pair in zip(slots, slots[1:])]
    if zero:
        zpos = sorted(t for t in zero if t > 0)
        gens += [paired_cycle(p, pair) for pair in zip(zpos, zpos[1:])]
        if f == "B":
            gens.append(balanced_cycle(p, (zpos[0],)))
        elif len(zpos) > 1:
            gens.append(paired_cycle(p, (zpos[0], -zpos[1])))
    return gens


def classes_by_orbit_walk(grp):
    """(reps, ids, sizes) of the conjugacy classes by walking W: the orbits
    of conjugation, w -> s w s, by reflections s that generate the
    isotropy group of the origin V^c, which is W.  reps holds the least
    element of each class, ascending, ids the position in reps of each
    element's class, by element index, and sizes the class sizes."""
    els, idx = grp.elements(), element_index(grp)
    gens = isotropy_generators(grp, grp.fixed_flat(grp.coxeter_element()))
    reps, ids = orbits(len(els), [[idx[s * w * s] for w in els] for s in gens])
    return [els[i] for i in reps], ids, [ids.count(c) for c in range(len(reps))]


def isotropy_list(grp, x):
    """grp.isotropy_elements(x) as a list of elements."""
    return [w if grp.family == "I2" else SignedPerm(w) for w in grp.isotropy_elements(x)]


def nc_by_scan(grp):
    """NC(W) as {w: fixed flat}, in the order of W, by scanning W: the w
    with l_T(w) + l_T(w^-1 c) = l_T(c), each length read off a fixed
    flat."""
    c = grp.coxeter_element()
    els = grp.elements()
    flats = [grp.fixed_flat(w) for w in els]
    length = {w: grp.rank - x.dim for w, x in zip(els, flats)}
    return {w: x for w, x in zip(els, flats) if length[w] + length[w.inverse() * c] == length[c]}


def conjugacy_class_reps_by_sets(grp):
    """The least element of each conjugacy class, by removing each class,
    as the set of all g w g^-1, from the elements not yet covered."""
    els = grp.elements()
    remaining = set(els)
    reps = []
    while remaining:
        w = min(remaining)
        reps.append(w)
        remaining -= {g * w * g.inverse() for g in els}
    return reps


def act_w(space, v, p):
    """v applied to a parking class: [w, X] -> [v w, X], canonicalized."""
    return space.make_class(p.chain, v * p.rep)


def act_g(space, p):
    """The cyclic generator on a parking class: [w, X] -> [w u_k c^-1, g X]."""
    u_k = p.chain[-1]
    chain = g_act_chain(p.chain, space.group, space.c)
    return space.make_class(chain, p.rep * (u_k * space.c.inverse()))


def act_g_power(space, p, d):
    """g^d applied to a parking class, one act_g step at a time."""
    for _ in range(d % (space.k * space.spec.coxeter_number)):
        p = act_g(space, p)
    return p


class Cycles:
    """The cycles of a permutation table, laid out for fixed_counts.

    `runs` holds, for each cycle length L, the indices on the cycles of
    that length, cycle by cycle, each cycle walked forward.  coord puts the
    indices on a line: a cycle of length L takes L consecutive coordinates,
    in walking order, with L free coordinates on each side of them.  So j
    lies on i's cycle exactly when |coord[i] - coord[j]| < L, and then
    table^r(j) = i for r = coord[i] - coord[j] (mod L).
    """

    def __init__(self, table):
        self.coord = coord = array("q", bytes(8 * len(table)))
        members = {}
        seen = bytearray(len(table))
        start = 0
        for first in range(len(table)):
            if seen[first]:
                continue
            cycle = []
            i = first
            while not seen[i]:
                seen[i] = 1
                cycle.append(i)
                i = table[i]
            length = len(cycle)
            for pos, j in enumerate(cycle, start + length):
                coord[j] = pos
            start += 3 * length
            members.setdefault(length, array("q")).extend(cycle)
        self.runs = list(members.items())


def fixed_counts(cycles, varr, steps):
    """#{i : g^d(varr[i]) == i} for d = 0, ..., steps - 1, where cycles
    holds the cycles of the g-table: the fixed points of (v, g^d) from the
    tables of v and of the cyclic generator.

    i is fixed exactly when varr[i] lies on i's g-cycle, of length L, at
    r = coord[i] - coord[varr[i]] steps behind i, and d = r (mod L).  So
    one pass over the indices builds, for each L, the histogram of r."""
    coord = cycles.coord
    counts = [0] * steps
    for length, members in cycles.runs:
        hist = [0] * length
        for i in members:
            r = coord[i] - coord[varr[i]]
            if -length < r < length:
                # a negative r indexes hist at r + length, its residue mod length
                hist[r] += 1
        for d in range(steps):
            counts[d] += hist[d % length]
    return counts


def g_cycles(space):
    """The cycles of space.g_table(), decomposed once for every v."""
    return Cycles(space.g_table())


def verify_weak_by_tables(space):
    """ParkSpace.verify_weak's rows by the class tables: fixed_counts over
    the cycles of g_table() and the w_table() of each class representative,
    against (kh+1)^mult.  Failing rows carry no witness."""
    kh = space.k * space.spec.coxeter_number
    cycles = g_cycles(space)
    rows = []
    for v in space.group.conjugacy_class_reps():
        for d, count in enumerate(fixed_counts(cycles, space.w_table(v), kh)):
            expected = (kh + 1) ** space.group.eigenvalue_multiplicity(v, d, kh)
            rows.append({"v": repr(v), "d": d, "fixed": count, "expected": expected, "pass": count == expected})
    return rows


def coset_arrays_by_products(space, flat):
    """(reps, arr) for the cosets w W_X by |W| products: each element not
    yet placed starts a coset, and its products with every element of W_X
    are placed in it; reps holds the least element index of each coset,
    and arr[i] the position in reps of element i's coset.  In A, B and D
    the product w h is read off w's images followed by their negatives in
    reverse, where index j - 1 holds w(j) and index j < 0 holds
    -w(-j), by one itemgetter per h, and looked up by its images."""
    grp = space.group
    els = grp.elements()
    iso = list(grp.isotropy_elements(flat))
    if grp.family == "I2":
        keys, idx = els, element_index(grp)
        moves = [lambda w, h=h: w * h for h in iso]
    else:
        keys, idx = signed_images(grp)
        moves = [itemgetter(*[j - 1 if j > 0 else j for j in h]) for h in iso]
    arr = [-1] * len(els)
    reps = []
    for i, w in enumerate(keys):
        if arr[i] < 0:
            reps.append(i)
            for move in moves:
                arr[idx[move(w)]] = len(reps) - 1
    return reps, arr


@lru_cache(maxsize=None)
def signed_images(grp):
    """Each element's images followed by their negatives in reverse, and
    the position of each element in grp.elements() by its images."""
    els = grp.elements()
    return [w.images + tuple(-t for t in reversed(w.images)) for w in els], {w.images: i for i, w in enumerate(els)}


@lru_cache(maxsize=None)
def inverse_images(grp):
    """The images of each element's inverse, in grp.elements() order."""
    return [w.inverse().images for w in grp.elements()]


def bc_phi_by_class(space, p):
    """locus.bc_phi on one class, read off the chain's record: each x in
    the first-entry block under a block b of nabla(chain) sends coordinate
    |rep(x)| to the exponent of b's opener, plus kn when rep(x) < 0."""
    n = space.spec.param
    kn = space.k * n
    pic = space.chain_picture(p.chain)
    coords = [ZERO] * n
    for b, opener in pic.openers.items():
        e = opener_to_exponent(opener, kn)
        for x in pic.block_map[b]:
            t = p.rep(x)
            if t > 0:
                coords[t - 1] = e
            else:
                coords[-t - 1] = (e + kn) % (2 * kn)
    return LocusPoint(2 * kn, tuple(coords))


def bc_psi_by_class(space, pt):
    """locus.bc_psi on one point, through a representative: each
    coordinate labels the block its opener opens (its negative, the mirror
    block), the zero coordinates label the zero block, and
    rep_from_labels reads a group element off the labels."""
    n, k = space.spec.param, space.k
    ops = [0 if v is ZERO else exponent_to_opener(v, k * n) for v in pt.coords]
    pic = space.picture_of(close_parens(n, k, tuple(sorted(abs(o) for o in ops if o))))
    labels = {
        b: tuple(i if o == opener else -i for i, o in enumerate(ops, 1) if abs(o) == abs(opener))
        for b, opener in pic.openers.items()
    }
    zero = tuple(s * i for i, o in enumerate(ops, 1) if not o for s in (1, -1))
    if zero:
        labels[zero_block(pic.pi.blocks)] = zero
    return space.make_class(pic.chain, rep_from_labels(space, pic.chain, labels))


def openers_by_peeling(p):
    """setpart.openers by peeling blocks innermost first: a block is
    removable once its elements are cyclically consecutive among the
    not-yet-removed positions (zero-block positions are never removed and
    so keep blocking).  The opener is the first element of the removed run.
    """
    n = p.n
    order = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    alive = set(order)
    zero = zero_block(p.blocks)
    todo = [b for b in p.blocks if b != zero]
    out = {}

    def run_start(b):
        # unique element whose alive predecessor is outside the block, and
        # from which the block is one contiguous alive run
        bset = set(b)
        starts = []
        for x in b:
            pos = circ_position(x, n)
            while True:
                pos = (pos - 1) % (2 * n)
                prev = order[pos]
                if prev in alive:
                    break
            if prev not in bset:
                starts.append(x)
        if len(starts) != 1:
            return None
        pos = circ_position(starts[0], n)
        run = [starts[0]]
        while len(run) < len(b):
            pos = (pos + 1) % (2 * n)
            nxt = order[pos]
            if nxt not in alive:
                continue
            if nxt not in bset:
                return None
            run.append(nxt)
        return starts[0]

    while todo:
        # find every innermost block before removing any: mirror pairs become
        # removable together and must both be read against the same circle
        ready = [(b, run_start(b)) for b in todo]
        ready = [(b, s) for b, s in ready if s is not None]
        if not ready:
            raise RuntimeError(f"no removable block; not noncrossing? {p!r}")
        for b, s in ready:
            out[b] = s
            alive -= set(b)
        removed = {b for b, _ in ready}
        todo = [b for b in todo if b not in removed]
    return out


def close_parens_by_rounds(n, k, openers):
    """locus.close_parens in rounds: left parentheses sit before the named
    positions; each is closed once it can absorb its block size in alive
    symbols without passing an unmatched left parenthesis.  Leftover
    symbols form the zero block."""
    kn = k * n
    mult = Counter(openers)
    order = list(range(1, kn + 1)) + [-i for i in range(1, kn + 1)]
    open_at = []
    for j in sorted(mult):
        open_at += [j, -j]
    unmatched = set(open_at)
    alive = {x: True for x in order}
    blocks = []
    progress = True
    while unmatched and progress:
        progress = False
        for start in sorted(unmatched, key=lambda x: circ_position(x, kn)):
            target = k * mult[abs(start)]
            run = []
            pos = circ_position(start, kn)
            ok = True
            for step in range(2 * kn):
                x = order[(pos + step) % (2 * kn)]
                if x in unmatched and x != start:
                    ok = False
                    break
                if alive[x]:
                    run.append(x)
                    if len(run) == target:
                        break
            if ok and len(run) == target:
                blocks.append(tuple(run))
                for x in run:
                    alive[x] = False
                unmatched.discard(start)
                progress = True
    if unmatched:
        raise RuntimeError(f"parenthesization did not close: {unmatched}")
    rest = [x for x in order if alive[x]]
    if rest:
        blocks.append(tuple(rest))
    pi = SetPartition.of(kn, blocks, signed=True)
    if not is_noncrossing(pi) or not pi.is_centrally_symmetric():
        raise RuntimeError("parenthesization produced a bad partition")
    return pi


def crossing_free_pairwise(blocks, pos):
    """setpart._crossing_free pair by pair: b1 and b2 cross iff b2 meets
    both gaps determined by some pair of cyclically consecutive elements
    of b1."""
    indexed = [sorted(pos(x) for x in b) for b in blocks]
    for b1, b2 in itertools.combinations(indexed, 2):
        inside = outside = False
        for a, b in zip(b1, b1[1:] + b1[:1]):
            lo, hi = (a, b) if a < b else (b, a)
            inside = any(lo < x < hi for x in b2)
            outside = any(not lo < x < hi for x in b2)
            if inside and outside:
                return False
    return True


def set_partitions(ground):
    """Every set partition of the list ground, as lists of blocks."""
    if not ground:
        yield []
        return
    first, rest = ground[0], ground[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def bc_phi_by_labels(space, p):
    """locus.bc_phi through the validated labeled picture: each block's
    opener exponent goes to the coordinates of its labels, plus kn for a
    negative label."""
    n = space.spec.param
    kn = space.k * n
    lp = space.labeled_pair(p)
    coords = [ZERO] * n
    for b, opener in space.chain_picture(p.chain).openers.items():
        e = opener_to_exponent(opener, kn)
        for t in label_of(lp, b):
            if t > 0:
                coords[t - 1] = e
            else:
                coords[-t - 1] = (e + kn) % (2 * kn)
    return LocusPoint(2 * kn, tuple(coords))


def to_classical_by_labels(space, p):
    """ParkSpace.to_classical through the validated labeled picture:
    a_i = least element of the block whose label contains i."""
    out = [0] * space.spec.param
    for b, lab in space.labeled_pair(p).labels:
        for i in lab:
            out[i - 1] = min(b)
    return tuple(out)


def to_classical_of(space, p):
    """ParkSpace.to_classical for one class, given by its coset minimum."""
    return space.to_classical(p.chain, [element_index(space.group)[p.rep]])[0]


def enumerate_classical_by_scan(n, k):
    """The classical k-parking functions, by scanning every sequence in
    [k(n-1)+1]^n."""
    top = k * (n - 1) + 1
    return {
        seq
        for seq in itertools.product(range(1, top + 1), repeat=n)
        if is_classical_park(seq, n, k)
    }


def locus_act_g(p, d=1):
    """g^d on a locus point: every nonzero exponent goes up by d."""
    kh = p.order
    return LocusPoint(kh, tuple(v if v is ZERO else (v + d) % kh for v in p.coords))


def locus_fixed_count(spec, k, v, d):
    """Locus points fixed by (v, g^d), point by point."""
    pts = build_locus(spec, k)
    return sum(1 for p in pts if locus_act_w(spec, v, locus_act_g(p, d)) == p)


def park_stabilizer(space, cls):
    """All (v, d) in W x Z_kh fixing the class, by the class actions."""
    kh = space.k * space.spec.coxeter_number
    out = set()
    cur = cls
    for d in range(kh):
        for v in space.group.elements():
            if act_w(space, v, cur) == cls:
                out.add((v, d))
        cur = act_g(space, cur)
    return out


def locus_stabilizer(grp, pt):
    """All (v, d) in W x Z_kh fixing the point, by the point actions."""
    kh = pt.order
    out = set()
    cur = pt
    for d in range(kh):
        for v in grp.elements():
            if locus_act_w(grp.spec, v, cur) == pt:
                out.add((v, d))
        cur = locus_act_g(cur)
    return out


def bfs_reflection_length(grp, w):
    """Distance from the identity in the Cayley graph on all reflections."""
    refl = grp.reflections()
    ident = grp.identity()
    if w == ident:
        return 0
    frontier = {ident}
    seen = {ident}
    dist = 0
    while frontier:
        dist += 1
        nxt = set()
        for u in frontier:
            for t in refl:
                v = u * t
                if v == w:
                    return dist
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    raise AssertionError("not generated by reflections")


def acts_as_minus_one(g, flat, w):
    """Whether w restricts to -1 on a one-dimensional flat."""
    fam = g.family
    if fam == "I2":
        if flat.kind != "line" or act_on_flat(g, w, flat) != flat:
            return False
        if not w.refl:
            return w.j != 0  # c^(m/2) when m is even
        return w.j != flat.line
    n = g.spec.param
    if fam == "A":
        big, small = sorted(flat.blocks, key=len, reverse=True)
        vec = [0] * n
        for i in small:
            vec[i - 1] = len(big)
        for i in big:
            vec[i - 1] = -len(small)
    else:
        vec = [0] * n
        for b in flat.blocks:
            if frozenset(b) == frozenset(-x for x in b):
                continue
            if min(abs(t) for t in b) in b:
                for t in b:
                    if t > 0:
                        vec[t - 1] = 1
                    else:
                        vec[-t - 1] = -1
    out = [0] * n
    for i in range(1, n + 1):
        j = w(i)
        if j > 0:
            out[j - 1] += vec[i - 1]
        else:
            out[-j - 1] -= vec[i - 1]
    return out == [-x for x in vec]


def merge_partitions(ground, partitions):
    """Finest common coarsening (join in refinement order) via union-find."""
    parent = {x: x for x in ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in partitions:
        for b in part:
            for x in b[1:]:
                parent[find(x)] = find(b[0])
    groups = {}
    for x in ground:
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(b)) for b in groups.values()))


def kreweras_by_separation(p):
    """Kreweras complement from its definition: primes i' and j' share a
    block unless some block of p has members on both sides of the chord
    i'j' (circle positions: i' at 2(i-1), i at 2(i-1)+1)."""
    assert not p.signed and is_noncrossing(p)
    n = p.n

    def separated(i, j, block):
        lo, hi = 2 * (i - 1), 2 * (j - 1)
        inside = [lo < 2 * (x - 1) + 1 < hi for x in block]
        return any(inside) and not all(inside)

    joins = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if not any(separated(i, j, b) for b in p.blocks)
    ]
    return SetPartition.of(n, merge_partitions(range(1, n + 1), [joins]))


def torus_fixed_count_bruteforce(spec, w, m):
    """Fixed vectors of w on Q/mQ, by checking all m^n vectors."""
    mat = torus_matrix(spec, w)
    n = spec.rank
    return sum(
        all(sum(mat[i][j] * vec[j] for j in range(n)) % m == vec[i] for i in range(n))
        for vec in itertools.product(range(m), repeat=n)
    )


def filters_by_subsets(poset):
    """Every up-closed subset of the roots, from all 2^|roots| subsets,
    smallest first."""
    roots = poset.roots
    out = []
    for bits in itertools.product((0, 1), repeat=len(roots)):
        chosen = frozenset(r for r, b in zip(roots, bits) if b)
        if all(b in chosen for a in chosen for b in roots if poset.leq(a, b)):
            out.append(chosen)
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def is_geometric_by_tuple_sums(chain):
    """nonnesting.is_geometric by adding every pair of roots in F_i x F_j
    and in I_i x I_j as vectors, for all index pairs i + j <= k: the roots
    among the sums must lie in F_(i+j), resp. I_(i+j)."""
    roots = frozenset(chain.poset.roots)
    fs = chain.filters
    ideals = [roots - f for f in fs]
    k = len(fs)
    for i in range(1, k + 1):
        for j in range(i, k + 1 - i):
            for sets in (fs, ideals):
                if not tuple_sums(sets[i - 1], sets[j - 1]) & roots <= sets[i + j - 1]:
                    return False
    return True


@lru_cache(maxsize=None)
def tuple_sums(a, b):
    """Every sum of a tuple in a and one in b, entry by entry; made once
    for each pair of sets, however many chains hold the pair."""
    return frozenset(tuple(x + y for x, y in zip(s, t)) for s in a for t in b)


def descending_filter_chains(poset, k):
    """Every descending k-chain F_1 >= ... >= F_k of filters, as tuples."""
    filters = poset.filters()
    chains = [(f,) for f in filters]
    for _ in range(k - 1):
        chains = [ch + (g,) for ch in chains for g in filters if g <= ch[-1]]
    return chains


def ups_by_flat_leq(nc):
    """NCPoset._ups by |NC|^2 flat containment tests: the elements above
    u are those whose fixed flat lies in the flat of u."""
    grp = nc.group
    return {
        u: [v for v, y in nc.flat_of.items() if flat_leq(grp, x, y)] for u, x in nc.flat_of.items()
    }


def antichains(poset):
    """The minimal elements of each filter, in filter order."""
    return [
        frozenset(a for a in f if not any(poset.leq(b, a) and b != a for b in f))
        for f in poset.filters()
    ]


# ---------------------------------------------------------------------------
# group elements and flats


def element_order(w):
    """The order of a signed permutation or of a dihedral element."""
    if isinstance(w, DihedralElement):
        if w.refl:
            return 2
        if w.j == 0:
            return 1
        return w.m // math.gcd(w.m, w.j)
    k, u = 1, w
    ident = identity_perm(w.n)
    while u != ident:
        u = u * w
        k += 1
    return k


def eigenvalue_rotations(g, w):
    """Eigenvalues of w on the reflection representation V of g, as sorted
    rotation numbers q in [0, 1) meaning e^{2 pi i q}: the rational route
    that ReflectionGroup.eigenvalue_multiplicity's integer rule replaces."""
    rots = []
    if g.family == "I2":
        m = g.spec.param
        if w.refl:
            rots = [Fraction(0), Fraction(1, 2)]
        else:
            rots = [Fraction(w.j % m, m), Fraction((-w.j) % m, m)]
    elif g.family == "A":
        for cyc in w.cycles():
            rots.extend(Fraction(j, len(cyc)) for j in range(len(cyc)))
        rots.remove(Fraction(0))
    else:
        balanced, paired = signed_cycle_pairs(w)
        for cyc in balanced:
            l = len(cyc) // 2
            rots.extend(Fraction(2 * j + 1, 2 * l) for j in range(l))
        for cyc in paired:
            rots.extend(Fraction(j, len(cyc)) for j in range(len(cyc)))
    return tuple(sorted(rots))


def signed_cycle_pairs(w):
    """Split the cycle decomposition of w on +-[n] into (balanced, paired).

    Balanced cycles have support S = -S; paired cycles come in +- mirror
    pairs, of which only the representative containing the smaller
    absolute value is returned."""
    balanced, paired = [], []
    seen = set()
    # an unsigned w yields only its cycles on [n]; their mirrors, the rest
    # of the decomposition on +-[n], would be skipped below anyway
    for cyc in w.cycles():
        supp = frozenset(cyc)
        if supp in seen:
            continue
        if supp == frozenset(-x for x in supp):
            balanced.append(cyc)
            seen.add(supp)
        else:
            paired.append(cyc)
            seen.add(supp)
            seen.add(frozenset(-x for x in supp))
    return balanced, paired


def fixed_flat_by_cycles(grp, w):
    """ReflectionGroup.fixed_flat in A, B and D from the cycles of w on
    +-[n]: each paired cycle and its mirror is a block, and the balanced
    cycles together are the zero block."""
    if grp.family == "A":
        return FlatPartition("A", grp.spec.param, blocks=canonical_blocks(w.cycles()))
    balanced, paired = signed_cycle_pairs(w)
    blocks = [c for cyc in paired for c in (cyc, tuple(-x for x in cyc))]
    zero = [x for cyc in balanced for x in cyc]
    if zero:
        blocks.append(zero)
    return FlatPartition(grp.family, grp.spec.param, blocks=canonical_blocks(blocks))


def reflection_length(grp, w):
    """codim V^w, which is the reflection length by Carter's lemma."""
    return grp.rank - grp.fixed_flat(w).dim


def all_flats(grp):
    """Every flat of the arrangement, as fixed spaces of group elements."""
    return sorted({grp.fixed_flat(w) for w in grp.elements()})


def flat_leq(grp, x, y):
    """Intersection-lattice order by reverse inclusion: x <= y iff x contains y.

    On the fixed flats of the elements below c this is the absolute
    order (Brady-Watt); the tests check NCPoset's order against it."""
    if grp.family == "I2":
        if x.kind == "plane" or y.kind == "origin":
            return True
        return x == y
    return partition_refines(x.blocks, y.blocks)


def act_on_flat(grp, w, x):
    """The flat w(x)."""
    if grp.family == "I2":
        if x.kind != "line":
            return x
        if not w.refl:
            return FlatPartition("I2", x.n, kind="line", line=(x.line + 2 * w.j) % x.n)
        return FlatPartition("I2", x.n, kind="line", line=(2 * w.j - x.line) % x.n)
    blocks = canonical_blocks(tuple(w(i) for i in b) for b in x.blocks)
    return FlatPartition(x.family, x.n, blocks=blocks)


def contains(grp, w):
    """Whether w is an element of the group."""
    if grp.family == "I2":
        return isinstance(w, DihedralElement) and w.m == grp.spec.param
    if not isinstance(w, SignedPerm) or w.n != grp.spec.param:
        return False
    if grp.family == "A":
        return w.is_positive()
    if grp.family == "D":
        return sum(1 for j in w.images if j < 0) % 2 == 0
    return True


def isotropy_contains(grp, x, w):
    """True iff w fixes the flat x pointwise."""
    if grp.family == "I2":
        if x.kind == "plane":
            return w == grp.identity()
        if x.kind == "origin":
            return True
        return w == grp.identity() or w == DihedralElement(x.n, True, x.line)
    if not contains(grp, w):
        return False
    zero = zero_block(x.blocks) or ()
    where = {i: idx for idx, b in enumerate(x.blocks) for i in b}
    for i in range(1, x.n + 1):
        if i in zero:
            if w(i) not in zero:
                return False
        elif where[w(i)] != where[i]:
            return False
    return True


def is_noncrossing_flat(nc, x):
    """Whether x is the flat of an element of NC(W), cross-checked in types
    A and B against the boundary-order geometric predicate."""
    ok = x in nc.element_of_flat
    fam = nc.group.family
    if fam in ("A", "B"):
        # type D would need the annular model and every I2 flat qualifies
        p = SetPartition.of(x.n, x.blocks, signed=fam == "B")
        if is_noncrossing(p) != ok:
            raise RuntimeError(f"geometric and poset noncrossing tests disagree on {x}")
    return ok


# ---------------------------------------------------------------------------
# set partitions


def parse_partition(text, n, signed=False):
    """Parse the block literal syntax, e.g. "1,-4/2,3/-1,4/-2,-3"."""
    blocks = []
    for chunk in text.split("/"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty block in literal")
        blocks.append(tuple(int(t) for t in chunk.split(",")))
    return SetPartition.of(n, blocks, signed)


def _ground(n, signed):
    return list(range(1, n + 1)) + ([-i for i in range(1, n + 1)] if signed else [])


def singletons(n, signed=False):
    return SetPartition.of(n, [(x,) for x in _ground(n, signed)], signed)


def full_partition(n, signed=False):
    return SetPartition.of(n, [tuple(_ground(n, signed))], signed)


def block_sizes(p):
    return tuple(sorted((len(b) for b in p.blocks), reverse=True))


def label_of(lp, block):
    """The label set of a block of a LabeledPartition."""
    return dict(lp.labels)[tuple(sorted(block))]


def rotate_partition(p, step=1):
    """Clockwise rotation: each element i moves to i+step around the circle."""
    n = p.n
    if not p.signed:
        blocks = [tuple((x - 1 + step) % n + 1 for x in b) for b in p.blocks]
    else:
        order = _ground(n, True)

        def rot(x):
            return order[(circ_position(x, n) + step) % (2 * n)]

        blocks = [tuple(rot(x) for x in b) for b in p.blocks]
    return SetPartition.of(n, blocks, p.signed)


# The partition route of nabla, the oracle for setpart.nabla's one pass on
# integer permutations: every step builds and checks a SetPartition or a
# SignedPerm.


def omega(p):
    """The permutation whose cycles are the blocks of p in clockwise order.

    Centrally symmetric partitions of +-[n] yield the signed permutation
    whose cycles are the blocks read in the boundary order; this is the
    noncrossing group element with that coordinate-equality fixed space.
    """
    if not is_noncrossing(p):
        raise ValueError(f"omega needs a noncrossing partition, got {p!r}")
    if not p.signed:
        return perm_from_cycles(p.n, *[tuple(sorted(b)) for b in p.blocks])
    img = list(range(1, p.n + 1))
    for b in p.blocks:
        cyc = sorted(b, key=lambda x: circ_position(x, p.n))
        for a, c in zip(cyc, cyc[1:] + cyc[:1]):
            if a > 0:
                img[a - 1] = c
            else:
                img[-a - 1] = -c
    return SignedPerm(tuple(img))


def pi_of(w, n=None):
    """Inverse of omega on its image: cycles must be increasing along 1..n."""
    n = n if n is not None else w.n
    blocks = w.cycles()
    for cyc in blocks:
        if list(cyc) != sorted(cyc):
            raise ValueError(f"cycle {cyc} of {w!r} is not increasing")
    return SetPartition.of(n, blocks)


def boundary_delta(ws, c):
    """(w1,...,wk) -> (w1^-1 w2, ..., w_{k-1}^-1 wk, wk^-1 c)."""
    out = [ws[i].inverse() * ws[i + 1] for i in range(len(ws) - 1)]
    out.append(ws[-1].inverse() * c)
    return tuple(out)


def relabel(p, targets):
    """The partition p(B): order-isomorphic copy of p on the index set B."""
    if len(targets) != p.n:
        raise ValueError("target set has wrong size")
    targets = sorted(targets)
    return [tuple(targets[x - 1] for x in b) for b in p.blocks]


def shuffle(ps):
    """Partition of [kn] generated by p_i placed on {i, i+k, ..., i+(n-1)k}."""
    k = len(ps)
    n = ps[0].n
    blocks = []
    for i, p in enumerate(ps, start=1):
        blocks.extend(relabel(p, [i + j * k for j in range(n)]))
    return SetPartition.of(k * n, blocks)


def nabla_by_partitions(chain):
    """nabla on [n] as the Kreweras complement of the shuffle of the
    boundary factors, through validated partitions and permutations."""
    k = len(chain)
    n = chain[0].n
    for a, b in zip(chain, chain[1:]):
        if not a.refines(b):
            raise ValueError("input is not a refinement multichain")
    c = perm_from_cycles(n, tuple(range(1, n + 1)))
    deltas = boundary_delta(tuple(omega(p) for p in chain), c)
    out = kreweras(shuffle(tuple(pi_of(w) for w in deltas)))
    if any(len(b) % k for b in out.blocks):
        raise RuntimeError("nabla output is not k-divisible (logic error)")
    return out


def to_line_partition(p):
    blocks = [tuple(circ_position(x, p.n) + 1 for x in b) for b in p.blocks]
    return SetPartition.of(2 * p.n, blocks)


def from_line_partition(p, n):
    blocks = [tuple(line_to_signed(x, n) for x in b) for b in p.blocks]
    return SetPartition.of(n, blocks, signed=True)


def bc_nabla_picture_by_line(chain):
    """nabla of a centrally symmetric chain and its block map, pushed
    through +-[n] = [2n] as partitions, run there by nabla_by_partitions,
    and pulled back to +-[kn]."""
    n = chain[0].n
    k = len(chain)
    line_chain = tuple(to_line_partition(p) for p in chain)
    pi_line = nabla_by_partitions(line_chain)
    block_map = {}
    for b, src in nabla_block_map(pi_line, line_chain[0], k).items():
        signed_b = tuple(sorted(line_to_signed(x, k * n) for x in b))
        block_map[signed_b] = tuple(sorted(line_to_signed(x, n) for x in src))
    return from_line_partition(pi_line, k * n), block_map


def all_noncrossing_partitions(n):
    """All noncrossing partitions of [n], by direct recursive construction,
    unvalidated (test_setpart checks them against the recursion of
    noncrossing_partitions_by_recursion).

    The block containing 1 splits the remaining elements into independent
    linear segments; each segment's partitions are those of a segment of
    its length, listed once per length, shifted into place.  Each block
    is made ascending and the blocks come in the order of their least
    members, so they are canonical as built."""
    for blocks in _nc_blocks(n):
        yield SetPartition(n, False, blocks)


def _nc_blocks(size):
    """The noncrossing partitions of 1..size as tuples of blocks, in the
    order of noncrossing_partitions_by_recursion; those of each shorter
    length come from _nc_segments."""
    if size == 0:
        yield ()
        return
    for count in range(size):
        for chosen in itertools.combinations(range(2, size + 1), count):
            block = (1,) + chosen
            bounds = block + (size + 1,)
            parts = [
                [tuple(tuple(x + a for x in b) for b in p) for p in _nc_segments(c - a - 1)]
                for a, c in zip(bounds, bounds[1:])
            ]
            for combo in itertools.product(*parts):
                yield (block,) + sum(combo, ())


@lru_cache(maxsize=None)
def _nc_segments(size):
    """_nc_blocks(size) as a list, made once per size."""
    return list(_nc_blocks(size))


def noncrossing_partitions_by_recursion(n):
    """All noncrossing partitions of [n], each segment re-listed for every
    first block, and validated."""
    for blocks in _nc_on(list(range(1, n + 1))):
        yield SetPartition.of(n, blocks)


def _nc_on(elements):
    """Noncrossing partitions of a linearly ordered ground segment."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for size in range(0, len(rest) + 1):
        for chosen in itertools.combinations(rest, size):
            block = (first,) + chosen
            bounds = [elements.index(x) for x in block] + [len(elements)]
            segs = [elements[a + 1 : b] for a, b in zip(bounds, bounds[1:])]
            for combo in itertools.product(*[list(_nc_on(s)) for s in segs]):
                blocks = [block]
                for sub in combo:
                    blocks.extend(sub)
                yield blocks


def nc_lambda_count(lam):
    """Number of noncrossing partitions of [n] with block sizes lam."""
    lam = tuple(sorted(lam, reverse=True))
    if not lam or any(x < 1 for x in lam):
        raise ValueError(f"malformed partition {lam}")
    n = sum(lam)
    ell = len(lam)
    denom = math.factorial(n - ell + 1)
    for i in range(1, n + 1):
        denom *= math.factorial(lam.count(i))
    return math.factorial(n) // denom


def symmetric_kdiv_count(mu, n, k, m):
    """Count of m-fold symmetric k-divisible noncrossing partitions of [kn]
    whose non-invariant blocks form mu_j orbits of blocks of size kj.

    The value is (kn/m)(kn/m - 1)...(kn/m - (r-1)) / (mu_1! ... mu_n!)
    with r = sum(mu); any leftover elements form the invariant block.
    """
    if m < 2 or (k * n) % m:
        raise ValueError(f"m = {m} must be >= 2 and divide kn = {k * n}")
    mu = tuple(mu) + (0,) * (n - len(mu))
    r = sum(mu)
    num = 1
    base = Fraction(k * n, m)
    for t in range(r):
        num *= base - t
    denom = 1
    for mj in mu:
        denom *= math.factorial(mj)
    val = Fraction(num, denom)
    if val.denominator != 1:
        raise RuntimeError("count is not an integer (logic error)")
    return int(val)


def symmetric_kdiv_type(p, k, m):
    """Orbit-type vector of an m-fold symmetric k-divisible partition of [kn].

    Returns None when p is not m-fold symmetric, not k-divisible, or has a
    non-invariant orbit shorter than m.  Entry j-1 counts length-m orbits of
    blocks of size kj.
    """
    N = p.n
    step = N // m
    for b in p.blocks:
        if len(b) % k:
            return None
    # p is m-fold symmetric when the rotation sends each block into one
    # block; p is valid already, so its raw blocks need no SetPartition
    owner = [0] * (N + 1)
    for i, b in enumerate(p.blocks):
        for x in b:
            owner[x] = i
    for b in p.blocks:
        target = owner[(b[0] - 1 + step) % N + 1]
        for x in b:
            if owner[(x - 1 + step) % N + 1] != target:
                return None
    n = N // k
    mu = [0] * n
    seen = set()
    for b in p.blocks:
        fb = frozenset(b)
        if fb in seen:
            continue
        orbit = {fb}
        cur = b
        while True:
            cur = tuple((x - 1 + step) % N + 1 for x in cur)
            if frozenset(cur) == fb:
                break
            orbit.add(frozenset(cur))
        seen |= orbit
        if len(orbit) == 1:
            continue
        if len(orbit) != m:
            return None
        mu[len(b) // k - 1] += 1
    return tuple(mu)


# ---------------------------------------------------------------------------
# parking spaces and loci


def orbit_decomposition(space):
    """Multiplicity of each first-flat orbit type among the W-orbits.

    W-orbits of classes biject with chains.  Type A keys are the block
    size partitions of the first flat; other families key by the
    lexicographically minimal flat in the W-orbit of the first flat.
    """
    out = {}
    for ch in space.chains:
        x1 = space.nc.flat_of[ch[0]]
        if space.spec.family == "A":
            key = tuple(sorted((len(b) for b in x1.blocks), reverse=True))
        else:
            key = min(act_on_flat(space.group, w, x1) for w in space.group.elements())
        out[key] = out.get(key, 0) + 1
    return out


def permute_sequence(w, seq):
    """Coordinate action moving the entry at position i to position w(i);
    equivalently (a_1,...,a_n) -> (a_{w^-1(1)},...,a_{w^-1(n)}).

    This is the left action matching label permutation on disc pictures.
    """
    out = [0] * len(seq)
    for i, a in enumerate(seq, start=1):
        out[w(i) - 1] = a
    return tuple(out)


def equivariant_function_count(n, k, w, d):
    """Brute-force count of functions f: [n] -> [kn] u {0} with
    f(w(j)) = g^d f(j), where g cycles [kn] and fixes 0.

    Asserted against (kn+1)^r where r counts cycles of w with length
    divisible by the order of g^d.
    """
    kn = k * n
    if d % kn == 0:
        raise ValueError("d must be nonzero modulo kn")
    d = d % kn
    m = kn // math.gcd(kn, d)
    wimg = [w(j) for j in range(1, n + 1)]
    count = 0
    for f in itertools.product(range(kn + 1), repeat=n):
        for j in range(n):
            fj = f[j]
            target = 0 if fj == 0 else (fj - 1 + d) % kn + 1
            if f[wimg[j] - 1] != target:
                break
        else:
            count += 1
    r = sum(1 for cyc in w.cycles() if len(cyc) % m == 0)
    if count != (kn + 1) ** r:
        raise RuntimeError(f"equivariant count {count} != (kn+1)^{r} (logic error)")
    return count


def point_dimension(spec, p):
    """Minimum dimension of a flat containing the point.

    Computed from coordinate coincidences: nonzero coordinates cluster by
    equality up to sign; type B zeros pin to the zero block, type D zeros
    only when at least two coordinates vanish.
    """
    if spec.family == "I2":
        v1, v2 = p.coords
        if v1 is ZERO and v2 is ZERO:
            return 0
        if v1 is ZERO or v2 is ZERO:
            return 2
        return 1 if (v1 - v2) % diagonal_twist(spec, p.order) == 0 else 2
    kh = p.order
    half = kh // 2
    nonzero = [v for v in p.coords if v is not ZERO]
    clusters = {min(v, (v + half) % kh) for v in nonzero}
    zeros = len(p.coords) - len(nonzero)
    if spec.family == "B":
        return len(clusters)
    return len(clusters) + (1 if zeros == 1 else 0)


# ---------------------------------------------------------------------------
# nonnesting partitions


def antichain_to_partition(poset, antichain):
    """Type A: the nonnesting partition generated by i ~ j per arc root."""
    if poset.spec.family != "A":
        raise ValueError("arc diagrams are a type A notion")
    n = poset.spec.param
    arcs = []
    for root in antichain:
        i = root.index(1) + 1
        j = len(root) - tuple(reversed(root)).index(1) + 1
        arcs.append((i, j))
    part = SetPartition.of(n, merge_partitions(range(1, n + 1), [arcs]))
    if _has_nesting(part):
        raise RuntimeError(f"antichain produced a nesting partition {part}")
    return part


def _has_nesting(p):
    arcs = []
    for b in p.blocks:
        b = sorted(b)
        arcs.extend(zip(b, b[1:]))
    for (a, d), (b, c) in itertools.permutations(arcs, 2):
        if a < b < c < d:
            return True
    return False


# ---------------------------------------------------------------------------
# root systems by coefficients and back substitution


def build_root_poset_by_coefficients(spec, long_roots=False):
    """nonnesting.build_root_poset by coefficient loops per family: the
    positive roots of A/B/D in simple-root coordinates; pass long_roots
    for the type C realization (the poset is isomorphic either way)."""
    reject_dihedral(spec, "root posets")
    f, p = spec.family, spec.param
    n = spec.rank
    roots = []
    if f == "A":
        for i in range(1, p):
            for j in range(i + 1, p + 1):
                v = [0] * n
                for t in range(i, j):
                    v[t - 1] += 1
                roots.append(tuple(v))
    elif f == "B":
        # simples e1-e2, ..., e_{n-1}-e_n, then e_n (type B) or 2e_n (type C)
        # e_i + e_j ends in 2 alpha_n (B) or alpha_n (C); e_i (B) or 2e_i (C)
        # is alpha_i + ... + alpha_n, with alpha_i..alpha_{n-1} doubled in C
        pair_tail, single_run = (1, 2) if long_roots else (2, 1)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                minus = [0] * n
                for t in range(i, j):
                    minus[t - 1] += 1
                roots.append(tuple(minus))
                plus = list(minus)
                for t in range(j, n):
                    plus[t - 1] += 2
                plus[n - 1] += pair_tail
                roots.append(tuple(plus))
        for i in range(1, n + 1):
            v = [0] * n
            for t in range(i, n):
                v[t - 1] += single_run
            v[n - 1] += 1
            roots.append(tuple(v))
    elif f == "D":
        # simples e1-e2, ..., e_{n-1}-e_n, e_{n-1}+e_n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                minus = [0] * n
                for t in range(i, j):
                    minus[t - 1] += 1
                roots.append(tuple(minus))
                plus = [0] * n
                for t in range(i, n - 1):
                    plus[t - 1] += 1
                plus[n - 1] += 1
                if j < n:
                    for t in range(j, n - 1):
                        plus[t - 1] += 1
                    plus[n - 2] += 1
                roots.append(tuple(plus))
    expected = spec.rank * spec.coxeter_number // 2
    if len(set(roots)) != expected:
        raise RuntimeError(f"built {len(set(roots))} roots, expected {expected}")
    poset = RootPoset(spec, tuple(sorted(set(roots))))
    poset.highest()
    return poset


def ambient_to_simple(spec, vec):
    """Simple-root coordinates of an integer ambient vector, by back
    substitution: against e_i - e_{i+1}, the coordinates are the partial
    sums s_i of vec. Type A needs s_{n+1} = 0 to be in the span; type D
    reads its last two coordinates off e_{n-1} -+ e_n as s_n/2 - vec_n and
    s_n/2, so s_n must be even."""
    sums = list(itertools.accumulate(vec))
    n = spec.rank
    if spec.family == "A":
        if sums[n] != 0:
            raise RuntimeError("vector not in the root lattice span")
        return tuple(sums[:n])
    if spec.family == "D":
        half, odd = divmod(sums[n - 1], 2)
        if odd:
            raise RuntimeError("non-integer root coordinates")
        sums[n - 2 :] = [half - vec[n - 1], half]
    return tuple(sums)


def torus_matrix_by_back_substitution(spec, w):
    """nonnesting.torus_matrix with each column w(alpha_j) converted to
    simple-root coordinates by ambient_to_simple."""
    n = spec.rank
    cols = [ambient_to_simple(spec, _act_ambient(w, a)) for a in _ambient_simple_roots(spec)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the q-Fuss-Catalan polynomial by dense integer polynomials, reduced mod
# cyclotomic polynomials at roots of unity


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; trailing zeros trimmed on construction."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "IntPoly":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return IntPoly(tuple(coeffs))

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def monomial(d: int, c: int = 1) -> "IntPoly":
        return IntPoly.of([0] * d + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly.of(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + IntPoly.of([-x for x in other.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPoly.of(out)

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises when the remainder does not vanish."""
        q, r = self.divmod(other)
        if r.coeffs:
            raise ValueError(f"nonzero remainder {r.coeffs} dividing by {other.coeffs}")
        return q

    def divmod(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        if not other.coeffs:
            raise ZeroDivisionError
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        db = other.degree
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead:
                raise ValueError("division does not stay integral")
            f = rem[i] // lead
            q[i - db] = f
            for j, y in enumerate(other.coeffs):
                rem[i - db + j] -= f * y
        return IntPoly.of(q), IntPoly.of(rem)

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


@lru_cache(maxsize=None)
def cyclotomic(m):
    """The m-th cyclotomic polynomial by iterated exact division."""
    num = IntPoly.monomial(m) - IntPoly.one()
    for d in range(1, m):
        if m % d == 0:
            num = num.divexact(cyclotomic(d))
    return num


@dataclass(frozen=True)
class CycloInt:
    """Element of Z[zeta_m], coefficients reduced mod the m-th cyclotomic
    polynomial."""

    m: int
    coeffs: tuple[int, ...]

    @staticmethod
    def from_poly(p: IntPoly, m: int) -> "CycloInt":
        _, rem = p.divmod(cyclotomic(m))
        deg = cyclotomic(m).degree
        coeffs = list(rem.coeffs) + [0] * (deg - len(rem.coeffs))
        return CycloInt(m, tuple(coeffs))

    def is_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0] if self.coeffs else 0


def cat_poly_dense(spec, k):
    """The q-Fuss-Catalan polynomial prod (1 - q^(kh+d)) / (1 - q^d) as a
    dense polynomial, by exact division."""
    h = spec.coxeter_number
    num = IntPoly.one()
    den = IntPoly.one()
    for d in spec.degrees:
        num = num * (IntPoly.one() - IntPoly.monomial(k * h + d))
        den = den * (IntPoly.one() - IntPoly.monomial(d))
    return num.divexact(den)


def eval_at_root_dense(p, m, d):
    """p at omega^d, omega a primitive m-th root of unity: omega^d has
    order m' = m/gcd(m,d), so the exponents fold mod m' and the result is
    reduced mod the m'-th cyclotomic polynomial."""
    if m < 1 or not 0 <= d < m:
        raise ValueError(f"need 0 <= d < m, got d={d}, m={m}")
    g = math.gcd(m, d)
    mp = m // g
    dp = d // g
    folded = [0] * mp
    for e, c in enumerate(p.coeffs):
        folded[(e * dp) % mp] += c
    return CycloInt.from_poly(IntPoly.of(folded), mp)


def eval_float(poly, z):
    """An integer polynomial evaluated at a complex number, by Horner."""
    out = 0j
    for c in reversed(poly.coeffs):
        out = out * z + c
    return out


def is_palindromic(poly):
    return poly.coeffs == tuple(reversed(poly.coeffs))
