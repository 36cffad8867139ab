"""Shared oracles for the test suite."""

import itertools
from operator import eq

from ncpark.locus import ZERO, LocusPoint, build_locus, locus_act_w, opener_to_exponent
from ncpark.ncw import build_nc, chain_g_table, g_act_chain
from ncpark.nonnesting import torus_matrix
from ncpark.reflgroup import group
from ncpark.setpart import SetPartition, is_noncrossing

MAIN_GRID = (
    [("A", n) for n in (2, 3, 4)]
    + [("B", n) for n in (2, 3)]
    + [("D", 3)]
    + [("I2", m) for m in range(3, 9)]
)

KS = (1, 2, 3)


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


def fuss(spec, k):
    """Product formula count prod (kh + d_i)/d_i, exactly."""
    num = den = 1
    for d in spec.degrees:
        num *= k * spec.coxeter_number + d
        den *= d
    assert num % den == 0
    return num // den


def absolute_leq(grp, u, v):
    """The absolute order by its length definition:
    u <= v iff l(v) = l(u) + l(u^-1 v)."""
    return grp.reflection_length(v) == grp.reflection_length(u) + grp.reflection_length(
        u.inverse() * v
    )


def eval_float(poly, z):
    """An integer polynomial evaluated at a complex number, by Horner."""
    out = 0j
    for c in reversed(poly.coeffs):
        out = out * z + c
    return out


def is_palindromic(poly):
    return poly.coeffs == tuple(reversed(poly.coeffs))


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
    if sum(grp.reflection_length(w) for w in factor) != grp.reflection_length(c):
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


def coset_arrays_by_products(space, flat):
    """(reps, arr) of ParkSpace._coset_arrays by |W| products: each element
    not yet placed starts a coset, and its products with every element of
    W_X are placed in it."""
    els, idx = space.group.elements(), space.group.index()
    iso = space.group.isotropy_elements(flat)
    arr = [-1] * len(els)
    reps = []
    for i, w in enumerate(els):
        if arr[i] < 0:
            reps.append(i)
            for h in iso:
                arr[idx[w * h]] = len(reps) - 1
    return reps, arr


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
        for t in lp.label_of(b):
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
        if flat.kind != "line" or g.act_on_flat(w, flat) != flat:
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
    and in I_i x I_j as vectors, for all index pairs i + j <= k."""
    roots = set(chain.poset.roots)
    fs = chain.filters
    ideals = [frozenset(roots) - f for f in fs]
    k = len(fs)
    for i in range(1, k + 1):
        for j in range(i, k + 1 - i):
            for sets in (fs, ideals):
                for a in sets[i - 1]:
                    for b in sets[j - 1]:
                        s = tuple(x + y for x, y in zip(a, b))
                        if s in roots and s not in sets[i + j - 1]:
                            return False
    return True


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
    leq = nc.group.flat_leq
    return {u: [v for v, y in nc.flat_of.items() if leq(x, y)] for u, x in nc.flat_of.items()}


def antichains(poset):
    """The minimal elements of each filter, in filter order."""
    return [
        frozenset(a for a in f if not any(poset.leq(b, a) and b != a for b in f))
        for f in poset.filters()
    ]
