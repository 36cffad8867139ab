"""Crystallographic side: the root system by closure, its root poset,
geometric multichains of filters, and the finite torus character.

Roots are integer vectors in simple-root coordinates, so the poset order
is componentwise comparison and filter sums are exact vector sums.
"""

import math
from functools import cached_property, lru_cache

from .reflgroup import ConfigError, GroupSpec, Value, group, set_bits, set_field

NO_DIHEDRAL = "no dihedral {}: use A2 for I2(3), B2 for I2(4); G2 is unsupported"


class RootPoset(Value):
    """Positive roots of a crystallographic family in simple coordinates.
    A set of roots is a mask over positions in roots.

    Declares no __slots__: its memos (_sums and the cached _above and
    _pairs) live in its __dict__, outside equality, hash and repr."""

    _fields = ("spec", "roots")

    def __init__(self, spec: GroupSpec, roots: tuple[tuple[int, ...], ...]):
        set_field(self, "spec", spec)
        set_field(self, "roots", roots)
        set_field(self, "_sums", {})

    def leq(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return all(x <= y for x, y in zip(a, b))

    def highest(self) -> tuple[int, ...]:
        tops = [a for a in self.roots if all(a == b or not self.leq(a, b) for b in self.roots)]
        if len(tops) != 1:
            raise RuntimeError(f"root poset has {len(tops)} maximal elements")
        return tops[0]

    @cached_property
    def _above(self) -> list[int]:
        """For each root, the mask of the roots strictly above it."""
        roots = self.roots
        return [sum(1 << j for j, b in enumerate(roots) if b != a and self.leq(a, b)) for a in roots]

    def filters(self) -> list[int]:
        """All up-closed sets of roots, as masks, smallest first: by size,
        then by positions, which is by sorted roots since roots is sorted."""
        everything = self.interval(0, (1 << len(self.roots)) - 1)
        return sorted(everything, key=lambda f: (f.bit_count(), set_bits(f)))

    def interval(self, low: int, high: int) -> list[int]:
        """The filters F with low <= F <= high (masks), in the order found.

        The search starts from the up-closure of low.  The roots of high
        join one at a time, highest first, and a root may join a filter only
        when every root above it is already in.  Each partial set is then
        a filter, and each filter of the interval is found once, so the
        search makes O(#found * |roots|) steps.
        """
        above, roots = self._above, self.roots
        start = low
        for i in set_bits(low):
            start |= above[i]
        if start & ~high:
            return []
        found = [start]
        for i in sorted(set_bits(high & ~start), key=lambda i: -sum(roots[i])):
            up = above[i]
            found += [f | 1 << i for f in found if f & up == up]
        return found

    @cached_property
    def _pairs(self) -> list[list[tuple[int, int]]]:
        """For each root i, the pairs (j, s) with roots[i] + roots[j] = roots[s]."""
        index = {r: i for i, r in enumerate(self.roots)}
        return [
            [
                (j, index[s])
                for j, b in enumerate(self.roots)
                if (s := tuple(x + y for x, y in zip(a, b))) in index
            ]
            for a in self.roots
        ]

    def sums(self, fa: int, fb: int) -> int:
        """The mask of the roots a + b, a in fa and b in fb (root masks);
        memoized, so each pair of sets pays |fa| * |roots| steps once."""
        out = self._sums.get((fa, fb))
        if out is None:
            out = 0
            for i in set_bits(fa):
                for j, s in self._pairs[i]:
                    if fb >> j & 1:
                        out |= 1 << s
            self._sums[fa, fb] = out
        return out


def reject_dihedral(spec: GroupSpec, what: str):
    """I2(m) has no root poset or root lattice here: bad input, caught
    before any group is built."""
    if spec.family == "I2":
        raise ConfigError(NO_DIHEDRAL.format(what))


def _ambient_simple_roots(spec: GroupSpec) -> list[tuple[int, ...]]:
    """e_i - e_{i+1}, then e_n (type B) or e_{n-1} + e_n (type D)."""
    reject_dihedral(spec, "root lattice")
    p = spec.param
    e = [[int(i == j) for j in range(p)] for i in range(p)]
    out = [tuple(x - y for x, y in zip(e[i], e[i + 1])) for i in range(p - 1)]
    if spec.family == "B":
        out.append(tuple(e[p - 1]))
    if spec.family == "D":
        out.append(tuple(x + y for x, y in zip(e[p - 2], e[p - 1])))
    return out


@lru_cache(maxsize=None)
def root_system(spec: GroupSpec) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every root of spec, from its ambient vector to its simple-root
    coordinates: the closure of the simple roots under the reflections
    s_i(b) = b - c alpha_i, c = 2(b, alpha_i)/(alpha_i, alpha_i), an integer
    on a crystallographic root system.  Built on first use, once per spec."""
    simples = _ambient_simple_roots(spec)
    norms = [sum(x * x for x in a) for a in simples]
    roots = {a: tuple(int(i == j) for j in range(len(simples))) for i, a in enumerate(simples)}
    todo = list(roots)
    while todo:
        b = todo.pop()
        for i, (a, norm) in enumerate(zip(simples, norms)):
            c, rem = divmod(2 * sum(x * y for x, y in zip(b, a)), norm)
            if rem:
                raise RuntimeError(f"2(b, a)/(a, a) is not an integer for b = {b}, a = {a}")
            image = tuple(x - c * y for x, y in zip(b, a))
            if image not in roots:
                roots[image] = tuple(x - c * (i == j) for j, x in enumerate(roots[b]))
                todo.append(image)
    return roots


def build_root_poset(spec: GroupSpec) -> RootPoset:
    """The positive roots of root_system(spec): those with no negative
    simple-root coordinate."""
    reject_dihedral(spec, "root posets")
    system = root_system(spec)
    roots = sorted(r for r in system.values() if min(r) >= 0)
    expected = spec.rank * spec.coxeter_number // 2
    if (len(roots), len(system)) != (expected, 2 * expected):
        raise RuntimeError(f"built {len(roots)} of {len(system)} roots positive, expected {expected}")
    poset = RootPoset(spec, tuple(roots))
    poset.highest()
    return poset


# ---------------------------------------------------------------------------
# geometric multichains


def level_bounds(poset: RootPoset, fs: list[int], t: int) -> tuple[int, int]:
    """The masks L <= U of the filters F_t = fs[t] that lie in F_(t-1) and
    meet Athanasiadis's closure conditions that end at index t (from 0):
    for i + j = t - 1, (F_i + F_j) and Phi+ lies in F_t, and (I_i + I_j)
    and Phi+ in I_t, with I_i the complement of F_i.  So L is the union
    of the sums F_i + F_j, and U is F_(t-1) less those of I_i + I_j."""
    full = (1 << len(poset.roots)) - 1
    low, high = 0, fs[t - 1] if t else full
    for i in range((t + 1) // 2):
        j = t - 1 - i
        low |= poset.sums(fs[i], fs[j])
        high &= ~poset.sums(full ^ fs[i], full ^ fs[j])
    return low, high


def closed_at(poset: RootPoset, fs: list[int], t: int) -> bool:
    """The conditions that end at index t of the filter masks fs hold."""
    low, high = level_bounds(poset, fs, t)
    return not (low & ~fs[t] or fs[t] & ~high)


def is_geometric(poset: RootPoset, fs: tuple[int, ...]) -> bool:
    """The filter masks fs descend and meet the closure conditions for all
    index pairs i + j <= k; none ends at index 0."""
    return all(closed_at(poset, fs, t) for t in range(1, len(fs)))


def geometric_chains(spec: GroupSpec, k: int) -> list[tuple[int, ...]]:
    """Every geometric k-multichain of filters, as tuples of root masks, in
    lexicographic order of filter positions.  The chains grow one level
    at a time, as NCPoset.multichains grows its chains: a prefix of a
    geometric chain is geometric, so a chain gains exactly the filters
    between its level_bounds, and no failing candidate is built.  Each
    listed chain is checked once more with is_geometric."""
    poset = build_root_poset(spec)
    filters = poset.filters()
    position = {f: i for i, f in enumerate(filters)}.__getitem__
    chains = [(f,) for f in filters]
    for t in range(1, k):
        chains = [
            ch + (f,)
            for ch in chains
            for f in sorted(poset.interval(*level_bounds(poset, ch, t)), key=position)
        ]
    for ch in chains:
        if not is_geometric(poset, ch):
            raise RuntimeError(f"the level search listed a chain that is not geometric: {ch}")
    return chains


def antichain_counts(spec: GroupSpec) -> list[int]:
    """How many filters of the root poset have j minimal roots, for j from
    0 to the rank.  A filter is the one over its antichain of minimal
    roots, so these are the Narayana numbers, which also count NC(W) by
    rank."""
    poset = build_root_poset(spec)
    roots = poset.roots
    below = [sum(1 << j for j, b in enumerate(roots) if b != a and poset.leq(b, a)) for a in roots]
    counts = [0] * (spec.rank + 1)
    for f in poset.filters():
        counts[sum(1 for i in set_bits(f) if not f & below[i])] += 1
    return counts


# ---------------------------------------------------------------------------
# the finite torus


def _act_ambient(w, vec) -> tuple[int, ...]:
    out = [0] * len(vec)
    for i, x in enumerate(vec, start=1):
        j = w(i)
        if j > 0:
            out[j - 1] += x
        else:
            out[-j - 1] -= x
    return tuple(out)


def torus_matrix(spec: GroupSpec, w) -> list[list[int]]:
    """Matrix of w on the root lattice in simple-root coordinates: column j
    is w(alpha_j), looked up in root_system(spec)."""
    roots = root_system(spec)
    cols = [roots[_act_ambient(w, a)] for a in _ambient_simple_roots(spec)]
    return [list(row) for row in zip(*cols)]


def fixed_vector_divisors(mat: list[list[int]], m: int) -> list[int]:
    """gcd(d_i, m) for each d_i on a diagonal of mat - I, where
    gcd(0, m) = m.

    Unimodular row and column operations bring A = mat - I to a diagonal
    D = U A V; x -> V^-1 x is a bijection of (Z/m)^n, so the vectors with
    A x = 0 mod m number the product of these divisors."""
    n = len(mat)
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat)]
    for t in range(n):
        while True:
            # the smallest nonzero entry left is the pivot; reducing by it
            # leaves remainders smaller than it, so this loop ends
            entries = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not entries:
                break
            _, i, j = min(entries)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a[t:]:
                    row[j] -= q * row[t]
            if not any(a[i][t] or a[t][i] for i in range(t + 1, n)):
                break
    return [math.gcd(a[t][t], m) for t in range(n)]


def torus_fixed_count(spec: GroupSpec, k: int, w) -> int:
    """Fixed vectors of w on Q/(kh+1)Q: the product of its fixed_vector_divisors."""
    return math.prod(fixed_vector_divisors(torus_matrix(spec, w), k * spec.coxeter_number + 1))


def verify_nn_character(spec: GroupSpec, k: int) -> list[dict]:
    """Torus fixed counts against (kh+1)^dim(V^w), per conjugacy class.  A
    failing row carries dim(V^w) and the divisors gcd(d_i, kh+1) whose
    product is the count."""
    grp = group(spec.family, spec.param)
    m = k * spec.coxeter_number + 1
    report = []
    for w in grp.conjugacy_class_reps():
        count = torus_fixed_count(spec, k, w)
        dim = grp.fixed_flat(w).dim
        row = {"w": repr(w), "fixed": count, "expected": m**dim, "pass": count == m**dim}
        if not row["pass"]:
            row["witness"] = {"multiplicity": dim, "divisors": fixed_vector_divisors(torus_matrix(spec, w), m)}
        report.append(row)
    return report
