"""Crystallographic side: the root system by closure, its root poset,
geometric multichains of filters, and the finite torus character.

Roots are integer vectors in simple-root coordinates, so the poset order
is componentwise comparison and filter sums are exact vector sums.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .reflgroup import ConfigError, GroupSpec, Value, group, set_field

NO_DIHEDRAL = "no dihedral {}: use A2 for I2(3), B2 for I2(4); G2 is unsupported"


class RootPoset(Value):
    """Positive roots of a crystallographic family in simple coordinates.

    Declares no __slots__: its memos (_masks, _sums and the cached _table)
    live in its __dict__, outside equality, hash and repr."""

    _fields = ("spec", "roots")

    def __init__(self, spec: GroupSpec, roots: tuple[tuple[int, ...], ...]):
        set_field(self, "spec", spec)
        set_field(self, "roots", roots)
        set_field(self, "_masks", {})
        set_field(self, "_sums", {})

    def leq(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return all(x <= y for x, y in zip(a, b))

    def highest(self) -> tuple[int, ...]:
        tops = [a for a in self.roots if all(a == b or not self.leq(a, b) for b in self.roots)]
        if len(tops) != 1:
            raise RuntimeError(f"root poset has {len(tops)} maximal elements")
        return tops[0]

    def filters(self) -> list[frozenset]:
        """All up-closed subsets, smallest first.

        Roots join one at a time, highest first, and a root may join a
        filter only when every root above it is already in. Each partial
        set is then a filter of the whole poset, so the search makes
        O(#filters * |roots|) steps.
        """
        roots = self.roots
        order = sorted(range(len(roots)), key=lambda i: -sum(roots[i]))
        found = [0]
        for i in order:
            above = sum(
                1 << j for j, b in enumerate(roots) if j != i and self.leq(roots[i], b)
            )
            found += [f | 1 << i for f in found if f & above == above]
        out = [frozenset(r for j, r in enumerate(roots) if f >> j & 1) for f in found]
        return sorted(out, key=lambda f: (len(f), sorted(f)))

    @cached_property
    def _table(self) -> tuple[dict, list[list[tuple[int, int]]]]:
        """The position of each root, and for each root i the pairs (j, s)
        with roots[i] + roots[j] = roots[s]."""
        index = {r: i for i, r in enumerate(self.roots)}
        pairs = [
            [
                (j, index[s])
                for j, b in enumerate(self.roots)
                if (s := tuple(x + y for x, y in zip(a, b))) in index
            ]
            for a in self.roots
        ]
        return index, pairs

    def mask(self, roots: frozenset) -> int:
        """A set of roots as a bitmask over positions in roots; memoized."""
        out = self._masks.get(roots)
        if out is None:
            index = self._table[0]
            out = self._masks[roots] = sum(1 << index[r] for r in roots)
        return out

    def sums(self, fa: int, fb: int) -> int:
        """The mask of the roots a + b, a in fa and b in fb (root masks);
        memoized, so each pair of sets pays |fa| * |roots| steps once."""
        out = self._sums.get((fa, fb))
        if out is None:
            out = 0
            for i, pairs in enumerate(self._table[1]):
                if fa >> i & 1:
                    for j, s in pairs:
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


class FilterChain(Value):
    """Descending multichain F_1 contains F_2 contains ... contains F_k."""

    __slots__ = _fields = ("poset", "filters")

    def __init__(self, poset: RootPoset, filters: tuple[frozenset, ...]):
        for a, b in zip(filters, filters[1:]):
            if not b <= a:
                raise ValueError("filters must descend")
        set_field(self, "poset", poset)
        set_field(self, "filters", filters)


def closed_at(poset: RootPoset, fs: list[int], t: int) -> bool:
    """Athanasiadis's closure conditions that end at zero-based index t of
    the filter masks fs: for i + j = t - 1, (F_i + F_j) and Phi+ lies in
    F_t, and (I_i + I_j) and Phi+ lies in I_t, where the ideal I_i is the
    complement of F_i.  Each condition is one memoized sumset and one AND."""
    full = (1 << len(poset.roots)) - 1
    sums = poset.sums
    return not any(
        sums(fs[i], fs[t - 1 - i]) & ~fs[t] or sums(full ^ fs[i], full ^ fs[t - 1 - i]) & fs[t]
        for i in range((t + 1) // 2)
    )


def is_geometric(chain: FilterChain) -> bool:
    """The closure conditions for all index pairs i + j <= k."""
    poset = chain.poset
    fs = [poset.mask(f) for f in chain.filters]
    return all(closed_at(poset, fs, t) for t in range(len(fs)))


def geometric_chains(spec: GroupSpec, k: int) -> list[FilterChain]:
    """Every geometric k-multichain of filters, in lexicographic order of
    filter positions.  The chains of filter masks grow one level at a
    time, as NCPoset.multichains grows its chains: a prefix of a geometric
    chain is geometric, so a chain gains only a filter at which the
    conditions ending there hold, and the levels list Cat^(k)(W) chains
    after at most #filters * sum_{j<k} Cat^(j)(W) checks.  The filters
    below each filter, a table quadratic in #filters, are listed only for
    k > 1: at k = 1 no chain is extended."""
    poset = build_root_poset(spec)
    filters = poset.filters()
    filter_of = {poset.mask(f): f for f in filters}
    below = {a: [b for b in filter_of if a | b == a] for a in filter_of} if k > 1 else {}
    chains = [(a,) for a in filter_of if closed_at(poset, (a,), 0)]
    for t in range(1, k):
        chains = [ext for ch in chains for b in below[ch[-1]] if closed_at(poset, ext := ch + (b,), t)]
    out = []
    for ch in chains:
        out.append(FilterChain(poset, tuple(map(filter_of.__getitem__, ch))))
        if not is_geometric(out[-1]):
            raise RuntimeError(f"the level search listed a chain that is not geometric: {out[-1].filters}")
    return out


def antichain_counts(spec: GroupSpec) -> list[int]:
    """How many filters of the root poset have j minimal roots, for j from
    0 to the rank.  A filter is the one over its antichain of minimal
    roots, so these are the Narayana numbers, which also count NC(W) by
    rank."""
    poset = build_root_poset(spec)
    roots = poset.roots
    below = [poset.mask(frozenset(b for b in roots if b != a and poset.leq(b, a))) for a in roots]
    counts = [0] * (spec.rank + 1)
    for f in poset.filters():
        m = poset.mask(f)
        counts[sum(1 for i, under in enumerate(below) if m >> i & 1 and not m & under)] += 1
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
