"""Crystallographic side: root posets, geometric multichains of filters,
and the finite torus character.

Roots are integer vectors in simple-root coordinates, so the poset order
is componentwise comparison and filter sums are exact vector sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .reflgroup import ConfigError, GroupSpec, group

NO_DIHEDRAL = "no dihedral {}: use A2 for I2(3), B2 for I2(4); G2 is unsupported"


@dataclass(frozen=True)
class RootPoset:
    """Positive roots of a crystallographic family in simple coordinates."""

    spec: GroupSpec
    roots: tuple[tuple[int, ...], ...]
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def build_root_poset(spec: GroupSpec, long_roots: bool = False) -> RootPoset:
    """Positive roots of A/B/D in simple-root coordinates; pass long_roots
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


# ---------------------------------------------------------------------------
# geometric multichains


@dataclass(frozen=True)
class FilterChain:
    """Descending multichain F_1 contains F_2 contains ... contains F_k."""

    poset: RootPoset
    filters: tuple[frozenset, ...]

    def __post_init__(self):
        for a, b in zip(self.filters, self.filters[1:]):
            if not b <= a:
                raise ValueError("filters must descend")


def is_geometric(chain: FilterChain) -> bool:
    """Athanasiadis's closure conditions for all index pairs i + j <= k:
    (F_i + F_j) and Phi+ lies in F_{i+j}, and (I_i + I_j) and Phi+ lies in
    I_{i+j}, where the ideal I_i is the complement of F_i.  On root masks
    each condition is one memoized sumset and one AND."""
    poset = chain.poset
    fs = [poset.mask(f) for f in chain.filters]
    full = (1 << len(poset.roots)) - 1
    ideals = [full ^ f for f in fs]
    sums = poset.sums
    k = len(fs)
    # zero-based: F_{i+1} + F_{j+1} must lie in F_{i+j+2}, at position i + j + 1
    for i in range(k):
        for j in range(i, k - 1 - i):
            if sums(fs[i], fs[j]) & ~fs[i + j + 1]:
                return False
            if sums(ideals[i], ideals[j]) & ~ideals[i + j + 1]:
                return False
    return True


def geometric_chains(spec: GroupSpec, k: int) -> list[FilterChain]:
    poset = build_root_poset(spec)
    filters = poset.filters()
    masks = [poset.mask(f) for f in filters]
    below = {f: [g for g, b in zip(filters, masks) if a | b == a] for f, a in zip(filters, masks)}
    chains: list[FilterChain] = []

    def extend(prefix):
        if len(prefix) == k:
            ch = FilterChain(poset, tuple(prefix))
            if is_geometric(ch):
                chains.append(ch)
            return
        for g in below[prefix[-1]]:
            extend(prefix + [g])

    for f in filters:
        extend([f])
    return chains


def count_geometric(spec: GroupSpec, k: int) -> int:
    """Number of length-k geometric multichains of filters; equals the
    Fuss-Catalan count of NC multichains when the Weak identity holds."""
    return len(geometric_chains(spec, k))


# ---------------------------------------------------------------------------
# the finite torus


def _ambient_simple_roots(spec: GroupSpec) -> list[tuple[int, ...]]:
    """e_i - e_{i+1}, then e_n (type B) or e_{n-1} + e_n (type D)."""
    reject_dihedral(spec, "root lattice")
    f, p = spec.family, spec.param
    out = []
    for i in range(p - 1):
        v = [0] * p
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    if f in ("B", "D"):
        v = [0] * p
        v[p - 1] = 1
        if f == "D":
            v[p - 2] = 1
        out.append(tuple(v))
    return out


def _act_ambient(w, vec) -> tuple[int, ...]:
    out = [0] * len(vec)
    for i, x in enumerate(vec, start=1):
        j = w(i)
        if j > 0:
            out[j - 1] += x
        else:
            out[-j - 1] -= x
    return tuple(out)


def _ambient_to_simple(spec: GroupSpec, vec) -> tuple[int, ...]:
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


def torus_matrix(spec: GroupSpec, w) -> list[list[int]]:
    """Matrix of w on the root lattice in simple-root coordinates."""
    n = spec.rank
    cols = [_ambient_to_simple(spec, _act_ambient(w, a)) for a in _ambient_simple_roots(spec)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def fixed_vector_count(mat: list[list[int]], m: int) -> int:
    """#{x in (Z/m)^n : mat x = x mod m}, for a square integer matrix.

    Unimodular row and column operations bring A = mat - I to a diagonal
    D = U A V; x -> V^-1 x is a bijection of (Z/m)^n, so the count is the
    product of gcd(d_i, m), where gcd(0, m) = m."""
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
    return math.prod(math.gcd(a[t][t], m) for t in range(n))


def torus_fixed_count(spec: GroupSpec, k: int, w) -> int:
    """Fixed vectors of w on Q/(kh+1)Q."""
    return fixed_vector_count(torus_matrix(spec, w), k * spec.coxeter_number + 1)


def verify_nn_character(spec: GroupSpec, k: int) -> list[dict]:
    """Torus fixed counts against (kh+1)^dim(V^w), per conjugacy class."""
    grp = group(spec.family, spec.param)
    m = k * spec.coxeter_number + 1
    report = []
    for w in grp.conjugacy_class_reps():
        count = torus_fixed_count(spec, k, w)
        expected = m ** grp.fixed_flat(w).dim
        report.append(
            {
                "w": repr(w),
                "fixed": count,
                "expected": expected,
                "pass": count == expected,
            }
        )
    return report
