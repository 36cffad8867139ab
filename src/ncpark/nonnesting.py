"""Crystallographic side: root posets, geometric multichains of filters,
nonnesting partitions, and the finite torus character.

Roots are integer vectors in simple-root coordinates, so the poset order
is componentwise comparison and filter sums are exact vector sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .reflgroup import DEFAULT_CAP, GroupSpec, group
from .setpart import SetPartition


@dataclass(frozen=True)
class RootPoset:
    """Positive roots of a crystallographic family in simple coordinates."""

    spec: GroupSpec
    roots: tuple[tuple[int, ...], ...]

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


def reject_dihedral(spec: GroupSpec, what: str):
    """I2(m) has no root poset or root lattice here: bad input, caught
    before any group is built."""
    if spec.family == "I2":
        raise ValueError(
            f"no dihedral {what}: use A2 for I2(3), B2 for I2(4); G2 is unsupported"
        )


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


def antichain_to_partition(poset: RootPoset, antichain) -> SetPartition:
    """Type A: the nonnesting partition generated by i ~ j per arc root."""
    if poset.spec.family != "A":
        raise ValueError("arc diagrams are a type A notion")
    n = poset.spec.param
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for root in antichain:
        i = root.index(1) + 1
        j = len(root) - tuple(reversed(root)).index(1) + 1
        parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    part = SetPartition.of(n, groups.values())
    if _has_nesting(part):
        raise RuntimeError(f"antichain produced a nesting partition {part}")
    return part


def _has_nesting(p: SetPartition) -> bool:
    arcs = []
    for b in p.blocks:
        b = sorted(b)
        arcs.extend(zip(b, b[1:]))
    for (a, d), (b, c) in itertools.permutations(arcs, 2):
        if a < b < c < d:
            return True
    return False


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

    def ideals(self) -> tuple[frozenset, ...]:
        full = frozenset(self.poset.roots)
        return tuple(full - f for f in self.filters)


def is_geometric(chain: FilterChain) -> bool:
    """Athanasiadis's closure conditions for all index pairs i + j <= k."""
    roots = set(chain.poset.roots)
    fs = chain.filters
    ideals = chain.ideals()
    k = len(fs)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            if i + j > k:
                continue
            for a in fs[i - 1]:
                for b in fs[j - 1]:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in roots and s not in fs[i + j - 1]:
                        return False
            for a in ideals[i - 1]:
                for b in ideals[j - 1]:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in roots and s not in ideals[i + j - 1]:
                        return False
    return True


def geometric_chains(spec: GroupSpec, k: int) -> list[FilterChain]:
    poset = build_root_poset(spec)
    filters = poset.filters()
    below = {f: [g for g in filters if g <= f] for f in filters}
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


def verify_nn_character(spec: GroupSpec, k: int, cap: int = DEFAULT_CAP) -> list[dict]:
    """Torus fixed counts against (kh+1)^dim(V^w), per conjugacy class; the
    cap bounds |W|."""
    reject_dihedral(spec, "root lattice")
    grp = group(spec.family, spec.param, cap)
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
