"""Crystallographic side: root posets, geometric multichains of filters,
nonnesting partitions, and the finite torus character.

Roots are integer vectors in simple-root coordinates, so the poset order
is componentwise comparison and filter sums are exact vector sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .reflgroup import DEFAULT_CAP, CapExceeded, GroupSpec, group
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
        """All up-closed subsets, smallest first."""
        out = []
        roots = self.roots
        for bits in itertools.product((0, 1), repeat=len(roots)):
            chosen = frozenset(r for r, b in zip(roots, bits) if b)
            if all(
                (b in chosen) for a in chosen for b in roots if self.leq(a, b)
            ):
                out.append(chosen)
        return sorted(out, key=lambda f: (len(f), sorted(f)))

    def antichains(self) -> list[frozenset]:
        out = []
        for f in self.filters():
            mins = frozenset(a for a in f if not any(self.leq(b, a) and b != a for b in f))
            out.append(mins)
        return out


def build_root_poset(spec: GroupSpec, long_roots: bool = False) -> RootPoset:
    """Positive roots of A/B/D in simple-root coordinates; pass long_roots
    for the type C realization (the poset is isomorphic either way)."""
    f, p = spec.family, spec.param
    if f == "I2":
        raise ValueError(
            "no dihedral root posets: use A2 for I2(3), B2 for I2(4); G2 is unsupported"
        )
    n = spec.rank
    roots = []
    if f == "A":
        for i in range(1, p):
            for j in range(i + 1, p + 1):
                v = [0] * n
                for t in range(i, j):
                    v[t - 1] += 1
                roots.append(tuple(v))
    elif f == "B" and not long_roots:
        # simples e1-e2, ..., e_{n-1}-e_n, e_n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                minus = [0] * n
                for t in range(i, j):
                    minus[t - 1] += 1
                roots.append(tuple(minus))
                plus = list(minus)
                for t in range(j, n):
                    plus[t - 1] += 2
                plus[n - 1] += 2
                roots.append(tuple(plus))
        for i in range(1, n + 1):
            v = [0] * n
            for t in range(i, n):
                v[t - 1] += 1
            v[n - 1] += 1
            roots.append(tuple(v))
    elif f == "B":
        # type C: simples e1-e2, ..., e_{n-1}-e_n, 2e_n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                minus = [0] * n
                for t in range(i, j):
                    minus[t - 1] += 1
                roots.append(tuple(minus))
                plus = list(minus)
                for t in range(j, n):
                    plus[t - 1] += 2
                plus[n - 1] += 1
                roots.append(tuple(plus))
        for i in range(1, n + 1):
            v = [0] * n
            for t in range(i, n):
                v[t - 1] += 2
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


def _to_ambient(spec: GroupSpec, simple_index_vector) -> tuple[Fraction, ...]:
    n_amb = spec.param
    amb_simples = _ambient_simple_roots(spec)
    out = [Fraction(0)] * n_amb
    for coeff, root in zip(simple_index_vector, amb_simples):
        for i, x in enumerate(root):
            out[i] += coeff * x
    return tuple(out)


def _ambient_simple_roots(spec: GroupSpec):
    f, p = spec.family, spec.param
    out = []
    if f == "A":
        for i in range(p - 1):
            v = [0] * p
            v[i], v[i + 1] = 1, -1
            out.append(tuple(v))
    elif f == "B":
        for i in range(p - 1):
            v = [0] * p
            v[i], v[i + 1] = 1, -1
            out.append(tuple(v))
        v = [0] * p
        v[p - 1] = 1
        out.append(tuple(v))
    elif f == "D":
        for i in range(p - 1):
            v = [0] * p
            v[i], v[i + 1] = 1, -1
            out.append(tuple(v))
        v = [0] * p
        v[p - 2], v[p - 1] = 1, 1
        out.append(tuple(v))
    return out


def _act_ambient(spec: GroupSpec, w, vec):
    out = [Fraction(0)] * len(vec)
    for i, x in enumerate(vec, start=1):
        j = w(i)
        if j > 0:
            out[j - 1] += x
        else:
            out[-j - 1] -= x
    return tuple(out)


def _ambient_to_simple(spec: GroupSpec, vec, ambient_simples) -> tuple[int, ...]:
    """Solve an integer coordinate vector over the ambient simple roots."""
    n = len(ambient_simples)
    rows = [[Fraction(ambient_simples[j][i]) for j in range(n)] for i in range(len(vec))]
    rhs = [Fraction(x) for x in vec]
    # Gaussian elimination on the (possibly tall) exact system
    coeffs = [Fraction(0)] * n
    pivot_rows = []
    mat = [row[:] + [r] for row, r in zip(rows, rhs)]
    col = 0
    for col in range(n):
        piv = next((r for r in range(len(mat)) if r not in [p for p, _ in pivot_rows] and mat[r][col] != 0), None)
        if piv is None:
            continue
        pivot_rows.append((piv, col))
        for r in range(len(mat)):
            if r != piv and mat[r][col] != 0:
                f = mat[r][col] / mat[piv][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[piv])]
    for piv, col in pivot_rows:
        coeffs[col] = mat[piv][n] / mat[piv][col]
    for r in range(len(mat)):
        if r not in [p for p, _ in pivot_rows]:
            if mat[r][n] != 0:
                raise RuntimeError("vector not in the root lattice span")
    out = []
    for x in coeffs:
        if x.denominator != 1:
            raise RuntimeError("non-integer root coordinates")
        out.append(int(x))
    return tuple(out)


def torus_matrix(spec: GroupSpec, w) -> list[list[int]]:
    """Matrix of w on the root lattice in simple-root coordinates."""
    n = spec.rank
    ambient_simples = [_to_ambient(spec, tuple(1 if i == j else 0 for j in range(n))) for i in range(n)]
    cols = []
    for a in ambient_simples:
        img = _act_ambient(spec, w, a)
        cols.append(_ambient_to_simple(spec, img, ambient_simples))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def torus_fixed_count(spec: GroupSpec, k: int, w, cap: int = DEFAULT_CAP) -> int:
    """Fixed vectors of w on Q/(kh+1)Q by enumeration."""
    m = k * spec.coxeter_number + 1
    n = spec.rank
    if m**n > cap:
        raise CapExceeded(f"torus size {m**n} exceeds cap {cap}")
    mat = torus_matrix(spec, w)
    count = 0
    for vec in itertools.product(range(m), repeat=n):
        if all(
            sum(mat[i][j] * vec[j] for j in range(n)) % m == vec[i] % m for i in range(n)
        ):
            count += 1
    return count


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
