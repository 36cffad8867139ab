"""The noncrossing partition poset NC(W) and its Fuss multichains.

NC(W) is the absolute-order interval below the distinguished Coxeter
element; multichains interconvert with length-additive factorizations of
the Coxeter element, and the cyclic group of order kh acts through the
factorization form.
"""

from __future__ import annotations

from functools import cached_property

from .reflgroup import FlatPartition, ReflectionGroup
from . import setpart


class NCPoset:
    """The interval [1, c] in absolute order, with the flat dictionary.

    Below c, u <= v exactly when the fixed flat of u contains that of v
    (Brady-Watt), so the order is read off the flats by flat_leq.
    """

    def __init__(self, grp: ReflectionGroup):
        self.group = grp
        self.c = grp.coxeter_element()
        els = grp.elements()
        flats = [grp.fixed_flat(w) for w in els]
        length = {w: grp.rank - x.dim for w, x in zip(els, flats)}
        lc = length[self.c]
        self.flat_of = {
            w: x for w, x in zip(els, flats) if length[w] + length[w.inverse() * self.c] == lc
        }
        self.elements = list(self.flat_of)
        if len(set(self.flat_of.values())) != len(self.elements):
            raise RuntimeError("element-to-flat map is not injective on NC(W)")
        self.element_of_flat = {x: w for w, x in self.flat_of.items()}

    @cached_property
    def _ups(self) -> dict:
        """The elements above each u, built on first use: |NC|^2 flat_leq
        tests, which 1-multichains never need.  elements() is sorted, so is
        each list."""
        leq = self.group.flat_leq
        return {
            u: [v for v, y in self.flat_of.items() if leq(x, y)]
            for u, x in self.flat_of.items()
        }

    def multichains(self, k: int) -> list[tuple]:
        """All k-multichains (w_1 <= ... <= w_k), in lexicographic order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        chains = [(w,) for w in self.elements]
        for _ in range(k - 1):
            chains = [ch + (v,) for ch in chains for v in self._ups[ch[-1]]]
        return chains

    def noncrossing_flats(self) -> set[FlatPartition]:
        return set(self.element_of_flat)

    def is_noncrossing_flat(self, x: FlatPartition) -> bool:
        ok = x in self.element_of_flat
        fam = self.group.family
        if fam in ("A", "B"):
            # cross-check against the boundary-order geometric predicate;
            # type D would need the annular model and every I2 flat qualifies
            p = setpart.SetPartition.of(x.n, x.blocks, signed=fam == "B")
            if setpart.is_noncrossing(p) != ok:
                raise RuntimeError(f"geometric and poset noncrossing tests disagree on {x}")
        return ok


def build_nc(grp: ReflectionGroup) -> NCPoset:
    return NCPoset(grp)


# ---------------------------------------------------------------------------
# multichains <-> factorizations, and the cyclic action


def partial(chain: tuple, c) -> tuple:
    """(w_1 <= ... <= w_k) -> (w_1, w_1^-1 w_2, ..., w_k^-1 c)."""
    out = [chain[0]]
    out += [chain[i].inverse() * chain[i + 1] for i in range(len(chain) - 1)]
    out.append(chain[-1].inverse() * c)
    return tuple(out)


def integrate(factor: tuple, grp: ReflectionGroup, c=None) -> tuple:
    """(w_0, ..., w_k) -> (w_0 <= w_0 w_1 <= ... <= w_0 ... w_{k-1}).

    Raises when the input is not a length-additive factorization of c.
    """
    c = c if c is not None else grp.coxeter_element()
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


def g_act_factor(factor: tuple, c) -> tuple:
    """g.(w_0,...,w_k) = (v, c w_k c^-1, w_1, ..., w_{k-1}),
    v = (c w_k c^-1) w_0 (c w_k c^-1)^-1."""
    t = c * factor[-1] * c.inverse()
    v = t * factor[0] * t.inverse()
    return (v, t) + factor[1:-1]


def g_act_chain(chain: tuple, grp: ReflectionGroup, c=None) -> tuple:
    c = c if c is not None else grp.coxeter_element()
    return integrate(g_act_factor(partial(chain, c), c), grp, c)


def chain_g_table(nc: NCPoset, chains: list[tuple]) -> list[int]:
    """The permutation of positions in chains that g_act_chain induces."""
    index = {ch: i for i, ch in enumerate(chains)}
    return [index[g_act_chain(ch, nc.group, nc.c)] for ch in chains]


def chain_flats(chain: tuple, grp: ReflectionGroup) -> tuple[FlatPartition, ...]:
    return tuple(grp.fixed_flat(w) for w in chain)
