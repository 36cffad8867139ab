"""The noncrossing partition poset NC(W) and its Fuss multichains.

NC(W) is the absolute-order interval below the distinguished Coxeter
element.  The cyclic group of order kh acts on its k-multichains; the
paper defines the action on length-additive factorizations of the Coxeter
element, and g_act_chain applies it to a chain in closed form.
"""

from __future__ import annotations

from functools import cached_property

from . import setpart
from .reflgroup import ReflectionGroup


class NCPoset:
    """The interval [1, c] in absolute order, with the flat dictionary.

    Below c, u <= v exactly when the fixed flat of u contains that of v
    (Brady-Watt).  The elements are built down from c: the elements u
    covers are the ut for the reflections t whose hyperplane contains the
    flat of u (Carter's lemma: l_T(ut) < l_T(u) exactly then), each of
    which raises the flat's dimension by one.  Each element's flat is
    computed once.
    """

    def __init__(self, grp: ReflectionGroup):
        self.group = grp
        self.c = grp.coxeter_element()
        flat_of = {self.c: grp.fixed_flat(self.c)}
        level = [self.c]
        while level:
            below = []
            for u in level:
                for t in grp.flat_reflections(flat_of[u]):
                    v = u * t
                    if v not in flat_of:
                        flat_of[v] = grp.fixed_flat(v)
                        below.append(v)
            level = below
        self.elements = sorted(flat_of)
        if len(self.elements) != grp.spec.fuss_catalan(1):
            raise RuntimeError(
                f"NC({grp.spec}) has {len(self.elements)} elements, not Cat({grp.spec}) = {grp.spec.fuss_catalan(1)}"
            )
        self.flat_of = {w: flat_of[w] for w in self.elements}
        if len(set(self.flat_of.values())) != len(self.elements):
            raise RuntimeError("element-to-flat map is not injective on NC(W)")
        self.element_of_flat = {x: w for w, x in self.flat_of.items()}

    @cached_property
    def part_of(self) -> dict:
        """Each element's flat as a set partition (types A, B, D), built on
        first use: one per element, however many chains hold it."""
        signed = self.group.family != "A"
        return {w: setpart.SetPartition.of(x.n, x.blocks, signed) for w, x in self.flat_of.items()}

    @cached_property
    def literal_of(self) -> dict:
        """Each element's flat as class_record writes it, built on first
        use: the partition literal, or the I2 flat kind."""
        if self.group.family == "I2":
            return {w: x.kind if x.kind != "line" else f"line:{x.line}" for w, x in self.flat_of.items()}
        return {w: setpart.format_partition(q) for w, q in self.part_of.items()}

    @cached_property
    def _ups(self) -> dict:
        """The elements above each u, built on first use, which
        1-multichains never need.

        [u, c] is u together with the sets [ut, c] of its covers ut, so the
        sets close downward from c, as bitmasks over positions in
        elements; each list keeps that (sorted) order."""
        els, flat_of = self.elements, self.flat_of
        refls = self.group.reflections()
        above: dict = {}
        for pos, u in sorted(enumerate(els), key=lambda e: flat_of[e[1]].dim):
            mask = 1 << pos
            dim = flat_of[u].dim
            for t in refls:
                v = u * t
                if v in above and flat_of[v].dim == dim - 1:
                    mask |= above[v]
            above[u] = mask
        return {
            u: [els[i] for i in range(mask.bit_length()) if mask >> i & 1]
            for u, mask in above.items()
        }

    def multichains(self, k: int) -> list[tuple]:
        """All k-multichains (w_1 <= ... <= w_k), in lexicographic order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        chains = [(w,) for w in self.elements]
        for _ in range(k - 1):
            chains = [ch + (v,) for ch in chains for v in self._ups[ch[-1]]]
        return chains


def build_nc(grp: ReflectionGroup) -> NCPoset:
    return NCPoset(grp)


# ---------------------------------------------------------------------------
# the cyclic action


def g_act_chain(chain: tuple, grp: ReflectionGroup, c=None) -> tuple:
    """g.(u_1 <= ... <= u_k) = (t u_1 t^-1, t u_1, ..., t u_{k-1}), t = c u_k^-1.

    The paper defines g on factorizations (the tests keep that route as
    their oracle).  partial sends the chain to the length-additive
    factorization (w_0, ..., w_k) = (u_1, u_1^-1 u_2, ..., u_k^-1 c) of c;
    g_act_factor sends that to (t w_0 t^-1, t, w_1, ..., w_{k-1}) with
    t = c w_k c^-1 = c u_k^-1; integrate takes partial products, t u_1 t^-1,
    then t u_1, and t u_1 w_1 ... w_{i-1} = t u_i up to t u_k = c, which it
    drops.  ParkSpace.g_table's right multiplier u_k c^-1 is t^-1.

    An image that is not a k-multichain fails chain_g_table's lookup."""
    c = c if c is not None else grp.coxeter_element()
    t = c * chain[-1].inverse()
    return (t * chain[0] * t.inverse(),) + tuple(t * u for u in chain[:-1])


def chain_g_table(nc: NCPoset, chains: list[tuple]) -> list[int]:
    """The permutation of positions in chains that g_act_chain induces."""
    index = {ch: i for i, ch in enumerate(chains)}
    return [index[g_act_chain(ch, nc.group, nc.c)] for ch in chains]
