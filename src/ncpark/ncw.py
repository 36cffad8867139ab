"""The noncrossing partition poset NC(W) and its Fuss multichains.

NC(W) is the absolute-order interval below the distinguished Coxeter
element.  The cyclic group of order kh acts on its k-multichains; the
paper defines the action on length-additive factorizations of the Coxeter
element, and g_act_chain applies it to a chain in closed form.
"""

import operator
from functools import cached_property

from . import setpart
from .reflgroup import DihedralGroup, ReflectionGroup, set_bits


class NCPoset:
    """The interval [1, c] in absolute order, with the flat dictionary.

    Below c, u <= v exactly when the fixed flat of u contains that of v
    (Brady-Watt).  The elements are built down from c: the elements u
    covers are the ut for the reflections t whose hyperplane contains the
    flat of u (Carter's lemma: l_T(ut) < l_T(u) exactly then), each of
    which raises the flat's dimension by one.  Each element's flat is
    computed once.
    """

    def __init__(self, grp: ReflectionGroup | DihedralGroup):
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

    @cached_property
    def part_of(self) -> dict:
        """Each element's flat as a set partition (types A, B, D), built on
        first use: one per element, however many chains hold it."""
        signed = self.group.family != "A"
        return {w: setpart.SetPartition.of(x.n, x.blocks, signed) for w, x in self.flat_of.items()}

    @cached_property
    def literal_of(self) -> dict:
        """Each element's flat_literal, built on first use."""
        return {w: self.group.flat_literal(x) for w, x in self.flat_of.items()}

    @cached_property
    def _ups(self) -> dict:
        """The elements above each u, built on first use, which
        1-multichains never need.

        [u, c] is u together with the sets [v, c] of the v that cover u.
        The elements v covers are the vt for the reflections t of its
        flat, as in __init__, so the sets close downward from c, as
        bitmasks over positions in elements; each list keeps that
        (sorted) order."""
        els, flat_of, grp = self.elements, self.flat_of, self.group
        above = {u: 1 << pos for pos, u in enumerate(els)}
        for v in sorted(els, key=lambda u: flat_of[u].dim):
            for t in grp.flat_reflections(flat_of[v]):
                above[v * t] |= above[v]
        return {u: [els[i] for i in set_bits(mask)] for u, mask in above.items()}

    def multichains(self, k: int) -> list[tuple]:
        """All k-multichains (w_1 <= ... <= w_k), in lexicographic order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        chains = [(w,) for w in self.elements]
        for _ in range(k - 1):
            chains = [ch + (v,) for ch in chains for v in self._ups[ch[-1]]]
        return chains


def build_nc(grp: ReflectionGroup | DihedralGroup) -> NCPoset:
    return NCPoset(grp)


# ---------------------------------------------------------------------------
# the cyclic action


def g_act_chain(chain: tuple, grp: ReflectionGroup | DihedralGroup, c=None) -> tuple:
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
    """The permutation of positions in chains that g_act_chain induces,
    worked on positions in NC(W).  Each chain is keyed by the positions of
    its entries, and the chains are taken in the order of their last entry
    u_k: t^-1 = u_k c^-1 and t are made once for each u_k, and then each
    t u_i once.  The head t u_1 t^-1 is (t u_1) t^-1, where t u_1 = t u_k
    = c when k = 1."""
    els, c = nc.elements, nc.c
    at = {w: i for i, w in enumerate(els)}
    index = {tuple(map(at.__getitem__, ch)): i for i, ch in enumerate(chains)}
    c_inv = c.inverse()
    out = [0] * len(index)
    last = None
    for key in sorted(index, key=operator.itemgetter(-1)):
        *entries, u_k = key
        if u_k != last:
            last, t_inv = u_k, els[u_k] * c_inv
            t = t_inv.inverse() if entries else None
            moved: dict[int, int] = {}  # t u for each entry u
            heads: dict[int, int] = {}  # t u_1 t^-1 for each t u_1
        image = []
        for u in entries:
            j = moved.get(u)
            if j is None:
                j = moved[u] = at[t * els[u]]
            image.append(j)
        first = image[0] if image else at[c]
        head = heads.get(first)
        if head is None:
            head = heads[first] = at[els[first] * t_inv]
        out[index[key]] = index[(head, *image)]
    return out
