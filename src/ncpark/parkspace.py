"""The Fuss noncrossing parking space as an explicit permutation set.

Classes are pairs [w, chain] where the chain is a multichain in NC(W) and
w is reduced to the lexicographically minimal representative of its coset
modulo the isotropy group of the first flat.  Both group actions, as
permutation tables of class positions, the fixed-point characters and the
classical type A models live here.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from collections import Counter
from functools import cached_property, lru_cache

from .reflgroup import (
    FlatPartition,
    GroupSpec,
    SignedPerm,
    Value,
    compose,
    group,
    set_field,
    table_cycles,
    zero_block,
)
from . import ncw, setpart


class ParkClass(Value):
    """[w, X_1 <= ... <= X_k], stored by the NC multichain below the flats."""

    __slots__ = _fields = ("chain", "rep")

    def __init__(self, chain: tuple, rep):
        set_field(self, "chain", chain)
        set_field(self, "rep", rep)

    def __repr__(self):
        return f"ParkClass(rep={self.rep!r}, chain={self.chain!r})"


# 0/1 flags as binary digits, and back
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


def least_rule(flat: FlatPartition) -> list[tuple[int, int, int]]:
    """The inequalities (a, b, s), each w(a) < s w(b) on the images of w,
    that w meets exactly when it is the least element of its coset w W_X,
    for a flat X of type A, B or D; (a, a, -1) reads w(a) < 0.

    W_X moves the members of each block of X among themselves, so the
    coset fixes the values w takes on a block, and its least element
    places them position by position, each as small as it can be:
    - A: w(a) < w(b) for consecutive members a < b of a block.
    - B, D: each +- pair of nonzero blocks is read from its member b that
      holds its least |x| positively, members sorted by |x|.  Position |x|
      holds s_x w(x), s_x the sign of x, so it takes the least value of w
      on b left when s_x = +1 and the greatest when s_x = -1: that is
      w(|x|) < s_x s_y w(|y|) for every x before y.  With mixed signs
      these do not follow from the consecutive pairs, so all are listed.
    - The zero block z_1 < ... < z_l (its positive members) is signed
      freely in B, so w(z_1) < ... < w(z_l) < 0.  In D the signs change in
      even numbers, so the sign of w(z_l) follows from the others:
      w(z_1) < ... < w(z_(l-1)) < -|w(z_l)|."""
    if flat.family == "A":
        return [(a, b, 1) for blk in flat.blocks for a, b in zip(blk, blk[1:])]
    zero = zero_block(flat.blocks) or ()
    out = []
    for blk in flat.blocks:
        if blk != zero and min(abs(t) for t in blk) in blk:
            members = sorted(blk, key=abs)
            for i, x in enumerate(members):
                out += [(abs(x), abs(y), 1 if (x > 0) == (y > 0) else -1) for y in members[i + 1 :]]
    zpos = [t for t in zero if t > 0]
    out += [(a, b, 1) for a, b in zip(zpos, zpos[1:])]
    if flat.family == "B" and zpos:
        out.append((zpos[-1], zpos[-1], -1))
    elif len(zpos) > 1:
        out.append((zpos[-2], zpos[-1], -1))
    return out


@lru_cache(maxsize=None)
def block_ids(flat: FlatPartition) -> dict[int, int]:
    """Signed ids for the blocks of a type A, B or D flat, by member: j for
    each member of the j-th block and -j for its negative, 0 for the zero
    block; a block's mirror gets the negated ids."""
    bid, j = {}, 0
    zero = zero_block(flat.blocks)
    for b in flat.blocks:
        if b == zero:
            bid.update(dict.fromkeys(b, 0))
        elif b[0] not in bid:
            j += 1
            for x in b:
                bid[x], bid[-x] = j, -j
    return bid


def block_key(bid: dict[int, int], images: tuple[int, ...]) -> tuple[int, ...]:
    """bid[w^-1(1)], ..., bid[w^-1(n)] for the signed permutation w with
    these images, bid a signed id for each member of +-[n]."""
    key = [0] * len(images)
    for x, t in enumerate(images, 1):
        if t > 0:
            key[t - 1] = bid[x]
        else:
            key[-t - 1] = -bid[x]
    return tuple(key)


class ChainPicture:
    """What a class takes from its chain alone: the per-chain record.

    Holds the chain and, each from first use on, its entries as set
    partitions (types A, B, D) and as class_record writes them, both read
    off the per-element maps of NC(W), pi = nabla of the chain (on +-[kn]
    in type B), the map from blocks of pi to blocks of the first entry,
    and the openers of pi (type B).
    """

    def __init__(self, chain: tuple, nc: ncw.NCPoset):
        self.chain = chain
        self.nc = nc

    @cached_property
    def parts(self) -> tuple[setpart.SetPartition, ...]:
        return tuple(map(self.nc.part_of.__getitem__, self.chain))

    @cached_property
    def record(self) -> tuple[str, ...]:
        """The chain field of class_record: partition literals, or the I2
        flat kinds."""
        return tuple(map(self.nc.literal_of.__getitem__, self.chain))

    @cached_property
    def _nabla(self) -> tuple[setpart.SetPartition, dict]:
        if self.parts[0].signed:
            return setpart.bc_nabla_picture(self.parts)
        pi = setpart.nabla(self.parts)
        return pi, setpart.nabla_block_map(pi, self.parts[0], len(self.parts))

    @property
    def pi(self) -> setpart.SetPartition:
        return self._nabla[0]

    @property
    def block_map(self) -> dict:
        return self._nabla[1]

    @cached_property
    def openers(self) -> dict:
        return setpart.openers(self.pi)


class ParkSpace:
    """Park^NC for one (group, k): its classes by position, with the coset
    minima, coset keys and chain pictures cached, and its action tables."""

    def __init__(self, spec: GroupSpec, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.spec = spec
        self.k = k
        self.group = group(spec.family, spec.param)
        self.nc = ncw.build_nc(self.group)
        self.c = self.nc.c
        self.chains = self.nc.multichains(k)
        self._minima: dict[FlatPartition, list[int]] = {}
        self._masks: dict[tuple[int, int, int], int] = {}
        self._keys: dict[FlatPartition, dict] = {}
        self._columns_of: dict[FlatPartition, list] = {}
        self._offsets = None
        self._classes = None
        self._pictures: dict[tuple, ChainPicture] = {}
        self._nabla_inv = None

    @property
    def _elements(self) -> list:
        """group.elements(), listed on first use: the character counts never
        read it."""
        return self.group.elements()

    # -- canonicalization ----------------------------------------------------

    def coset_minima(self, flat: FlatPartition) -> list[int]:
        """The indices in group.elements() of the least elements of the
        cosets w W_X of the isotropy group of a flat, ascending.

        w is least in w W_X exactly when its images meet the inequalities
        of least_rule(flat); each inequality is a bitmask over the
        elements, made once per space, so a flat's minima are the set bits
        of the AND of its masks.  In I2, W_X is trivial for the plane and
        W for the origin, and on line j the coset {w, w s_j} holds one
        rotation, which is the lesser: the rotations come first."""
        found = self._minima.get(flat)
        if found is None:
            els = self._elements
            if flat.family != "I2":
                mask = (1 << len(els)) - 1
                for a, b, s in least_rule(flat):
                    mask &= self._inequality(a, b, s)
                bits = bin(mask)[:1:-1].encode().translate(_BITS)
                found = list(itertools.compress(itertools.count(), bits))
            elif flat.kind == "plane":
                found = list(range(len(els)))
            elif flat.kind == "origin":
                found = [0]
            else:
                found = list(range(flat.n))
            self._minima[flat] = found
        return found

    def _inequality(self, a: int, b: int, s: int) -> int:
        """The elements w with w(a) < s w(b), as a bitmask over the indices
        of group.elements(): bit i is set when element i meets it."""
        mask = self._masks.get((a, b, s))
        if mask is None:
            cols, negs = self._columns
            right = (cols if s > 0 else negs)[b - 1]
            digits = bytes(map(operator.lt, cols[a - 1], right)).translate(_DIGITS)
            mask = self._masks[a, b, s] = int(digits[::-1], 2)
        return mask

    @cached_property
    def _columns(self) -> tuple[list, list]:
        """The images w(a) of all elements for each position a, and their
        negatives."""
        cols = list(zip(*(w.images for w in self._elements)))
        return cols, [tuple(-t for t in col) for col in cols]

    def blocks(self):
        """Each chain with the element indices of its coset minima, in
        classes() order.  Classes sort by (chain, rep), so every chain owns
        one contiguous block, in the lexicographic order of multichains(),
        listing the coset minima of its first flat, ascending."""
        flat_of = self.nc.flat_of
        for ch in self.chains:
            yield ch, self.coset_minima(flat_of[ch[0]])

    def chain_offsets(self) -> dict[tuple, int]:
        """Where each chain's block starts in classes()."""
        if self._offsets is None:
            offsets, pos = {}, 0
            for ch, reps in self.blocks():
                offsets[ch] = pos
                pos += len(reps)
            self._offsets = offsets
        return self._offsets

    def coset_keys(self, flat: FlatPartition) -> dict:
        """The position in coset_minima(flat) of each coset w W_X of a first
        flat X, keyed by coset_key(flat, w); made once per flat."""
        cosets = self._keys.get(flat)
        if cosets is None:
            els = self._elements
            if flat.family == "I2":
                keys = (self.coset_key(flat, els[r]) for r in self.coset_minima(flat))
            else:
                # the ids once per flat: a block_ids lookup hashes the flat
                bid = block_ids(flat)
                keys = (block_key(bid, els[r].images) for r in self.coset_minima(flat))
            cosets = self._keys[flat] = dict(zip(keys, itertools.count()))
        return cosets

    def key_columns(self, flat: FlatPartition) -> list[tuple[int, ...]]:
        """The coset_keys of a first flat of type A, B or D as columns: entry
        j of every key, in position order; made once per flat."""
        cols = self._columns_of.get(flat)
        if cols is None:
            cols = self._columns_of[flat] = list(zip(*self.coset_keys(flat)))
        return cols

    def coset_key(self, flat: FlatPartition, w):
        """A key shared by two elements exactly when they lie in one coset
        w W_X of a flat X, by rule.

        In A, B and D it is block_key over block_ids(flat): the signed ids
        of the blocks holding w^-1(1), ..., w^-1(n).  Two elements share it
        exactly when w^-1 w' maps every block of X onto itself.  The
        elements of S_n or B_n that do form W_X; in D, W_X is those of them
        that lie in D, as w^-1 w' does.

        In I2 it is the coset's position itself, by arithmetic: w's index
        in elements() for the plane (c^j at j, c^j s at m + j), 0 for the
        origin, and on line l the exponent of the rotation in {w, w s_l},
        j for c^j and j - l for c^j s."""
        if flat.family == "I2":
            if flat.kind == "line":
                return (w.j - flat.line) % flat.n if w.refl else w.j
            return w.refl * flat.n + w.j if flat.kind == "plane" else 0
        return block_key(block_ids(flat), w.images)

    def _position(self, flat: FlatPartition, w) -> int:
        """The position of w's coset in coset_minima(flat)."""
        return self.coset_keys(flat)[self.coset_key(flat, w)]

    def make_class(self, chain: tuple, w) -> ParkClass:
        flat = self.nc.flat_of[chain[0]]
        return ParkClass(chain, self._elements[self.coset_minima(flat)[self._position(flat, w)]])

    def index(self, chain: tuple, w) -> int:
        """The position in classes() of the class [w, chain]."""
        return self.chain_offsets()[chain] + self._position(self.nc.flat_of[chain[0]], w)

    def classes(self) -> list[ParkClass]:
        if self._classes is None:
            els = self._elements
            self._classes = [ParkClass(ch, els[r]) for ch, reps in self.blocks() for r in reps]
        return self._classes

    def record_at(self, i: int) -> dict:
        """class_record of the class at position i, read off its chain
        block: classes() is never listed."""
        for ch, reps in self.blocks():
            if i < len(reps):
                return self.class_record(ParkClass(ch, self._elements[reps[i]]))
            i -= len(reps)
        raise IndexError(i)

    # -- action tables and characters -----------------------------------------

    def g_table(self) -> array:
        """Permutation of class indices induced by the cyclic generator, as
        an array('q').

        The class [r, ch] goes to [r t^-1, g ch], with t = c u_k^-1 as in
        ncw.g_act_chain and g ch read off ncw.chain_g_table.  The first
        flat of g ch is t X_1, so in A, B and D the key of r t^-1 there is
        the key of r in X_1 with each block id relabeled by t; in I2 the
        product is keyed.  The keys are relabeled a column at a time, and
        a chain block's map, which depends on (u_1, u_k) only, is made once
        for each pair."""
        els, flat_of, chains = self._elements, self.nc.flat_of, self.chains
        gtab = ncw.chain_g_table(self.nc, chains)
        starts = list(self.chain_offsets().values())
        c_inv = self.c.inverse()
        perms: dict = {}
        out = array("q")
        for ch, gi in zip(chains, gtab):
            perm = perms.get((ch[0], ch[-1]))
            if perm is None:
                t_inv = ch[-1] * c_inv
                flat, target = flat_of[ch[0]], flat_of[chains[gi][0]]
                if flat.family == "I2":
                    keys = (self.coset_key(target, els[r] * t_inv) for r in self.coset_minima(flat))
                else:
                    t, bid = t_inv.inverse(), block_ids(target)
                    relabel = {j: bid[t(y)] for y, j in block_ids(flat).items()}.__getitem__
                    keys = zip(*(map(relabel, col) for col in self.key_columns(flat)))
                perm = perms[ch[0], ch[-1]] = list(map(self.coset_keys(target).__getitem__, keys))
            off = starts[gi]
            out.fromlist([off + x for x in perm])
        return out

    def w_table(self, v) -> array:
        """Permutation of class indices induced by v, as an array('q').  The
        chain stays, and each first flat's coset permutation is read off the
        keys: in A, B and D entry j of the key of v r is entry |v^-1(j)| of
        r's, negated when v^-1(j) < 0; in I2 the product is keyed.  The keys
        are moved a column at a time."""
        els, flat_of = self._elements, self.nc.flat_of
        back = v.inverse().images if self.spec.family != "I2" else ()
        perms: dict[FlatPartition, list[int]] = {}
        out = array("q")
        for ch, off in self.chain_offsets().items():
            flat = flat_of[ch[0]]
            perm = perms.get(flat)
            if perm is None:
                cosets = self.coset_keys(flat)
                if flat.family == "I2":
                    keys = (self.coset_key(flat, v * els[r]) for r in self.coset_minima(flat))
                else:
                    cols = self.key_columns(flat)
                    keys = zip(*(cols[t - 1] if t > 0 else map(operator.neg, cols[-t - 1]) for t in back))
                perm = perms[flat] = list(map(cosets.__getitem__, keys))
            out.fromlist([off + x for x in perm])
        return out

    def burnside_counts(self) -> list[list[int]]:
        """counts[c][d]: the classes fixed by (v, g^d), v the c-th element of
        conjugacy_class_reps(), for d in [0, kh), by the class equation over
        the g-cycles of chains; no class is built.

        g^d [w, X] = [w y_d(X), g^d X], with y_d(X) = t_X^-1 t_gX^-1 ...
        t_(g^(d-1) X)^-1 and t_X^-1 = u_k c^-1 as in g_table.  So (v, g^d)
        fixes [w, X] exactly when g^d X = X and w^-1 v w lies in
        W_X1 y_d^-1, and over X it fixes
        |C_W(v)| |Cl(v) n W_X1 y_d^-1| / |W_X1| classes, with
        |C_W(v)| = |W| / |Cl(v)|.  g^d fixes X exactly when the length L of
        X's g-cycle divides d, and then y_d = y_L^(d/L).  g carries the
        classes fixed over X onto those over gX, so the first chain of each
        cycle counts for all L of them.  The class histogram of
        W_X1 y_d^-1 depends on (X1, y_d) alone, and is made once for each
        such pair, streaming W_X1.  The division is exact; a remainder is
        an internal error."""
        grp, chains = self.group, self.chains
        kh = self.k * self.spec.coxeter_number
        sizes, order = grp.class_sizes(), self.spec.order
        gtab = ncw.chain_g_table(self.nc, chains)
        c_inv = self.c.inverse()
        counts = [[0] * kh for _ in sizes]
        histograms: dict = {}
        for cycle in table_cycles(gtab):
            y_len, length = grp.identity(), len(cycle)
            for i in cycle:
                y_len = y_len * (chains[i][-1] * c_inv)
            flat = self.nc.flat_of[chains[cycle[0]][0]]
            y = grp.identity()
            for d in range(0, kh, length):
                found = histograms.get((flat, y))
                if found is None:
                    found = histograms[flat, y] = self._coset_histogram(flat, y)
                hist, members = found
                for c, hits in hist.items():
                    fixed, rest = divmod(length * order * hits, sizes[c] * members)
                    if rest:
                        raise RuntimeError(
                            f"class {c} meets W_X1 y_d^-1 in {hits} of {members} elements at d = {d}: "
                            f"{length} * {order} * {hits} is not a multiple of {sizes[c]} * {members}"
                        )
                    counts[c][d] += fixed
                y = y * y_len
        return counts

    def _coset_histogram(self, flat: FlatPartition, y) -> tuple[Counter, int]:
        """The class ids of W_X y^-1 counted, and |W_X|: products on image
        tuples in A, B and D.  At the origin, W_X y^-1 = W, and the counts
        are the class sizes."""
        grp, y_inv = self.group, y.inverse()
        if flat.dim == 0:
            return Counter(dict(enumerate(grp.class_sizes()))), self.spec.order
        if self.spec.family == "I2":
            hist = Counter(grp.class_id(h * y_inv) for h in grp.isotropy_elements(flat))
        else:
            yi = y_inv.images
            hist = Counter(grp.class_id(compose(h, yi)) for h in grp.isotropy_elements(flat))
        return hist, sum(hist.values())

    def verify_weak(self) -> list[dict]:
        """Fixed counts against (kh+1)^mult for one element per conjugacy
        class and every power of the cyclic generator.  A failing row
        carries the multiplicity of omega^d in v as its witness."""
        kh = self.k * self.spec.coxeter_number
        rows = []
        for v, counts in zip(self.group.conjugacy_class_reps(), self.burnside_counts()):
            for d, count in enumerate(counts):
                mult = self.group.eigenvalue_multiplicity(v, d, kh)
                expected = (kh + 1) ** mult
                row = {"v": repr(v), "d": d, "fixed": count, "expected": expected, "pass": count == expected}
                if count != expected:
                    row["witness"] = {"multiplicity": mult}
                rows.append(row)
        return rows

    # -- labeled pictures and type A models ---------------------------------------

    def chain_picture(self, chain: tuple) -> ChainPicture:
        """The per-chain cache entry: built once per chain, shared by every
        class over that chain."""
        pic = self._pictures.get(chain)
        if pic is None:
            pic = self._pictures[chain] = ChainPicture(chain, self.nc)
        return pic

    def labeled_pair(self, p: ParkClass) -> setpart.LabeledPartition:
        """The block-labeled k-divisible disc picture of a class (types A, B):
        each block of nabla(chain) is labeled by the image under the
        representative of the first-entry block it restricts to.  No
        command calls it: the test oracles read this route, and the
        benchmark's tracer names it."""
        if self.spec.family not in ("A", "B"):
            raise ValueError(f"no labeled disc picture for family {self.spec.family}")
        pic = self.chain_picture(p.chain)
        labels = {b: tuple(p.rep(x) for x in src) for b, src in pic.block_map.items()}
        return setpart.LabeledPartition.of(pic.pi, labels)

    def from_labeled_pair(self, lp: setpart.LabeledPartition) -> ParkClass:
        """Inverse of labeled_pair: invert nabla for the chain, then read a
        representative off the label sets."""
        chain = self.picture_of(lp.partition).chain
        return self.make_class(chain, rep_from_labels(self, chain, dict(lp.labels)))

    def picture_of(self, pi: setpart.SetPartition) -> ChainPicture:
        """The cache entry of the chain whose nabla is pi."""
        return self.chain_picture(self._nabla_index()[pi])

    def _nabla_index(self) -> dict:
        if self._nabla_inv is None:
            self._nabla_inv = {self.chain_picture(ch).pi: ch for ch in self.chains}
        return self._nabla_inv

    def to_classical(self, chain: tuple, reps) -> list[tuple[int, ...]]:
        """Type A: the k-parking sequence of each class over chain, its
        coset minimum r given by element index as blocks() lists it:
        a_{r(x)} = min(b) for each x in the first-entry block under a block
        b of nabla(chain)."""
        if self.spec.family != "A":
            raise ValueError("to_classical is a type A operation")
        least = [0] * self.spec.param
        for b, src in self.chain_picture(chain).block_map.items():
            for x in src:
                least[x - 1] = b[0]
        out = []
        seq = [0] * len(least)
        for r in reps:
            for a, t in zip(least, self._elements[r].images):
                seq[t - 1] = a
            out.append(tuple(seq))
        return out

    # -- serialization --------------------------------------------------------

    def class_record(self, p: ParkClass) -> dict:
        return {"chain": list(self.chain_picture(p.chain).record), "rep": self.rep_record(p.rep)}

    def rep_record(self, w) -> list:
        """The rep field of class_record: the images, or the I2 element's
        kind and exponent."""
        if self.spec.family == "I2":
            return ["reflection" if w.refl else "rotation", w.j]
        return list(w.images)


def build_park(spec: GroupSpec, k: int) -> ParkSpace:
    return ParkSpace(spec, k)


def rep_from_labels(space: ParkSpace, chain: tuple, labels: dict):
    """Some group element sending each first-flat block to its label set,
    where labels maps each block of nabla(chain) to its label set."""
    if space.spec.family not in ("A", "B"):
        raise ValueError("labeled pictures exist for types A and B only")
    img = [0] * space.spec.param
    for b, src in space.chain_picture(chain).block_map.items():
        lab = sorted(labels[b])
        if frozenset(src) == frozenset(-x for x in src):
            # type B zero block: send positive members to one label per +- pair
            for s, t in zip([x for x in src if x > 0], sorted({abs(t) for t in lab})):
                img[s - 1] = t
        else:
            # ascending-to-ascending (src is sorted) is mirror consistent
            # across the type B pair -B
            for s, t in zip(src, lab):
                if s > 0:
                    img[s - 1] = t
                else:
                    img[-s - 1] = -t
    return SignedPerm(tuple(img))


# ---------------------------------------------------------------------------
# classical k-parking functions (type A)


def is_classical_park(seq, n: int, k: int) -> bool:
    """Nondecreasing rearrangement b satisfies b_i <= k(i-1) + 1."""
    if len(seq) != n or any(a < 1 for a in seq):
        return False
    b = sorted(seq)
    return all(b[i] <= k * i + 1 for i in range(n))


def enumerate_classical(n: int, k: int) -> set[tuple[int, ...]]:
    """Every classical k-parking function of length n: the distinct
    rearrangements of each nondecreasing sequence is_classical_park
    accepts, made by stepping through them in lexicographic order."""
    out = set()
    for b in itertools.combinations_with_replacement(range(1, k * (n - 1) + 2), n):
        if not is_classical_park(b, n, k):
            continue
        a = list(b)
        while True:
            out.add(tuple(a))
            # the next rearrangement: raise the last ascent's head to the
            # least larger value after it, and sort the tail ascending
            i = n - 2
            while i >= 0 and a[i] >= a[i + 1]:
                i -= 1
            if i < 0:
                break
            j = n - 1
            while a[j] <= a[i]:
                j -= 1
            a[i], a[j] = a[j], a[i]
            a[i + 1 :] = reversed(a[i + 1 :])
    return out
