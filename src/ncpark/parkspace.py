"""The Fuss noncrossing parking space as an explicit permutation set.

Classes are pairs [w, chain] where the chain is a multichain in NC(W) and
w is reduced to the lexicographically minimal representative of its coset
modulo the isotropy group of the first flat.  Both group actions, as
permutation tables of class positions, the fixed-point characters and the
classical type A models live here.
"""

import itertools
from array import array
from functools import cached_property

from .reflgroup import Cosets, DihedralCosets, GroupSpec, SignedPerm, Value, group, set_field, table_cycles
from . import ncw, setpart


class ParkClass(Value):
    """[w, X_1 <= ... <= X_k], stored by the NC multichain below the flats."""

    __slots__ = _fields = ("chain", "rep")

    def __init__(self, chain: tuple, rep):
        set_field(self, "chain", chain)
        set_field(self, "rep", rep)

    def __repr__(self):
        return f"ParkClass(rep={self.rep!r}, chain={self.chain!r})"


# 2^31 where a C int is 4 bytes: positions below it fit an array('i')
INT_LIMIT = 1 << 8 * array("i").itemsize - 1


def typecode(size: int) -> str:
    """The one typecode of an array of positions in [0, size), or -1: the
    4-byte 'i' when size < INT_LIMIT, else the 8-byte 'q'."""
    return "i" if size < INT_LIMIT else "q"


class ChainPicture:
    """What a class takes from its chain alone: the per-chain record.

    Holds the chain, start, the position in classes() where its chain's
    block begins, and, each from first use on, its entries as set
    partitions (types A, B, D) and as class_record writes them, both read
    off the per-element maps of NC(W), pi = nabla of the chain (on +-[kn]
    in type B), the map from blocks of pi to blocks of the first entry,
    and the openers of pi (type B).
    """

    def __init__(self, chain: tuple, nc: ncw.NCPoset, start: int):
        self.chain = chain
        self.nc = nc
        self.start = start

    @cached_property
    def parts(self) -> tuple[setpart.SetPartition, ...]:
        return tuple(map(self.nc.part_of.__getitem__, self.chain))

    @cached_property
    def record(self) -> tuple[str, ...]:
        """The chain field of class_record: the model's flat literals."""
        return tuple(map(self.nc.literal_of.__getitem__, self.chain))

    @cached_property
    def pi(self) -> setpart.SetPartition:
        """nabla of the chain; in type B the entries of NC(W) are centrally
        symmetric, so pi must be too."""
        pi = setpart.nabla(self.parts)
        if pi.signed and not pi.is_centrally_symmetric():
            raise RuntimeError(f"central symmetry lost under nabla: {pi!r}")
        return pi

    @cached_property
    def block_map(self) -> dict:
        return setpart.nabla_block_map(self.pi, self.parts[0], len(self.chain))

    @cached_property
    def openers(self) -> dict:
        return setpart.openers(self.pi)


class ParkSpace:
    """Park^NC for one (group, k): its classes by position, with one coset
    record per first flat and one record per chain, and its action
    tables."""

    def __init__(self, spec: GroupSpec, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.spec = spec
        self.k = k
        self.group = group(spec.family, spec.param)
        self.nc = ncw.build_nc(self.group)
        self.c = self.nc.c
        self.chains = self.nc.multichains(k)
        self.size = spec.park_size(k)  # the classes
        self._cosets: dict = {}
        self._classes = None

    # -- canonicalization ----------------------------------------------------

    def cosets(self, u) -> Cosets | DihedralCosets:
        """The coset record of the flat of u, an element of NC(W) that heads
        a chain; made once per element."""
        rec = self._cosets.get(u)
        if rec is None:
            rec = self._cosets[u] = self.group.cosets(self.nc.flat_of[u])
        return rec

    def blocks(self):
        """Each chain with the element indices of its coset minima, in
        classes() order.  Classes sort by (chain, rep), so every chain owns
        one contiguous block, in the lexicographic order of multichains(),
        listing the coset minima of its first flat, ascending."""
        for ch in self.chains:
            yield ch, self.cosets(ch[0]).minima

    @cached_property
    def pictures(self) -> dict[tuple, ChainPicture]:
        """The record of each chain, in chain order; each holds where its
        chain's block starts in classes()."""
        out, start = {}, 0
        for ch, reps in self.blocks():
            out[ch] = ChainPicture(ch, self.nc, start)
            start += len(reps)
        return out

    def make_class(self, chain: tuple, w) -> ParkClass:
        rec = self.cosets(chain[0])
        return ParkClass(chain, self.group.elements()[rec.minima[rec.positions[rec.key(w)]]])

    def index(self, chain: tuple, w) -> int:
        """The position in classes() of the class [w, chain]."""
        rec = self.cosets(chain[0])
        return self.pictures[chain].start + rec.positions[rec.key(w)]

    def classes(self) -> list[ParkClass]:
        if self._classes is None:
            els = self.group.elements()
            self._classes = [ParkClass(ch, els[r]) for ch, reps in self.blocks() for r in reps]
        return self._classes

    def record_at(self, i: int) -> dict:
        """class_record of the class at position i, read off its chain
        block: classes() is never listed."""
        for ch, reps in self.blocks():
            if i < len(reps):
                return self.class_record(ParkClass(ch, self.group.elements()[reps[i]]))
            i -= len(reps)
        raise IndexError(i)

    # -- action tables and characters -----------------------------------------

    def g_table(self) -> array:
        """Permutation of class indices induced by the cyclic generator, as
        an array of typecode(size).

        The class [r, ch] goes to [r t^-1, g ch], with t = c u_k^-1 as in
        ncw.g_act_chain and g ch read off ncw.chain_g_table.  The first
        flat of g ch is t X_1, and the coset record of X_1 keys each r t^-1
        there (right_keys).  A chain block's map depends on (u_1, u_k)
        only, and is made once for each pair."""
        chains = self.chains
        gtab = ncw.chain_g_table(self.nc, chains)
        starts = [pic.start for pic in self.pictures.values()]
        c_inv = self.c.inverse()
        perms: dict = {}
        out = array(typecode(self.size))
        for ch, gi in zip(chains, gtab):
            perm = perms.get((ch[0], ch[-1]))
            if perm is None:
                rec, target = self.cosets(ch[0]), self.cosets(chains[gi][0])
                keys = rec.right_keys(ch[-1] * c_inv, target)
                perm = perms[ch[0], ch[-1]] = list(map(target.positions.__getitem__, keys))
            off = starts[gi]
            out.fromlist([off + x for x in perm])
        return out

    def w_table(self, v) -> array:
        """Permutation of class indices induced by v, as an array of
        typecode(size).  The chain stays, and each first flat's coset
        permutation is read off the keys of v r (left_keys)."""
        perms: dict = {}
        out = array(typecode(self.size))
        for ch, pic in self.pictures.items():
            perm = perms.get(ch[0])
            if perm is None:
                rec = self.cosets(ch[0])
                perm = perms[ch[0]] = list(map(rec.positions.__getitem__, rec.left_keys(v)))
            out.fromlist([pic.start + x for x in perm])
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
        such pair, keyed by (u_1, y_d), by the model's coset_classes,
        which counts it in A, B and D by the cycle index of a wreath
        product, listing no element of W_X1 (in I2, W_X1 has at most 2m).
        So the work is bounded by the chains and the classes.  The division
        is exact; a remainder is an internal error."""
        grp, chains = self.group, self.chains
        kh = self.k * self.spec.coxeter_number
        sizes, order = grp.class_sizes(), self.spec.order
        gtab = ncw.chain_g_table(self.nc, chains)
        c_inv = self.c.inverse()
        counts = [[0] * kh for _ in sizes]
        histograms: dict = {}
        for cycle in table_cycles(gtab):
            length, u = len(cycle), chains[cycle[0]][0]
            y = y_len = grp.identity()
            if length < kh:  # else d = 0 alone reads the cycle, with y_0 = 1
                for i in cycle:
                    y_len = y_len * (chains[i][-1] * c_inv)
            for d in range(0, kh, length):
                hist = histograms.get((u, y))
                if hist is None:
                    hist = histograms[u, y] = grp.coset_classes(self.nc.flat_of[u], y)
                members = sum(hist.values())
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

    def verify_weak(self) -> list[dict]:
        """Fixed counts against (kh+1)^mult for one element per conjugacy
        class and every power of the cyclic generator.  A failing row
        carries the multiplicity of omega^d in v as its witness.  Each v's
        spectrum is read once, for every d."""
        kh = self.k * self.spec.coxeter_number
        rows = []
        for v, counts in zip(self.group.conjugacy_class_reps(), self.burnside_counts()):
            for d, (count, mult) in enumerate(zip(counts, self.group.spectrum(v, kh))):
                expected = (kh + 1) ** mult
                row = {"v": repr(v), "d": d, "fixed": count, "expected": expected, "pass": count == expected}
                if count != expected:
                    row["witness"] = {"multiplicity": mult}
                rows.append(row)
        return rows

    # -- labeled pictures and type A models ---------------------------------------

    def labeled_pair(self, p: ParkClass) -> setpart.LabeledPartition:
        """The block-labeled k-divisible disc picture of a class (types A, B):
        each block of nabla(chain) is labeled by the image under the
        representative of the first-entry block it restricts to.  No
        command calls it: the test oracles read this route, and the
        benchmark's tracer names it."""
        if self.spec.family not in ("A", "B"):
            raise ValueError(f"no labeled disc picture for family {self.spec.family}")
        pic = self.pictures[p.chain]
        labels = {b: tuple(p.rep(x) for x in src) for b, src in pic.block_map.items()}
        return setpart.LabeledPartition.of(pic.pi, labels)

    def from_labeled_pair(self, lp: setpart.LabeledPartition) -> ParkClass:
        """Inverse of labeled_pair: invert nabla for the chain, then read a
        representative off the label sets."""
        chain = self.picture_of(lp.partition).chain
        return self.make_class(chain, rep_from_labels(self, chain, dict(lp.labels)))

    def picture_of(self, pi: setpart.SetPartition) -> ChainPicture:
        """The record of the chain whose nabla is pi."""
        return self._nabla_index[pi]

    @cached_property
    def _nabla_index(self) -> dict:
        return {pic.pi: pic for pic in self.pictures.values()}

    def to_classical(self, chain: tuple, reps) -> list[tuple[int, ...]]:
        """Type A: the k-parking sequence of each class over chain, its
        coset minimum r given by element index as blocks() lists it:
        a_{r(x)} = min(b) for each x in the first-entry block under a block
        b of nabla(chain)."""
        if self.spec.family != "A":
            raise ValueError("to_classical is a type A operation")
        least = [0] * self.spec.param
        for b, src in self.pictures[chain].block_map.items():
            for x in src:
                least[x - 1] = b[0]
        out = []
        seq = [0] * len(least)
        for r in reps:
            for a, t in zip(least, self.group.elements()[r].images):
                seq[t - 1] = a
            out.append(tuple(seq))
        return out

    # -- serialization --------------------------------------------------------

    def class_record(self, p: ParkClass) -> dict:
        return {"chain": list(self.pictures[p.chain].record), "rep": self.group.rep_record(p.rep)}


def build_park(spec: GroupSpec, k: int) -> ParkSpace:
    return ParkSpace(spec, k)


def rep_from_labels(space: ParkSpace, chain: tuple, labels: dict):
    """Some group element sending each first-flat block to its label set,
    where labels maps each block of nabla(chain) to its label set."""
    if space.spec.family not in ("A", "B"):
        raise ValueError("labeled pictures exist for types A and B only")
    img = [0] * space.spec.param
    for b, src in space.pictures[chain].block_map.items():
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
