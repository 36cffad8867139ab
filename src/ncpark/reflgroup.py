"""Concrete finite reflection groups of types A, B/C, D and I2(m).

Elements are exact value objects (see Value): signed permutations for the
infinite families, symbolic rotation/reflection pairs for the dihedral
groups.  Eigenvalue multiplicities are counted by integer divisibility
rules, so every character count in the package is integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

FAMILIES = ("A", "B", "D", "I2")


class ConfigError(ValueError):
    """Bad input: a group, flag or path the caller must change.  Other
    ValueErrors are internal faults."""


# ---------------------------------------------------------------------------
# value objects

# sets a field from __init__, past Value's guard
set_field = object.__setattr__


def _compare(op):
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(self._key(self), other._key(other))
        return NotImplemented

    return method


class Value:
    """An immutable record of the fields named in _fields.

    Equality, order and hash are those of the tuple of the fields, and an
    object compares only against its own class: against any other, == is
    False and < raises TypeError.  repr is Class(field=value, ...).  A
    subclass sets its fields in __init__ through set_field and keeps them in
    __slots__ (or in a __dict__, when it declares no __slots__); assigning
    a field afterwards raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = operator.attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    __eq__ = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)


# ---------------------------------------------------------------------------
# group elements


class SignedPerm(Value):
    """A permutation w of +-[n] with w(-i) = -w(i), stored as (w(1),...,w(n)).

    Plain (type A) permutations are the special case with all images
    positive.  Ordering is lexicographic on the image vector, which makes
    canonical coset representatives deterministic.  The hot element: its
    comparisons and hash read images directly.
    """

    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        set_field(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.images < other.images
        return NotImplemented

    def __hash__(self):
        return hash((self.images,))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        # function composition: (u*v)(i) = u(v(i))
        u = self.images
        return SignedPerm(tuple([u[j - 1] if j > 0 else -u[-j - 1] for j in other.images]))

    def inverse(self) -> "SignedPerm":
        img = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            if j > 0:
                img[j - 1] = i
            else:
                img[-j - 1] = -i
        return SignedPerm(tuple(img))

    def is_positive(self) -> bool:
        return all(j > 0 for j in self.images)

    def neg_count(self) -> int:
        return sum(1 for j in self.images if j < 0)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of w acting on +-[n] (on [n] when w is unsigned).

        Signed permutations yield the full decomposition on +-[n]; each
        cycle starts at its element of smallest absolute value (positive
        preferred), and cycles are sorted by that starting element.
        """
        if self.is_positive():
            ground = range(1, self.n + 1)
        else:
            ground = [x for i in range(1, self.n + 1) for x in (i, -i)]
        seen: set[int] = set()
        out = []
        for start in ground:
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    def signed_cycle_pairs(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Split the cycle decomposition on +-[n] into (balanced, paired).

        Balanced cycles have support S = -S; paired cycles come in +-
        mirror pairs, of which only the representative containing the
        smaller absolute value is returned.
        """
        balanced, paired = [], []
        seen: set[frozenset] = set()
        # an unsigned w yields only its cycles on [n]; their mirrors, the
        # rest of the decomposition on +-[n], would be skipped below anyway
        for cyc in self.cycles():
            supp = frozenset(cyc)
            if supp in seen:
                continue
            if supp == frozenset(-x for x in supp):
                balanced.append(cyc)
                seen.add(supp)
            else:
                paired.append(cyc)
                seen.add(supp)
                seen.add(frozenset(-x for x in supp))
        return balanced, paired

    def __repr__(self):
        return f"SignedPerm{self.images}"


def identity_perm(n: int) -> SignedPerm:
    return SignedPerm(tuple(range(1, n + 1)))


def perm_from_cycles(n: int, *cycles: tuple[int, ...]) -> SignedPerm:
    """Build a plain permutation of [n] from disjoint cycles."""
    img = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b
    return SignedPerm(tuple(img))


def paired_cycle(n: int, cyc: tuple[int, ...]) -> SignedPerm:
    """Signed permutation ((c1,...,cl)) with mirror cycle (-c1,...,-cl)."""
    img = list(range(1, n + 1))

    def set_image(a, b):
        if a > 0:
            img[a - 1] = b
        else:
            img[-a - 1] = -b

    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        set_image(a, b)
        set_image(-a, -b)
    return SignedPerm(tuple(img))


def balanced_cycle(n: int, cyc: tuple[int, ...]) -> SignedPerm:
    """Signed permutation [c1,...,cl] = (c1,...,cl,-c1,...,-cl)."""
    full = tuple(cyc) + tuple(-c for c in cyc)
    img = list(range(1, n + 1))
    for a, b in zip(full, full[1:] + full[:1]):
        if a > 0:
            img[a - 1] = b
        else:
            img[-a - 1] = -b
    return SignedPerm(tuple(img))


class DihedralElement(Value):
    """Element of I2(m): rotation c^j, or reflection c^j s in normal form."""

    __slots__ = _fields = ("m", "refl", "j")

    def __init__(self, m: int, refl: bool, j: int):
        set_field(self, "m", m)
        set_field(self, "refl", refl)
        set_field(self, "j", j)

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        m = self.m
        if not self.refl:
            return DihedralElement(m, other.refl, (self.j + other.j) % m)
        return DihedralElement(m, not other.refl, (self.j - other.j) % m)

    def inverse(self) -> "DihedralElement":
        if self.refl:
            return self
        return DihedralElement(self.m, False, (-self.j) % self.m)

    def __repr__(self):
        return f"I2({self.m}):{'c^%d s' % self.j if self.refl else 'c^%d' % self.j}"


# ---------------------------------------------------------------------------
# group specification


class GroupSpec(Value):
    """Which group: family in {A, B, D, I2} plus its index parameter.

    GroupSpec("A", n) is A_{n-1} acting on +-free permutations of [n];
    GroupSpec("B", n) is B_n = C_n; GroupSpec("D", n) needs n >= 3;
    GroupSpec("I2", m) needs m >= 3.
    """

    __slots__ = _fields = ("family", "param")

    def __init__(self, family: str, param: int):
        set_field(self, "family", family)
        set_field(self, "param", param)
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}")
        # in the CLI's terms: the Coxeter rank, or m for I2
        name, given = ("m", self.param) if self.family == "I2" else ("rank", self.rank)
        least = {"A": 1, "B": 1, "D": 3, "I2": 3}[self.family]
        if given < least:
            raise ConfigError(f"type {self.family} needs {name} >= {least}, got {given}")

    @property
    def rank(self) -> int:
        if self.family == "A":
            return self.param - 1
        if self.family == "I2":
            return 2
        return self.param

    @property
    def coxeter_number(self) -> int:
        f, p = self.family, self.param
        if f == "A":
            return p
        if f == "B":
            return 2 * p
        if f == "D":
            return 2 * p - 2
        return p

    @property
    def degrees(self) -> tuple[int, ...]:
        f, p = self.family, self.param
        if f == "A":
            return tuple(range(2, p + 1))
        if f == "B":
            return tuple(range(2, 2 * p + 1, 2))
        if f == "D":
            return tuple(range(2, 2 * p - 1, 2)) + (p,)
        return (2, p)

    def fuss_catalan(self, k: int) -> int:
        """Cat^(k)(W) = prod (kh + d_i) / d_i, exactly: the number of
        k-multichains of NC(W)."""
        num = den = 1
        for d in self.degrees:
            num *= k * self.coxeter_number + d
            den *= d
        return num // den

    @property
    def order(self) -> int:
        f, p = self.family, self.param
        if f == "A":
            return math.factorial(p)
        if f == "B":
            return math.factorial(p) * 2**p
        if f == "D":
            return math.factorial(p) * 2 ** (p - 1)
        return 2 * p

    def __str__(self):
        if self.family == "A":
            return f"A{self.param - 1}"
        if self.family == "I2":
            return f"I2({self.param})"
        return f"{self.family}{self.param}"


# ---------------------------------------------------------------------------
# flats


class FlatPartition(Value):
    """A flat of the reflection arrangement, in coordinate-equality form.

    Types A/B/D store the set partition of [n] resp. +-[n] (blocks as
    sorted tuples, sorted lexicographically).  I2(m) flats are symbolic:
    kind "plane", "origin", or ("line", j) where line j is the mirror of
    the reflection c^j s.
    """

    __slots__ = _fields = ("family", "n", "blocks", "kind", "line")

    def __init__(self, family: str, n: int, blocks: tuple = (), kind: str = "", line: int = -1):
        set_field(self, "family", family)
        set_field(self, "n", n)
        set_field(self, "blocks", blocks)
        set_field(self, "kind", kind)
        set_field(self, "line", line)

    @property
    def dim(self) -> int:
        if self.family == "A":
            return len(self.blocks) - 1
        if self.family == "I2":
            return {"plane": 2, "line": 1, "origin": 0}[self.kind]
        pairs = 0
        for b in self.blocks:
            if frozenset(b) != frozenset(-x for x in b):
                pairs += 1
        return pairs // 2

    def __repr__(self):
        if self.family == "I2":
            tag = self.kind if self.kind != "line" else f"line{self.line}"
            return f"Flat[I2({self.n}):{tag}]"
        body = "/".join(",".join(str(x) for x in b) for b in self.blocks)
        return f"Flat[{self.family}:{body}]"


def zero_block(blocks) -> tuple[int, ...] | None:
    """The block B with B = -B, if any."""
    for b in blocks:
        if frozenset(b) == frozenset(-x for x in b):
            return b
    return None


def canonical_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partition_refines(p: tuple[tuple[int, ...], ...], q: tuple[tuple[int, ...], ...]) -> bool:
    """True when every block of p lies inside a block of q."""
    where = {}
    for idx, b in enumerate(q):
        for x in b:
            where[x] = idx
    return all(len({where[x] for x in b}) == 1 for b in p)


# ---------------------------------------------------------------------------
# the group object


class ReflectionGroup:
    """Concrete group for a GroupSpec, with cached desk-scale enumerations."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._elements = None
        self._index = None
        self._right: dict = {}
        self._reflections = None
        self._conj_reps = None
        self._class_ids = None

    # -- basics ------------------------------------------------------------

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def coxeter_number(self) -> int:
        return self.spec.coxeter_number

    def identity(self):
        if self.family == "I2":
            return DihedralElement(self.spec.param, False, 0)
        return identity_perm(self.spec.param)

    def coxeter_element(self):
        """The distinguished Coxeter element of the family."""
        f, p = self.family, self.spec.param
        if f == "A":
            return perm_from_cycles(p, tuple(range(1, p + 1)))
        if f == "B":
            return balanced_cycle(p, tuple(range(1, p + 1)))
        if f == "D":
            return balanced_cycle(p, tuple(range(1, p))) * balanced_cycle(p, (p,))
        return DihedralElement(p, False, 1)

    def elements(self) -> list:
        if self._elements is None:
            f, p = self.family, self.spec.param
            if f == "I2":
                els = [DihedralElement(p, r, j) for r in (False, True) for j in range(p)]
            elif f == "A":
                els = [SignedPerm(im) for im in itertools.permutations(range(1, p + 1))]
            else:
                els = []
                for base in itertools.permutations(range(1, p + 1)):
                    for signs in itertools.product((1, -1), repeat=p):
                        if f == "D" and signs.count(-1) % 2 == 1:
                            continue
                        els.append(SignedPerm(tuple(s * b for s, b in zip(signs, base))))
            self._elements = sorted(els)
        return self._elements

    def index(self) -> dict:
        """The position of each element in elements()."""
        if self._index is None:
            self._index = {w: i for i, w in enumerate(self.elements())}
        return self._index

    def right_table(self, t) -> list[int]:
        """index()[w * t] for every element w, kept per t."""
        table = self._right.get(t)
        if table is None:
            idx = self.index()
            table = self._right[t] = [idx[w * t] for w in self.elements()]
        return table

    def reflections(self) -> list:
        if self._reflections is None:
            f, p = self.family, self.spec.param
            if f == "I2":
                refls = [DihedralElement(p, True, j) for j in range(p)]
            elif f == "A":
                refls = [perm_from_cycles(p, (i, j)) for i in range(1, p) for j in range(i + 1, p + 1)]
            else:
                refls = [paired_cycle(p, (i, j)) for i in range(1, p) for j in range(i + 1, p + 1)]
                refls += [paired_cycle(p, (i, -j)) for i in range(1, p) for j in range(i + 1, p + 1)]
                if f == "B":
                    refls += [balanced_cycle(p, (i,)) for i in range(1, p + 1)]
            self._reflections = sorted(refls)
        return self._reflections

    # -- flats and lengths ---------------------------------------------------

    def fixed_flat(self, w) -> FlatPartition:
        """The flat V^w as a coordinate-equality partition (or I2 tag)."""
        f, p = self.family, self.spec.param
        if f == "I2":
            if not w.refl:
                kind = "plane" if w.j == 0 else "origin"
                return FlatPartition("I2", p, kind=kind)
            return FlatPartition("I2", p, kind="line", line=w.j)
        if f == "A":
            return FlatPartition("A", p, blocks=canonical_blocks(w.cycles()))
        balanced, paired = w.signed_cycle_pairs()
        blocks = []
        zero: list[int] = []
        for cyc in balanced:
            zero.extend(cyc)
        if zero:
            blocks.append(tuple(zero))
        for cyc in paired:
            blocks.append(cyc)
            blocks.append(tuple(-x for x in cyc))
        return FlatPartition(f, p, blocks=canonical_blocks(blocks))

    def isotropy_elements(self, x: FlatPartition) -> list:
        """All of W_x, generated blockwise (no full group scan needed)."""
        f, p = self.family, self.spec.param
        if f == "I2":
            if x.kind == "plane":
                return [self.identity()]
            if x.kind == "line":
                return sorted([self.identity(), DihedralElement(p, True, x.line)])
            return self.elements()
        # a type A flat has no zero block, and every block counts as a positive pair
        zero = zero_block(x.blocks) or ()
        pos_pairs = [b for b in x.blocks if b != zero and min(abs(t) for t in b) in b]
        out = [identity_perm(p)]
        for b in pos_pairs:
            new = []
            for w in out:
                for imgs in itertools.permutations(b):
                    im = list(w.images)
                    for src, dst in zip(b, imgs):
                        if src > 0:
                            im[src - 1] = dst
                        else:
                            im[-src - 1] = -dst
                    new.append(SignedPerm(tuple(im)))
            out = new
        if zero:
            zpos = [t for t in zero if t > 0]
            new = []
            for w in out:
                for imgs in itertools.permutations(zpos):
                    for signs in itertools.product((1, -1), repeat=len(zpos)):
                        im = list(w.images)
                        for src, dst, s in zip(zpos, imgs, signs):
                            im[src - 1] = s * dst
                        new.append(SignedPerm(tuple(im)))
            out = new
        if f == "D":
            out = [w for w in out if w.neg_count() % 2 == 0]
        return sorted(set(out))

    def isotropy_generators(self, x: FlatPartition) -> list:
        """Reflections that generate W_x: for each +- pair of nonzero blocks,
        the transpositions of consecutive members (sorted by |i|); for the
        zero block z1 < z2 < ..., the same plus the sign change of z1 (type
        B) or the swap of z1 and -z2 (type D).  In I2: the line's
        reflection, two adjacent reflections for the origin, none for the
        plane."""
        f, p = self.family, self.spec.param
        if f == "I2":
            if x.kind == "line":
                return [DihedralElement(p, True, x.line)]
            if x.kind == "origin":
                return [DihedralElement(p, True, 0), DihedralElement(p, True, 1)]
            return []
        zero = zero_block(x.blocks) or ()
        gens = []
        for b in x.blocks:
            if b != zero and min(abs(t) for t in b) in b:
                slots = sorted(b, key=abs)
                gens += [paired_cycle(p, pair) for pair in zip(slots, slots[1:])]
        if zero:
            zpos = sorted(t for t in zero if t > 0)
            gens += [paired_cycle(p, pair) for pair in zip(zpos, zpos[1:])]
            if f == "B":
                gens.append(balanced_cycle(p, (zpos[0],)))
            elif len(zpos) > 1:
                gens.append(paired_cycle(p, (zpos[0], -zpos[1])))
        return gens

    # -- spectra -------------------------------------------------------------

    def eigenvalue_multiplicity(self, w, d: int, order: int) -> int:
        """Multiplicity of e^{2 pi i d/order} in the spectrum of w on V.

        A cycle of length L on [n] (or a paired cycle on +-[n]) has the L-th
        roots of unity as eigenvalues, so it holds this one when order
        divides d*L; a balanced cycle of length 2l has the odd powers of
        the primitive 2l-th root, so it holds it when 2ld/order is an odd
        integer.  Type A drops the trivial line, where all coordinates are
        equal.  An I2(m) reflection has eigenvalues 1 and -1, a rotation
        by j has e^{+-2 pi i j/m}."""
        if not 0 <= d < order:
            raise ValueError(f"d = {d} outside [0, {order})")
        f = self.family
        if f == "I2":
            m = self.spec.param
            if w.refl:
                return (d == 0) + (2 * d == order)
            return (w.j * order == d * m) + ((-w.j) % m * order == d * m)
        if f == "A":
            return sum(1 for cyc in w.cycles() if d * len(cyc) % order == 0) - (d == 0)
        balanced, paired = w.signed_cycle_pairs()
        count = sum(1 for cyc in paired if d * len(cyc) % order == 0)
        for cyc in balanced:
            odd, rem = divmod(len(cyc) * d, order)
            count += rem == 0 and odd % 2 == 1
        return count

    # -- conjugacy ------------------------------------------------------------

    def conjugacy_class_reps(self) -> list:
        """The least element of each conjugacy class, ascending: the orbits
        of conjugation, w -> s w s, by reflections s that generate the
        isotropy group of the origin V^c, which is W."""
        if self._conj_reps is None:
            els, idx = self.elements(), self.index()
            gens = self.isotropy_generators(self.fixed_flat(self.coxeter_element()))
            reps, self._class_ids = orbits(len(els), [[idx[s * w * s] for w in els] for s in gens])
            self._conj_reps = [els[i] for i in reps]
        return self._conj_reps

    def class_ids(self) -> list[int]:
        """The position in conjugacy_class_reps() of each element's class,
        by element index."""
        self.conjugacy_class_reps()
        return self._class_ids

    def class_sizes(self) -> list[int]:
        """|Cl(v)| for each v in conjugacy_class_reps()."""
        sizes = [0] * len(self.conjugacy_class_reps())
        for c in self.class_ids():
            sizes[c] += 1
        return sizes


def orbits(size: int, tables) -> tuple[list[int], list[int]]:
    """(reps, arr) for the orbits on range(size) of the group generated by
    the permutation tables: reps holds the least index of each orbit,
    ascending, and arr[i] is the position in reps of i's orbit.

    Each orbit is walked from its first index through the tables; walking
    the indices in order meets every orbit first at its minimum."""
    arr = [-1] * size
    reps: list[int] = []
    for i in range(size):
        if arr[i] < 0:
            pos = len(reps)
            reps.append(i)
            arr[i] = pos
            orbit = [i]
            for j in orbit:
                for tab in tables:
                    x = tab[j]
                    if arr[x] < 0:
                        arr[x] = pos
                        orbit.append(x)
    return reps, arr


def table_cycles(table) -> list[list[int]]:
    """The cycles of a permutation table on range(len(table)), each walked
    forward from its least index, in the order of those indices."""
    seen = bytearray(len(table))
    out = []
    for first in range(len(table)):
        cycle, i = [], first
        while not seen[i]:
            seen[i] = 1
            cycle.append(i)
            i = table[i]
        if cycle:
            out.append(cycle)
    return out


@lru_cache(maxsize=None)
def group(family: str, param: int) -> ReflectionGroup:
    return ReflectionGroup(GroupSpec(family, param))
