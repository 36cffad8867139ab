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
        return SignedPerm(compose(self.images, other.images))

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

    def __repr__(self):
        return f"SignedPerm{self.images}"


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The images of u*v, function composition (u*v)(i) = u(v(i)), from
    the images of u and of v."""
    return tuple([u[j - 1] if j > 0 else -u[-j - 1] for j in v])


def signed_cycles(images: tuple[int, ...]):
    """(orbit, sign) for each cycle of |w| on [n], w the signed permutation
    with these images: orbit is w^0(x), ..., w^(L-1)(x) for the least
    member x of the cycle, of length L, and sign is that of w^L(x) = +-x,
    the product of the signs of the cycle's images."""
    for cycle in table_cycles([abs(t) - 1 for t in images]):
        orbit, sign = [], 1
        for j in cycle:
            orbit.append(sign * (j + 1))
            if images[j] < 0:
                sign = -sign
        yield orbit, sign


def signed_cycle_type(images: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(positive, negative, parity) for the signed permutation w with these
    images: the ascending lengths of the cycles of |w| whose sign is + or
    -, and the parity of the number of negative entries in their orbits.

    The two lists are the conjugacy class in B_n (Carter).  When every
    cycle is positive, the sign change of each negative entry conjugates w
    to a plain permutation, so the parity is that of the sign changes in
    such a conjugator."""
    pos, neg, parity = [], [], 0
    for orbit, sign in signed_cycles(images):
        (pos if sign > 0 else neg).append(len(orbit))
        parity ^= sum(x < 0 for x in orbit) % 2
    pos.sort()
    neg.sort()
    return tuple(pos), tuple(neg), parity


def partitions(n: int, least: int = 1):
    """The partitions of n into parts >= least, as ascending tuples."""
    if n == 0:
        yield ()
    for first in range(least, n // 2 + 1):
        for rest in partitions(n - first, first):
            yield (first,) + rest
    if n >= least:
        yield (n,)


@lru_cache(maxsize=None)
def _joins(paths: tuple[int, ...], cycles: tuple[int, ...]) -> bool:
    """Whether open paths of these lengths (descending) join into cycles of
    these lengths (ascending), each cycle one or more whole paths."""
    if not paths:
        return not cycles
    first, rest = paths[0], paths[1:]
    for i, size in enumerate(cycles):
        if size >= first and (i == 0 or size != cycles[i - 1]):
            left = cycles[:i] + cycles[i + 1 :]
            if size > first:
                left = tuple(sorted(left + (size - first,)))
            if _joins(rest, left):
                return True
    return False


def _extends(prefix: list[int], n: int, cycles: list[tuple[int, int]]) -> bool:
    """Whether the images w(1), ..., w(i) in prefix extend to a signed
    permutation of [n] whose cycles of |w| have the (length, sign) pairs
    in cycles.  The prefix closes some cycles, which cycles must hold; the
    rest of [n] lies on open paths, each ending at a point > i, and an
    extension closes the paths into the remaining cycles, each of which
    takes its sign from a free sign on a new image."""
    step = {x: abs(v) for x, v in enumerate(prefix, 1)}
    seen = set()
    paths = []
    for x in set(range(1, n + 1)).difference(step.values()):
        seen.add(x)
        length = 1
        while x in step:
            x = step[x]
            seen.add(x)
            length += 1
        paths.append(length)
    left = list(cycles)
    for x in step:
        length, sign = 0, 1
        while x not in seen:
            seen.add(x)
            length += 1
            sign = -sign if prefix[x - 1] < 0 else sign
            x = step[x]
        if length:
            if (length, sign) not in left:
                return False
            left.remove((length, sign))
    return _joins(tuple(sorted(paths, reverse=True)), tuple(sorted(size for size, _ in left)))


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
        self._moves = None
        self._conj = None

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
                els = list(self.isotropy_elements(FlatPartition("I2", p, kind="origin")))
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
        # a vector fixed by w is constant on each orbit of w on +-[n]: the
        # orbit of a positive cycle of |w| and its mirror, or the zero block,
        # the union of the negative cycles and their mirrors
        blocks, zero = [], []
        for orbit, sign in signed_cycles(w.images):
            if sign < 0:
                zero += orbit + [-x for x in orbit]
            else:
                blocks += [orbit] if f == "A" else [orbit, [-x for x in orbit]]
        if zero:
            blocks.append(zero)
        return FlatPartition(f, p, blocks=canonical_blocks(blocks))

    def isotropy_elements(self, x: FlatPartition):
        """W_x, one element at a time, as image tuples (as elements in I2).

        W_x permutes each +- pair of nonzero blocks within itself, mirror
        consistently, and the positive members of the zero block by a
        signed permutation, with an even number of signs in D: the
        elements are the products of one such move per block, all
        distinct.  A nonzero block's move changes an even number of signs.
        """
        f, p = self.family, self.spec.param
        if f == "I2":
            if x.kind == "origin":
                yield from (DihedralElement(p, r, j) for r in (False, True) for j in range(p))
            else:
                yield self.identity()
                if x.kind == "line":
                    yield DihedralElement(p, True, x.line)
            return
        # a type A flat has no zero block, and every block counts as a positive pair
        zero = zero_block(x.blocks) or ()
        blocks = [b for b in x.blocks if b == zero or min(abs(t) for t in b) in b]
        # the moves of the largest block stream; only the others are listed
        *small, large = sorted(blocks, key=len)
        images = list(range(1, p + 1))
        for choice in itertools.product(*[self._block_moves(b, b == zero) for b in small]):
            for move in choice:
                for s, t in move:
                    images[s - 1] = t
            for move in self._block_moves(large, large == zero):
                for s, t in move:
                    images[s - 1] = t
                yield tuple(images)

    def _block_moves(self, b: tuple[int, ...], zero: bool):
        """W_x on one block b of x, as lists of (position, image): the
        permutations of b, or for the zero block the signed permutations
        of its positive members."""
        if not zero:
            for imgs in itertools.permutations(b):
                yield [(s, t) if s > 0 else (-s, -t) for s, t in zip(b, imgs)]
            return
        zpos = [t for t in b if t > 0]
        for imgs in itertools.permutations(zpos):
            for signs in itertools.product((1, -1), repeat=len(zpos)):
                if self.family == "B" or signs.count(-1) % 2 == 0:
                    yield [(s, e * t) for s, t, e in zip(zpos, imgs, signs)]

    def flat_reflections(self, x: FlatPartition) -> list:
        """The reflections whose hyperplane contains the flat x, ascending:
        in A, B and D those that send a member of a block of x into the
        same block; in I2 every reflection for the origin, the line's own
        for a line, none for the plane."""
        f, p = self.family, self.spec.param
        if f == "I2":
            if x.kind == "origin":
                return self.reflections()
            return [DihedralElement(p, True, x.line)] if x.kind == "line" else []
        block = {t: i for i, b in enumerate(x.blocks) for t in b}
        return [t for t, a, b in self._reflection_moves() if block[a] == block[b]]

    def _reflection_moves(self) -> list[tuple]:
        """(t, a, t(a)) for each reflection t, a its least moved index."""
        if self._moves is None:
            self._moves = []
            for t in self.reflections():
                a = next(i for i, v in enumerate(t.images, 1) if v != i)
                self._moves.append((t, a, t(a)))
        return self._moves

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

        A positive cycle of |w| of length L (a cycle of w on [n] in A) has
        the L-th roots of unity as eigenvalues, so it holds this one when
        order divides d*L; a negative one, of length l, has the odd powers
        of the primitive 2l-th root, so it holds it when 2ld/order is an
        odd integer.  Type A drops the trivial line, where all coordinates are
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
        pos, neg, _ = signed_cycle_type(w.images)
        count = sum(1 for L in pos if d * L % order == 0) - (f == "A" and d == 0)
        for L in neg:
            odd, rem = divmod(2 * L * d, order)
            count += rem == 0 and odd % 2 == 1
        return count

    # -- conjugacy ------------------------------------------------------------

    def _classes(self) -> tuple[list, dict, list[int]]:
        """(reps, ids, sizes) for the conjugacy classes, by rule.

        A class of A, B or D is a signed cycle type (Carter), keyed as
        signed_cycle_type gives it: in A the cycle type, in B any pair of
        positive and negative lengths, in D those with an even number of
        negative cycles.  A D class splits when every cycle is positive and
        of even length, into the halves of each parity; every other key
        reads both parities.  rep is the least element of the class, found
        by a lexicographic search over image tuples that keeps a prefix
        only while it extends into the class; the classes are ordered by
        rep.  |Cl| = |W| / |C(w)|, where each cycle of length L adds a
        factor L (A) or 2L (B, D) to |C(w)|, times m! for m cycles of the
        same length and sign; an unsplit D class is its whole B class, and
        a D half is half of it.

        In I2(m) the classes are {c^j, c^-j} and the reflections, one
        class, or two by the parity of j when m is even."""
        if self._conj is None:
            f, p = self.family, self.spec.param
            if f == "I2":
                r = 2 - p % 2  # reflection classes
                reps = [DihedralElement(p, False, j) for j in range(p // 2 + 1)]
                reps += [DihedralElement(p, True, j) for j in range(r)]
                sizes = [1 if 2 * j % p == 0 else 2 for j in range(p // 2 + 1)] + [p // r] * r
                self._conj = reps, {}, sizes
                return self._conj
            found = []
            for a in range(p + 1) if f != "A" else [p]:
                for pos in partitions(a):
                    for neg in partitions(p - a):
                        if f == "D" and len(neg) % 2:
                            continue
                        split = f == "D" and not neg and all(L % 2 == 0 for L in pos)
                        for half in (0, 1) if split else (None,):
                            found.append((self._least_in_class(pos, neg, half), pos, neg, half))
            found.sort()
            ids, sizes = {}, []
            for c, (rep, pos, neg, half) in enumerate(found):
                for parity in (0, 1) if half is None else (half,):
                    ids[pos, neg, parity] = c
                # |C(w)| in S_n or B_n; an unsplit D class is its whole B class
                centralizer = 1
                for lengths in (pos, neg):
                    for L in set(lengths):
                        m = lengths.count(L)
                        centralizer *= (L if f == "A" else 2 * L) ** m * math.factorial(m)
                sizes.append(self.spec.order * (2 if f == "D" and half is None else 1) // centralizer)
            self._conj = [rep for rep, *_ in found], ids, sizes
        return self._conj

    def _least_in_class(self, pos, neg, half) -> SignedPerm:
        """The least signed permutation with these positive and negative
        cycle lengths (and, for half 0 or 1, that parity): each image is
        the least one with which the prefix still extends; a D half backs
        out of a prefix none of whose extensions has its parity."""
        n = self.spec.param
        values = [*range(-n, 0), *range(1, n + 1)] if self.family != "A" else range(1, n + 1)
        cycles = [(L, 1) for L in pos] + [(L, -1) for L in neg]
        prefix: list[int] = []

        def search() -> bool:
            if len(prefix) == n:
                return half is None or signed_cycle_type(prefix)[2] == half
            used = {abs(v) for v in prefix}
            for v in values:
                if abs(v) not in used:
                    prefix.append(v)
                    if _extends(prefix, n, cycles) and search():
                        return True
                    prefix.pop()
            return False

        if not search():
            raise RuntimeError(f"no element of {self.spec} has signed cycle type {pos}, {neg}")
        return SignedPerm(tuple(prefix))

    def conjugacy_class_reps(self) -> list:
        """The least element of each conjugacy class, ascending."""
        return self._classes()[0]

    def class_id(self, w) -> int:
        """The position in conjugacy_class_reps() of w's class; w is an
        image tuple in A, B and D, and an element in I2."""
        if self.family == "I2":
            m = self.spec.param
            if not w.refl:
                return min(w.j, m - w.j)
            return m // 2 + 1 + (w.j % 2 if m % 2 == 0 else 0)
        return self._classes()[1][signed_cycle_type(w)]

    def class_sizes(self) -> list[int]:
        """|Cl(v)| for each v in conjugacy_class_reps()."""
        return list(self._classes()[2])


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
