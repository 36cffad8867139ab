"""Concrete finite reflection groups of types A, B/C, D and I2(m).

Elements are exact value objects (see Value): signed permutations for the
infinite families, symbolic rotation/reflection pairs for the dihedral
groups, each with its model: group() picks ReflectionGroup or
DihedralGroup, and the layers above call the methods both answer.
Eigenvalue multiplicities are counted by integer divisibility rules, so
every character count in the package is integer arithmetic.
"""

import itertools
import math
import operator
from collections import Counter
from functools import cached_property, lru_cache

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

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of w acting on +-[n] (on [n] when w is unsigned).

        Signed permutations yield the full decomposition on +-[n]; each
        cycle starts at its element of smallest absolute value (positive
        preferred), and cycles are sorted by that starting element: the
        table_cycles of w on the ground set listed in that order.
        """
        n = self.n
        ground = range(1, n + 1) if min(self.images) > 0 else [x for i in range(1, n + 1) for x in (i, -i)]
        at = {x: i for i, x in enumerate(ground)}
        return [tuple(ground[i] for i in cyc) for cyc in table_cycles([at[self(x)] for x in ground])]

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
    """The signed permutation of [n] with these disjoint cycles on +-[n],
    each a -> b also sending -a -> -b."""
    img = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a > 0:
                img[a - 1] = b
            else:
                img[-a - 1] = -b
    return SignedPerm(tuple(img))


def balanced_cycle(n: int, cyc: tuple[int, ...]) -> SignedPerm:
    """Signed permutation [c1,...,cl] = (c1,...,cl,-c1,...,-cl)."""
    return perm_from_cycles(n, tuple(cyc) + tuple(-c for c in cyc))


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

    def park_size(self, k: int) -> int:
        """(kh+1)^n, the number of classes of the k-W-parking space and of
        points of its locus."""
        return (k * self.coxeter_number + 1) ** self.rank

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
        return (len(self.blocks) - (zero_block(self.blocks) is not None)) // 2

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
# cycle types of a wreath-product coset


def _centralizer(lengths: tuple[int, ...], scale: int) -> int:
    """prod (scale L)^m m! over the distinct lengths L, m cycles of each:
    for cycles of one sign with these lengths, their factor of |C(w)| in
    S_n (scale 1) or B_n (scale 2)."""
    out = 1
    for L in set(lengths):
        m = lengths.count(L)
        out *= (scale * L) ** m * math.factorial(m)
    return out


@lru_cache(maxsize=None)
def _perm_types(b: int) -> list[tuple[tuple[int, ...], int]]:
    """(lambda, b!/z_lambda) for each cycle type lambda of S_b: the
    permutations of that type."""
    return [(lam, math.factorial(b) // _centralizer(lam, 1)) for lam in partitions(b)]


@lru_cache(maxsize=None)
def _block_cycle_types(length: int, b: int, returns: bool, negs: int) -> list[tuple[tuple, int]]:
    """The signed cycle types, counted, that W_x y^-1 takes on one cycle
    of blocks: length blocks of size b, which y^-1 carries each onto the
    next and the last onto the first (returns) or onto its negative; negs
    is the parity of the negative members of the blocks, each taken as
    y^-1 carries the first.

    The return map h y^-1 ... h y^-1 on the first block is uniform over
    S_b as h runs over W_x: each permutation, b!^(length-1) times.  A
    cycle of it of length l is a cycle of h y^-1 of length length*l.  When
    the cycle of blocks returns, that cycle is positive, and its orbit
    holds each block member once, so its parity is negs.  Else the return
    map is minus a permutation of the first block, and the cycle is
    negative when l is odd; when every l is even, the parity is negs plus
    length*b/2."""
    rest = math.factorial(b) ** (length - 1)
    out = []
    for lam, count in _perm_types(b):
        if returns:
            key = tuple(length * L for L in lam), (), negs
        else:
            pos = tuple(length * L for L in lam if L % 2 == 0)
            key = pos, tuple(length * L for L in lam if L % 2), (negs + length * (b // 2)) % 2
        out.append((key, count * rest))
    return out


@lru_cache(maxsize=None)
def _zero_block_types(family: str, m: int, odd: int) -> list[tuple[tuple, int]]:
    """The signed cycle types, counted, that W_x y^-1 takes on a zero block
    of m positive members, on which y^-1 changes odd signs mod 2: the
    signed cycle types of B_m, |B_m|/|C(w)| elements each.  In D, W_x is
    D_m there, so the coset holds those with a number of negative cycles
    of the parity of odd, and a type with every cycle positive and of even
    length splits into halves of each parity."""
    order = math.factorial(m) * 2**m
    out = []
    for a in range(m + 1):
        for pos in partitions(a):
            for neg in partitions(m - a):
                count = order // (_centralizer(pos, 2) * _centralizer(neg, 2))
                if family != "D":
                    out.append(((pos, neg, 0), count))
                elif len(neg) % 2 == odd:
                    split = not neg and all(L % 2 == 0 for L in pos)
                    out += [((pos, neg, h), count // 2) for h in (0, 1)] if split else [((pos, neg, 0), count)]
    return out


def _merged(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b)) if a and b else a or b


def wreath_cycle_types(x: FlatPartition, z: tuple[int, ...]) -> Counter:
    """The signed cycle types of the elements h z, h in W_x, counted and
    keyed as signed_cycle_type gives them, for a flat x of type A, B or D
    and the images z of a signed permutation that permutes its blocks.

    W_x permutes each block (with its negative), and the positive members
    of the zero block by B_m or D_m; so h z permutes the blocks as z does,
    and W_x z is a coset of a wreath product.  Its types are those of
    Polya's cycle index (Macdonald, Symmetric functions, I app. B): each
    cycle of blocks under z, and the zero block, takes its types
    independently (_block_cycle_types, _zero_block_types), and a type of
    h z joins one from each.  The parity, which names a split class of D,
    adds up over them.  A z that does not permute the blocks is an
    internal error."""
    block_of = {t: b for b in x.blocks for t in b}

    def image(b):
        out = [z[t - 1] if t > 0 else -z[-t - 1] for t in b]
        block = block_of[out[0]]
        if len(block) != len(b) or any(block_of[t] is not block for t in out):
            raise RuntimeError(f"{SignedPerm(z)!r} does not permute the blocks of {x!r}")
        return block

    parts, seen = [], set()
    for b in x.blocks:
        if b in seen:
            continue
        mirror = block_of.get(-b[0])  # None in A
        if mirror is b:  # the zero block
            image(b)
            parts.append(_zero_block_types(x.family, len(b) // 2, sum(z[t - 1] < 0 for t in b if t > 0) % 2))
            continue
        cycle, cur = [b], image(b)
        while cur is not b and cur is not mirror:
            cycle.append(cur)
            cur = image(cur)
        for c in cycle:
            seen.update((c, block_of.get(-c[0])))
        negs = sum(t < 0 for c in cycle for t in c) % 2
        parts.append(_block_cycle_types(len(cycle), len(b), cur is b, negs))
    types = Counter({((), (), 0): 1})
    for part in parts:
        joined = Counter()
        for (pos, neg, parity), count in types.items():
            for (p, q, h), n in part:
                joined[_merged(pos, p), _merged(neg, q), parity ^ h] += count * n
        types = joined
    return types


# ---------------------------------------------------------------------------
# coset records


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


# 0/1 flags as binary digits
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class Cosets:
    """The cosets w W_X of the isotropy group of a flat X of type A, B or
    D: the element indices of their least elements, ascending, and, each
    from first use on, the position in minima of each coset by its key,
    and the keys as columns.  bid holds signed ids of X's blocks by member
    (-j for the mirror of block j, 0 for the zero block), and key(w) is
    bid[w^-1(1)], ..., bid[w^-1(n)]: shared exactly when w^-1 w' maps
    each block onto itself, as the elements of W_X do."""

    def __init__(self, flat: FlatPartition, minima: list[int], elements: list):
        self.minima = minima
        self._elements = elements
        self.bid, j = {}, 0
        zero = zero_block(flat.blocks)
        for b in flat.blocks:
            if b == zero:
                self.bid.update(dict.fromkeys(b, 0))
            elif b[0] not in self.bid:
                j += 1
                for x in b:
                    self.bid[x], self.bid[-x] = j, -j

    def key(self, w) -> tuple[int, ...]:
        images, bid = w.images, self.bid
        key = [0] * len(images)
        for x, t in enumerate(images, 1):
            if t > 0:
                key[t - 1] = bid[x]
            else:
                key[-t - 1] = -bid[x]
        return tuple(key)

    @cached_property
    def positions(self) -> dict:
        els = self._elements
        return dict(zip((self.key(els[r]) for r in self.minima), itertools.count()))

    @cached_property
    def columns(self) -> list[tuple[int, ...]]:
        """Entry j of every key, in position order."""
        return list(zip(*self.positions))

    def right_keys(self, y, target: "Cosets"):
        """The key in target of r y for each minimum r, in order, where y^-1
        carries X onto target's flat: the key of r with each block id
        relabeled by y^-1."""
        t, bid = y.inverse(), target.bid
        relabel = {j: bid[t(x)] for x, j in self.bid.items()}.__getitem__
        return zip(*(map(relabel, col) for col in self.columns))

    def left_keys(self, v):
        """The key of v r for each minimum r, in order: entry j of it is
        entry |v^-1(j)| of r's, negated when v^-1(j) < 0."""
        cols = self.columns
        return zip(*(cols[t - 1] if t > 0 else map(operator.neg, cols[-t - 1]) for t in v.inverse().images))


class DihedralCosets:
    """The cosets w W_X of I2(m) for a flat X, by arithmetic: a coset's key
    is its position.  For the plane it is w's index in elements() (c^j at
    j, c^j s at m + j), for the origin 0; on line l each coset {w, w s_l}
    holds one rotation, the lesser, and the key is its exponent: j for c^j
    and j - l for c^j s."""

    def __init__(self, flat: FlatPartition, elements: list):
        self.flat = flat
        self.positions = range({"plane": 2 * flat.n, "line": flat.n, "origin": 1}[flat.kind])
        self.minima = list(self.positions)
        self._reps = elements[: len(self.minima)]

    def key(self, w) -> int:
        x = self.flat
        if x.kind == "line":
            return (w.j - x.line) % x.n if w.refl else w.j
        return w.refl * x.n + w.j if x.kind == "plane" else 0

    def right_keys(self, y, target: "DihedralCosets"):
        """The key in target of r y for each minimum r, in order."""
        return (target.key(r * y) for r in self._reps)

    def left_keys(self, v):
        """The key of v r for each minimum r, in order."""
        return (self.key(v * r) for r in self._reps)


# ---------------------------------------------------------------------------
# the group models


class ReflectionGroup:
    """The model of A, B and D for a GroupSpec, with cached desk-scale
    enumerations: signed permutations, coordinate-equality flats, and
    classes and cosets by rule.  DihedralGroup answers its methods for I2."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self._elements = None
        self._reflections = None
        self._masks: dict[tuple[int, int, int], int] = {}

    # -- basics ------------------------------------------------------------

    @property
    def family(self) -> str:
        return self.spec.family

    def identity(self) -> SignedPerm:
        return identity_perm(self.spec.param)

    def coxeter_element(self) -> SignedPerm:
        """The distinguished Coxeter element of the family."""
        f, p = self.family, self.spec.param
        if f == "A":
            return perm_from_cycles(p, tuple(range(1, p + 1)))
        if f == "B":
            return balanced_cycle(p, tuple(range(1, p + 1)))
        return balanced_cycle(p, tuple(range(1, p))) * balanced_cycle(p, (p,))

    def elements(self) -> list:
        if self._elements is None:
            f, p = self.family, self.spec.param
            if f == "A":
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

    def reflections(self) -> list:
        if self._reflections is None:
            f, p = self.family, self.spec.param
            pairs = [(i, j) for i in range(1, p) for j in range(i + 1, p + 1)]
            refls = [perm_from_cycles(p, (i, j)) for i, j in pairs]
            if f != "A":
                refls += [perm_from_cycles(p, (i, -j)) for i, j in pairs]
            if f == "B":
                refls += [balanced_cycle(p, (i,)) for i in range(1, p + 1)]
            self._reflections = sorted(refls)
        return self._reflections

    # -- flats and lengths ---------------------------------------------------

    def fixed_flat(self, w) -> FlatPartition:
        """The flat V^w as a coordinate-equality partition.  A vector fixed
        by w is constant on each orbit of w on +-[n]: the orbit of a
        positive cycle of |w| and its mirror, or the zero block, the union
        of the negative cycles and their mirrors."""
        f = self.family
        blocks, zero = [], []
        for orbit, sign in signed_cycles(w.images):
            if sign < 0:
                zero += orbit + [-x for x in orbit]
            else:
                blocks += [orbit] if f == "A" else [orbit, [-x for x in orbit]]
        if zero:
            blocks.append(zero)
        return FlatPartition(f, self.spec.param, blocks=canonical_blocks(blocks))

    def isotropy_elements(self, x: FlatPartition):
        """Refused, as coset_classes counts W_x by rule; kept for the tracer."""
        raise ValueError(f"W_x is listed in I2 only, not in {self.spec}")

    def flat_reflections(self, x: FlatPartition) -> list:
        """The reflections whose hyperplane contains the flat x, ascending:
        those that send a member of a block of x into the same block."""
        block = {t: i for i, b in enumerate(x.blocks) for t in b}
        return [t for t, a, b in self._reflection_moves if block[a] == block[b]]

    @cached_property
    def _reflection_moves(self) -> list[tuple]:
        """(t, a, t(a)) for each reflection t, a its least moved index."""
        moves = []
        for t in self.reflections():
            a = next(i for i, v in enumerate(t.images, 1) if v != i)
            moves.append((t, a, t(a)))
        return moves

    def flat_literal(self, x: FlatPartition) -> str:
        """x as class_record writes it: setpart's partition literal."""
        from .setpart import format_partition  # setpart imports this module

        return format_partition(x)

    # -- spectra -------------------------------------------------------------

    def spectrum(self, w, order: int) -> list[int]:
        """The multiplicity of e^{2 pi i d/order} in the spectrum of w on V,
        for each d in [0, order), with w's cycle type read once.

        A positive cycle of |w| of length L (a cycle of w on [n] in A) has
        the L-th roots of unity as eigenvalues, so it holds the d-th when
        order divides d*L: d is a multiple of order / gcd(order, L).  A
        negative one, of length L, has the odd powers of the primitive
        2L-th root, so it holds it when 2Ld/order is an odd integer: d is
        an odd multiple of s = order / gcd(order, 2L), and 2Ls/order is
        odd.  Type A drops the trivial line, where all coordinates are
        equal."""
        mult = [0] * order
        pos, neg, _ = signed_cycle_type(w.images)
        for L in pos:
            for d in range(0, order, order // math.gcd(order, L)):
                mult[d] += 1
        for L in neg:
            step = order // math.gcd(order, 2 * L)
            if 2 * L * step // order % 2:
                for d in range(step, order, 2 * step):
                    mult[d] += 1
        mult[0] -= self.family == "A"
        return mult

    def eigenvalue_multiplicity(self, w, d: int, order: int) -> int:
        """Multiplicity of e^{2 pi i d/order} in the spectrum of w on V:
        entry d of spectrum(w, order)."""
        if not 0 <= d < order:
            raise ValueError(f"d = {d} outside [0, {order})")
        return self.spectrum(w, order)[d]

    # -- conjugacy ------------------------------------------------------------

    @cached_property
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
        a D half is half of it."""
        f, p = self.family, self.spec.param
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
            scale = 1 if f == "A" else 2
            centralizer = _centralizer(pos, scale) * _centralizer(neg, scale)
            sizes.append(self.spec.order * (2 if f == "D" and half is None else 1) // centralizer)
        return [rep for rep, *_ in found], ids, sizes

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
        return self._classes[0]

    def class_id(self, w) -> int:
        """The position in conjugacy_class_reps() of w's class."""
        return self._classes[1][signed_cycle_type(w.images)]

    def class_sizes(self) -> list[int]:
        """|Cl(v)| for each v in conjugacy_class_reps()."""
        return list(self._classes[2])

    def coset_classes(self, x: FlatPartition, y) -> Counter:
        """The class ids of the coset W_x y^-1, counted: they sum to |W_x|.
        y^-1 must permute the blocks of x, and wreath_cycle_types counts
        the signed cycle types of the coset, which name the classes; no
        element of W_x is listed."""
        ids, hist = self._classes[1], Counter()
        for key, count in wreath_cycle_types(x, y.inverse().images).items():
            hist[ids[key]] += count
        return hist

    # -- cosets and records ---------------------------------------------------

    def cosets(self, x: FlatPartition) -> Cosets:
        """The coset record of x: its minima are the set bits of the AND of
        the masks of least_rule(x), each made once per group."""
        els = self.elements()
        mask = (1 << len(els)) - 1
        for a, b, s in least_rule(x):
            mask &= self._inequality(a, b, s)
        return Cosets(x, set_bits(mask), els)

    def _inequality(self, a: int, b: int, s: int) -> int:
        """The elements w with w(a) < s w(b), as a bitmask over the indices
        of elements(): bit i is set when element i meets it."""
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
        cols = list(zip(*(w.images for w in self.elements())))
        return cols, [tuple(-t for t in col) for col in cols]

    def rep_record(self, w) -> list:
        """The rep field of class_record: the images."""
        return list(w.images)

    def locus_moves(self, w, order: int) -> list[tuple[int, int]]:
        """Where w sends each coordinate of a locus point, its exponents mod
        order: coordinate i - 1 goes to |w(i)| - 1, its nonzero exponent
        shifted by order/2 when w(i) < 0."""
        return [(t - 1, 0) if t > 0 else (-t - 1, order // 2) for t in w.images]


class DihedralGroup:
    """The model of I2(m) for a GroupSpec: rotations c^j and reflections
    c^j s, symbolic flats (the plane, the line of c^j s, the origin), and
    classes, spectra and cosets by arithmetic mod m."""

    family = ReflectionGroup.family
    eigenvalue_multiplicity = ReflectionGroup.eigenvalue_multiplicity

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.m = spec.param
        self._elements = None

    def identity(self) -> DihedralElement:
        return DihedralElement(self.m, False, 0)

    def coxeter_element(self) -> DihedralElement:
        return DihedralElement(self.m, False, 1)

    def elements(self) -> list:
        if self._elements is None:
            self._elements = list(self.isotropy_elements(FlatPartition("I2", self.m, kind="origin")))
        return self._elements

    def reflections(self) -> list:
        return [DihedralElement(self.m, True, j) for j in range(self.m)]

    def fixed_flat(self, w) -> FlatPartition:
        if w.refl:
            return FlatPartition("I2", self.m, kind="line", line=w.j)
        return FlatPartition("I2", self.m, kind="origin" if w.j else "plane")

    def isotropy_elements(self, x: FlatPartition):
        """W_x, one element at a time: W for the origin, the identity and
        the line's reflection for a line, the identity for the plane."""
        if x.kind == "origin":
            yield from (DihedralElement(self.m, r, j) for r in (False, True) for j in range(self.m))
        else:
            yield self.identity()
            if x.kind == "line":
                yield DihedralElement(self.m, True, x.line)

    def flat_reflections(self, x: FlatPartition) -> list:
        """The reflections whose line contains the flat x."""
        if x.kind == "origin":
            return self.reflections()
        return [DihedralElement(self.m, True, x.line)] if x.kind == "line" else []

    def flat_literal(self, x: FlatPartition) -> str:
        """x as class_record writes it: its kind, with a line's index."""
        return x.kind if x.kind != "line" else f"line:{x.line}"

    def spectrum(self, w, order: int) -> list[int]:
        """As in ReflectionGroup: a reflection has eigenvalues 1 and -1, the
        rotation c^j has e^{+-2 pi i j/m}."""
        if w.refl:
            return [(d == 0) + (2 * d == order) for d in range(order)]
        m = self.m
        return [(w.j * order == d * m) + ((-w.j) % m * order == d * m) for d in range(order)]

    def conjugacy_class_reps(self) -> list:
        """The least element of each class, ascending: {c^j, c^-j}, and the
        reflections, or when m is even two halves by the parity of j."""
        m = self.m
        return [DihedralElement(m, r, j) for r, n in ((False, m // 2 + 1), (True, 2 - m % 2)) for j in range(n)]

    def class_id(self, w) -> int:
        m = self.m
        if not w.refl:
            return min(w.j, m - w.j)
        return m // 2 + 1 + (w.j % 2 if m % 2 == 0 else 0)

    def class_sizes(self) -> list[int]:
        m, r = self.m, 2 - self.m % 2
        return [1 if 2 * j % m == 0 else 2 for j in range(m // 2 + 1)] + [m // r] * r

    def coset_classes(self, x: FlatPartition, y) -> Counter:
        """As in ReflectionGroup, with W_x (at most 2m elements) streamed."""
        y_inv = y.inverse()
        return Counter(self.class_id(h * y_inv) for h in self.isotropy_elements(x))

    def cosets(self, x: FlatPartition) -> DihedralCosets:
        return DihedralCosets(x, self.elements())

    def rep_record(self, w) -> list:
        return ["reflection" if w.refl else "rotation", w.j]

    def locus_moves(self, w, order: int) -> list[tuple[int, int]]:
        """A reflection swaps the two coordinates, and c^j shifts them by
        +-j order/m: c scales them by the (order/m)-th power of the root."""
        a = order // self.m * w.j
        return [(1, -a), (0, a)] if w.refl else [(0, a), (1, -a)]


# binary digits as 0/1 flags
_BITS = bytes.maketrans(b"01", b"\0\1")


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending.  A sparse mask (at
    most 256 set bits, and at most one in 16) sheds its lowest set bit,
    mask & -mask, once per set bit; any other is read whole, as binary
    digits, with no per-bit test in Python."""
    ones = mask.bit_count()
    if ones > 256 or 16 * ones > mask.bit_length():
        return list(itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_BITS)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
def group(family: str, param: int) -> ReflectionGroup | DihedralGroup:
    """The model of the group: DihedralGroup for I2, else ReflectionGroup."""
    spec = GroupSpec(family, param)
    return DihedralGroup(spec) if family == "I2" else ReflectionGroup(spec)
