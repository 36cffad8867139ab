"""Fixed loci of the explicit power maps, with their two group actions.

Points carry exponents of a fixed primitive root of unity of order kh
(types B and D) or km (dihedral), with 0 as a separate symbol; no complex
arithmetic appears anywhere.  Fixed points are counted in closed form
over the cycles of the coordinate moves.  The type BC bijections (psi
closes its parentheses in one stack walk) and the seeded equivariant
dihedral bijection are implemented and validated rather than trusted.
"""

import itertools
from array import array
from collections import Counter
from functools import partial
from operator import getitem

from .reflgroup import (
    ConfigError,
    GroupSpec,
    Value,
    group,
    set_field,
    table_cycles,
)
from . import parkspace, setpart

ZERO = None
NO_LOCUS = "explicit loci exist for families B, D, I2 only"


class LocusPoint(Value):
    """Coordinate vector over {0} u <omega>, exponents mod the root order."""

    __slots__ = _fields = ("order", "coords")

    def __init__(self, order: int, coords: tuple):
        set_field(self, "order", order)
        set_field(self, "coords", coords)

    def to_json(self) -> list:
        """JSON array mixing the literal "0" and integer exponents."""
        return ["0" if c is ZERO else int(c) for c in self.coords]

    def __repr__(self):
        body = ",".join("0" if c is ZERO else f"w{c}" for c in self.coords)
        return f"LocusPoint({body};{self.order})"


def locus_order(spec: GroupSpec, k: int) -> int:
    """Order of the root of unity parametrizing nonzero coordinates."""
    if spec.family not in ("B", "D", "I2"):
        raise ConfigError(NO_LOCUS)
    return k * spec.coxeter_number


def build_locus(spec: GroupSpec, k: int) -> list[LocusPoint]:
    """All (kh+1)^n locus points, deterministically ordered."""
    kh = locus_order(spec, k)
    values = [ZERO] + list(range(kh))
    return [LocusPoint(kh, coords) for coords in itertools.product(values, repeat=spec.rank)]


def locus_act_w(spec: GroupSpec, w, p: LocusPoint) -> LocusPoint:
    """w on a locus point: the model's locus_moves, where coordinate i goes
    to moves[i][0], its nonzero exponent shifted by moves[i][1]."""
    kh = p.order
    out = [ZERO] * len(p.coords)
    for v, (target, shift) in zip(p.coords, group(spec.family, spec.param).locus_moves(w, kh)):
        out[target] = v if v is ZERO else (v + shift) % kh
    return LocusPoint(kh, tuple(out))


def locus_position(order: int, coords) -> int:
    """The position of a point in build_locus: see _digit_table."""
    pos = 0
    for v in coords:
        pos = pos * (order + 1) + (0 if v is ZERO else v + 1)
    return pos


def locus_point(order: int, n: int, pos: int) -> LocusPoint:
    """The point at a build_locus position: its n digits in base order+1."""
    coords = []
    for _ in range(n):
        pos, d = divmod(pos, order + 1)
        coords.append(d - 1 if d else ZERO)
    return LocusPoint(order, tuple(reversed(coords)))


def locus_w_table(spec: GroupSpec, order: int, w) -> array:
    """locus_act_w(spec, w, -) on build_locus positions."""
    return _digit_table(order, group(spec.family, spec.param).locus_moves(w, order))


def locus_cycles(spec: GroupSpec, order: int, w) -> list[list[int]]:
    """[length, total shift mod order] for each cycle of w's coordinate
    moves, cycles in order of their least coordinate."""
    moves = group(spec.family, spec.param).locus_moves(w, order)
    cycles = table_cycles([target for target, _ in moves])
    return [[len(cycle), sum(moves[i][1] for i in cycle) % order] for cycle in cycles]


def locus_fixed(cycles: list[list[int]], order: int, d: int) -> int:
    """The points (v, g^d) fixes, where cycles are locus_cycles of v: the
    product of 1 + order * [l*d + s = 0 mod order] over them.  On a cycle of
    length l and shift s the coordinates are all 0, or all nonzero with the
    first exponent free and the others following from it, which closes up
    exactly when l*d + s = 0 mod order."""
    count = 1
    for length, shift in cycles:
        if (length * d + shift) % order == 0:
            count *= order + 1
    return count


def locus_g_table(spec: GroupSpec, order: int) -> array:
    """The cyclic generator on build_locus positions: it adds 1 to every
    nonzero exponent."""
    return _digit_table(order, [(i, 1) for i in range(spec.rank)])


def _digit_table(order: int, moves: list[tuple[int, int]]) -> array:
    """Positions of the images of all points when coordinate i goes to
    coordinate moves[i][0] with its nonzero exponent shifted by moves[i][1].

    build_locus lists points in itertools.product order, so a point's
    position is its digits in base order+1 (ZERO -> 0, exponent e -> e+1),
    the first coordinate most significant.  Built as an array of
    parkspace.typecode, one coordinate at a time, so no list of all the
    positions is ever held."""
    n = len(moves)
    base = order + 1
    code = parkspace.typecode(base**n)
    out = array(code, [0])
    for target, shift in moves:
        weight = base ** (n - 1 - target)
        digit = [0] + [((e + shift) % order + 1) * weight for e in range(order)]
        prev, out = out, array(code)
        for a in prev:
            out.extend(map(a.__add__, digit))
    return out


# ---------------------------------------------------------------------------
# type BC bijections


def exponent_to_opener(e: int, half: int) -> int:
    """Exponent in [0, 2*half) as a signed opener in +-[half]."""
    e %= 2 * half
    if 1 <= e <= half:
        return e
    return -(e - half) if e > half else -half  # e == 0 is -omega^half


def opener_to_exponent(o: int, half: int) -> int:
    return o % (2 * half) if o > 0 else (half - o) % (2 * half)


def bc_phi(space: parkspace.ParkSpace) -> array:
    """The locus position of each type B class, indexed by class position.

    Each x in the first-entry block under a block b of nabla(chain) sends
    coordinate |rep(x)| to the exponent e of b's opener, plus kn when
    rep(x) < 0.  So per chain block, once, each x in [n] gets a digit for
    a positive image (e + 1) and one for a negative image
    ((e + kn) mod 2kn + 1), and 0 in the zero block; the class with coset
    minimum r then lies at the sum of digit * (2kn + 1)^(n - |r(x)|) over
    x (see locus_position).
    """
    if space.spec.family != "B":
        raise ValueError("bc_phi is a type B/C operation")
    n = space.spec.param
    kn = space.k * n
    weight = [(2 * kn + 1) ** (n - t) for t in range(n + 1)]
    images = [w.images for w in space.group.elements()]
    out = array(parkspace.typecode(space.size))
    for ch, reps in space.blocks():
        pic = space.pictures[ch]
        # rows[x - 1][t]: what x adds when rep(x) = t; 2n + 1 slots, so a
        # negative t indexes from the end
        rows = [[0] * (2 * n + 1) for _ in range(n)]
        for b, opener in pic.openers.items():
            e = opener_to_exponent(opener, kn)
            for x in pic.block_map[b]:
                if x > 0:
                    for t in range(1, n + 1):
                        rows[x - 1][t] = (e + 1) * weight[t]
                        rows[x - 1][-t] = ((e + kn) % (2 * kn) + 1) * weight[t]
        out.extend(sum(map(getitem, rows, images[r])) for r in reps)
    return out


def bc_psi(space: parkspace.ParkSpace, points) -> array:
    """The type B class position of each locus position in points.

    A point's digits name its coordinates' signed openers.  Parentheses
    placed at the openers and closed innermost first with prescribed block
    sizes give nabla of the chain (close_parens, once per opener multiset,
    which fixes the chain).  A coordinate whose opener opens a
    block b of nabla(chain) is the image of an element of b's first-entry
    block; a zero coordinate, of one of the zero block.  So the point
    names, for each coordinate i, the block holding rep^-1(i), and that
    fixes the coset (the key of ParkSpace.cosets).

    A position's digits are those of its high and low halves, read from
    two tables, with each half's opener multiset as an integer: the count
    of |opener| j in base n + 1, at (n + 1)^(j - 1).  Per multiset, once,
    the rule maps a digit to the signed id of the block its opener opens.
    """
    if space.spec.family != "B":
        raise ValueError("bc_psi is a type B/C operation")
    n, k = space.spec.param, space.k
    kn = k * n
    base = 2 * kn + 1
    opener_of = [0] + [exponent_to_opener(e, kn) for e in range(2 * kn)]
    mult = [0] + [(n + 1) ** (abs(o) - 1) for o in opener_of[1:]]
    halves = []
    for length in (n // 2, n - n // 2):
        halves.append([(ds, sum(mult[d] for d in ds)) for ds in itertools.product(range(base), repeat=length)])
    high, low = halves
    split = len(low)
    rules: dict = {}
    out = array(parkspace.typecode(space.size))
    for p in points:
        h, l = divmod(p, split)
        (hd, hm), (ld, lm) = high[h], low[l]
        rule = rules.get(hm + lm)
        if rule is None:
            key = tuple(sorted(abs(opener_of[d]) for d in hd + ld if d))
            pic = space.picture_of(close_parens(n, k, key))
            rec = space.cosets(pic.chain[0])
            sid = {o: rec.bid[pic.block_map[b][0]] for b, o in pic.openers.items()}
            sid[0] = 0
            # digits whose opener is not in the multiset never meet this rule
            digit_id = [sid.get(o) for o in opener_of]
            rule = rules[hm + lm] = pic.start, digit_id.__getitem__, rec.positions
        start, sid, cosets = rule
        out.append(start + cosets[tuple(map(sid, hd + ld))])
    return out


def close_parens(n: int, k: int, openers: tuple[int, ...]) -> setpart.SetPartition:
    """The unique centrally symmetric noncrossing partition of +-[kn] whose
    openers are +-j for j in the multiset openers, opening blocks of size
    k times the multiplicity of j.

    One walk twice around the circle: an opener pushes its block (on the
    first lap), each symbol not yet taken joins the innermost open block,
    and a block pops once it holds its size; one still open after the
    second lap cannot close.  Leftover symbols form the zero block.
    """
    kn = k * n
    size = {s * j: k * m for j, m in Counter(openers).items() for s in (1, -1)}
    order = list(range(1, kn + 1)) + [-i for i in range(1, kn + 1)]
    taken, blocks, stack = set(), [], []
    for lap in (0, 1):
        for x in order:
            if not lap and x in size:
                stack.append([])
            if stack and x not in taken:
                taken.add(x)
                stack[-1].append(x)
                if len(stack[-1]) == size[stack[-1][0]]:
                    blocks.append(stack.pop())
    if stack:
        raise RuntimeError(f"parenthesization did not close: {[b[0] for b in stack]}")
    rest = [x for x in order if x not in taken]
    if rest:
        blocks.append(rest)
    pi = setpart.SetPartition.of(kn, blocks, signed=True)
    if not setpart.is_noncrossing(pi) or not pi.is_centrally_symmetric():
        raise RuntimeError("parenthesization produced a bad partition")
    return pi


def verify_bc_bijection(spec: GroupSpec, k: int) -> list[dict]:
    """Mutual inversion and equivariance of the type BC pair, exhaustively.

    Both maps run between positions: phi = bc_phi(space) sends each class
    position to a locus position (build_locus order), and psi = bc_psi
    sends the points phi lists back.  A generator with class table T and
    locus table L commutes with phi when phi[T[i]] == L[phi[i]] for every
    i; the tables are built one generator at a time.  There is no check
    phi(psi(pt)) == pt: the bijection row shows phi is a bijection and the
    mutual_inverse row that psi(phi(i)) == i for every class i, so for any
    point pt = phi(i), phi(psi(pt)) = pt.

    No class or point is built unless a row fails.  A failing row carries
    a witness: two colliding classes or the size mismatch (bijection), a
    point psi does not send back (mutual_inverse), or a class, generator
    and the two disagreeing images (equivariance).
    """
    space = parkspace.build_park(spec, k)
    kh = locus_order(spec, k)
    size = spec.park_size(k)

    def point(j):
        return locus_point(kh, spec.rank, j).to_json()

    phi = bc_phi(space)
    report = []
    seen, clash = bytearray(size), None
    for i, j in enumerate(phi):
        if seen[j]:
            clash = i
            break
        seen[j] = 1
    row = {"check": "bijection", "pass": clash is None and len(phi) == size}
    if clash is not None:
        j = phi[clash]
        row["witness"] = {"classes": [space.record_at(phi.index(j)), space.record_at(clash)], "point": point(j)}
    elif not row["pass"]:
        row["witness"] = {"classes": len(phi), "points": size}
    report.append(row)
    bad = next((i for i, j in enumerate(bc_psi(space, phi)) if j != i), None)
    row = {"check": "mutual_inverse", "pass": bad is None}
    if bad is not None:
        row["witness"] = point(phi[bad])
    report.append(row)
    gens = list(space.group.reflections()[:2]) + [space.group.coxeter_element()]
    moves = [("g", space.g_table, partial(locus_g_table, spec, kh))]
    moves += [(repr(v), partial(space.w_table, v), partial(locus_w_table, spec, kh, v)) for v in gens]
    row = {"check": "equivariance", "pass": True}
    first, code = len(phi), parkspace.typecode(size)
    for gen, park, loc in moves:
        # phi after the class table, and the locus table after phi; each
        # table lives only while its map runs
        moved = array(code, map(phi.__getitem__, park()))
        expected = array(code, map(loc().__getitem__, phi))
        if moved == expected:
            continue
        i = next(i for i, (a, b) in enumerate(zip(moved, expected)) if a != b)
        if i < first:
            first = i
            row["pass"] = False
            row["witness"] = {
                "class": space.record_at(i),
                "generator": gen,
                "park_image": point(moved[i]),
                "locus_image": point(expected[i]),
            }
    report.append(row)
    return report


# ---------------------------------------------------------------------------
# dihedral constructive bijection


def stabilizer(i: int, m: int, kh: int, g_table, s_table, c_table) -> bytearray:
    """Flags of the (j, d) in W x Z_kh fixing position i, at index 2m d + j,
    for W = I2(m) acting through the tables of g, s and c, and j an index
    in elements(): for each d, c^j sends x = g^d i and c^j s (at m + j)
    sends s x, stepped through c."""
    out = bytearray(2 * m * kh)
    at, x = 0, i
    for _ in range(kh):
        for y in (x, s_table[x]):
            for _ in range(m):
                out[at] = y == i
                at += 1
                y = c_table[y]
        x = g_table[x]
    return out


class BijectionFailure(RuntimeError):
    """A failed check of dihedral_bijection: the classes mapped before it,
    and a witness."""

    def __init__(self, message: str, mapped: int, witness: dict):
        super().__init__(message)
        self.mapped = mapped
        self.witness = witness


def dihedral_bijection(m: int, k: int) -> array:
    """The locus position of each class position under an equivariant
    bijection Park -> locus for I2(m): seeds extended orbit by orbit
    through the tables of g, s and c on both sides.

    The seeds follow the case analysis (the origin, the full-space chain,
    the mirror chain or both mirror orbits when m is even, the mixed
    plane/mirror chains), each sent to whichever of two points a
    coordinate swap apart has its stabilizer.  A conflict, an unmatched
    seed or an unmapped class raises BijectionFailure; the CLI row
    compares the class count with the (km+1)^2 points."""
    spec = GroupSpec("I2", m)
    space = parkspace.build_park(spec, k)
    refls = space.group.reflections()  # c^j s at j
    ident, c, s = space.group.identity(), space.c, refls[0]
    km = k * m
    park = [space.g_table(), space.w_table(s), space.w_table(c)]
    loc = [locus_g_table(spec, km), locus_w_table(spec, km, s), locus_w_table(spec, km, c)]
    elems = {"V": ident, "H": s, "Hp": refls[m - 1], "0": c}
    code = parkspace.typecode(space.size)
    fwd = array(code, [-1]) * len(park[0])
    bwd = array(code, [-1]) * space.size
    frontier: list[tuple[int, int]] = []

    def point(j):
        return locus_point(km, 2, j).to_json()

    def fail(kind, witness):
        raise BijectionFailure(f"dihedral bijection: {kind}", len(fwd) - fwd.count(-1), {kind: witness})

    def put(i, j):
        if fwd[i] == j:
            return
        if fwd[i] >= 0:
            fail("conflict", {"class": space.record_at(i), "points": [point(fwd[i]), point(j)]})
        if bwd[j] >= 0:
            fail("conflict", {"classes": [space.record_at(bwd[j]), space.record_at(i)], "point": point(j)})
        fwd[i] = j
        bwd[j] = i
        frontier.append((i, j))

    def seed(word, coords):
        i = space.index(tuple(elems[x] for x in word), ident)
        cands = [locus_position(km, coords), locus_position(km, coords[::-1])]
        stab = stabilizer(i, m, km, *park)
        j = next((j for j in cands if stabilizer(j, m, km, *loc) == stab), None)
        if j is None:
            fail("unmatched", {"seed": space.record_at(i), "candidates": list(map(point, cands))})
        put(i, j)

    seed(["0"] * k, (ZERO, ZERO))
    seed(["V"] * k, (0, ZERO))
    seed(["H"] * k, (0, 0))
    if m % 2 == 0:
        seed(["Hp"] * k, (0, k % km))
        top = k - 1
    else:
        top = k // 2 if k % 2 == 0 else (k - 1) // 2
    for i in range(1, top + 1):
        seed(["V"] + ["H"] * i + ["0"] * (k - i - 1), (0, i % km))

    moves = list(zip(park, loc))
    while frontier:
        i, j = frontier.pop()
        for p, q in moves:
            put(p[i], q[j])
    if -1 in fwd:
        fail("unmapped", {"class": space.record_at(fwd.index(-1))})
    return fwd


# ---------------------------------------------------------------------------
# character-level verification


def verify_intermediate_character(spec: GroupSpec, k: int) -> list[dict]:
    """The rows of ParkSpace.verify_weak, one per class representative and
    d in order, with the locus fixed counts (locus_fixed) beside the
    parking ones; all three counts must agree.  A failing row carries the
    multiplicity of omega^d in v and the [length, shift] cycles that
    locus_fixed multiplied.  A family without a locus is rejected before
    anything is built."""
    kh = locus_order(spec, k)
    space = parkspace.build_park(spec, k)
    rows = space.verify_weak()
    reps = space.group.conjugacy_class_reps()
    cycles = [locus_cycles(spec, kh, v) for v in reps]
    for i, row in enumerate(rows):
        c, d = i // kh, row["d"]
        row["park_fixed"] = row.pop("fixed")
        row["locus_fixed"] = locus_fixed(cycles[c], kh, d)
        row["pass"] = row["expected"] == row["park_fixed"] == row["locus_fixed"]
        if not row["pass"]:
            mult = space.group.eigenvalue_multiplicity(reps[c], d, kh)
            row["witness"] = {"multiplicity": mult, "cycles": cycles[c]}
    return rows
