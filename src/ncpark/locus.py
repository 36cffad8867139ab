"""Fixed loci of the explicit power maps, with their two group actions.

Points carry exponents of a fixed primitive root of unity of order kh
(types B and D) or km (dihedral), with 0 as a separate symbol; no complex
arithmetic appears anywhere.  The type BC inverse bijections onto the
parking space and the seeded equivariant construction of the dihedral
bijection are implemented and validated rather than trusted.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .reflgroup import (
    ConfigError,
    DihedralElement,
    GroupSpec,
    zero_block,
)
from . import parkspace, setpart

ZERO = None
NO_LOCUS = "explicit loci exist for families B, D, I2 only"


@dataclass(frozen=True, order=True)
class LocusPoint:
    """Coordinate vector over {0} u <omega>, exponents mod the root order."""

    order: int
    coords: tuple

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
    kh = p.order
    if spec.family == "I2":
        v1, v2 = p.coords
        if w.refl:
            v1, v2 = v2, v1
        a = w.j
        new1 = v1 if v1 is ZERO else (v1 + diagonal_twist(spec, kh) * a) % kh
        new2 = v2 if v2 is ZERO else (v2 - diagonal_twist(spec, kh) * a) % kh
        return LocusPoint(kh, (new1, new2))
    half = kh // 2
    out = [ZERO] * len(p.coords)
    for i, v in enumerate(p.coords, start=1):
        j = w(i)
        if j > 0:
            out[j - 1] = v
        else:
            out[-j - 1] = v if v is ZERO else (v + half) % kh
    return LocusPoint(kh, tuple(out))


def diagonal_twist(spec: GroupSpec, order: int) -> int:
    # the dihedral rotation scales the diagonal coordinates by the k-th
    # power of the order-km root, k = order/m
    return order // spec.coxeter_number


def locus_position(order: int, coords) -> int:
    """The position of a point in build_locus: see _digit_table."""
    pos = 0
    for v in coords:
        pos = pos * (order + 1) + (0 if v is ZERO else v + 1)
    return pos


def locus_moves(spec: GroupSpec, order: int, w) -> list[tuple[int, int]]:
    """Where w sends each coordinate of a locus point: coordinate i goes to
    coordinate moves[i][0], its nonzero exponent shifted by moves[i][1]
    (order/2 for a sign change in B and D, the diagonal twist in I2).
    These moves mirror locus_act_w."""
    if spec.family == "I2":
        a = diagonal_twist(spec, order) * w.j
        return [(1, -a), (0, a)] if w.refl else [(0, a), (1, -a)]
    moves = []
    for i in range(1, spec.rank + 1):
        j = w(i)
        moves.append((j - 1, 0) if j > 0 else (-j - 1, order // 2))
    return moves


def locus_w_table(spec: GroupSpec, order: int, w) -> list[int]:
    """locus_act_w(spec, w, -) on build_locus positions."""
    return _digit_table(order, locus_moves(spec, order, w))


def locus_cycles(spec: GroupSpec, order: int, w) -> list[list[int]]:
    """[length, total shift mod order] for each cycle of w's coordinate
    moves, cycles in order of their least coordinate."""
    moves = locus_moves(spec, order, w)
    seen = [False] * len(moves)
    out = []
    for first in range(len(moves)):
        length = shift = 0
        i = first
        while not seen[i]:
            seen[i] = True
            length += 1
            shift += moves[i][1]
            i = moves[i][0]
        if length:
            out.append([length, shift % order])
    return out


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


def locus_g_table(spec: GroupSpec, order: int) -> list[int]:
    """The cyclic generator on build_locus positions: it adds 1 to every
    nonzero exponent."""
    return _digit_table(order, [(i, 1) for i in range(spec.rank)])


def _digit_table(order: int, moves: list[tuple[int, int]]) -> list[int]:
    """Positions of the images of all points when coordinate i goes to
    coordinate moves[i][0] with its nonzero exponent shifted by moves[i][1].

    build_locus lists points in itertools.product order, so a point's
    position is its digits in base order+1 (ZERO -> 0, exponent e -> e+1),
    the first coordinate most significant."""
    n = len(moves)
    base = order + 1
    out = [0]
    for target, shift in moves:
        weight = base ** (n - 1 - target)
        digit = [0] + [((e + shift) % order + 1) * weight for e in range(order)]
        out = [a + b for a in out for b in digit]
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


def bc_phi(space: parkspace.ParkSpace, p: parkspace.ParkClass) -> LocusPoint:
    """Type B class to locus point, read off the chain's record: each x in
    the first-entry block under a block b of nabla(chain) sends coordinate
    |rep(x)| to the exponent of b's opener, plus kn when rep(x) < 0."""
    if space.spec.family != "B":
        raise ValueError("bc_phi is a type B/C operation")
    n = space.spec.param
    kn = space.k * n
    pic = space.chain_picture(p.chain)
    coords = [ZERO] * n
    for b, opener in pic.openers.items():
        e = opener_to_exponent(opener, kn)
        for x in pic.block_map[b]:
            t = p.rep(x)
            if t > 0:
                coords[t - 1] = e
            else:
                coords[-t - 1] = (e + kn) % (2 * kn)
    return LocusPoint(2 * kn, tuple(coords))


def bc_psi(space: parkspace.ParkSpace, pt: LocusPoint) -> parkspace.ParkClass:
    """Locus point to type B class: place parentheses at the openers named
    by the coordinates and close them innermost first with prescribed
    block sizes.  The opener multiset fixes the chain, so close_parens
    runs once per chain; each coordinate then labels the block its
    opener opens, and the zero coordinates label the zero block.

    There is no self-check phi(psi(pt)) == pt: verify_bc_bijection's rows
    imply it.  The bijection row shows phi is a bijection and the
    mutual_inverse row that psi(phi(p)) == p for every class p; so for any
    point pt = phi(p), phi(psi(pt)) = phi(p) = pt.  A psi fault is a
    failing mutual_inverse row that carries the point.
    """
    if space.spec.family != "B":
        raise ValueError("bc_psi is a type B/C operation")
    n = space.spec.param
    k = space.k
    ops = [0 if v is ZERO else exponent_to_opener(v, k * n) for v in pt.coords]
    pic = space.picture_of(close_parens(n, k, tuple(sorted(abs(o) for o in ops if o))))
    labels = {
        b: tuple(i if o == opener else -i for i, o in enumerate(ops, 1) if abs(o) == abs(opener))
        for b, opener in pic.openers.items()
    }
    zero = tuple(s * i for i, o in enumerate(ops, 1) if not o for s in (1, -1))
    if zero:
        labels[zero_block(pic.pi.blocks)] = zero
    return space.make_class(pic.chain, parkspace.rep_from_labels(space, pic.chain, labels))


@lru_cache(maxsize=None)
def close_parens(n: int, k: int, openers: tuple[int, ...]) -> setpart.SetPartition:
    """The unique centrally symmetric noncrossing partition of +-[kn] whose
    openers are +-j for j in the multiset openers, opening blocks of size
    k times the multiplicity of j.

    Left parentheses sit before the named positions; each is closed once
    it can absorb its block size in alive symbols without passing an
    unmatched left parenthesis.  Leftover symbols form the zero block.
    Memoized: the result depends on the multiset only, given as a sorted
    tuple.
    """
    kn = k * n
    mult = Counter(openers)
    order = list(range(1, kn + 1)) + [-i for i in range(1, kn + 1)]
    open_at = []
    for j in sorted(mult):
        open_at += [j, -j]
    unmatched = set(open_at)
    alive = {x: True for x in order}
    blocks = []
    progress = True
    while unmatched and progress:
        progress = False
        for start in sorted(unmatched, key=lambda x: setpart.circ_position(x, kn)):
            target = k * mult[abs(start)]
            run = []
            pos = setpart.circ_position(start, kn)
            ok = True
            for step in range(2 * kn):
                x = order[(pos + step) % (2 * kn)]
                if x in unmatched and x != start:
                    ok = False
                    break
                if alive[x]:
                    run.append(x)
                    if len(run) == target:
                        break
            if ok and len(run) == target:
                blocks.append(tuple(run))
                for x in run:
                    alive[x] = False
                unmatched.discard(start)
                progress = True
    if unmatched:
        raise RuntimeError(f"parenthesization did not close: {unmatched}")
    rest = [x for x in order if alive[x]]
    if rest:
        blocks.append(tuple(rest))
    pi = setpart.SetPartition.of(kn, blocks, signed=True)
    if not setpart.is_noncrossing(pi) or not pi.is_centrally_symmetric():
        raise RuntimeError("parenthesization produced a bad partition")
    return pi


def verify_bc_bijection(spec: GroupSpec, k: int) -> list[dict]:
    """Mutual inversion and equivariance of the type BC pair, exhaustively.

    phi maps each position in classes() to a position in build_locus, so a
    generator with class table T and locus table L commutes with phi when
    phi[T[i]] == L[phi[i]] for every i.  A failing row carries a witness:
    two colliding classes or the size mismatch (bijection), a point psi
    does not send back (mutual_inverse), or a class, generator and the two
    disagreeing images (equivariance).
    """
    space = parkspace.build_park(spec, k)
    pts = build_locus(spec, k)
    kh = locus_order(spec, k)
    classes = space.classes()
    phi = [locus_position(kh, bc_phi(space, p).coords) for p in classes]
    report = []
    row = {"check": "bijection", "pass": len(set(phi)) == len(pts) == len(phi)}
    if not row["pass"]:
        first: dict[int, int] = {}
        for i, j in enumerate(phi):
            if j in first:
                row["witness"] = {
                    "classes": [space.class_record(classes[first[j]]), space.class_record(classes[i])],
                    "point": pts[j].to_json(),
                }
                break
            first[j] = i
        else:
            row["witness"] = {"classes": len(phi), "points": len(pts)}
    report.append(row)
    bad_inv = [pts[j] for p, j in zip(classes, phi) if bc_psi(space, pts[j]) != p]
    row = {"check": "mutual_inverse", "pass": not bad_inv}
    if bad_inv:
        row["witness"] = bad_inv[0].to_json()
    report.append(row)
    gens = list(space.group.reflections()[:2]) + [space.group.coxeter_element()]
    moves = [("g", space.g_table(), locus_g_table(spec, kh))]
    moves += [(repr(v), space.w_table(v), locus_w_table(spec, kh, v)) for v in gens]
    row = {"check": "equivariance", "pass": True}
    for i, j in enumerate(phi):
        bad = next((m for m in moves if phi[m[1][i]] != m[2][j]), None)
        if bad is not None:
            gen, park, loc = bad
            row["pass"] = False
            row["witness"] = {
                "class": space.class_record(classes[i]),
                "generator": gen,
                "park_image": pts[phi[park[i]]].to_json(),
                "locus_image": pts[loc[j]].to_json(),
            }
            break
    report.append(row)
    return report


# ---------------------------------------------------------------------------
# dihedral constructive bijection


def stabilizer(i: int, kh: int, g_table, w_tables) -> set[tuple[int, int]]:
    """All (j, d) in W x Z_kh fixing position i, where w_tables[j] is the
    table of the j-th group element and g_table that of the generator."""
    out = set()
    cur = i
    for d in range(kh):
        out.update((j, d) for j, table in enumerate(w_tables) if table[cur] == i)
        cur = g_table[cur]
    return out


def dihedral_bijection(m: int, k: int) -> dict:
    """Equivariant bijection Park -> locus for I2(m), built by extending
    seed assignments orbit by orbit and validated along the way.

    Orbit representatives follow the case analysis: the origin, the
    full-space chain, the mirror chain (both mirror orbits when m is
    even), and the mixed plane/mirror chains.  Both sides act on positions
    through their tables.  For each representative the two candidate locus
    points (a coordinate swap apart) are tested by comparing stabilizers;
    extension walks the tables of the cyclic generator, s and c, and any
    conflict is an error.
    """
    spec = GroupSpec("I2", m)
    space = parkspace.build_park(spec, k)
    pts = build_locus(spec, k)
    grp = space.group
    els = grp.elements()
    ident = grp.identity()
    s = DihedralElement(m, True, 0)
    c = grp.coxeter_element()
    km = k * m
    park_g, locus_g = space.g_table(), locus_g_table(spec, km)
    # one table per element and side: compact arrays keep the peak memory down
    park_w = [array("q", space.w_table(v)) for v in els]
    locus_w = [array("q", locus_w_table(spec, km, v)) for v in els]

    def chain_of(flats_word):
        elems = {"V": ident, "H": s, "Hp": DihedralElement(m, True, (m - 1) % m), "0": c}
        return tuple(elems[x] for x in flats_word)

    fwd = [-1] * len(park_g)
    bwd = [-1] * len(pts)
    frontier: list[tuple[int, int]] = []

    def put(i, j):
        if fwd[i] >= 0 or bwd[j] >= 0:
            if fwd[i] != j or bwd[j] != i:
                raise RuntimeError(f"orbit extension conflict at {space.classes()[i]} / {pts[j]}")
            return
        fwd[i] = j
        bwd[j] = i
        frontier.append((i, j))

    def seed(word, coords):
        i = space.index(chain_of(word), ident)
        stab = stabilizer(i, km, park_g, park_w)
        for cand in (coords, coords[::-1]):
            j = locus_position(km, cand)
            if stabilizer(j, km, locus_g, locus_w) == stab:
                put(i, j)
                return
        raise RuntimeError(f"no stabilizer-matching locus point for {word}")

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

    idx = grp.index()
    moves = [(park_g, locus_g)] + [(park_w[idx[v]], locus_w[idx[v]]) for v in (s, c)]
    while frontier:
        i, j = frontier.pop()
        for park, loc in moves:
            put(park[i], loc[j])
    mapped = sum(1 for j in fwd if j >= 0)
    total = (km + 1) ** 2
    if mapped != total or len(fwd) != total:
        raise RuntimeError(f"dihedral bijection incomplete: {mapped} of {total} classes mapped")
    classes = space.classes()
    return {classes[i]: pts[j] for i, j in enumerate(fwd)}


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
