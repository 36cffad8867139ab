"""Classical and type-BC set partition combinatorics.

Noncrossing predicate, Kreweras complementation, the multichain-to-
k-divisible bijection nabla (one pass on integer permutations), and the
openers of Reiner's periodic parenthesization, by one rule per block.

Ground sets are [n] or +-[n]; the +-[n] boundary order on the disc is
1, 2, ..., n, -1, -2, ..., -n, read clockwise.
"""

from __future__ import annotations

from .reflgroup import (
    SignedPerm,
    Value,
    canonical_blocks,
    partition_refines,
    set_field,
    table_cycles,
    zero_block,
)


class SetPartition(Value):
    """Partition of [n] (signed=False) or of +-[n] (signed=True).

    Blocks are stored sorted for canonical equality; +-[n] partitions used
    here are centrally symmetric with at most one zero block.
    """

    __slots__ = _fields = ("n", "signed", "blocks")

    def __init__(self, n: int, signed: bool, blocks: tuple[tuple[int, ...], ...]):
        set_field(self, "n", n)
        set_field(self, "signed", signed)
        set_field(self, "blocks", blocks)

    @staticmethod
    def of(n: int, blocks, signed: bool = False) -> "SetPartition":
        blocks = canonical_blocks(blocks)
        ground = set(range(1, n + 1))
        if signed:
            ground |= {-i for i in range(1, n + 1)}
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if x in seen or x not in ground:
                    raise ValueError(f"bad element {x} in {blocks}")
                seen.add(x)
        if seen != ground:
            raise ValueError("blocks do not cover the ground set")
        return SetPartition(n, signed, blocks)

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)

    def refines(self, other: "SetPartition") -> bool:
        return partition_refines(self.blocks, other.blocks)

    def is_centrally_symmetric(self) -> bool:
        bset = {frozenset(b) for b in self.blocks}
        return all(frozenset(-x for x in b) in bset for b in self.blocks)

    def __repr__(self):
        return "{" + format_partition(self) + "}"


# -- boundary order and literal syntax ---------------------------------------


def circ_position(x: int, n: int) -> int:
    """Index of x in the clockwise boundary order 1..n, -1..-n; one more
    is its point under the identification +-[n] = [2n]: i -> i, -i -> n + i."""
    return x - 1 if x > 0 else n - x - 1


def format_partition(p: SetPartition) -> str:
    key = lambda x: (abs(x), x < 0)
    blocks = [sorted(b, key=key) for b in p.blocks]
    blocks.sort(key=lambda b: (b[0] < 0, abs(b[0])))
    return "/".join(",".join(str(x) for x in b) for b in blocks)


# -- noncrossing predicate ----------------------------------------------------


def _crossing_free(blocks, pos) -> bool:
    """No two blocks interleave around the circle given by position map.

    One walk around the circle keeps a stack of the open blocks: a block
    may continue only while it is the innermost open one (on top), and
    it closes at its last element.  Two blocks cross exactly when some
    element of an open block turns up while another block sits above it.
    """
    walk = sorted((pos(x), i) for i, b in enumerate(blocks) for x in b)
    last = {i: p for p, i in walk}
    stack: list[int] = []
    opened: set[int] = set()
    for p, i in walk:
        if not stack or stack[-1] != i:
            if i in opened:
                return False
            opened.add(i)
            stack.append(i)
        if last[i] == p:
            stack.pop()
    return True


def is_noncrossing(p: SetPartition) -> bool:
    """Whether the convex hulls of the blocks are disjoint on the disc."""
    return _crossing_free(p.blocks, lambda x: circ_position(x, p.n) if p.signed else x - 1)


# -- Kreweras complementation --------------------------------------------------


def kreweras(p: SetPartition) -> SetPartition:
    """The Kreweras complement on the primed positions 1',1,2',2,...,n',n.

    Primed position i' immediately precedes i on the clockwise circle; the
    complement is the coarsest partition of the primes whose hulls avoid
    the blocks of p.  In permutation form its blocks are the cycles of
    x -> c(omega(p)^-1(x)) with c = (1 2 ... n): the standard pi^-1 c,
    conjugated by c to put i' just before i.
    """
    if p.signed:
        raise ValueError("kreweras is defined on [n] partitions")
    if not is_noncrossing(p):
        raise ValueError(f"input is not noncrossing: {p!r}")
    n = p.n
    # omega(p) cycles each block in increasing order; image[x - 1] = c(omega^-1(x))
    image = [0] * n
    for b in p.blocks:
        for a, x in zip(b, b[1:] + b[:1]):
            image[x - 1] = a % n + 1
    return SetPartition.of(n, SignedPerm(tuple(image)).cycles())


# -- nabla -------------------------------------------------------------------


def _line_omega(p: SetPartition, pos, size: int) -> list[int]:
    """omega(p) on the 0-based points of the boundary line: each block
    cycles in boundary order, pos giving a point's place on the line."""
    w = list(range(size))
    for b in p.blocks:
        ps = sorted(map(pos, b))
        for a, t in zip(ps, ps[1:] + ps[:1]):
            w[a] = t
    return w


def _boundary_factors(omegas: list[list[int]]) -> list[list[int]]:
    """(w_1, ..., w_k) -> (w_1^-1 w_2, ..., w_(k-1)^-1 w_k, w_k^-1 c), with
    c = (0 1 ... N-1) and (u v)(x) = u(v(x))."""
    size = len(omegas[0])
    out = []
    for w, nxt in zip(omegas, omegas[1:] + [list(range(1, size)) + [0]]):
        inv = [0] * size
        for x, y in enumerate(w):
            inv[y] = x
        out.append([inv[y] for y in nxt])
    return out


def _shuffle(deltas: list[list[int]]) -> list[int]:
    """The permutation sigma of [kN] with delta_i on slot i:
    sigma(i + xk) = i + delta_i(x) k, 0-based."""
    k = len(deltas)
    sigma = [0] * (k * len(deltas[0]))
    for i, d in enumerate(deltas):
        sigma[i::k] = [i + y * k for y in d]
    return sigma


def _check_multichain(chain: tuple[SetPartition, ...]) -> None:
    for p in chain:
        if not is_noncrossing(p):
            raise ValueError(f"chain entry is not noncrossing: {p!r}")
    for a, b in zip(chain, chain[1:]):
        if not a.refines(b):
            raise ValueError("input is not a refinement multichain")


def nabla(chain: tuple[SetPartition, ...]) -> SetPartition:
    """Bijection from k-multichains of noncrossing partitions of [n] to
    k-divisible noncrossing partitions of [kn]: the Kreweras complement of
    the shuffle of the boundary factors.  A chain on +-[n] runs on the
    line [2n] of its boundary order and comes back on +-[kn].

    One pass on integer arrays over the N points of the line, 0-based:
    omega_i cycles each block of entry i in boundary order; the boundary
    factors are delta_i = omega_i^-1 omega_(i+1) and delta_k = omega_k^-1 c;
    the shuffle is sigma(i + xk) = i + delta_i(x) k on [kN]; and the blocks
    of the result are the cycles of K(x) = c(sigma^-1(x)).  The factor
    tuple enters the shuffle in its literal order; this is the unique slot
    order that is defined on every multichain and transports the cyclic
    action on multichains to one-step clockwise rotation.

    The result is checked once: cyc(K) + cyc(sigma) = kN + 1 (Biane:
    sigma is the omega of a noncrossing partition), every block is
    k-divisible, and the blocks match those of the first entry one to one
    through the points 0, k, ..., (N-1)k.  The first and the block count
    make c = omega_1 delta_1 ... delta_k length additive, which holds only
    on a noncrossing multichain; so the input is checked only when a
    condition fails: a ValueError if it is not a multichain, else a
    RuntimeError.
    """
    k = len(chain)
    first = chain[0]
    n, signed = first.n, first.signed
    if any(p.n != n or p.signed != signed for p in chain):
        raise ValueError("chain entries have different ground sets")
    size = 2 * n if signed else n
    # circ_position by lookup; a negative x indexes from the end
    line = [0] * (2 * n + 1)
    for x in range(1, n + 1):
        line[x], line[-x] = x - 1, n + x - 1
    pos = line.__getitem__
    sigma = _shuffle(_boundary_factors([_line_omega(p, pos, size) for p in chain]))
    total = k * size
    # K(sigma(x)) = c(x)
    kreweras_perm = [0] * total
    for x, y in enumerate(sigma, 1):
        kreweras_perm[y] = x
    kreweras_perm[sigma[-1]] = 0
    blocks = table_cycles(kreweras_perm)
    block_id = [0] * total
    for j, b in enumerate(blocks):
        for y in b:
            block_id[y] = j
    first_id = [0] * size
    for j, b in enumerate(first.blocks):
        for x in b:
            first_id[pos(x)] = j
    pairs = {(block_id[x * k], first_id[x]) for x in range(size)}
    if len(blocks) + len(table_cycles(sigma)) != total + 1:
        failed = "cyc(K) + cyc(sigma) != kN + 1"
    elif any(len(b) % k for b in blocks):
        failed = "a block is not k-divisible"
    elif not len(pairs) == len({j for j, _ in pairs}) == len(blocks) == len(first.blocks):
        failed = "restriction is not order isomorphic to the first entry"
    else:
        if signed:
            kn = k * n
            blocks = [[line_to_signed(y + 1, kn) for y in b] for b in blocks]
        else:
            blocks = [[y + 1 for y in b] for b in blocks]
        return SetPartition(k * n, signed, canonical_blocks(blocks))
    _check_multichain(chain)
    raise RuntimeError(f"nabla: {failed} (logic error)")


def nabla_block_map(pi: SetPartition, first: SetPartition, k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Match blocks of pi = nabla(chain) with blocks of chain[0].

    Sends each block B of pi to the block of chain[0] whose image under
    x -> sign(x)((|x|-1)k + 1) lies in B: the points 0, k, ..., (N-1)k of
    the line.  Blocks of pi disjoint from the restriction positions do not
    occur (every block meets them).
    """
    positions = {(i - 1) * k + 1: i for i in range(1, first.n + 1)}
    if first.signed:
        positions.update({-y: -i for y, i in positions.items()})
    out = {}
    for b in pi.blocks:
        src = sorted(positions[x] for x in b if x in positions)
        if not src:
            raise RuntimeError("block misses all restriction positions")
        blk = first.block_of(src[0])
        if tuple(src) != tuple(sorted(blk)):
            raise RuntimeError("restriction is not order isomorphic to the first entry")
        out[b] = blk
    return out


# -- type BC ------------------------------------------------------------------


def line_to_signed(x: int, n: int) -> int:
    """Inverse of +-[n] = [2n], x -> circ_position(x, n) + 1."""
    return x if x <= n else n - x


class LabeledPartition(Value):
    """A k-divisible partition with block labels: |B| = k |f(B)|, labels
    partition the label ground set, and f(-B) = -f(B) in the signed case."""

    __slots__ = _fields = ("partition", "labels")

    def __init__(self, partition: SetPartition, labels: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]):
        set_field(self, "partition", partition)
        set_field(self, "labels", labels)

    @staticmethod
    def of(partition: SetPartition, labels: dict) -> "LabeledPartition":
        items = tuple(sorted((tuple(sorted(b)), tuple(sorted(l))) for b, l in labels.items()))
        lp = LabeledPartition(partition, items)
        lp.validate()
        return lp

    def validate(self):
        p = self.partition
        labelled_blocks = [b for b, _ in self.labels]
        if sorted(labelled_blocks) != sorted(p.blocks):
            raise ValueError("labels must cover exactly the blocks")
        sizes = {len(b) // len(l) for b, l in self.labels if l}
        if len(sizes) != 1 or any(len(b) % len(l) for b, l in self.labels):
            raise ValueError("block sizes are not a common multiple of label sizes")
        covered = sorted(x for _, l in self.labels for x in l)
        k = sizes.pop()
        n = p.n // k
        ground = list(range(1, n + 1))
        if p.signed:
            ground += [-i for i in range(1, n + 1)]
        if covered != sorted(ground):
            raise ValueError("labels do not partition the ground set")
        if p.signed:
            lab = dict(self.labels)
            for b, l in self.labels:
                mb = tuple(sorted(-x for x in b))
                if set(lab[mb]) != {-x for x in l}:
                    raise ValueError("labels are not centrally symmetric")

    def __repr__(self):
        bits = ", ".join(
            f"{','.join(map(str, b))} -> {{{','.join(map(str, l))}}}" for b, l in self.labels
        )
        return f"Labeled({self.partition!r}; {bits})"


def bc_nabla_picture(chain: tuple[SetPartition, ...]) -> tuple[SetPartition, dict]:
    """nabla for a centrally symmetric chain on +-[n], with its block map.

    nabla runs on the +-[n] = [2n] line and returns the partition of
    +-[kn]; the map sends each block of it to the block of chain[0] it
    restricts to.  The result is centrally symmetric exactly when the
    entries are, so the entries are checked only when it is not.
    """
    pi = nabla(chain)
    if not pi.is_centrally_symmetric():
        if not all(p.is_centrally_symmetric() for p in chain):
            raise ValueError("chain entries must be centrally symmetric")
        raise RuntimeError("central symmetry lost under nabla (logic error)")
    return pi, nabla_block_map(pi, chain[0], len(chain))


def bc_nabla(chain: tuple[SetPartition, ...], labels: dict) -> LabeledPartition:
    """Labeled nabla for centrally symmetric chains on +-[n]: labels on the
    blocks of the first chain entry transfer along the block map of
    bc_nabla_picture."""
    pi, block_map = bc_nabla_picture(chain)
    label_in = {tuple(sorted(b)): tuple(sorted(l)) for b, l in labels.items()}
    return LabeledPartition.of(pi, {b: label_in[src] for b, src in block_map.items()})


def openers(p: SetPartition) -> dict[tuple[int, ...], int]:
    """Opener of each nonzero block under the periodic parenthesization:
    its first element clockwise after the mirror block, and so after the
    zero block when there is one, which separates the two.  The block and
    its mirror do not cross, so any one mirror element marks the start.
    """
    if not p.signed or not p.is_centrally_symmetric():
        raise ValueError("openers needs a centrally symmetric signed partition")
    if not is_noncrossing(p):
        raise ValueError("openers needs a noncrossing partition")
    n, zero = p.n, zero_block(p.blocks)
    start = {b: circ_position(-b[0], n) for b in p.blocks if b != zero}
    return {b: min(b, key=lambda x: (circ_position(x, n) - s) % (2 * n)) for b, s in start.items()}
