"""Classical and type-BC set partition combinatorics.

Noncrossing predicate, Kreweras complementation, the translation between
noncrossing partitions and permutations, the multichain-to-k-divisible
bijection nabla, and Reiner's periodic parenthesization for centrally
symmetric partitions.

Ground sets are [n] or +-[n]; the +-[n] boundary order on the disc is
1, 2, ..., n, -1, -2, ..., -n, read clockwise.
"""

from __future__ import annotations

from .reflgroup import (
    SignedPerm,
    Value,
    canonical_blocks,
    partition_refines,
    perm_from_cycles,
    set_field,
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


# -- partitions <-> permutations ------------------------------------------------


def omega(p: SetPartition) -> SignedPerm:
    """The permutation whose cycles are the blocks of p in clockwise order.

    Centrally symmetric partitions of +-[n] yield the signed permutation
    whose cycles are the blocks read in the boundary order; this is the
    noncrossing group element with that coordinate-equality fixed space.
    """
    if not is_noncrossing(p):
        raise ValueError(f"omega needs a noncrossing partition, got {p!r}")
    if not p.signed:
        return perm_from_cycles(p.n, *[tuple(sorted(b)) for b in p.blocks])
    img = list(range(1, p.n + 1))
    for b in p.blocks:
        cyc = sorted(b, key=lambda x: circ_position(x, p.n))
        for a, c in zip(cyc, cyc[1:] + cyc[:1]):
            if a > 0:
                img[a - 1] = c
            else:
                img[-a - 1] = -c
    return SignedPerm(tuple(img))


def pi_of(w: SignedPerm, n: int | None = None) -> SetPartition:
    """Inverse of omega on its image: cycles must be increasing along 1..n."""
    n = n if n is not None else w.n
    blocks = w.cycles()
    for cyc in blocks:
        if list(cyc) != sorted(cyc):
            raise ValueError(f"cycle {cyc} of {w!r} is not increasing")
    return SetPartition.of(n, blocks)


def boundary_delta(ws: tuple[SignedPerm, ...], c: SignedPerm) -> tuple[SignedPerm, ...]:
    """(w1,...,wk) -> (w1^-1 w2, ..., w_{k-1}^-1 wk, wk^-1 c)."""
    out = [ws[i].inverse() * ws[i + 1] for i in range(len(ws) - 1)]
    out.append(ws[-1].inverse() * c)
    return tuple(out)


# -- shuffles and nabla -----------------------------------------------------------


def relabel(p: SetPartition, targets: list[int]) -> list[tuple[int, ...]]:
    """The partition p(B): order-isomorphic copy of p on the index set B."""
    if len(targets) != p.n:
        raise ValueError("target set has wrong size")
    targets = sorted(targets)
    return [tuple(targets[x - 1] for x in b) for b in p.blocks]


def shuffle(ps: tuple[SetPartition, ...]) -> SetPartition:
    """Partition of [kn] generated by p_i placed on {i, i+k, ..., i+(n-1)k}."""
    k = len(ps)
    n = ps[0].n
    blocks = []
    for i, p in enumerate(ps, start=1):
        blocks.extend(relabel(p, [i + j * k for j in range(n)]))
    return SetPartition.of(k * n, blocks)


def nabla(chain: tuple[SetPartition, ...]) -> SetPartition:
    """Bijection from k-multichains of noncrossing partitions of [n] to
    k-divisible noncrossing partitions of [kn]: the Kreweras complement of
    the shuffle of the boundary factors.

    The factor tuple enters the shuffle in its literal order; this is the
    unique slot order that is defined on every multichain and transports
    the cyclic action on multichains to one-step clockwise rotation.
    """
    k = len(chain)
    n = chain[0].n
    for a, b in zip(chain, chain[1:]):
        if not a.refines(b):
            raise ValueError("input is not a refinement multichain")
    c = perm_from_cycles(n, tuple(range(1, n + 1)))
    ws = tuple(omega(p) for p in chain)
    deltas = boundary_delta(ws, c)
    parts = tuple(pi_of(w) for w in deltas)
    mixed = shuffle(parts)
    out = kreweras(mixed)
    if any(len(b) % k for b in out.blocks):
        raise RuntimeError("nabla output is not k-divisible (logic error)")
    return out


def nabla_block_map(pi: SetPartition, first: SetPartition, k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Match blocks of pi = nabla(chain) with blocks of chain[0].

    Sends each block B of pi to the block of chain[0] whose image under
    i -> (i-1)k + 1 lies in B.  Blocks of pi disjoint from the restriction
    positions do not occur (every block meets them).
    """
    n = first.n
    positions = {(i - 1) * k + 1: i for i in range(1, n + 1)}
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


def to_line_partition(p: SetPartition) -> SetPartition:
    blocks = [tuple(circ_position(x, p.n) + 1 for x in b) for b in p.blocks]
    return SetPartition.of(2 * p.n, blocks)


def from_line_partition(p: SetPartition, n: int) -> SetPartition:
    blocks = [tuple(line_to_signed(x, n) for x in b) for b in p.blocks]
    return SetPartition.of(n, blocks, signed=True)


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

    The chain is pushed through the +-[n] = [2n] identification, nabla is
    applied there, and the result is pulled back to +-[kn].  The map sends
    each block of the result to the block of chain[0] it restricts to.
    """
    n = chain[0].n
    k = len(chain)
    for p in chain:
        if not p.is_centrally_symmetric():
            raise ValueError("chain entries must be centrally symmetric")
    line_chain = tuple(to_line_partition(p) for p in chain)
    pi_line = nabla(line_chain)
    pi = from_line_partition(pi_line, k * n)
    if not pi.is_centrally_symmetric():
        raise RuntimeError("central symmetry lost under nabla (logic error)")
    block_map = {}
    for b, src in nabla_block_map(pi_line, line_chain[0], k).items():
        signed_b = tuple(sorted(line_to_signed(x, k * n) for x in b))
        block_map[signed_b] = tuple(sorted(line_to_signed(x, n) for x in src))
    return pi, block_map


def bc_nabla(chain: tuple[SetPartition, ...], labels: dict) -> LabeledPartition:
    """Labeled nabla for centrally symmetric chains on +-[n]: labels on the
    blocks of the first chain entry transfer along the block map of
    bc_nabla_picture."""
    pi, block_map = bc_nabla_picture(chain)
    label_in = {tuple(sorted(b)): tuple(sorted(l)) for b, l in labels.items()}
    return LabeledPartition.of(pi, {b: label_in[src] for b, src in block_map.items()})


def openers(p: SetPartition) -> dict[tuple[int, ...], int]:
    """Opener of each nonzero block under the periodic parenthesization.

    Blocks are peeled innermost first: a block is removable once its
    elements are cyclically consecutive among the not-yet-removed
    positions (zero-block positions are never removed and so keep
    blocking).  The opener is the first element of the removed run.
    """
    if not p.signed or not p.is_centrally_symmetric():
        raise ValueError("openers needs a centrally symmetric signed partition")
    if not is_noncrossing(p):
        raise ValueError("openers needs a noncrossing partition")
    n = p.n
    order = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    alive = set(order)
    zero = zero_block(p.blocks)
    todo = [b for b in p.blocks if b != zero]
    out: dict[tuple[int, ...], int] = {}

    def run_start(b) -> int | None:
        # unique element whose alive predecessor is outside the block, and
        # from which the block is one contiguous alive run
        bset = set(b)
        starts = []
        for x in b:
            pos = circ_position(x, n)
            while True:
                pos = (pos - 1) % (2 * n)
                prev = order[pos]
                if prev in alive:
                    break
            if prev not in bset:
                starts.append(x)
        if len(starts) != 1:
            return None
        pos = circ_position(starts[0], n)
        run = [starts[0]]
        while len(run) < len(b):
            pos = (pos + 1) % (2 * n)
            nxt = order[pos]
            if nxt not in alive:
                continue
            if nxt not in bset:
                return None
            run.append(nxt)
        return starts[0]

    while todo:
        # find every innermost block before removing any: mirror pairs become
        # removable together and must both be read against the same circle
        ready = [(b, run_start(b)) for b in todo]
        ready = [(b, s) for b, s in ready if s is not None]
        if not ready:
            raise RuntimeError(f"no removable block; not noncrossing? {p!r}")
        for b, s in ready:
            out[b] = s
            alive -= set(b)
        removed = {b for b, _ in ready}
        todo = [b for b in todo if b not in removed]
    return out
