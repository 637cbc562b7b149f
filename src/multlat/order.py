"""Finite bounded-lattice kernel.

Elements are dense integer indices 0..size-1. The order relation is stored
as bitmask rows: bit j of ``up[i]`` is set iff i <= j, closed in one pass in
topological order (cyclic input goes through Warshall's scan, which only
names the cycle). A meet or join is found by intersecting down-/up-masks
and looking up the principal down-/up-set equal to the result.
``validate_lattice`` makes those lookups only for the rows of bottom and
the join-irreducibles J(L) of the join table, and of top and the
meet-irreducibles M(L) of the meet table: n*(|J| + |M|) lookups instead of
one per pair. Every other a is b v c for two lower covers b and c, and
its join row is row b read at the entries of row c, since
a v x = b v (c v x); dually for the meet rows through two upper covers.
So lattice queries are table lookups. All values are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NoReturn


class CycleError(ValueError):
    """The transitive closure of the input pairs is not antisymmetric."""

    def __init__(self, x: int, y: int):
        self.witness = (x, y)
        super().__init__(f"order cycle: {x} <= {y} and {y} <= {x} with {x} != {y}")


class NotALattice(ValueError):
    """Some pair of elements has no meet or no join."""

    def __init__(self, x: int, y: int, kind: str):
        self.witness = (x, y)
        self.kind = kind
        super().__init__(f"pair ({x}, {y}) has no {kind}")


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def lowest(mask: int) -> int:
    """The least element of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def first_pair_outside(
    table: tuple[tuple[int, ...], ...], mask: int, reach: tuple[int, ...]
) -> tuple[int, int] | None:
    """First (a, b) in index order, a <= b both in ``mask``, with ``table[a][b]``
    outside ``mask``; None when the set is closed under the table.

    ``table`` is symmetric, so a failing (a, b) with b < a has (b, a) failing
    earlier, and scanning b >= a keeps the witness first, squares included.
    ``reach[a]`` holds every entry of row a (the down-set row for a meet or a
    product, the up-set row for a join): a row whose reach lies inside
    ``mask`` passes untested. Every other row is tested against the members
    from a on in one C-level pass, and only a failing row is scanned for b.
    """
    members = list(iter_bits(mask))
    inside, outside = set(members), ((1 << len(reach)) - 1) ^ mask
    for k, a in enumerate(members):
        if not reach[a] & outside:
            continue
        row, later = table[a], members[k:]
        if inside.issuperset(map(row.__getitem__, later)):
            continue
        for b in later:
            if row[b] not in inside:
                return a, b
    return None


@dataclass(frozen=True)
class PartialOrder:
    """A reflexive, antisymmetric, transitive relation on 0..size-1."""

    size: int
    up: tuple[int, ...]    # bit j of up[i] <=> i <= j
    down: tuple[int, ...]  # bit i of down[j] <=> i <= j

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


def build_order(size: int, pairs: Iterable[tuple[int, int]]) -> PartialOrder:
    """Reflexive-transitive closure of ``pairs`` on 0..size-1.

    Accepts cover relations or arbitrary <=-pairs, repeats and self-pairs
    included. Kahn's algorithm orders the elements; up-sets are ORed in
    reverse order and down-sets pushed forward, O(size + |pairs|) mask ORs.
    Input with a cycle has no such order; ``_warshall`` names the cycle.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    succ: list[list[int]] = [[] for _ in range(size)]
    indegree = [0] * size
    for x, y in pairs:
        if not (0 <= x < size and 0 <= y < size):
            raise IndexError(f"pair ({x}, {y}) out of range for size {size}")
        if x != y:
            succ[x].append(y)
            indegree[y] += 1
    topo = [i for i in range(size) if not indegree[i]]
    for x in topo:  # grows while it is walked
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                topo.append(y)
    if len(topo) < size:
        _warshall(size, [(x, y) for x in range(size) for y in succ[x]])
    up = [1 << i for i in range(size)]
    for x in reversed(topo):
        for y in succ[x]:
            up[x] |= up[y]
    down = [1 << i for i in range(size)]
    for x in topo:
        for y in succ[x]:
            down[y] |= down[x]
    return PartialOrder(size, tuple(up), tuple(down))


def _warshall(size: int, pairs: list[tuple[int, int]]) -> NoReturn:
    """Raise CycleError naming the first cycle of cyclic ``pairs`` in index order.

    Warshall's closure on bitmask rows; the witness is the first i with some
    j != i and i <= j <= i, and the first such j. ``build_order`` calls this
    only on input Kahn's algorithm cannot order, which has a cycle.
    """
    up = [1 << i for i in range(size)]
    for x, y in pairs:
        up[x] |= 1 << y
    for k in range(size):
        row_k = up[k]
        bit_k = 1 << k
        for i in range(size):
            if up[i] & bit_k:
                up[i] |= row_k
    for i in range(size):
        for j in iter_bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                raise CycleError(i, j)
    raise AssertionError("_warshall called on acyclic input")


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A validated finite bounded lattice with precomputed meet/join tables; equality is identity.

    ``join_irreducibles`` is J(L) in index order, recorded by ``validate_lattice``;
    every element is the join of the members of J(L) below it (Dilworth 1962).
    ``labels`` is None for a lattice validated without labels.

    ``lower_split`` holds, for every a outside bottom and J(L), a triple
    a, b, c with b and c two distinct lower covers of a, so a = b v c. It is
    flat (a0, b0, c0, a1, b1, c1, ...), and b and c come before a whenever
    they are split themselves: the triples follow a linear extension.
    ``upper_split`` is the dual: a = b ^ c for two distinct upper covers, for
    every a outside top and the meet-irreducibles M(L), in the reverse of a
    linear extension. Two covers b != c of a are incomparable, so b v c lies
    strictly above b and at most a, which covers b: b v c = a.
    """

    order: PartialOrder
    bottom: int
    top: int
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None
    join_irreducibles: tuple[int, ...]
    lower_split: tuple[int, ...]
    upper_split: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.order.size

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def label(self, a: int) -> str:
        return self.labels[a]

    def proper_elements(self) -> list[int]:
        return [a for a in range(self.size) if a != self.top]

    def leq(self, x: int, y: int) -> bool:
        return self.order.leq(x, y)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.order.leq(x, y)

    def down_mask(self, a: int) -> int:
        return self.order.down[a]

    def down_set(self, a: int) -> frozenset[int]:
        return frozenset(iter_bits(self.order.down[a]))

    def maximal_members(self, mask: int) -> int:
        """The members of ``mask`` below no other member, as a mask: one mask test each."""
        return mask_of(a for a in iter_bits(mask) if self.order.up[a] & mask == 1 << a)

    def minimal_members(self, mask: int) -> int:
        """The members of ``mask`` above no other member, as a mask: one mask test each."""
        return mask_of(a for a in iter_bits(mask) if self.order.down[a] & mask == 1 << a)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def big_meet(self, items: Iterable[int]) -> int:
        out = self.top
        for a in items:
            out = self.meet_table[out][a]
        return out

    def big_join(self, items: Iterable[int]) -> int:
        out = self.bottom
        for a in items:
            out = self.join_table[out][a]
        return out

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (x, y) with y covering x; the Hasse diagram edge set."""
        out = []
        for x in range(self.size):
            strict_up = self.order.up[x] & ~(1 << x)
            for y in iter_bits(strict_up):
                between = self.order.up[x] & self.order.down[y] & ~(1 << x) & ~(1 << y)
                if not between:
                    out.append((x, y))
        return out

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


def validate_lattice(order: PartialOrder, labels: Iterable[str] | None = None) -> FiniteLattice:
    """Check every pair has a meet and a join; fix bottom/top; build tables.

    The common lower bounds of x and y form a down-set, which has a greatest
    element m exactly when it equals down[m]; so the meet is one lookup in
    the principal down-sets, and dually the join in the principal up-sets.
    J(L), the q covering exactly one element, are the q whose strict down-set
    is principal (bottom's is empty, so never): one lookup each in that
    index; M(L) dually. The tables are built through the splits
    (``_cover_splits``):

    * Join rows: bottom's row is the identity and the rows of J(L) are
      lookups, n*|J| of them. Every other a is b v c for two lower covers;
      that needs no check once b v c exists (see ``FiniteLattice``).
      By induction along the linear extension, suppose rows b and c hold
      true joins. Then a v x = b v (c v x): b v (c v x) lies above b, c and
      x, so above a and x, and every upper bound of a and x lies above
      c v x and b. So row a is row b read at the entries of row c, one
      C-level pass, and the join exists for every pair.
    * Meet rows: the dual, from top's row, the M(L) rows and the upper split.

    A lattice passes every lookup. An order without bottom or top, or with
    a failed lookup, is no lattice and goes through the pair scan, which
    raises NotALattice naming the first offending pair in index order.
    Without ``labels`` the lattice has none (``labels`` None).
    """
    n = order.size
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} elements")
        if len(set(labels)) != n:
            raise ValueError("duplicate labels")
    up, down = order.up, order.down
    by_down = {d: c for c, d in enumerate(down)}
    by_up = {u: c for c, u in enumerate(up)}
    full = (1 << n) - 1
    bottom, top = by_up.get(full), by_down.get(full)
    if bottom is not None and top is not None:
        irreducibles, lower, meet_irreducibles, upper = _cover_splits(order, by_down, by_up, bottom, top)
        try:
            join_table = _rows_through_split(bottom, irreducibles, lower, up, by_up)
            meet_table = _rows_through_split(top, meet_irreducibles, upper, down, by_down)
        except KeyError:
            pass
        else:
            return FiniteLattice(
                order, bottom, top, meet_table, join_table, labels, irreducibles, lower, upper,
            )
    _pair_scan(order, by_down, by_up)
    raise RuntimeError("the pair scan accepts an order the cover splits reject")


def _cover_splits(
    order: PartialOrder, by_down: dict[int, int], by_up: dict[int, int], bottom: int, top: int
) -> tuple[tuple[int, ...], tuple[int, ...], list[int], tuple[int, ...]]:
    """J(L) in index order, the lower split, M(L) and the upper split.

    Sorting by down-mask value gives a linear extension: x < y makes down[x]
    a proper subset of down[y], so a smaller integer; its reverse is one of
    the dual order. Every a outside bottom whose strict down-set is not
    principal has at least two maximal elements there, its lower covers,
    since bottom lies in it. Lower covers are sought from the low index
    end and upper covers from the high end: the divisor numbering of Id(Z_n)
    lists larger ideals first, so the first probe is usually a cover.
    """
    up, down = order.up, order.down
    rank = sorted(range(order.size), key=down.__getitem__)
    irreducibles, lower = _split(rank, bottom, down, up, by_down, lowest)
    rank.reverse()
    meet_irreducibles, upper = _split(rank, top, up, down, by_up, _highest)
    irreducibles.sort()
    return tuple(irreducibles), lower, meet_irreducibles, upper


def _highest(mask: int) -> int:
    return mask.bit_length() - 1


def _split(
    rank: list[int],
    end: int,
    below: tuple[int, ...],
    above: tuple[int, ...],
    principal: dict[int, int],
    pick: Callable[[int], int],
) -> tuple[list[int], tuple[int, ...]]:
    """The a in ``rank`` whose strict ``below``-set is principal, and the flat
    triples (a, b, c) of two covers b != c for every other a but ``end``.

    A cover is a maximal element of the strict set: from any member, step to
    a member above it until none is left. c is sought outside below[b]; every
    member above such a start is outside it too.
    """
    irreducibles: list[int] = []
    split: list[int] = []
    for a in rank:
        strict = below[a] ^ (1 << a)
        if strict in principal:
            irreducibles.append(a)
        elif a != end:
            b = pick(strict)
            while (over := above[b] & strict) != 1 << b:
                b = pick(over ^ (1 << b))
            c = pick(strict & ~below[b])
            while (over := above[c] & strict) != 1 << c:
                c = pick(over ^ (1 << c))
            split += (a, b, c)
    return irreducibles, tuple(split)


def _rows_through_split(
    start: int,
    irreducibles: Iterable[int],
    split: tuple[int, ...],
    masks: tuple[int, ...],
    by_mask: dict[int, int],
) -> tuple[tuple[int, ...], ...]:
    """Join rows through ``masks`` = up (or meet rows through down): row
    ``start`` is the identity, each irreducible row is looked up, and each
    split row is row b read at the entries of row c. KeyError on a failed lookup."""
    rows: list = [None] * len(masks)
    rows[start] = tuple(range(len(masks)))
    for p in irreducibles:
        mask = masks[p]
        rows[p] = tuple([by_mask[mask & other] for other in masks])
    triples = iter(split)
    for a, b, c in zip(triples, triples, triples):
        rows[a] = itemgetter(*rows[c])(rows[b])
    return tuple(rows)


def _pair_scan(order: PartialOrder, by_down: dict[int, int], by_up: dict[int, int]) -> None:
    """Raise NotALattice at the first pair in index order without a meet or a join.

    By symmetry only the pairs x <= y (as indices) are scanned: if (x, y)
    with x > y failed, (y, x) failed earlier, so the first failing pair has
    x <= y, and its meet is still tested first.
    """
    up, down = order.up, order.down
    for x in range(order.size):
        down_x, up_x = down[x], up[x]
        for y in range(x, order.size):
            if (down_x & down[y]) not in by_down:
                raise NotALattice(x, y, "meet")
            if (up_x & up[y]) not in by_up:
                raise NotALattice(x, y, "join")


def lattice_from_pairs(
    size: int,
    pairs: Iterable[tuple[int, int]],
    labels: Iterable[str] | None = None,
) -> FiniteLattice:
    """The lattice of ``pairs``' closure; without ``labels``, each element is labelled by its index."""
    if labels is None:
        labels = map(str, range(size))
    return validate_lattice(build_order(size, pairs), labels)
