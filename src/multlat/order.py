"""Finite bounded-lattice kernel.

Elements are dense integer indices 0..size-1. The order relation is stored
as bitmask rows: bit j of ``up[i]`` is set iff i <= j, closed in one pass in
topological order (cyclic input goes through Warshall's scan, which only
names the cycle). Meets and joins are found by intersecting down-/up-masks
and looking up the principal down-/up-set equal to the result; the full
meet/join tables are precomputed at validation time, one scan per unordered
pair, so lattice queries are table lookups. All values are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn


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


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    """

    order: PartialOrder
    bottom: int
    top: int
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None
    join_irreducibles: tuple[int, ...]

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
    Raises NotALattice with the first offending pair in index order. By
    symmetry only the pairs x <= y (as indices) are scanned, each filling
    [x][y] and [y][x]: if (x, y) with x > y failed, (y, x) failed earlier,
    so the first failing pair has x <= y, and its meet is still tested first.
    J(L), the q covering exactly one element, are the q whose strict down-set
    is principal (bottom's is empty, so never): one lookup each in that index.
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
    meet_rows = [[0] * n for _ in range(n)]
    join_rows = [[0] * n for _ in range(n)]
    for x in range(n):
        down_x, up_x, meet_x, join_x = down[x], up[x], meet_rows[x], join_rows[x]
        for y in range(x, n):
            glb = by_down.get(down_x & down[y])
            if glb is None:
                raise NotALattice(x, y, "meet")
            lub = by_up.get(up_x & up[y])
            if lub is None:
                raise NotALattice(x, y, "join")
            meet_x[y] = meet_rows[y][x] = glb
            join_x[y] = join_rows[y][x] = lub
    full = (1 << n) - 1
    bottom, top = by_up[full], by_down[full]
    tables = tuple(map(tuple, meet_rows)), tuple(map(tuple, join_rows))
    irreducibles = tuple(q for q in range(n) if (down[q] ^ (1 << q)) in by_down)
    return FiniteLattice(order, bottom, top, *tables, labels, irreducibles)


def lattice_from_pairs(
    size: int,
    pairs: Iterable[tuple[int, int]],
    labels: Iterable[str] | None = None,
) -> FiniteLattice:
    """The lattice of ``pairs``' closure; without ``labels``, each element is labelled by its index."""
    if labels is None:
        labels = map(str, range(size))
    return validate_lattice(build_order(size, pairs), labels)
