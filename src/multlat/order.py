"""Finite bounded-lattice kernel.

Elements are dense integer indices 0..size-1. The order relation is stored
as bitmask rows: bit j of ``up[i]`` is set iff i <= j. Meets and joins are
found by intersecting down-/up-masks and scanning for the extremal member;
the full meet/join tables are precomputed at validation time, so lattice
queries are table lookups. All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


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

    Accepts cover relations or arbitrary <=-pairs; raises CycleError when the
    closure identifies two distinct elements.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    up = [1 << i for i in range(size)]
    for x, y in pairs:
        if not (0 <= x < size and 0 <= y < size):
            raise IndexError(f"pair ({x}, {y}) out of range for size {size}")
        up[x] |= 1 << y
    # Warshall on bitmask rows.
    for k in range(size):
        row_k = up[k]
        bit_k = 1 << k
        for i in range(size):
            if up[i] & bit_k:
                up[i] |= row_k
    down = [0] * size
    for i in range(size):
        row = up[i]
        bit_i = 1 << i
        for j in iter_bits(row):
            down[j] |= bit_i
    for i in range(size):
        both = up[i] & down[i]
        if both != 1 << i:
            j = next(b for b in iter_bits(both) if b != i)
            raise CycleError(i, j)
    return PartialOrder(size, tuple(up), tuple(down))


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A validated finite bounded lattice with precomputed meet/join tables; equality is identity."""

    order: PartialOrder
    bottom: int
    top: int
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

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

    def up_mask(self, a: int) -> int:
        return self.order.up[a]

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


def _extremal(order: PartialOrder, candidates: int, bound_rows: tuple[int, ...]) -> int | None:
    # The candidate m whose bound-row covers all candidates, if any.
    for m in iter_bits(candidates):
        if candidates & ~bound_rows[m] == 0:
            return m
    return None


def validate_lattice(order: PartialOrder, labels: Iterable[str] | None = None) -> FiniteLattice:
    """Check every pair has a meet and a join; fix bottom/top; build tables.

    Raises NotALattice with the first offending pair (index-order scan).
    """
    n = order.size
    if labels is None:
        label_tuple = tuple(str(i) for i in range(n))
    else:
        label_tuple = tuple(labels)
        if len(label_tuple) != n:
            raise ValueError(f"{len(label_tuple)} labels for {n} elements")
        if len(set(label_tuple)) != n:
            raise ValueError("duplicate labels")
    meet_rows = []
    join_rows = []
    for x in range(n):
        mrow = []
        jrow = []
        for y in range(n):
            glb = _extremal(order, order.down[x] & order.down[y], order.down)
            if glb is None:
                raise NotALattice(x, y, "meet")
            lub = _extremal(order, order.up[x] & order.up[y], order.up)
            if lub is None:
                raise NotALattice(x, y, "join")
            mrow.append(glb)
            jrow.append(lub)
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    bottom = 0
    top = 0
    for x in range(1, n):
        bottom = meet_rows[bottom][x]
        top = join_rows[top][x]
    return FiniteLattice(order, bottom, top, tuple(meet_rows), tuple(join_rows), label_tuple)


def lattice_from_pairs(
    size: int,
    pairs: Iterable[tuple[int, int]],
    labels: Iterable[str] | None = None,
) -> FiniteLattice:
    return validate_lattice(build_order(size, pairs), labels)
