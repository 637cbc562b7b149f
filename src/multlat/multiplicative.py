"""Multiplication on a finite lattice, with the derived element classes.

``attach_multiplication`` checks the multiplicative-lattice axioms
exhaustively: commutativity, associativity, distribution of the product over
binary joins plus annihilation of bottom (which together give distribution
over every finite join), and top acting as identity. A table that survives
becomes a :class:`MultiplicativeLattice`: a :class:`FiniteLattice` with the
table and a name added, which precomputes the data the classification sweeps
lean on: radicals (by two independent formulas, cross-asserted),
prime/maximal element sets, and per-element "product lands below" masks.

Every query is pure; negative classification answers expose the first
violating tuple in element-index order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

from .order import FiniteLattice, iter_bits, mask_of


class AxiomViolation(ValueError):
    """A multiplication table breaks one of the required identities."""

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}: {detail}")


class TopJoinReducible(ValueError):
    """Top is a join of two smaller elements, so no trivial multiplication."""

    def __init__(self, x: int, y: int):
        self.witness = (x, y)
        super().__init__(f"top = join({x}, {y}) with both arguments proper")


class RadicalMismatch(RuntimeError):
    """Power-formula and minimal-prime-formula radicals disagree (a bug)."""

    def __init__(self, a: int, by_powers: int, by_primes: int):
        self.element = a
        super().__init__(
            f"radical({a}): {by_powers} via powers, {by_primes} via minimal primes"
        )


class DegenerateLattice(ValueError):
    """The one-element lattice has no proper elements to classify."""


@dataclass(frozen=True, eq=False)
class MultiplicativeLattice(FiniteLattice):
    """A finite lattice together with a validated multiplication table.

    Immutable; build through :func:`attach_multiplication` (or the
    ``trivial_mult`` / ``meet_mult`` shortcuts). Equality is identity.
    """

    table: tuple[tuple[int, ...], ...]
    name: str = "L"

    @property
    def lattice(self) -> MultiplicativeLattice:
        """This instance; kept for callers such as ``meet_mult(M.lattice)`` in perfbench's tests."""
        return self

    # -- multiplication ----------------------------------------------------

    def product(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 1:
            raise ValueError("exponent must be >= 1")
        out = a
        for _ in range(k - 1):
            out = self.table[out][a]
        return out

    def power_closure(self, a: int) -> frozenset[int]:
        """All values of a, a^2, a^3, ...; the sequence repeats within |L| steps."""
        seen: set[int] = set()
        cur = a
        while cur not in seen:
            seen.add(cur)
            cur = self.table[cur][a]
        return frozenset(seen)

    def residual(self, i: int, a: int) -> int:
        """(i : a), the largest x with x*a <= i."""
        return self.big_join(iter_bits(self._prod_below[a][i]))

    def annihilator(self, a: int) -> int:
        return self.residual(self.bottom, a)

    @cached_property
    def _prod_below(self) -> tuple[tuple[int, ...], ...]:
        # _prod_below[a][i] = mask of b with a*b <= i
        n = self.size
        up = self.order.up
        rows = []
        for a in range(n):
            acc = [0] * n
            row = self.table[a]
            for b in range(n):
                bit_b = 1 << b
                for i in iter_bits(up[row[b]]):
                    acc[i] |= bit_b
            rows.append(tuple(acc))
        return tuple(rows)

    # -- nilpotents, zero divisors, radicals --------------------------------

    @cached_property
    def _nil_mask(self) -> int:
        return mask_of(a for a in range(self.size) if self.bottom in self.power_closure(a))

    def nilpotents(self) -> frozenset[int]:
        return frozenset(iter_bits(self._nil_mask))

    def is_reduced(self) -> bool:
        return self._nil_mask == 1 << self.bottom

    @cached_property
    def _zdiv_mask(self) -> int:
        n = self.size
        bottom = self.bottom
        out = 0
        for x in range(n):
            row = self.table[x]
            if any(row[y] == bottom for y in range(n) if y != bottom):
                out |= 1 << x
        return out

    def zero_divisors(self) -> frozenset[int]:
        return frozenset(iter_bits(self._zdiv_mask))

    @cached_property
    def _radicals(self) -> tuple[int, ...]:
        # Two independent formulas per element, cross-asserted: join of the
        # elements with some power below a, and meet of the minimal primes
        # over a. A disagreement means the table validation is broken.
        n = self.size
        closures = [self.power_closure(x) for x in range(n)]
        down = self.order.down
        primes = self._prime_mask
        out = []
        for a in range(n):
            d = down[a]
            by_powers = self.big_join(
                x for x in range(n) if any(d >> p & 1 for p in closures[x])
            )
            over = [p for p in iter_bits(primes) if down[p] >> a & 1]
            minimal = [p for p in over if not any(q != p and down[p] >> q & 1 for q in over)]
            by_primes = self.big_meet(minimal)
            if by_powers != by_primes:
                raise RadicalMismatch(a, by_powers, by_primes)
            out.append(by_powers)
        return tuple(out)

    def radical(self, a: int) -> int:
        return self._radicals[a]

    # -- prime / primary / maximal ------------------------------------------

    def escape_witness(self, i: int, skip: int, keep: int) -> tuple[int, int] | None:
        """First (a, b) in index order with a*b <= i, a outside skip, b outside keep.

        ``skip`` and ``keep`` are element masks. The X-element, prime and
        primary witnesses are all this scan with different masks.
        """
        below = self._prod_below
        for a in range(self.size):
            if skip >> a & 1:
                continue
            bad = below[a][i] & ~keep
            if bad:
                return a, (bad & -bad).bit_length() - 1
        return None

    def prime_witness(self, p: int) -> tuple[int, int] | None:
        """First (a, b) with a*b <= p but neither factor <= p; None if prime.

        Properness is not examined here; ``is_prime`` adds it.
        """
        down_p = self.order.down[p]
        return self.escape_witness(p, down_p, down_p)

    def is_prime(self, p: int) -> bool:
        return bool(self._prime_mask >> p & 1)

    @cached_property
    def _prime_mask(self) -> int:
        out = 0
        for p in range(self.size):
            if p != self.top and self.prime_witness(p) is None:
                out |= 1 << p
        return out

    def prime_elements(self) -> frozenset[int]:
        return frozenset(iter_bits(self._prime_mask))

    def primary_witness(self, i: int) -> tuple[int, int] | None:
        """First (a, b) with a*b <= i, a not<= i and b not<= radical(i)."""
        down = self.order.down
        return self.escape_witness(i, down[i], down[self.radical(i)])

    def is_primary(self, i: int) -> bool:
        return i != self.top and self.primary_witness(i) is None

    def maximal_witness(self, m: int) -> int | None:
        """An element strictly between m and top, if one exists."""
        strictly_between = self.order.up[m] & ~(1 << m) & ~(1 << self.top)
        if strictly_between:
            return (strictly_between & -strictly_between).bit_length() - 1
        return None

    def is_maximal(self, m: int) -> bool:
        return m != self.top and self.maximal_witness(m) is None

    @cached_property
    def _max_mask(self) -> int:
        if self.size == 1:
            raise DegenerateLattice("one-element lattice has no maximal elements")
        out = mask_of(m for m in range(self.size) if self.is_maximal(m))
        # Maximal elements of a finite multiplicative lattice are prime.
        assert out & ~self._prime_mask == 0, "maximal element failed primeness"
        return out

    def max_elements(self) -> frozenset[int]:
        return frozenset(iter_bits(self._max_mask))

    def jacobson(self) -> int:
        return self.big_meet(iter_bits(self._max_mask))

    def min_primes(self) -> frozenset[int]:
        primes = self._prime_mask
        down = self.order.down
        return frozenset(
            p for p in iter_bits(primes) if down[p] & primes == 1 << p
        )

    def is_local(self) -> bool:
        return len(self.max_elements()) == 1

    def is_domain(self) -> bool:
        if self.size == 1:
            raise DegenerateLattice("one-element lattice is not classified")
        return self.is_prime(self.bottom)


def attach_multiplication(
    lattice: FiniteLattice,
    table: Iterable[Iterable[int]],
    name: str = "L",
) -> MultiplicativeLattice:
    """Validate every axiom on every tuple and wrap the result.

    Checks, in order: entry range, commutativity, top identity, bottom
    annihilation, distribution over binary joins, associativity, and the
    derived product<=meet bound (implied by the axioms; kept as a guard).
    Raises AxiomViolation naming the first offending tuple.
    """
    rows = tuple(tuple(r) for r in table)
    n = lattice.size
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"table must be {n}x{n}")
    for a in range(n):
        for b in range(n):
            v = rows[a][b]
            if not (0 <= v < n):
                raise AxiomViolation("closure", (a, b), f"entry {v} out of range")
    for a in range(n):
        for b in range(a + 1, n):
            if rows[a][b] != rows[b][a]:
                raise AxiomViolation(
                    "commutativity", (a, b), f"{rows[a][b]} != {rows[b][a]}"
                )
    top, bottom = lattice.top, lattice.bottom
    for a in range(n):
        if rows[a][top] != a:
            raise AxiomViolation("identity", (a,), f"a*top = {rows[a][top]}")
        if rows[a][bottom] != bottom:
            raise AxiomViolation("annihilation", (a,), f"a*bottom = {rows[a][bottom]}")
    join = lattice.join_table
    for a in range(n):
        row_a = rows[a]
        for b in range(n):
            ab = row_a[b]
            for c in range(b + 1, n):
                if row_a[join[b][c]] != join[ab][row_a[c]]:
                    raise AxiomViolation(
                        "distributivity",
                        (a, b, c),
                        f"a*(b v c) = {row_a[join[b][c]]}, (a*b) v (a*c) = {join[ab][row_a[c]]}",
                    )
    for a in range(n):
        row_a = rows[a]
        for b in range(n):
            ab = row_a[b]
            row_b = rows[b]
            for c in range(n):
                if row_a[row_b[c]] != rows[ab][c]:
                    raise AxiomViolation(
                        "associativity",
                        (a, b, c),
                        f"a*(b*c) = {row_a[row_b[c]]}, (a*b)*c = {rows[ab][c]}",
                    )
    meet = lattice.meet_table
    for a in range(n):
        for b in range(a, n):
            if not lattice.leq(rows[a][b], meet[a][b]):
                raise AxiomViolation(
                    "product-below-meet", (a, b), f"a*b = {rows[a][b]} not <= a^b"
                )
    base = {f.name: getattr(lattice, f.name) for f in fields(FiniteLattice)}
    return MultiplicativeLattice(**base, table=rows, name=name)


def trivial_mult(lattice: FiniteLattice, name: str = "L") -> MultiplicativeLattice:
    """x*y = bottom for proper x, y and top the identity.

    Needs top join-irreducible (join of proper elements stays proper),
    otherwise distributivity breaks; raises TopJoinReducible then.
    """
    n = lattice.size
    top, bottom = lattice.top, lattice.bottom
    for x in range(n):
        if x == top:
            continue
        for y in range(x, n):
            if y != top and lattice.join(x, y) == top:
                raise TopJoinReducible(x, y)
    rows = [
        [x if y == top else (y if x == top else bottom) for y in range(n)]
        for x in range(n)
    ]
    return attach_multiplication(lattice, rows, name)


def meet_mult(lattice: FiniteLattice, name: str = "L") -> MultiplicativeLattice:
    """Use the lattice meet as the multiplication.

    Valid exactly when meet distributes over join; AxiomViolation otherwise
    (chains always qualify).
    """
    return attach_multiplication(lattice, lattice.meet_table, name)
