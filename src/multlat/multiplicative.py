"""Multiplication on a finite lattice, with the derived element classes.

``attach_multiplication`` checks the multiplicative-lattice axioms
exhaustively, each equation once: commutativity, top acting as identity,
annihilation of bottom, distribution of the product over binary joins
(with annihilation, distribution over every finite join), and
associativity; together these imply a*b <= a^b. The two cubic identities
are checked through the join-irreducibles J(L), which every element is the
join of. Distribution: each row p in J(L) over L x J(L), and every other
row a != bottom as the elementwise join of the rows of two lower covers of
a, which join to a (the lattice's ``lower_split``): O(n |J|^2 + n^2)
entries. Associativity: over J(L)^3. A table that fails any check is
scanned again, axiom by axiom, over all tuples, which names the first
violation.
A table that survives is returned as a :class:`MultiplicativeLattice`,
which computes on first use, and keeps in its ``derived`` dict, the data
the classification sweeps lean on: radicals (by two independent formulas,
cross-asserted), prime/maximal element sets, the zero divisors, the
Jacobson radical, the X-element masks and the residual table. None of them
reads a label, so ``view`` relabels a lattice and passes the dict on, and
every relabelling computes each of them once. The residual table holds
(i : a) for every i and a, and is built through both splits of the
lattice. x*a <= i defines a down-set of x closed under joins, by
distribution, so (i : a) is its greatest element, and:

* (i : b v c) = (i : b) ^ (i : c), since x*(b v c) = x*b v x*c <= i exactly
  when x*b <= i and x*c <= i. So every row a outside bottom and J(L) is the
  elementwise meet of the rows of the two lower covers of its split.
* (b ^ c : q) = (b : q) ^ (c : q), since x*q <= b ^ c exactly when x*q <= b
  and x*q <= c. So in a row q of J(L), every column outside top and the
  meet-irreducibles M(L) is the meet of the columns of the two upper covers
  of its split, and only the M(L) columns are computed directly, as the
  join of the p in J(L) with p*q <= m (Davey & Priestley, ch. 7: every
  element is a meet of members of M(L)).

That is |J|^2 |M| tests, n |J| meets for the J(L) rows and n^2 for the rest.

Three escape masks, each built once, answer every X-element question. An
element a *escapes* at i when a*b <= i for some b not <= i.

* F[a], the i at which a escapes, read off the table alone: b may be taken
  in J(L), as some q in J(L) below b is not <= i either and a*q <= a*b.
  The X-elements of X are the proper elements outside the F[a], a not in
  X. The primes and the zero divisors come from F as well (a proper p is
  prime when no q in J(L) outside down(p) escapes at p; x is a zero divisor
  when it escapes at bottom), so deciding the r-, n- and J-elements never
  builds the residual table.
* E[i], the a with (i : a) != i. Since i*a <= i, i <= (i : a); so a
  escapes at i exactly when (i : a) != i, and the first b is the first
  element below (i : a) but not below i. The X-element and prime witnesses
  are read off E.
* R[i], the residuals (i : a) over a not <= i. Since top*a = a,
  (i : a) = top exactly when a <= i; so R[i] is column i of the residual
  table without top.

``product`` builds A x B from two validated factors: its order masks go
through ``validate_lattice`` like any other lattice's, and its
multiplication and residual tables are combined componentwise. The table is
not validated again: every axiom is an equation, and an equation holds in
A x B exactly when it holds in A and in B (the proof is in its docstring).

Every query is pure; negative classification answers expose the first
violating tuple in element-index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from itertools import chain, compress
from operator import eq, itemgetter
from typing import Iterable

from .order import FiniteLattice, PartialOrder, iter_bits, mask_of, validate_lattice


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
    """Power-formula and prime-meet-formula radicals disagree (a bug)."""

    def __init__(self, a: int, by_powers: int, by_primes: int):
        self.element = a
        super().__init__(
            f"radical({a}): {by_powers} via powers, {by_primes} via primes over it"
        )


class DegenerateLattice(ValueError):
    """The one-element lattice has no proper elements to classify."""


class _derived:
    """A lazy cache kept in ``M.derived`` under the name of ``compute``, never on M.

    ``func`` is the getter: it returns the stored value, computing and
    storing it first if no lattice sharing the dict has.
    """

    def __init__(self, compute):
        name = compute.__name__

        @wraps(compute)
        def func(M):
            derived = M.derived
            if name not in derived:
                derived[name] = compute(M)
            return derived[name]

        self.func = func

    def __get__(self, M, owner=None):
        return self if M is None else self.func(M)


@dataclass(frozen=True, eq=False)
class MultiplicativeLattice(FiniteLattice):
    """A finite lattice together with a validated multiplication table.

    Immutable; build through :func:`attach_multiplication` (or the
    ``trivial_mult`` / ``meet_mult`` shortcuts), or :func:`product` from
    two of them. Equality is identity.

    ``derived`` holds every cache computed from the order, the tables,
    bottom, top and J(L), keyed by its name, and the X-element masks of
    ``classify.x_element_mask``, keyed by ("x_element_mask", X.mask). None
    of these reads a label, so ``view`` hands the same dict to the lattice
    under new labels, and the moduli of one divisor shape share every
    cache (``ringbridge.ideal_lattice_zn``). The caches are stored in the
    dict alone, so an instance keeps only its fields. ``product`` seeds the
    dict with the componentwise residual table.
    """

    table: tuple[tuple[int, ...], ...]
    name: str = "L"
    derived: dict = field(default_factory=dict, repr=False)

    @property
    def lattice(self) -> MultiplicativeLattice:
        """This instance; kept for callers such as ``meet_mult(M.lattice)`` in perfbench's tests."""
        return self

    def view(self, labels: tuple[str, ...] | None, name: str) -> MultiplicativeLattice:
        """This lattice under ``labels`` and ``name``, sharing its tables and ``derived``."""
        return MultiplicativeLattice(
            self.order, self.bottom, self.top, self.meet_table, self.join_table,
            labels, self.join_irreducibles, self.lower_split, self.upper_split,
            self.table, name, self.derived,
        )

    # -- multiplication ----------------------------------------------------

    def product(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        """a^k; the powers descend (x*x <= x*top = x), so at most n products for any k."""
        if k < 1:
            raise ValueError("exponent must be >= 1")
        out = a
        for _ in range(k - 1):
            nxt = self.table[out][a]
            if nxt == out:
                break
            out = nxt
        return out

    def power_closure(self, a: int) -> frozenset[int]:
        """All values of a, a^2, a^3, ...; the powers descend to a fixed point."""
        seen: set[int] = set()
        cur = a
        while cur not in seen:
            seen.add(cur)
            cur = self.table[cur][a]
        return frozenset(seen)

    def residual(self, i: int, a: int) -> int:
        """(i : a), the largest x with x*a <= i."""
        return self._prod_below[a][i]

    def annihilator(self, a: int) -> int:
        return self.residual(self.bottom, a)

    @_derived
    def _prod_below(self) -> tuple[tuple[int, ...], ...]:
        # _prod_below[a][i] = (i : a), through the two splits (module docstring).
        # cols[i] holds (i : q) for q in J(L): top's column is all top, an M(L)
        # column joins the p with p*q <= m, and the upper split gives the rest,
        # each after the columns of its two covers.
        n, top, bottom = self.size, self.top, self.bottom
        down, join, meet, table = self.order.down, self.join_table, self.meet_table, self.table
        irreducibles = self.join_irreducibles
        cols: list = [None] * n
        cols[top] = (top,) * len(irreducibles)
        for a in self.upper_split[::3]:
            cols[a] = ()
        for m, col in enumerate(cols):
            if col is None:
                below_m, col = down[m], []
                for q in irreducibles:
                    row, x = table[q], bottom
                    for p in irreducibles:
                        if below_m >> row[p] & 1:
                            x = join[x][p]
                    col.append(x)
                cols[m] = col
        triples = iter(self.upper_split)
        for a, b, c in zip(triples, triples, triples):
            cols[a] = [meet[x][y] for x, y in zip(cols[b], cols[c])]
        rows: list = [None] * n
        rows[bottom] = (top,) * n
        for q, row in zip(irreducibles, zip(*cols)):
            rows[q] = row
        triples = iter(self.lower_split)
        for a, b, c in zip(triples, triples, triples):
            rows[a] = tuple([meet[x][y] for x, y in zip(rows[b], rows[c])])
        return tuple(rows)

    # -- escape masks --------------------------------------------------------

    @_derived
    def _escape_sets(self) -> tuple[int, ...]:
        # F[a] = OR over q in J(L) of up[a*q] & ~up[q]: the i with a*q <= i and
        # q not <= i. Any b not <= i has such a q below it, since b is the join
        # of the q in J(L) below it, and a*q <= a*b: n*|J| ORs in all.
        up = self.order.up
        above = [(q, ~up[q]) for q in self.join_irreducibles]
        out = []
        for row in self.table:
            acc = 0
            for q, not_above_q in above:
                acc |= up[row[q]] & not_above_q
            out.append(acc)
        return tuple(out)

    @_derived
    def _residual_movers(self) -> tuple[int, ...]:
        # E[i] = {a : (i : a) != i}, the complement of the a whose residual row
        # fixes i. On large lattices most residuals move i, so the fixed points
        # are the fewer, and only they are visited in Python.
        n = self.size
        elements = range(n)
        fixers = [0] * n
        for a, row in enumerate(self._prod_below):
            for i in compress(elements, map(eq, row, elements)):
                fixers[i] |= 1 << a
        full = self.full_mask
        return tuple(full & ~f for f in fixers)

    @_derived
    def _residual_values(self) -> tuple[int, ...]:
        # R[i] = {(i : a) : a not <= i}: column i's values but top, which
        # (i : a) takes exactly when a <= i.
        not_top = ~(1 << self.top)
        return tuple(mask_of(set(column)) & not_top for column in zip(*self._prod_below))

    def residual_witness(self, i: int, skip: int) -> tuple[int, int] | None:
        """``escape_witness(i, skip, down(i))`` in O(1): the first a outside skip with
        (i : a) != i, and the first b below (i : a) but not below i."""
        movers = self._residual_movers[i] & ~skip
        if not movers:
            return None
        a = (movers & -movers).bit_length() - 1
        down = self.order.down
        bad = down[self._prod_below[a][i]] & ~down[i]
        return a, (bad & -bad).bit_length() - 1

    # -- nilpotents, zero divisors, radicals --------------------------------

    @_derived
    def _nil_mask(self) -> int:
        # The nilpotents are the down-set of radical(bottom), their join: y <= x
        # gives y^k <= x^k, and with x^p = y^q = bottom, (x v y)^(p+q-1) is a
        # join of terms x^i y^j, each below x^p or y^q.
        return self.order.down[self.radical(self.bottom)]

    def nilpotents(self) -> frozenset[int]:
        return frozenset(iter_bits(self._nil_mask))

    def is_reduced(self) -> bool:
        return self._nil_mask == 1 << self.bottom

    @_derived
    def _zdiv_mask(self) -> int:
        # x is a zero divisor exactly when x*b = bottom for some b != bottom, so
        # exactly when x*q = bottom for some q in J(L) below b: bit bottom of F[x].
        bottom = self.bottom
        return mask_of(x for x, escapes in enumerate(self._escape_sets) if escapes >> bottom & 1)

    def zero_divisors(self) -> frozenset[int]:
        return frozenset(iter_bits(self._zdiv_mask))

    @_derived
    def _radicals(self) -> tuple[int, ...]:
        # Two independent formulas, cross-asserted; a mismatch means the table
        # validation is broken. Powers: the powers of x descend
        # (x*x <= x*top = x), so some power of x is below a iff the last one is,
        # and squaring reaches it: s = x^j with s*s = s gives
        # x^j >= x^(j+1) >= x^(2j) = x^j. So radical(a) is the join of the x
        # with last[x] <= a, that is of groups[y] over the distinct last values
        # y <= a, groups[y] joining the x with last[x] = y. Primes: the meet of
        # the primes over a, one meet per a in down(p) for each prime p.
        n, table = self.size, self.table
        join, meet = self.join_table, self.meet_table
        up, down = self.order.up, self.order.down
        last = list(range(n))
        while (squared := [table[s][s] for s in last]) != last:
            last = squared
        groups: dict[int, int] = {}
        for x, y in enumerate(last):
            groups[y] = join[groups.get(y, self.bottom)][x]
        by_powers = [self.bottom] * n
        for y, t in groups.items():
            for a in iter_bits(up[y]):
                by_powers[a] = join[by_powers[a]][t]
        by_primes = [self.top] * n
        for p in iter_bits(self._prime_mask):
            for a in iter_bits(down[p]):
                by_primes[a] = meet[by_primes[a]][p]
        if by_powers != by_primes:
            a = next(a for a in range(n) if by_powers[a] != by_primes[a])
            raise RadicalMismatch(a, by_powers[a], by_primes[a])
        return tuple(by_powers)

    def radical(self, a: int) -> int:
        return self._radicals[a]

    # -- prime / primary / maximal ------------------------------------------

    def escape_witness(self, i: int, skip: int, keep: int) -> tuple[int, int] | None:
        """First (a, b) in index order with a*b <= i, a outside skip, b outside keep.

        ``skip`` and ``keep`` are element masks. The primary witness uses
        this O(n) scan; where keep is down(i), as for the X-element and prime
        witnesses, ``residual_witness`` gives the same pair. Whether a pair
        exists at all, for skip = down(i) and a down-set keep, is
        R[i] & ~keep == 0 (``is_primary``, the suite's L12): the b with
        a*b <= i are the b <= (i : a).
        """
        below, down = self._prod_below, self.order.down
        for a in range(self.size):
            if skip >> a & 1:
                continue
            bad = down[below[a][i]] & ~keep
            if bad:
                return a, (bad & -bad).bit_length() - 1
        return None

    def prime_witness(self, p: int) -> tuple[int, int] | None:
        """First (a, b) with a*b <= p but neither factor <= p; None if prime.

        Properness is not examined here; ``is_prime`` adds it.
        """
        return self.residual_witness(p, self.order.down[p])

    def is_prime(self, p: int) -> bool:
        return bool(self._prime_mask >> p & 1)

    @_derived
    def _prime_mask(self) -> int:
        # A proper p is not prime exactly when q1*q2 <= p for some q1 and q2 in
        # J(L), neither below p: an a not <= p has such a q below it, and the
        # product is monotone. F[q1] & ~up[q1] holds those p for one q1, so
        # |J| ORs of F decide every element.
        up, escapes = self.order.up, self._escape_sets
        not_prime = 1 << self.top
        for q in self.join_irreducibles:
            not_prime |= escapes[q] & ~up[q]
        return self.full_mask & ~not_prime

    def prime_elements(self) -> frozenset[int]:
        return frozenset(iter_bits(self._prime_mask))

    def primary_witness(self, i: int) -> tuple[int, int] | None:
        """First (a, b) with a*b <= i, a not<= i and b not<= radical(i)."""
        down = self.order.down
        return self.escape_witness(i, down[i], down[self.radical(i)])

    def is_primary(self, i: int) -> bool:
        """Whether i is proper with no pair from ``primary_witness``, read off R[i].

        The b with a*b <= i are the b <= (i : a), and down(radical(i)) is a
        down-set, so no pair exists exactly when every (i : a) with a not <= i
        lies below radical(i).
        """
        return i != self.top and self._residual_values[i] & ~self.order.down[self.radical(i)] == 0

    def maximal_witness(self, m: int) -> int | None:
        """An element strictly between m and top, if one exists."""
        strictly_between = self.order.up[m] & ~(1 << m) & ~(1 << self.top)
        if strictly_between:
            return (strictly_between & -strictly_between).bit_length() - 1
        return None

    def is_maximal(self, m: int) -> bool:
        return m != self.top and self.maximal_witness(m) is None

    @_derived
    def _max_mask(self) -> int:
        if self.size == 1:
            raise DegenerateLattice("one-element lattice has no maximal elements")
        # m is maximal exactly when up(m) is {m, top}; top itself, whose up-set
        # is {top}, fails the test.
        top = 1 << self.top
        out = mask_of(m for m, above in enumerate(self.order.up) if above ^ 1 << m == top)
        # Maximal elements of a finite multiplicative lattice are prime.
        assert out & ~self._prime_mask == 0, "maximal element failed primeness"
        return out

    def max_elements(self) -> frozenset[int]:
        return frozenset(iter_bits(self._max_mask))

    def jacobson(self) -> int:
        return self._jacobson

    @_derived
    def _jacobson(self) -> int:
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
    """Validate every axiom; return the lattice, under its labels and ``name``, with ``table``.

    Checks, in order: entry range, commutativity, top identity, bottom
    annihilation, distribution over binary joins, and associativity.
    Raises AxiomViolation naming the first offending tuple in index order.

    The two cubic identities are checked in O(n |J|^2 + n^2) and O(|J|^3)
    instead of O(n^3), through J(L) and the lower-cover split of every other
    element (``lattice.lower_split``):

    * Distribution: the table distributes exactly when p*(x v q) = p*x v p*q
      for every p and q in J(L) and every x, and every other a != bottom,
      split as b v c by two distinct lower covers, has a*x = b*x v c*x for
      every x. These are necessary: the second is (b v c)*x = x*b v x*c, an
      instance of distribution, by commutativity. They are sufficient, in
      any finite lattice, by induction on the size of down(a). Bottom
      distributes by annihilation. For p in J(L), write y = q1 v ... v qk
      over J(L) and induct on k: k = 0 is annihilation, and with
      y' = q1 v ... v q(k-1), p*(x v y) = p*((x v y') v qk)
      = p*(x v y') v p*qk = p*x v p*y' v p*qk = p*x v p*y. Any other a is
      b v c with b and c below it, which distribute by induction, so
      a*(x v y) = b*(x v y) v c*(x v y) = b*x v b*y v c*x v c*y = a*x v a*y.
    * Associativity: given commutativity, annihilation and distribution,
      a*(b*c) and (a*b)*c preserve every finite join, the empty one
      included, in each argument; so they agree everywhere once they agree
      on J(L)^3.

    Entry range, commutativity, identity and annihilation are whole-table
    tests. A table that fails any check is scanned again by
    ``_full_axiom_scan``, axiom by axiom in the order above and each over
    all tuples in index order, which names the first violation. The bound
    a*b <= a^b needs no scan: distribution over the pair (b, top) gives
    a = a*top = a*b v a*top, so a*b <= a, and by commutativity a*b <= b.
    """
    rows = tuple(map(tuple, table))
    n = lattice.size
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"table must be {n}x{n}")
    irreducibles = lattice.join_irreducibles
    # By commutativity, row top is the column a*top and row bottom the column a*bottom.
    if not (
        set().union(*rows).issubset(range(n))
        and rows == tuple(zip(*rows))
        and rows[lattice.top] == tuple(range(n))
        and rows[lattice.bottom] == (lattice.bottom,) * n
        and _distributes_over_irreducibles(rows, lattice.join_table, irreducibles, lattice.lower_split)
        and _associative_on_irreducibles(rows, irreducibles)
    ):
        _full_axiom_scan(lattice, rows)
        raise RuntimeError("the full axiom scan accepts a table the whole-table and J(L) checks reject")
    return MultiplicativeLattice(
        lattice.order, lattice.bottom, lattice.top, lattice.meet_table, lattice.join_table,
        lattice.labels, lattice.join_irreducibles, lattice.lower_split, lattice.upper_split,
        rows, name,
    )


def _distributes_over_irreducibles(
    rows: tuple[tuple[int, ...], ...],
    join: tuple[tuple[int, ...], ...],
    irreducibles: tuple[int, ...],
    split: tuple[int, ...],
) -> bool:
    """p*(x v q) == p*x v p*q for p, q in J(L) and every x, and every split row
    a = b v c is the elementwise join of rows b and c."""
    # join is symmetric, so join[q] lists x v q for every x.
    joined = [(q, itemgetter(*join[q])) for q in irreducibles]
    for p in irreducibles:
        row = rows[p]
        at = itemgetter(*row)
        for q, with_q in joined:
            if with_q(row) != at(join[row[q]]):
                return False
    triples = iter(split)
    for a, b, c in zip(triples, triples, triples):
        if rows[a] != tuple([join[x][y] for x, y in zip(rows[b], rows[c])]):
            return False
    return True


def _associative_on_irreducibles(
    rows: tuple[tuple[int, ...], ...], irreducibles: tuple[int, ...]
) -> bool:
    """a*(b*c) == (a*b)*c for every a, b and c in J(L)."""
    for a in irreducibles:
        row_a = rows[a]
        for b in irreducibles:
            row_b, row_ab = rows[b], rows[row_a[b]]
            for c in irreducibles:
                if row_a[row_b[c]] != row_ab[c]:
                    return False
    return True


def _full_axiom_scan(lattice: FiniteLattice, rows: tuple[tuple[int, ...], ...]) -> None:
    """Every axiom in ``attach_multiplication``'s order, over all tuples; raises at the first failure."""
    n = lattice.size
    for a in range(n):
        for b in range(n):
            v = rows[a][b]
            if not (0 <= v < n):
                raise AxiomViolation("closure", (a, b), f"entry {v} out of range")
    for a in range(n):
        for b in range(a + 1, n):
            if rows[a][b] != rows[b][a]:
                raise AxiomViolation("commutativity", (a, b), f"{rows[a][b]} != {rows[b][a]}")
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
            # By commutativity (a, b, c) fails iff (c, b, a) does, and (a, b, a)
            # never fails, so the first failing triple has c > a.
            for c in range(a + 1, n):
                if row_a[row_b[c]] != rows[ab][c]:
                    raise AxiomViolation(
                        "associativity",
                        (a, b, c),
                        f"a*(b*c) = {row_a[row_b[c]]}, (a*b)*c = {rows[ab][c]}",
                    )


def product(A: MultiplicativeLattice, B: MultiplicativeLattice, name: str = "L") -> MultiplicativeLattice:
    """The product A x B of two validated factors.

    (a1, a2) has index a1*k2 + a2, with k2 = B.size, and label
    ``f"{label1}x{label2}"``. The componentwise order masks go through
    ``validate_lattice``, which fixes bottom and top, builds the meet and
    join tables and records J(L) and both cover splits, as for any other
    lattice; it raises ValueError when two label pairs join to the same
    label. The multiplication and residual tables are combined from the
    factors' and not validated again, because nothing can fail:

    * Every multiplicative-lattice axiom is an equation between terms in *,
      v, top and bottom. Each term evaluates componentwise (the join of the
      componentwise order is the componentwise join), so an equation
      holds in A x B exactly when it holds in A and in B, which
      ``attach_multiplication`` checked when it built them.
    * x*a <= i holds exactly when x1*a1 <= i1 and x2*a2 <= i2, so the largest
      such x is ((i1 : a1), (i2 : a2)).

    The residual table goes into ``derived`` at construction.
    """
    k1, k2 = A.size, B.size
    # cells[x1] holds the indices x1*k2 .. x1*k2 + k2 - 1; every combined entry
    # is picked from these tuples, so both tables share one int object per index.
    cells = [tuple(range(x1 * k2, x1 * k2 + k2)) for x1 in range(k1)]

    def combine(left, right) -> tuple[tuple[int, ...], ...]:
        # Row (a1, a2) holds cells[left[a1][x1]][right[a2][x2]] for x1, then x2;
        # picked[a2][y1] is block y1 of it with its entries already chosen.
        picked = [list(map(_picker(rb), cells)) for rb in right]
        getters = [_picker(ra) for ra in left]
        return tuple(tuple(chain.from_iterable(get(blocks))) for get in getters for blocks in picked)

    # A down-set (or up-set) of A x B is a product of one in A and one in B:
    # spread[m] puts B's whole range at each member of the A-mask m, and
    # m * tile copies the B-mask m into every block.
    full_b = (1 << k2) - 1
    tile = sum(1 << (x1 * k2) for x1 in range(k1))

    def masks(rows_a, rows_b) -> tuple[int, ...]:
        spread = [sum(full_b << (x1 * k2) for x1 in iter_bits(m)) for m in rows_a]
        return tuple(s & (m * tile) for s in spread for m in rows_b)

    order = PartialOrder(k1 * k2, masks(A.order.up, B.order.up), masks(A.order.down, B.order.down))
    L = validate_lattice(order, (f"{a}x{b}" for a in A.labels for b in B.labels))
    return MultiplicativeLattice(
        L.order, L.bottom, L.top, L.meet_table, L.join_table,
        L.labels, L.join_irreducibles, L.lower_split, L.upper_split,
        combine(A.table, B.table), name, {"_prod_below": combine(A._prod_below, B._prod_below)},
    )


def _picker(indices: tuple[int, ...]):
    """A callable taking s to the tuple of s[i] for i in ``indices``, in C."""
    if len(indices) == 1:
        (i,) = indices
        return lambda s: (s[i],)
    return itemgetter(*indices)


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
