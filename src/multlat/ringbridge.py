"""Ideal lattices of Z_n and Z_m x Z_n, plus ring-level ideal classification.

The lattice side encodes ideals of Z_n by the divisors of n: containment is
reverse divisibility, sum is gcd, intersection is lcm, and the ideal product
is gcd(d1*d2, n). These tables depend only on the exponent vectors of the
divisors, so n's lattice is the lattice of its *shape* (n's ascending
divisors with its i-th prime renamed to the i-th prime; the proof is in
``ideal_lattice_zn``), relabelled. n is factored once, by trial division,
and that pass yields both its divisors and its shape
(``_divisors_and_shape``). Each shape's lattice is built once, without
labels, from one step list per prime p, e -> gcd(e*p, n), with no ``gcd``
call: the steps that move give the covers, (e) above (e*p), and row d*p of
the multiplication table is row d read at step p (the proofs are in
``_shape_lattice``). ``attach_multiplication`` validates the table as any
other. Each modulus is its ``view`` under the modulus's labels, which
shares the ``derived`` dict, so the caches derived from the tables are
computed once per shape too; zn:2..1000 has 131 shapes. Since
Id(Z_m x Z_n) = Id(Z_m) x Id(Z_n), the lattice of Z_m x Z_n is
``multiplicative.product`` of the two: its order is validated like any
other lattice's, and its multiplication and residual tables are combined
from the factors'. The ring side never touches that encoding: it works on
actual ring elements through ``ring_elements``, ``mul``, ``one``, ``zero``,
``ideal_subset`` and ``proper_indices``, so agreement between the two
classifications is a genuine two-route check rather than one algorithm
tested against itself.

The ring side works on associate classes {u*a : u a unit}, one
representative each, the first member in element order. Two facts make
that exact:

- Units and nilpotents come from the powers of each element. a is a unit
  exactly when its powers reach one: a^k = one gives a*a^(k-1) = one, and
  a*v = one with a^i = a^j, i < j, gives a^(j-i) = one after multiplying by
  v^i. a is nilpotent exactly when they reach zero.
- Ideals, the zero divisors, the nilpotents and the Jacobson radical are
  unions of classes, since each is closed under multiplication by units
  and their inverses. So b is outside I exactly when u*b is, and a*(u*b)
  is in I exactly when a*b is.

Each model computes its ring sets once, on first use, and keeps them on the
instance: the element tuple, the units and nilpotents, the classes, the
zero divisors and the Jacobson radical (the intersection of the
inclusion-maximal ideals, as subsets). The r-, n- and J-ideal definitions
share one shape, "ab in I and a outside X force b in I", so one scan per
ideal serves all three. Call a *bad* for I when a*b is in I for some b
outside I; then I is an r-, n- or J-ideal exactly when every bad a lies
inside the zero divisors, the nilpotents or the Jacobson radical. Whether a
representative is bad is decided at most once per ideal, by multiplying it
with each representative outside I: O(c^2) products per ideal, c classes.

``cross_validate`` runs both routes over every proper ideal and raises
CrossValidationMismatch on any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat, takewhile
from operator import itemgetter
from typing import Iterator

from .classify import CANONICAL_SETS, canonical_sets, x_element_mask
from .multiplicative import MultiplicativeLattice, attach_multiplication, product
from .order import build_order, validate_lattice
from .report import _yn


class CrossValidationMismatch(RuntimeError):
    """Ring-side and lattice-side classifications disagree (a bug)."""

    def __init__(self, ring: str, ideal: str, which: str, ring_says: bool, lattice_says: bool):
        self.ideal = ideal
        self.which = which
        super().__init__(
            f"{ring}: ideal {ideal} {which}-classification differs "
            f"(ring {ring_says}, lattice {lattice_says})"
        )


def _divisors_and_shape(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """n's ascending divisors, and its shape: each of them with the i-th prime
    of n renamed to the i-th prime, in the same order.

    Trial division by p = 2, 3, 5, 7, ... (2, then the odd numbers) divides
    each prime p out of n with its exponent k and multiplies the divisors
    found so far by p, ..., p^k. It stops once p*p exceeds the remaining
    cofactor, which is then 1 or a prime. So a smooth n takes a few steps
    (10**18, with 361 divisors, takes three), where testing every d up to
    sqrt(n) takes 10**9. Each divisor d carries its renamed twin: the primes
    of n are found in ascending order, so the i-th of them is renamed to
    the i-th prime q, and d*p^j to twin(d)*q^j.
    """
    pairs, rest, p = [(1, 1)], n, 2
    renamed = _primes()
    while p * p <= rest:
        if rest % p == 0:
            q, layer = next(renamed), pairs
            while rest % p == 0:
                rest //= p
                layer = [(d * p, t * q) for d, t in layer]
                pairs += layer
        p += 1 if p == 2 else 2
    if rest > 1:
        q = next(renamed)
        pairs += [(d * rest, t * q) for d, t in pairs]
    pairs.sort()
    divs, shape = zip(*pairs)
    return divs, shape


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ...: each q that no smaller prime divides."""
    found: list[int] = []
    q = 2
    while True:
        if all(q % p for p in found):
            found.append(q)
            yield q
        q += 1


def _ideal_label(d: int, modulus: int) -> str:
    return "(0)" if d == modulus else f"({d})"


class _RingSets:
    """Per-model ring data, computed on first use and kept on the instance.

    ``cached_property`` writes to the instance ``__dict__`` directly, so it
    works on the frozen model dataclasses; their equality and hash read only
    the fields.
    """

    @cached_property
    def _elements(self) -> tuple:
        return tuple(self.ring_elements())

    @cached_property
    def _units_nil(self) -> tuple[frozenset, frozenset]:
        return _power_pass(self)

    @cached_property
    def _classes(self) -> dict:
        return _associate_classes(self)

    @cached_property
    def _zdiv(self) -> frozenset:
        return ring_zero_divisors(self)

    @cached_property
    def _jac(self) -> frozenset:
        return ring_jacobson(self)

    @cached_property
    def _bad(self) -> dict[int, dict]:
        return {}  # ideal index -> {representative: whether it is bad}, as far as scanned


@dataclass(frozen=True)
class ZnIdealModel(_RingSets):
    """Ideals of Z_n, indexed by the ascending divisors of n."""

    modulus: int
    divisors: tuple[int, ...]

    # element-level ring arithmetic --------------------------------------

    def ring_elements(self) -> range:
        return range(self.modulus)

    def mul(self, x: int, y: int) -> int:
        return x * y % self.modulus

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def ideal_subset(self, index: int) -> frozenset[int]:
        d = self.divisors[index]
        return frozenset(range(0, self.modulus, d))

    # lattice correspondence ----------------------------------------------

    def labels(self) -> tuple[str, ...]:
        return tuple(_ideal_label(d, self.modulus) for d in self.divisors)

    def proper_indices(self) -> list[int]:
        return [i for i, d in enumerate(self.divisors) if d != 1]


@dataclass(frozen=True)
class ProductRingModel(_RingSets):
    """Ideals of Z_m x Z_n: all pairs of component ideals, componentwise."""

    left: int
    right: int
    pairs: tuple[tuple[int, int], ...]  # (divisor of m, divisor of n)

    def ring_elements(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.left) for b in range(self.right)]

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return (x[0] * y[0] % self.left, x[1] * y[1] % self.right)

    @property
    def zero(self) -> tuple[int, int]:
        return (0, 0)

    @property
    def one(self) -> tuple[int, int]:
        return (1, 1)

    def ideal_subset(self, index: int) -> frozenset[tuple[int, int]]:
        d1, d2 = self.pairs[index]
        return frozenset(
            (a, b) for a in range(0, self.left, d1) for b in range(0, self.right, d2)
        )

    def labels(self) -> tuple[str, ...]:
        return tuple(
            f"{_ideal_label(d1, self.left)}x{_ideal_label(d2, self.right)}"
            for d1, d2 in self.pairs
        )

    def proper_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.pairs) if p != (1, 1)]


# Lattices each builder keeps (with their models' ring sets), and divisor
# shapes ``_shape_lattice`` keeps: enough for zn:2..200 and the 36 stock
# products, while a long search stays bounded.
_LATTICE_CACHE_SIZE = 256


@lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _shape_lattice(shape: tuple[int, ...]) -> MultiplicativeLattice:
    """The validated lattice indexed by ``shape``, the divisors of shape[-1].

    It has no labels; ``ideal_lattice_zn`` views it under each modulus's
    own. The covers and the multiplication table both come from one step
    list per prime p of n = shape[-1], step_p[e] = the index of gcd(e*p, n),
    with no ``gcd`` call. The primes of a shape's n are the first primes,
    so they are 2, 3, 5, ... for as long as the index holds them.

    * gcd(e*p, n) is e*p when e*p divides n and e otherwise, so step_p
      sends e to e*p where e*p is a divisor and keeps e where it is not;
      (e) covers (e*p) exactly where the step moves.
    * gcd(d*p*e, n) = gcd(d*gcd(p*e, n), n): with exponents a_i of d, b_i of
      p*e and k_i of n, min(a_i + min(b_i, k_i), k_i) = min(a_i + b_i, k_i).
      So row d*p of the table is row d read at step_p:
      row[d*p][e] = row[d][step_p[e]], one C-level ``itemgetter`` call per
      row, from row 1, the identity.

    That is one dict step per divisor and prime and one composition per
    divisor, where the gcd table takes one ``gcd`` call per pair of
    divisors. ``attach_multiplication`` validates the table as it would
    any other.
    """
    size = len(shape)
    index = {d: i for i, d in enumerate(shape)}
    primes = takewhile(index.__contains__, _primes())
    steps = [[index.get(e * p, i) for i, e in enumerate(shape)] for p in primes]
    moves = [(step, itemgetter(*step)) for step in steps]
    rows: list = [None] * size
    rows[0] = tuple(range(size))
    covers = []
    # Each divisor d*p lies after d in ascending order, so row d is set before
    # it is read.
    for i in range(size):
        for step, compose in moves:
            j = step[i]
            if j != i:
                covers.append((j, i))
                if rows[j] is None:
                    rows[j] = compose(rows[i])
    lattice = validate_lattice(build_order(size, covers))
    return attach_multiplication(lattice, rows)


@lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def ideal_lattice_zn(n: int) -> tuple[MultiplicativeLattice, ZnIdealModel]:
    """The ideal lattice of Z_n as a validated multiplicative lattice.

    It is the lattice of n's *shape*, relabelled. Let n = p_1^k_1 * ... *
    p_r^k_r with p_1 < ... < p_r, and rename each divisor
    d = p_1^a_1 * ... * p_r^a_r to renamed(d) = P_1^a_1 * ... * P_r^a_r,
    P_i the i-th prime. The shape is the tuple of renamed divisors in n's
    ascending divisor order; ``_divisors_and_shape`` finds both tuples in
    the one trial-division pass that factors n. Renaming is a bijection
    from the divisors of n to those of renamed(n) that keeps each exponent
    vector (a_1, ..., a_r), and everything the builder reads is a function
    of those vectors: for d' with exponents b_i, d | d' is a_i <= b_i for
    each i, gcd(d, d') and lcm(d, d') have exponents min(a_i, b_i) and
    max(a_i, b_i), and gcd(d*d', n) has exponents min(a_i + b_i, k_i).
    So renaming preserves
    divisibility, gcd, lcm and gcd(d*d', n), and the covers, order masks,
    meet, join and multiplication tables built from the shape equal those
    of n index for index, bottom (0) and top (1) included; only the labels
    and the name differ. Moduli of one shape (6 and 10, 12 and 45) share
    one lattice, built and validated once by ``_shape_lattice``, and each
    modulus is its ``view`` under the modulus's labels and name. So they
    share its tables, J(L) and its ``derived`` dict, which holds every
    cache derived from them (residual table, escape masks, radicals,
    primes, maxima, the Jacobson radical and the X-element masks), each
    computed once per shape.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    divs, shape = _divisors_and_shape(n)
    model = ZnIdealModel(n, divs)
    return _shape_lattice(shape).view(model.labels(), f"zn:{n}"), model


@lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def ideal_lattice_product(m: int, n: int) -> tuple[MultiplicativeLattice, ProductRingModel]:
    """The ideal lattice of Z_m x Z_n, the product of those of Z_m and Z_n.

    Every ideal of Z_m x Z_n is I x J for ideals I of Z_m and J of Z_n, and
    sums, intersections and products act componentwise. So the lattice is
    ``product`` of the two factor lattices, each validated when it was
    built, and (d1, d2) has index i1*k2 + i2 from d1's and d2's indices.
    """
    if m < 2 or n < 2:
        raise ValueError(f"moduli must be >= 2, got ({m}, {n})")
    (left, left_model), (right, right_model) = ideal_lattice_zn(m), ideal_lattice_zn(n)
    pairs = tuple((d1, d2) for d1 in left_model.divisors for d2 in right_model.divisors)
    return product(left, right, name=f"prod:{m},{n}"), ProductRingModel(m, n, pairs)


# -- ring-side classification (associate classes) ------------------------------


def _power_pass(model) -> tuple[frozenset, frozenset]:
    """(units, nilpotents), decided on the powers of each element.

    A power a^i (i >= 1) is a unit or nilpotent exactly when a is, so a walk
    along a's powers stops at the first one already decided, or at the
    first repeat, and its verdict holds for every power it met. Each element
    joins exactly one walk, and the pass makes |R| products in all.
    """
    zero, one, mul = model.zero, model.one, model.mul
    verdict: dict = {}  # element -> (unit, nilpotent)
    for a in model._elements:
        if a in verdict:
            continue
        seen = {a}
        cur = mul(a, a)
        while cur not in seen and cur not in verdict:
            seen.add(cur)
            cur = mul(cur, a)
        v = verdict[cur] if cur in verdict else (one in seen, zero in seen)
        verdict.update(zip(seen, repeat(v)))
    return (
        frozenset(x for x, (unit, _) in verdict.items() if unit),
        frozenset(x for x, (_, nil) in verdict.items() if nil),
    )


def _associate_classes(model) -> dict:
    """Representative -> its class {u*a : u a unit}, in element order.

    Each class is the orbit of the first element not yet in a class, so its
    representative is its first member.
    """
    units = model._units_nil[0]
    classes: dict = {}
    assigned: set = set()
    for a in model._elements:
        if a not in assigned:
            classes[a] = cls = frozenset(map(model.mul, units, repeat(a)))
            assigned |= cls
    return classes


def ring_zero_divisors(model) -> frozenset:
    """The a with a*x = 0 for some nonzero x (zero included).

    Decided per representative against the nonzero representatives, since
    a*(u*b) = 0 exactly when a*b = 0, and expanded to whole classes.
    """
    zero = model.zero
    classes = model._classes
    nonzero = [b for b in classes if b != zero]
    return frozenset().union(
        *(cls for a, cls in classes.items() if zero in map(model.mul, repeat(a), nonzero))
    )


def ring_nilpotents(model) -> frozenset:
    """The a with a^k = 0 for some k."""
    return model._units_nil[1]


def ring_jacobson(model) -> frozenset:
    """Intersection of the inclusion-maximal proper ideals, as a subset."""
    proper = [model.ideal_subset(i) for i in model.proper_indices()]
    maximal = [
        s for s in proper if not any(t != s and s < t for t in proper)
    ]
    out = maximal[0]
    for s in maximal[1:]:
        out &= s
    return out


def _bad_inside(model, index: int, xset: frozenset) -> bool:
    """Whether every bad multiplier of ideal I = ``index`` lies in ``xset``.

    a is bad when a*b is in I for some b outside I. Both a and b range over
    the class representatives only, which is exact because I and ``xset``
    are unions of classes. Only the a outside ``xset`` are tested, in
    element order up to the first bad one, and each verdict is kept on the
    model, so the three classes share one scan per ideal.
    """
    ideal = model.ideal_subset(index)
    reps = model._classes
    outside = [b for b in reps if b not in ideal]
    bad = model._bad.setdefault(index, {})
    mul = model.mul
    for a in reps:
        if a in xset:
            continue
        if a not in bad:
            bad[a] = not ideal.isdisjoint(map(mul, repeat(a), outside))
        if bad[a]:
            return False
    return True


def ring_is_r_ideal(model, index: int) -> bool:
    """ab in I with a not a zero divisor (zero annihilator) forces b in I."""
    return _bad_inside(model, index, model._zdiv)


def ring_is_n_ideal(model, index: int) -> bool:
    """ab in I with a not nilpotent forces b in I."""
    return _bad_inside(model, index, ring_nilpotents(model))


def ring_is_j_ideal(model, index: int) -> bool:
    """ab in I with a outside the Jacobson radical forces b in I."""
    return _bad_inside(model, index, model._jac)


# -- the two-route comparison --------------------------------------------------


@dataclass(frozen=True)
class CrossValidationRow:
    """One proper ideal's r, n and J verdicts, in ``CANONICAL_SETS`` order.

    The ring and the lattice gave each of them: ``cross_validate`` raises
    on a disagreement before it builds the row.
    """

    ideal: str
    verdicts: tuple[bool, bool, bool]


@dataclass(frozen=True)
class CrossValidationReport:
    name: str
    rows: tuple[CrossValidationRow, ...]

    def render(self) -> str:
        lines = [f"cross-validation {self.name}: ring vs lattice on {len(self.rows)} proper ideals"]
        for row in self.rows:
            pairs = " ".join(f"{x}={_yn(v)}/{_yn(v)}" for x, v in zip(CANONICAL_SETS, row.verdicts))
            lines.append(f"  {row.ideal}: {pairs}")
        lines.append("  all classifications agree")
        return "\n".join(lines)


def cross_validate(M: MultiplicativeLattice, model) -> CrossValidationReport:
    """Classify every proper ideal of ``model`` on the ring and on its lattice M.

    The lattice side reads a bit of each canonical set's X-element mask,
    memoized per distinct set; nil = jrad on every ring lattice, as a
    finite ring's Jacobson radical is its nilradical.
    """
    masks = [x_element_mask(M, X) for X in canonical_sets(M).values()]
    labels = model.labels()
    rows = []
    for idx in model.proper_indices():
        ring = (ring_is_r_ideal(model, idx), ring_is_n_ideal(model, idx), ring_is_j_ideal(model, idx))
        lattice = tuple(bool(mask >> idx & 1) for mask in masks)
        for which, ring_says, lattice_says in zip(CANONICAL_SETS, ring, lattice):
            if ring_says != lattice_says:
                raise CrossValidationMismatch(M.name, labels[idx], which, ring_says, lattice_says)
        rows.append(CrossValidationRow(labels[idx], ring))
    return CrossValidationReport(M.name, tuple(rows))


def cross_validate_zn(n: int) -> CrossValidationReport:
    return cross_validate(*ideal_lattice_zn(n))


def cross_validate_product(m: int, n: int) -> CrossValidationReport:
    return cross_validate(*ideal_lattice_product(m, n))
