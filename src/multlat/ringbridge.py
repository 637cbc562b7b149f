"""Ideal lattices of Z_n and Z_m x Z_n, plus ring-level ideal classification.

The lattice side encodes ideals of Z_n by the divisors of n: containment is
reverse divisibility, sum is gcd, intersection is lcm, and the ideal product
is gcd(d1*d2, n). The ring side never touches that encoding: it scans actual
ring elements (annihilators, nilpotency, membership in the intersection of
the inclusion-maximal ideals), so agreement between the two classifications
is a genuine two-route check rather than one algorithm tested against
itself.

``cross_validate`` runs both routes over every proper ideal and raises
CrossValidationMismatch on any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .classify import canonical_sets, is_x_element
from .multiplicative import MultiplicativeLattice, attach_multiplication
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


def divisors(n: int) -> tuple[int, ...]:
    """Ascending divisors of n, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself prime


def _ideal_label(d: int, modulus: int) -> str:
    return "(0)" if d == modulus else f"({d})"


@dataclass(frozen=True)
class ZnIdealModel:
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

    def in_ideal(self, x: int, index: int) -> bool:
        return x % self.divisors[index] == 0

    def ideal_subset(self, index: int) -> frozenset[int]:
        d = self.divisors[index]
        return frozenset(range(0, self.modulus, d))

    # lattice correspondence ----------------------------------------------

    def index_of_divisor(self, d: int) -> int:
        return self.divisors.index(d)

    def index_of_label(self, label: str) -> int:
        return self.labels().index(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(_ideal_label(d, self.modulus) for d in self.divisors)

    def proper_indices(self) -> list[int]:
        return [i for i, d in enumerate(self.divisors) if d != 1]


@dataclass(frozen=True)
class ProductRingModel:
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

    def in_ideal(self, x: tuple[int, int], index: int) -> bool:
        d1, d2 = self.pairs[index]
        return x[0] % d1 == 0 and x[1] % d2 == 0

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


@lru_cache(maxsize=None)
def ideal_lattice_zn(n: int) -> tuple[MultiplicativeLattice, ZnIdealModel]:
    """The ideal lattice of Z_n as a validated multiplicative lattice."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    divs = divisors(n)
    model = ZnIdealModel(n, divs)
    k = len(divs)
    pairs = [
        (i, j) for i in range(k) for j in range(k) if divs[i] % divs[j] == 0
    ]
    lattice = validate_lattice(build_order(k, pairs), model.labels())
    table = [
        [divs.index(gcd(divs[i] * divs[j], n)) for j in range(k)] for i in range(k)
    ]
    M = attach_multiplication(lattice, table, name=f"zn:{n}")
    return M, model


@lru_cache(maxsize=None)
def ideal_lattice_product(m: int, n: int) -> tuple[MultiplicativeLattice, ProductRingModel]:
    """The ideal lattice of Z_m x Z_n (componentwise divisor pairs)."""
    if m < 2 or n < 2:
        raise ValueError(f"moduli must be >= 2, got ({m}, {n})")
    left, right = divisors(m), divisors(n)
    pairs = tuple((d1, d2) for d1 in left for d2 in right)
    model = ProductRingModel(m, n, pairs)
    k = len(pairs)
    leq_pairs = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if pairs[i][0] % pairs[j][0] == 0 and pairs[i][1] % pairs[j][1] == 0
    ]
    lattice = validate_lattice(build_order(k, leq_pairs), model.labels())
    index = {p: i for i, p in enumerate(pairs)}
    table = [
        [
            index[(gcd(a1 * b1, m), gcd(a2 * b2, n))]
            for (b1, b2) in pairs
        ]
        for (a1, a2) in pairs
    ]
    M = attach_multiplication(lattice, table, name=f"prod:{m},{n}")
    return M, model


# -- ring-side classification (element scans only) ----------------------------


def _annihilator_is_zero(model, a) -> bool:
    zero = model.zero
    return all(model.mul(a, x) != zero for x in model.ring_elements() if x != zero)


def ring_nilpotents(model) -> frozenset:
    zero = model.zero
    out = set()
    for a in model.ring_elements():
        seen = set()
        cur = a
        while cur not in seen:
            seen.add(cur)
            cur = model.mul(cur, a)
        if zero in seen:
            out.add(a)
    return frozenset(out)


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


def ring_zero_divisors(model) -> frozenset:
    zero = model.zero
    return frozenset(
        a
        for a in model.ring_elements()
        if any(model.mul(a, x) == zero for x in model.ring_elements() if x != zero)
    )


def _ring_is_ideal_class(model, index: int, exempt) -> bool:
    # Shared shape of the three definitions: products a*b landing in the
    # ideal with a outside the exempt set must have b in the ideal.
    for a in model.ring_elements():
        if exempt(a):
            continue
        for b in model.ring_elements():
            if model.in_ideal(model.mul(a, b), index) and not model.in_ideal(b, index):
                return False
    return True


def ring_is_r_ideal(model, index: int) -> bool:
    """ab in I with ann(a) zero forces b in I (a scanned for annihilators)."""
    return _ring_is_ideal_class(model, index, lambda a: not _annihilator_is_zero(model, a))


def ring_is_n_ideal(model, index: int) -> bool:
    """ab in I with a not nilpotent forces b in I."""
    nil = ring_nilpotents(model)
    return _ring_is_ideal_class(model, index, lambda a: a in nil)


def ring_is_j_ideal(model, index: int) -> bool:
    """ab in I with a outside the Jacobson radical forces b in I."""
    jac = ring_jacobson(model)
    return _ring_is_ideal_class(model, index, lambda a: a in jac)


# -- the two-route comparison --------------------------------------------------


@dataclass(frozen=True)
class CrossValidationRow:
    ideal: str
    ring_r: bool
    ring_n: bool
    ring_j: bool
    lattice_r: bool
    lattice_n: bool
    lattice_j: bool


@dataclass(frozen=True)
class CrossValidationReport:
    name: str
    rows: tuple[CrossValidationRow, ...]

    def render(self) -> str:
        lines = [f"cross-validation {self.name}: ring vs lattice on {len(self.rows)} proper ideals"]
        for row in self.rows:
            lines.append(
                f"  {row.ideal}: r={_yn(row.ring_r)}/{_yn(row.lattice_r)}"
                f" n={_yn(row.ring_n)}/{_yn(row.lattice_n)}"
                f" j={_yn(row.ring_j)}/{_yn(row.lattice_j)}"
            )
        lines.append("  all classifications agree")
        return "\n".join(lines)


def cross_validate(M: MultiplicativeLattice, model) -> CrossValidationReport:
    """Classify every proper ideal of ``model`` on the ring and on its lattice M."""
    sets = canonical_sets(M)
    labels = model.labels()
    rows = []
    for idx in model.proper_indices():
        ring_flags = {
            "r": ring_is_r_ideal(model, idx),
            "n": ring_is_n_ideal(model, idx),
            "j": ring_is_j_ideal(model, idx),
        }
        lattice_flags = {letter: is_x_element(M, X, idx) for letter, X in sets.items()}
        for which in ("r", "n", "j"):
            if ring_flags[which] != lattice_flags[which]:
                raise CrossValidationMismatch(
                    M.name, labels[idx], which, ring_flags[which], lattice_flags[which]
                )
        rows.append(
            CrossValidationRow(
                labels[idx],
                ring_flags["r"], ring_flags["n"], ring_flags["j"],
                lattice_flags["r"], lattice_flags["n"], lattice_flags["j"],
            )
        )
    return CrossValidationReport(M.name, tuple(rows))


def cross_validate_zn(n: int) -> CrossValidationReport:
    return cross_validate(*ideal_lattice_zn(n))


def cross_validate_product(m: int, n: int) -> CrossValidationReport:
    return cross_validate(*ideal_lattice_product(m, n))
