"""Executable property suite over a multiplicative lattice.

Sixteen checks, L1..L16, each an exhaustive finite instantiation of a
general fact about X-elements. Run against a lattice and a family of
M-closed sets, every check must pass on every valid input; a failure
indicates an implementation bug, and the failing tuple is reported. L6 is
the one informational check: it looks for a pair of X-elements whose join is
not an X-element (such pairs exist in some lattices and not others, so
finding none is not a failure).

The per-set checks run for each given set and for the canonical sets (zero
divisors, nil down-set, Jacobson down-set); the prime-meet down-set of L10
and L11 is the nil down-set, since radical(bottom) is the meet of all
primes. The suite decides the X-elements of each distinct set once, with
``x_element_mask``, and hands them to every check that reads them, the
global ones included; L16 leaves the n-elements' inclusions to L2, which
compares every nested pair.

L7 and L14 compare that decision, which comes from the multiplication
table over J(L), with the lattice's residual-table masks (see
``multiplicative``): i <= (i : a) always, since i*a <= i, and
(i : a) = top exactly when a <= i, since top*a = a. So each costs O(n)
mask operations per set.

L11 (through ``is_primary``) and L12 ask whether a*b <= i with a not <= i
forces b into a down-set keep. The b with a*b <= i are the b <= (i : a),
so it does exactly when R[i], the (i : a) over a not <= i, lies inside
keep: one mask operation per element, and the suite runs no O(n)
``escape_witness`` scan. L16 compares Z(L) from the escape masks with a
second route, the x whose annihilator (bottom : x) is not bottom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import eq

from .classify import (
    MClosedSet,
    canonical_sets,
    distinct_sets,
    join_escape,
    prime_meet_facts,
    principal_generator,
    x_element_mask,
    x_witness,
)
from .multiplicative import DegenerateLattice, MultiplicativeLattice
from .order import iter_bits, mask_of


@dataclass(frozen=True)
class CheckResult:
    check: str
    scope: str  # which M-closed set, or "global"
    passed: bool
    witness: str | None = None  # counterexample description when failed
    info: str | None = None  # informational notes (L6 findings, vacuity)

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.check} [{self.scope}] {status}"
        if self.witness:
            line += f"  witness: {self.witness}"
        if self.info:
            line += f"  ({self.info})"
        return line


@dataclass(frozen=True)
class SuiteReport:
    lattice: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def find(self, check: str) -> list[CheckResult]:
        return [c for c in self.checks if c.check == check]

    def render(self) -> str:
        lines = [f"lemma suite on {self.lattice}: "
                 f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks pass"]
        lines.extend("  " + c.render() for c in self.checks)
        return "\n".join(lines)


def _lbl(M: MultiplicativeLattice, *elements: int) -> str:
    return ", ".join(M.label(e) for e in elements)


def _pair_or_disagreement(
    M: MultiplicativeLattice, witness: tuple[int, int] | None, notion: str
) -> str:
    """The witness route's pair for a failure the mask reported, or, when that
    route finds none, both routes' answers."""
    if witness is None:
        return f"the mask says not {notion}, but the witness route finds no pair (says {notion})"
    return f"pair {_lbl(M, *witness)}"


def lemma_suite(M: MultiplicativeLattice, xsets: tuple[MClosedSet, ...] = ()) -> SuiteReport:
    """Run every check against ``xsets`` and the canonical sets."""
    if M.size == 1:
        raise DegenerateLattice("lemma suite needs a proper element")
    canon = canonical_sets(M)
    sets = distinct_sets([*xsets, *canon.values()])
    # Keyed by members: a set folded into an equal one is found under them.
    xels_of = {X.members: frozenset(iter_bits(x_element_mask(M, X))) for X in sets}

    results: list[CheckResult] = []
    for X in sets:
        xels = xels_of[X.members]
        results.append(_check_l1(M, X, xels))
        results.append(_check_l5(M, X, xels))
        results.append(_check_l6(M, X, xels))
        results.append(_check_l7(M, X, xels))
        results.append(_check_l8(M, X, xels))
        results.append(_check_l13(M, X, xels))
        results.append(_check_l14(M, X, xels))
        results.append(_check_l15(M, X))
        j = principal_generator(M, X)
        if j is not None and j != M.top:
            results.append(_check_l9(M, X, j, xels))
    results.append(_check_l2(M, sets, xels_of))
    results.append(_check_l3(M, canon["j"], xels_of[canon["j"].members]))
    results.append(_check_l4(M))
    results.append(_check_l10(M, xels_of[canon["n"].members]))
    results.append(_check_l11(M, xels_of[canon["n"].members]))
    results.append(_check_l12(M, xels_of[canon["j"].members]))
    results.append(_check_l16(M, canon))
    return SuiteReport(M.name, tuple(results))


# -- individual checks ---------------------------------------------------------


def _check_l1(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """X-elements sit inside X; for X a principal down-set of its own join, X-element = prime."""
    xmask = X.mask
    for i in M.proper_elements():
        if i in xels and (stray := M.down_mask(i) & ~xmask):
            return CheckResult(
                "L1", X.name, False,
                f"{M.label(i)} is an X-element but {_lbl(M, next(iter_bits(stray)))} below it is outside X",
            )
        if M.down_mask(i) == xmask:
            if (i in xels) != M.is_prime(i):
                return CheckResult(
                    "L1", X.name, False,
                    f"down-set of {M.label(i)} equals X but X-element != prime there",
                )
    return CheckResult("L1", X.name, True)


def _check_l2(
    M: MultiplicativeLattice, sets: list[MClosedSet], xels_of: dict[frozenset[int], frozenset[int]]
) -> CheckResult:
    """X-elements carry over to any larger M-closed set."""
    for X, Xp in itertools.permutations(sets, 2):
        if X.mask & ~Xp.mask:
            continue
        lost = xels_of[X.members] - xels_of[Xp.members]
        if lost:
            return CheckResult(
                "L2", "global", False,
                f"{M.label(min(lost))} is an {X.name}-element, {X.name} inside {Xp.name}, "
                f"but not an {Xp.name}-element",
            )
    return CheckResult("L2", "global", True)


def _check_l3(M: MultiplicativeLattice, jset: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """In a local lattice every proper element is an X-element for the maximal down-set."""
    # The Jacobson radical of a local lattice is its maximal element m, so
    # ``jset`` is the down-set of m and ``xels`` its X-elements.
    if not M.is_local():
        return CheckResult("L3", "global", True, info="vacuous: lattice not local")
    (m,) = M.max_elements()
    for i in M.proper_elements():
        if i not in xels:
            return CheckResult(
                "L3", "global", False,
                f"local with maximal {M.label(m)} but {M.label(i)} is not an X-element "
                f"for its down-set; {_pair_or_disagreement(M, x_witness(M, jset, i), 'X-element')}",
            )
    return CheckResult("L3", "global", True)


def _check_l4(M: MultiplicativeLattice) -> CheckResult:
    """If every proper element is an X-element for a proper down-set, its generator is the unique maximal."""
    # i is an X-element iff (i : a) = i for all a outside X; (top : a) = top always.
    maxima = M.max_elements()
    identity = tuple(range(M.size))
    fixed = mask_of(a for a, row in enumerate(M._prod_below) if row == identity)
    for m in M.proper_elements():
        if not M.full_mask & ~(M.down_mask(m) | fixed):
            if maxima != {m}:
                return CheckResult(
                    "L4", "global", False,
                    f"every proper element is an X-element for the down-set of {M.label(m)} "
                    f"yet the maximal elements are {{{_lbl(M, *sorted(maxima))}}}",
                )
    return CheckResult("L4", "global", True)


def _check_l5(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """Meets of nonempty families of X-elements are X-elements."""
    # Binary meets suffice: a nonempty finite meet is a chain of binary ones,
    # so closure under pairs gives closure under every family by induction.
    # meet(i1, i2) <= i1, so row i1 passes when every element below i1 is an
    # X-element. Any other row is tested against the members from i1 on at
    # once (the pairs (i2, i1) with i2 < i1 passed with row i2), and only a
    # failing row is scanned for its first bad i2.
    members = sorted(xels)
    has, down = xels.__contains__, M.order.down
    not_x = M.full_mask & ~mask_of(members)
    for start, i1 in enumerate(members):
        if not down[i1] & not_x:
            continue
        row, later = M.meet_table[i1], members[start:]
        if all(map(has, map(row.__getitem__, later))):
            continue
        for i2 in later:
            if row[i2] not in xels:
                return CheckResult(
                    "L5", X.name, False,
                    f"meet of X-elements {_lbl(M, i1, i2)} is {M.label(row[i2])}, not an X-element",
                )
    return CheckResult("L5", X.name, True)


def _check_l6(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """Search for X-element pairs whose join is not an X-element (informational)."""
    pair = join_escape(M, xels)
    if pair is None:
        return CheckResult("L6", X.name, True, info="no join witness in this instance")
    return CheckResult(
        "L6", X.name, True,
        info=f"join witness: {_lbl(M, *pair)} are X-elements, "
        f"join {M.label(M.join(*pair))} is not",
    )


def _check_l7(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """Three equivalent characterizations of X-elements via residuals agree."""
    # Both residual forms read R[i], the (i : a) over a not <= i. The third
    # form, (i : a) = i for every a outside X, is not compared: it is L14's
    # E[i] inside X, and L14 compares it.
    xmask, xel_mask = X.mask, mask_of(xels)
    down, values = M.order.down, M._residual_values
    inside = mask_of(e for e in range(M.size) if down[e] & ~xmask == 0)
    for i in M.proper_elements():
        direct = i in xels
        via_residual_xel = values[i] & ~xel_mask == 0
        via_residual_down = values[i] & ~inside == 0
        if not direct == via_residual_xel == via_residual_down:
            return CheckResult(
                "L7", X.name, False,
                f"characterizations disagree at {M.label(i)}: direct={direct} "
                f"residual-X-element={via_residual_xel} residual-down-set={via_residual_down}",
            )
    return CheckResult("L7", X.name, True)


def _check_l8(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """Maximal X-elements are prime."""
    maximal = [
        i for i in xels if not any(j != i and M.leq(i, j) for j in xels)
    ]
    for i in maximal:
        if not M.is_prime(i):
            return CheckResult(
                "L8", X.name, False,
                f"{M.label(i)} is a maximal X-element but not prime; "
                f"{_pair_or_disagreement(M, M.prime_witness(i), 'prime')}",
            )
    info = None if maximal else "vacuous: no X-elements"
    return CheckResult("L8", X.name, True, info=info)


def _check_l9(M: MultiplicativeLattice, X: MClosedSet, j: int, xels: frozenset[int]) -> CheckResult:
    """For a proper down-set: a prime above the generator, or any maximal, is an X-element iff it equals the generator."""
    for i in iter_bits(M._prime_mask):
        if M.leq(j, i) and (i in xels) != (i == j):
            return CheckResult(
                "L9", X.name, False,
                f"prime {M.label(i)} above generator {M.label(j)}: "
                f"X-element should mean equality with the generator",
            )
    for i in M.max_elements():
        if (i in xels) != (i == j):
            return CheckResult(
                "L9", X.name, False,
                f"maximal {M.label(i)} vs generator {M.label(j)}: "
                f"X-element should mean equality with the generator",
            )
    return CheckResult("L9", X.name, True)


def _check_l10(M: MultiplicativeLattice, xels: frozenset[int]) -> CheckResult:
    """X-elements exist for the prime-meet down-set iff the prime meet is prime iff there is a unique minimal prime."""
    j, exists, j_prime, unique_min = prime_meet_facts(M, xels)
    if j != M.big_meet(M.min_primes()):
        return CheckResult(
            "L10", "global", False,
            "meet of all primes differs from meet of the minimal primes",
        )
    if not exists == j_prime == unique_min:
        return CheckResult(
            "L10", "global", False,
            f"existence={exists}, prime-meet prime={j_prime}, unique minimal prime={unique_min}",
        )
    return CheckResult("L10", "global", True)


def _check_l11(M: MultiplicativeLattice, xels: frozenset[int]) -> CheckResult:
    """For the prime-meet down-set: X-element iff primary with radical the prime meet."""
    j = M.radical(M.bottom)
    for i in M.proper_elements():
        lhs = i in xels
        rhs = M.is_primary(i) and M.radical(i) == j
        if lhs != rhs:
            return CheckResult(
                "L11", "global", False,
                f"{M.label(i)}: X-element={lhs} but primary-with-radical-the-prime-meet={rhs}",
            )
    return CheckResult("L11", "global", True)


def _check_l12(M: MultiplicativeLattice, xels: frozenset[int]) -> CheckResult:
    """For the Jacobson down-set: X-element iff the two-part residual condition over maximal elements above."""
    # The implication, a*b <= i with a not <= i forces b <= m, holds exactly
    # when every (i : a) with a not <= i is below m: R[i] inside down(m).
    j, maxima = M.jacobson(), M._max_mask
    up, down, values = M.order.up, M.order.down, M._residual_values
    for i in M.proper_elements():
        m = M.big_meet(iter_bits(up[i] & maxima))
        implication = values[i] & ~down[m] == 0
        rhs = implication and m == j
        lhs = i in xels
        if lhs != rhs:
            return CheckResult(
                "L12", "global", False,
                f"{M.label(i)}: X-element={lhs} but residual-over-maximals condition={rhs}",
            )
    return CheckResult("L12", "global", True)


def _check_l13(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """Multiplying by a fixed element outside X cancels between X-elements."""
    # With no X-elements nothing can collapse or land on one. Otherwise both
    # halves are counted per k: the images of the X-elements are distinct,
    # and the i with k*i an X-element are as many as the X-elements k fixes,
    # which are among them, so no i with k*i != i lands on an X-element. Only
    # a k that fails is scanned pair by pair, for the first witness.
    members = sorted(xels)
    if not members:
        return CheckResult("L13", X.name, True)
    has = xels.__contains__
    outside = [k for k in range(M.size) if k not in X]
    for k in outside:
        row = M.table[k]
        images = list(map(row.__getitem__, members))
        if len(set(images)) == len(members) and sum(map(has, row)) == sum(map(eq, images, members)):
            continue
        for i1, i2 in itertools.combinations(members, 2):
            if row[i1] == row[i2]:
                return CheckResult(
                    "L13", X.name, False,
                    f"X-elements {_lbl(M, i1, i2)} collapse under multiplication "
                    f"by {M.label(k)} outside X",
                )
        for i in range(M.size):
            if row[i] in xels and row[i] != i:
                return CheckResult(
                    "L13", X.name, False,
                    f"{M.label(i)}*{M.label(k)} = {M.label(row[i])} is an X-element "
                    f"differing from {M.label(i)}",
                )
    return CheckResult("L13", X.name, True)


def _check_l14(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    """X-element iff the complement of its down-set is X-multiplicatively closed."""
    # The complement S of down(i) is X-multiplicatively closed when every a
    # outside X is in S, that is down(i) lies inside X, and no a outside X
    # has a*b <= i for some b in S, that is E[i] lies inside X.
    xmask = X.mask
    down, movers = M.order.down, M._residual_movers
    for i in M.proper_elements():
        if (i in xels) != ((down[i] | movers[i]) & ~xmask == 0):
            return CheckResult(
                "L14", X.name, False,
                f"{M.label(i)}: X-element and complement characterization disagree",
            )
    return CheckResult("L14", X.name, True)


def _check_l15(M: MultiplicativeLattice, X: MClosedSet) -> CheckResult:
    """Restricting both quantifiers to compact elements changes nothing (all elements are compact)."""
    # Every element of a finite lattice is compact, so restricting both
    # quantifiers of the X-element definition to compact elements leaves the
    # full scan unchanged: the check holds by construction and scans nothing.
    return CheckResult("L15", X.name, True)


def _check_l16(M: MultiplicativeLattice, canon: dict[str, MClosedSet]) -> CheckResult:
    """Z(L) by two routes agrees, the nil down-set lies inside it and radical(bottom) below the Jacobson radical.

    The canonical Z(L) comes from the escape masks; the second route is
    (bottom : x) != bottom, as x*b = bottom for some b != bottom exactly
    when b <= (bottom : x). Given the inclusions, L2 finds every n-element
    among the r- and J-elements.
    """
    rset, nset = canon["r"], canon["n"]
    bottom = M.bottom
    by_annihilators = mask_of(x for x, row in enumerate(M._prod_below) if row[bottom] != bottom)
    if differ := by_annihilators ^ rset.mask:
        x = (differ & -differ).bit_length() - 1
        says = ("not a zero divisor", "a zero divisor")
        return CheckResult(
            "L16", "global", False,
            f"Z(L) routes differ first at {M.label(x)}: the escape masks say "
            f"{says[rset.mask >> x & 1]}, the annihilator ({M.label(bottom)} : {M.label(x)}) = "
            f"{M.label(M.annihilator(x))} says {says[by_annihilators >> x & 1]}",
        )
    if nset.mask & ~rset.mask:
        bad = next(iter_bits(nset.mask & ~rset.mask))
        return CheckResult(
            "L16", "global", False,
            f"{M.label(bad)} is below the nil radical but not a zero divisor",
        )
    if not M.leq(M.radical(M.bottom), M.jacobson()):
        return CheckResult(
            "L16", "global", False,
            "radical of bottom does not sit below the Jacobson radical",
        )
    return CheckResult("L16", "global", True)
