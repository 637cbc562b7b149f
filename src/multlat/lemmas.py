"""Executable property suite over a multiplicative lattice.

Sixteen checks, L1..L16, each an exhaustive finite instantiation of a
general fact about X-elements. Run against a lattice and a family of
M-closed sets, every check must pass on every valid input; a failure
indicates an implementation bug, and the failing tuple is reported. L6 is
the one informational check: it looks for a pair of X-elements whose join is
not an X-element (such pairs exist in some lattices and not others, so
finding none is not a failure).

The per-set checks run for each given set and for the canonical sets (zero
divisors, nil down-set, Jacobson down-set, prime-meet down-set).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classify import (
    MClosedSet,
    canonical_sets,
    complement_characterization,
    distinct_sets,
    downset_m_closed,
    is_x_element,
    join_escape,
    prime_meet_downset,
    prime_meet_facts,
    principal_generator,
    residual_characterization,
    x_elements,
    x_witness,
)
from .multiplicative import DegenerateLattice, MultiplicativeLattice
from .order import iter_bits

CHECK_TITLES = {
    "L1": "X-elements sit inside X; for X a principal down-set of its own join, X-element = prime",
    "L2": "X-elements carry over to any larger M-closed set",
    "L3": "in a local lattice every proper element is an X-element for the maximal down-set",
    "L4": "if every proper element is an X-element for a proper down-set, its generator is the unique maximal",
    "L5": "meets of nonempty families of X-elements are X-elements",
    "L6": "search for X-element pairs whose join is not an X-element (informational)",
    "L7": "four equivalent characterizations of X-elements via residuals agree",
    "L8": "maximal X-elements are prime",
    "L9": "for a proper down-set: a prime above the generator, or any maximal, is an X-element iff it equals the generator",
    "L10": "X-elements exist for the prime-meet down-set iff the prime meet is prime iff there is a unique minimal prime",
    "L11": "for the prime-meet down-set: X-element iff primary with radical the prime meet",
    "L12": "for the Jacobson down-set: X-element iff the two-part residual condition over maximal elements above",
    "L13": "multiplying by a fixed element outside X cancels between X-elements",
    "L14": "X-element iff the complement of its down-set is X-multiplicatively closed",
    "L15": "restricting both quantifiers to compact elements changes nothing (all elements are compact)",
    "L16": "n-elements are r-elements and J-elements; the underlying set inclusions hold",
}


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


def lemma_suite(M: MultiplicativeLattice, xsets: tuple[MClosedSet, ...] = ()) -> SuiteReport:
    """Run every check against ``xsets`` and the canonical sets."""
    if M.size == 1:
        raise DegenerateLattice("lemma suite needs a proper element")
    sets = distinct_sets([*xsets, *canonical_sets(M).values(), prime_meet_downset(M)])

    results: list[CheckResult] = []
    for X in sets:
        xels = x_elements(M, X)
        results.append(_check_l1(M, X))
        results.append(_check_l5(M, X, xels))
        results.append(_check_l6(M, X, xels))
        results.append(_check_l7(M, X))
        results.append(_check_l8(M, X, xels))
        results.append(_check_l13(M, X, xels))
        results.append(_check_l14(M, X))
        results.append(_check_l15(M, X))
        j = principal_generator(M, X)
        if j is not None and j != M.top:
            results.append(_check_l9(M, X, j))
    results.append(_check_l2(M, sets))
    results.append(_check_l3(M))
    results.append(_check_l4(M))
    results.append(_check_l10(M))
    results.append(_check_l11(M))
    results.append(_check_l12(M))
    results.append(_check_l16(M))
    return SuiteReport(M.name, tuple(results))


# -- individual checks ---------------------------------------------------------


def _check_l1(M: MultiplicativeLattice, X: MClosedSet) -> CheckResult:
    xmask = X.mask
    for i in M.proper_elements():
        if is_x_element(M, X, i) and M.down_mask(i) & ~xmask:
            stray = M.down_mask(i) & ~xmask
            return CheckResult(
                "L1", X.name, False,
                f"{M.label(i)} is an X-element but {_lbl(M, next(iter_bits(stray)))} below it is outside X",
            )
        if M.down_mask(i) == xmask:
            if is_x_element(M, X, i) != M.is_prime(i):
                return CheckResult(
                    "L1", X.name, False,
                    f"down-set of {M.label(i)} equals X but X-element != prime there",
                )
    return CheckResult("L1", X.name, True)


def _check_l2(M: MultiplicativeLattice, sets: list[MClosedSet]) -> CheckResult:
    for X, Xp in itertools.permutations(sets, 2):
        if X.mask & ~Xp.mask:
            continue
        for i in M.proper_elements():
            if is_x_element(M, X, i) and not is_x_element(M, Xp, i):
                return CheckResult(
                    "L2", "global", False,
                    f"{M.label(i)} is an {X.name}-element, {X.name} inside {Xp.name}, "
                    f"but not an {Xp.name}-element",
                )
    return CheckResult("L2", "global", True)


def _check_l3(M: MultiplicativeLattice) -> CheckResult:
    if not M.is_local():
        return CheckResult("L3", "global", True, info="vacuous: lattice not local")
    (m,) = M.max_elements()
    X = downset_m_closed(M, m)
    for i in M.proper_elements():
        if not is_x_element(M, X, i):
            return CheckResult(
                "L3", "global", False,
                f"local with maximal {M.label(m)} but {M.label(i)} is not an X-element "
                f"for its down-set; pair {_lbl(M, *x_witness(M, X, i))}",
            )
    return CheckResult("L3", "global", True)


def _check_l4(M: MultiplicativeLattice) -> CheckResult:
    maxima = M.max_elements()
    for m in M.proper_elements():
        X = downset_m_closed(M, m)
        if all(is_x_element(M, X, i) for i in M.proper_elements()):
            if maxima != {m}:
                return CheckResult(
                    "L4", "global", False,
                    f"every proper element is an X-element for the down-set of {M.label(m)} "
                    f"yet the maximal elements are {{{_lbl(M, *sorted(maxima))}}}",
                )
    return CheckResult("L4", "global", True)


def _check_l5(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    # Binary meets suffice: a nonempty finite meet is a chain of binary ones,
    # so closure under pairs gives closure under every family by induction.
    for i1, i2 in itertools.combinations_with_replacement(sorted(xels), 2):
        if M.meet(i1, i2) not in xels:
            return CheckResult(
                "L5", X.name, False,
                f"meet of X-elements {_lbl(M, i1, i2)} is {M.label(M.meet(i1, i2))}, not an X-element",
            )
    return CheckResult("L5", X.name, True)


def _check_l6(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    pair = join_escape(M, X, xels)
    if pair is None:
        return CheckResult("L6", X.name, True, info="no join witness in this instance")
    return CheckResult(
        "L6", X.name, True,
        info=f"join witness: {_lbl(M, *pair)} are X-elements, "
        f"join {M.label(M.join(*pair))} is not",
    )


def _check_l7(M: MultiplicativeLattice, X: MClosedSet) -> CheckResult:
    xmask = X.mask
    for i in M.proper_elements():
        direct = is_x_element(M, X, i)
        via_residual_fixed = residual_characterization(M, X, i)
        via_residual_xel = all(
            is_x_element(M, X, M.residual(i, a))
            for a in range(M.size)
            if not M.leq(a, i)
        )
        via_residual_down = all(
            M.down_mask(M.residual(i, a)) & ~xmask == 0
            for a in range(M.size)
            if not M.leq(a, i)
        )
        if not direct == via_residual_fixed == via_residual_xel == via_residual_down:
            return CheckResult(
                "L7", X.name, False,
                f"characterizations disagree at {M.label(i)}: "
                f"direct={direct} fixed-residual={via_residual_fixed} "
                f"residual-X-element={via_residual_xel} residual-down-set={via_residual_down}",
            )
    return CheckResult("L7", X.name, True)


def _check_l8(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    maximal = [
        i for i in xels if not any(j != i and M.leq(i, j) for j in xels)
    ]
    for i in maximal:
        if not M.is_prime(i):
            return CheckResult(
                "L8", X.name, False,
                f"{M.label(i)} is a maximal X-element but not prime; "
                f"pair {_lbl(M, *M.prime_witness(i))}",
            )
    info = None if maximal else "vacuous: no X-elements"
    return CheckResult("L8", X.name, True, info=info)


def _check_l9(M: MultiplicativeLattice, X: MClosedSet, j: int) -> CheckResult:
    for i in iter_bits(M._prime_mask):
        if M.leq(j, i) and is_x_element(M, X, i) != (i == j):
            return CheckResult(
                "L9", X.name, False,
                f"prime {M.label(i)} above generator {M.label(j)}: "
                f"X-element should mean equality with the generator",
            )
    for i in M.max_elements():
        if is_x_element(M, X, i) != (i == j):
            return CheckResult(
                "L9", X.name, False,
                f"maximal {M.label(i)} vs generator {M.label(j)}: "
                f"X-element should mean equality with the generator",
            )
    return CheckResult("L9", X.name, True)


def _check_l10(M: MultiplicativeLattice) -> CheckResult:
    j, exists, j_prime, unique_min = prime_meet_facts(M)
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


def _check_l11(M: MultiplicativeLattice) -> CheckResult:
    j = M.big_meet(M.prime_elements())
    X = downset_m_closed(M, j)
    for i in M.proper_elements():
        lhs = is_x_element(M, X, i)
        rhs = M.is_primary(i) and M.radical(i) == j
        if lhs != rhs:
            return CheckResult(
                "L11", "global", False,
                f"{M.label(i)}: X-element={lhs} but primary-with-radical-the-prime-meet={rhs}",
            )
    return CheckResult("L11", "global", True)


def _check_l12(M: MultiplicativeLattice) -> CheckResult:
    j = M.jacobson()
    X = downset_m_closed(M, j)
    for i in M.proper_elements():
        m = M.big_meet(k for k in M.max_elements() if M.leq(i, k))
        implication = M.escape_witness(i, M.down_mask(i), M.down_mask(m)) is None
        rhs = implication and m == j
        lhs = is_x_element(M, X, i)
        if lhs != rhs:
            return CheckResult(
                "L12", "global", False,
                f"{M.label(i)}: X-element={lhs} but residual-over-maximals condition={rhs}",
            )
    return CheckResult("L12", "global", True)


def _check_l13(M: MultiplicativeLattice, X: MClosedSet, xels: frozenset[int]) -> CheckResult:
    outside = [k for k in range(M.size) if k not in X]
    members = sorted(xels)
    for k in outside:
        row = M.table[k]
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


def _check_l14(M: MultiplicativeLattice, X: MClosedSet) -> CheckResult:
    for i in M.proper_elements():
        if is_x_element(M, X, i) != complement_characterization(M, X, i):
            return CheckResult(
                "L14", X.name, False,
                f"{M.label(i)}: X-element and complement characterization disagree",
            )
    return CheckResult("L14", X.name, True)


def _check_l15(M: MultiplicativeLattice, X: MClosedSet) -> CheckResult:
    # Every element of a finite lattice is compact, so restricting both
    # quantifiers of the X-element definition to compact elements leaves the
    # full scan unchanged: the check holds by construction and scans nothing.
    return CheckResult("L15", X.name, True)


def _check_l16(M: MultiplicativeLattice) -> CheckResult:
    rset, nset, jset = canonical_sets(M).values()
    n_els = x_elements(M, nset)
    r_els = x_elements(M, rset)
    j_els = x_elements(M, jset)
    if not n_els <= r_els:
        bad = next(iter(n_els - r_els))
        return CheckResult("L16", "global", False, f"n-element {M.label(bad)} is not an r-element")
    if not n_els <= j_els:
        bad = next(iter(n_els - j_els))
        return CheckResult("L16", "global", False, f"n-element {M.label(bad)} is not a J-element")
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
