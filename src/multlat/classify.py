"""M-closed sets and classification of elements relative to them.

The central predicate: given an M-closed subset X of a multiplicative
lattice, a proper element i is an *X-element* when every product a*b <= i
with a outside X forces b <= i. Specializing X to the zero-divisor set, the
down-set of the radical of bottom, and the down-set of the Jacobson radical
yields the r-, n- and J-element classes. Down-sets and Z(L) are M-closed by
proof and skip the closure scan; ``make_m_closed`` scans member lists from outside.

The predicate is read off the lattice's escape masks, each built once
(see ``multiplicative``): ``x_element_mask`` decides a whole set with at
most n ORs of F, and ``x_witness`` reads one pair off E in O(1).

All functions are pure; negative answers come with the first violating pair
in element-index order.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import combinations
from typing import Iterable

from .multiplicative import DegenerateLattice, MultiplicativeLattice
from .order import iter_bits, mask_of


class NotMClosed(ValueError):
    """Two members multiply outside the set."""

    def __init__(self, a: int, b: int, prod: int):
        self.witness = (a, b, prod)
        super().__init__(f"{a}*{b} = {prod} escapes the set")


class NotXMultClosed(ValueError):
    """The two defining clauses of an X-multiplicatively-closed set fail."""

    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"not X-multiplicatively closed: {witness}")


class PreconditionViolated(ValueError):
    """Some member of the avoid set already sits below the start element."""

    def __init__(self, t: int):
        self.element = t
        super().__init__(f"avoid-set member {t} lies below the start element")


@dataclass(frozen=True)
class MClosedSet:
    """A nonempty subset closed under the lattice multiplication.

    A caller that holds the members as a mask passes it as ``members_mask``.
    """

    members: frozenset[int]
    name: str = "X"
    _mask: int = field(init=False, repr=False, compare=False)
    members_mask: InitVar[int | None] = None

    def __post_init__(self, members_mask):
        mask = mask_of(self.members) if members_mask is None else members_mask
        object.__setattr__(self, "_mask", mask)

    @property
    def mask(self) -> int:
        return self._mask

    def __contains__(self, a: int) -> bool:
        return a in self.members


def m_closed_witness(M: MultiplicativeLattice, members: Iterable[int]) -> tuple[int, int, int] | None:
    """First (a, b, a*b) with a, b inside but the product outside, else None."""
    ms = sorted(set(members))
    inside = mask_of(ms)
    for a in ms:
        row = M.table[a]
        for b in ms:
            if b < a:
                continue
            if not inside >> row[b] & 1:
                return a, b, row[b]
    return None


def make_m_closed(M: MultiplicativeLattice, members: Iterable[int], name: str = "X") -> MClosedSet:
    ms = frozenset(members)
    if not ms:
        raise ValueError("an M-closed set must be nonempty")
    if any(not 0 <= a < M.size for a in ms):
        raise IndexError("member out of range")
    w = m_closed_witness(M, ms)
    if w is not None:
        raise NotMClosed(*w)
    return MClosedSet(ms, name)


def downset_m_closed(M: MultiplicativeLattice, j: int, name: str | None = None) -> MClosedSet:
    """The down-set of j; M-closed without a scan, since a, b <= j gives a*b <= a <= j."""
    if name is None:
        name = f"downset:{M.label(j)}"
    down = M.down_mask(j)
    return MClosedSet(frozenset(iter_bits(down)), name, down)


def zero_divisor_set(M: MultiplicativeLattice, name: str = "zdiv") -> MClosedSet:
    """Z(L), the a with a*x = bottom for some x != bottom; read off the escape
    masks F, with no residual table. M-closed without a scan: a*x = bottom,
    x != bottom give (a*b)*x = b*(a*x) = bottom."""
    if M.size == 1:
        raise DegenerateLattice("zero-divisor set needs a proper element")
    zdiv = M._zdiv_mask
    return MClosedSet(frozenset(iter_bits(zdiv)), name, zdiv)


def nil_downset(M: MultiplicativeLattice, name: str = "nil") -> MClosedSet:
    """The down-set of radical(bottom); the set behind n-elements."""
    if M.size == 1:
        raise DegenerateLattice("nil down-set needs a proper element")
    return downset_m_closed(M, M.radical(M.bottom), name)


def jacobson_downset(M: MultiplicativeLattice, name: str = "jrad") -> MClosedSet:
    """The down-set of the Jacobson radical; the set behind J-elements."""
    return downset_m_closed(M, M.jacobson(), name)


CANONICAL_SETS = {"r": zero_divisor_set, "n": nil_downset, "j": jacobson_downset}
"""The sets behind r-, n- and J-elements, keyed by letter; each takes (M, name)."""


def canonical_sets(M: MultiplicativeLattice) -> dict[str, MClosedSet]:
    """The r/n/J sets of M under their default names, in r, n, j order."""
    return {letter: make(M) for letter, make in CANONICAL_SETS.items()}


def distinct_sets(sets: Iterable[MClosedSet]) -> list[MClosedSet]:
    """One set per distinct membership; the first one given keeps its name."""
    seen: dict[frozenset[int], MClosedSet] = {}
    for X in sets:
        seen.setdefault(X.members, X)
    return list(seen.values())


def principal_generator(M: MultiplicativeLattice, X: MClosedSet) -> int | None:
    """j with X = down-set of j, if X is such a down-set."""
    j = M.big_join(X.members)
    if M.down_mask(j) == X.mask:
        return j
    return None


# -- the X-element predicate -------------------------------------------------


def x_witness(M: MultiplicativeLattice, X: MClosedSet, i: int) -> tuple[int, int] | None:
    """First (a, b) with a*b <= i, a outside X, b not <= i; None if no pair."""
    return M.residual_witness(i, X.mask)


def is_x_element(M: MultiplicativeLattice, X: MClosedSet, i: int) -> bool:
    return i != M.top and x_witness(M, X, i) is None


def x_element_mask(M: MultiplicativeLattice, X: MClosedSet) -> int:
    """The X-elements as a mask: the proper elements at which no a outside X escapes.

    Kept in ``M.derived`` per X.mask, since it reads nothing else.
    """
    derived, members = M.derived, X.mask
    found = derived.get(("x_element_mask", members))
    if found is None:
        escapes = M._escape_sets
        hit = 1 << M.top
        for a in iter_bits(M.full_mask & ~members):
            hit |= escapes[a]
        found = derived["x_element_mask", members] = M.full_mask & ~hit
    return found


def x_elements(M: MultiplicativeLattice, X: MClosedSet) -> frozenset[int]:
    return frozenset(iter_bits(x_element_mask(M, X)))


def is_r_element(M: MultiplicativeLattice, i: int) -> bool:
    return is_x_element(M, zero_divisor_set(M), i)


def is_n_element(M: MultiplicativeLattice, i: int) -> bool:
    return is_x_element(M, nil_downset(M), i)


def is_j_element(M: MultiplicativeLattice, i: int) -> bool:
    return is_x_element(M, jacobson_downset(M), i)


def join_escape(M: MultiplicativeLattice, xels: frozenset[int]) -> tuple[int, int] | None:
    """First pair of X-elements ``xels``, in index order, whose join is not one (top never is)."""
    for i1, i2 in combinations(sorted(xels), 2):
        if M.join(i1, i2) not in xels:
            return i1, i2
    return None


def prime_meet_facts(M: MultiplicativeLattice, xels: frozenset[int]) -> tuple[int, bool, bool, bool]:
    """The meet j of all primes (radical(bottom)), and three facts that must agree about it.

    ``xels`` are the X-elements of the down-set of j. Returns (j, X-elements
    exist for that down-set, j is prime, the minimal prime is unique).
    """
    j = M.radical(M.bottom)
    return j, bool(xels), M.is_prime(j), len(M.min_primes()) == 1


# -- X-multiplicatively closed sets -------------------------------------------


def x_mult_closed_witness(
    M: MultiplicativeLattice, X: MClosedSet, members: Iterable[int]
) -> tuple | None:
    """None when ``members`` is X-multiplicatively closed, else a witness.

    Witness forms: ("missing", a) when a is outside X but not a member;
    ("escapes", a1, a2, prod) when a1 outside X and a2 a member multiply out.
    """
    amask = mask_of(members)
    outside = M.full_mask & ~X.mask
    missing = outside & ~amask
    if missing:
        return "missing", (missing & -missing).bit_length() - 1
    for a1 in iter_bits(outside):
        row = M.table[a1]
        for a2 in iter_bits(amask):
            if not amask >> row[a2] & 1:
                return "escapes", a1, a2, row[a2]
    return None


def is_x_mult_closed(M: MultiplicativeLattice, X: MClosedSet, members: Iterable[int]) -> bool:
    ms = frozenset(members)
    return bool(ms) and x_mult_closed_witness(M, X, ms) is None


@dataclass(frozen=True)
class XMultClosedSet:
    """A validated X-multiplicatively closed subset."""

    xset: MClosedSet
    members: frozenset[int]
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_mask", mask_of(self.members))

    @property
    def mask(self) -> int:
        return self._mask


def make_x_mult_closed(
    M: MultiplicativeLattice, X: MClosedSet, members: Iterable[int]
) -> XMultClosedSet:
    ms = frozenset(members)
    if not ms:
        raise ValueError("an X-multiplicatively closed set must be nonempty")
    w = x_mult_closed_witness(M, X, ms)
    if w is not None:
        raise NotXMultClosed(w)
    return XMultClosedSet(X, ms)


def maximal_x_avoiding(
    M: MultiplicativeLattice, X: MClosedSet, a: int, A: XMultClosedSet
) -> int:
    """Grow a to an element maximal among those avoiding all of A.

    Requires X to be the down-set of some j and no member of A to sit below
    a already (PreconditionViolated otherwise). The result i satisfies
    a <= i, t not<= i for every t in A, i maximal with these properties, and
    i is an X-element (asserted; that it must be one is the point).
    """
    if principal_generator(M, X) is None:
        raise ValueError("X must be a principal down-set")
    if A.xset.members != X.members:
        raise ValueError("A was validated against a different set than X")
    amask = A.mask
    down = M.order.down
    for t in iter_bits(amask):
        if down[a] >> t & 1:
            raise PreconditionViolated(t)
    candidates = [
        c
        for c in range(M.size)
        if down[c] >> a & 1 and not any(down[c] >> t & 1 for t in iter_bits(amask))
    ]
    # Largest down-set first: such a candidate is maximal under <=.
    candidates.sort(key=lambda c: (-down[c].bit_count(), c))
    best = candidates[0]
    assert is_x_element(M, X, best), "maximal avoiding element must be an X-element"
    return best
