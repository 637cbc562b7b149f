"""Corpus scans for properties that hold on some instances and not others.

Instances come from corpus specs (see ``corpus.parse_corpus_spec``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .classify import (
    CANONICAL_SETS,
    canonical_sets,
    distinct_sets,
    join_escape,
    prime_meet_facts,
    x_elements,
)
from .multiplicative import MultiplicativeLattice

@dataclass(frozen=True)
class SearchHit:
    instance: str
    detail: str

    def render(self) -> str:
        return f"{self.instance}: {self.detail}"


def _find_join_escape(M: MultiplicativeLattice) -> SearchHit | None:
    for X in distinct_sets(canonical_sets(M).values()):
        pair = join_escape(M, x_elements(M, X))
        if pair is not None:
            i1, i2 = pair
            return SearchHit(
                M.name,
                f"with X={X.name}, {M.label(i1)} and {M.label(i2)} are X-elements "
                f"but their join {M.label(M.join(i1, i2))} is not",
            )
    return None


def _find_existence_equivalence(M: MultiplicativeLattice) -> SearchHit | None:
    # The nil down-set is the prime-meet down-set: radical(bottom) is the meet
    # of the primes, which ``_radicals`` cross-asserts.
    j, exists, j_prime, unique_min = prime_meet_facts(M, x_elements(M, CANONICAL_SETS["n"](M)))
    if not exists == j_prime == unique_min:
        raise RuntimeError(
            f"{M.name}: existence/primeness/unique-minimal-prime equivalence broken "
            f"({exists}, {j_prime}, {unique_min})"
        )
    if exists:
        return SearchHit(
            M.name,
            f"X-elements exist for the prime-meet down-set of {M.label(j)}; "
            f"the prime meet is prime and the minimal prime is unique",
        )
    return None


def _find_n_strictly_inside(
    M: MultiplicativeLattice, letter: str, noun: str
) -> SearchHit | None:
    """First element of the ``letter`` class (r or j) that is not an n-element."""
    outer = x_elements(M, CANONICAL_SETS[letter](M))
    extra = sorted(outer - x_elements(M, CANONICAL_SETS["n"](M)))
    if extra:
        return SearchHit(M.name, f"{M.label(extra[0])} is {noun} but not an n-element")
    return None


_FINDERS = {
    "join-of-x-not-x": _find_join_escape,
    "x-exists-iff-min-prime-unique": _find_existence_equivalence,
    "n-strictly-inside-r": partial(_find_n_strictly_inside, letter="r", noun="an r-element"),
    "n-strictly-inside-j": partial(_find_n_strictly_inside, letter="j", noun="a J-element"),
}

PROPERTIES = tuple(_FINDERS)


def search_corpus(
    instances: Iterable[MultiplicativeLattice], property_name: str
) -> list[SearchHit]:
    """First witness per instance exhibiting the property, corpus order."""
    if property_name not in _FINDERS:
        raise ValueError(f"unknown property {property_name!r}")
    finder = _FINDERS[property_name]
    hits = []
    for M in instances:
        hit = finder(M)
        if hit is not None:
            hits.append(hit)
    return hits
