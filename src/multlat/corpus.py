"""Stock lattice instances used by the verification sweeps, and corpus specs.

The six-element "kite" lattice with the trivial multiplication is the
standing small example (one coatom, so the trivial multiplication is legal,
and every element squares to bottom). Chains carry either the trivial or the
meet multiplication; ideal lattices come from the ring bridge.

A corpus spec names instances: ``zn:N`` or ``zn:A..B`` (ideal lattices of
Z_n), ``prod:M,N`` (ideal lattice of Z_m x Z_n) and ``chain:N`` or
``chain:A..B`` (chains with the meet multiplication; over ideal lattices of
Z_n the nil and Jacobson down-sets always coincide, so the n-vs-J separation
needs instances where the radical of bottom sits strictly below the Jacobson
radical, and meet chains are the smallest such).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

from .multiplicative import MultiplicativeLattice, meet_mult, trivial_mult
from .order import lattice_from_pairs
from .ringbridge import (
    _LATTICE_CACHE_SIZE,
    ProductRingModel,
    ZnIdealModel,
    ideal_lattice_product,
    ideal_lattice_zn,
)

KITE_LABELS = ("0", "a", "b", "c", "d", "1")
KITE_COVERS = ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (4, 5))


@lru_cache(maxsize=None)
def kite_lattice() -> MultiplicativeLattice:
    """Six elements 0 < a < b < d < 1 and 0 < c < d, trivial multiplication."""
    lattice = lattice_from_pairs(6, KITE_COVERS, KITE_LABELS)
    return trivial_mult(lattice, name="K")


@lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def chain_lattice(n: int, mult: str = "trivial") -> MultiplicativeLattice:
    """A chain c0 < c1 < ... with trivial or meet multiplication."""
    if n < 1:
        raise ValueError("chain needs at least one element")
    labels = tuple(f"c{i}" for i in range(n))
    lattice = lattice_from_pairs(n, [(i, i + 1) for i in range(n - 1)], labels)
    name = f"chain-{mult}:{n}"
    if mult == "trivial":
        return trivial_mult(lattice, name=name)
    if mult == "meet":
        return meet_mult(lattice, name=name)
    raise ValueError(f"unknown chain multiplication {mult!r}")


def zn_instances(lo: int, hi: int) -> Iterator[MultiplicativeLattice]:
    for n in range(lo, hi + 1):
        yield ideal_lattice_zn(n)[0]


def product_instances(moduli: tuple[int, ...]) -> Iterator[MultiplicativeLattice]:
    for m in moduli:
        for n in moduli:
            yield ideal_lattice_product(m, n)[0]


PRODUCT_MODULI = (2, 3, 4, 8, 9, 25)


def acceptance_corpus(zn_hi: int = 200) -> Iterator[MultiplicativeLattice]:
    """zn:2..zn_hi, the stock product pairs, trivial chains to 8, and K."""
    yield from zn_instances(2, zn_hi)
    yield from product_instances(PRODUCT_MODULI)
    for n in range(2, 9):
        yield chain_lattice(n, "trivial")
    yield kite_lattice()


CORPUS_KINDS = ("zn", "prod", "chain")

Instance = tuple[MultiplicativeLattice, ZnIdealModel | ProductRingModel | None]


@dataclass(frozen=True)
class CorpusSpec:
    """A parsed corpus spec: ``len`` counts its instances without building any,
    and iterating builds them in order as (lattice, ring model) pairs."""

    build: Callable[[int], Instance]
    args: Sequence[int]

    def __len__(self) -> int:
        return len(self.args)

    def __iter__(self) -> Iterator[Instance]:
        return map(self.build, self.args)


def parse_corpus_spec(spec: str) -> CorpusSpec:
    """Parse a corpus spec; errors are raised here, before any instance is built.

    The model is None for chains.
    """
    kind, _, rest = spec.partition(":")
    if kind == "zn":
        return CorpusSpec(ideal_lattice_zn, _parse_range(rest, spec))
    if kind == "prod":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad corpus spec {spec!r}: expected prod:M,N")
        m, n = _int(parts[0], spec), _int(parts[1], spec)
        return CorpusSpec(partial(ideal_lattice_product, m), (n,))
    if kind == "chain":
        return CorpusSpec(_meet_chain, _parse_range(rest, spec))
    raise ValueError(
        f"bad corpus spec {spec!r}: unknown kind {kind!r}, expected one of "
        f"{', '.join(CORPUS_KINDS)}"
    )


def _meet_chain(n: int) -> Instance:
    return chain_lattice(n, "meet"), None


def _parse_range(rest: str, spec: str) -> range:
    if ".." in rest:
        lo, _, hi = rest.partition("..")
        out = range(_int(lo, spec), _int(hi, spec) + 1)
        if not out:
            raise ValueError(f"bad corpus spec {spec!r}: empty range {rest}")
        return out
    n = _int(rest, spec)
    return range(n, n + 1)


def _int(s: str, spec: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"bad corpus spec {spec!r}: {s!r} is not an integer") from None
