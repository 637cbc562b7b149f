from pathlib import Path

import pytest

from multlat import ideal_lattice_zn, kite_lattice, lattice_from_pairs, load_path, trivial_mult

LATTICE_DIR = Path(__file__).resolve().parent.parent / "lattices"


@pytest.fixture(scope="session")
def kite():
    return kite_lattice()


@pytest.fixture(scope="session")
def z12():
    return ideal_lattice_zn(12)[0]


@pytest.fixture(scope="session")
def z15():
    return ideal_lattice_zn(15)[0]


@pytest.fixture(scope="session")
def lattice_dir():
    return LATTICE_DIR


def m3_plus_top():
    """M_3 (0 < a, b, c < m) with a new top above m; trivial multiplication."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)]
    lattice = lattice_from_pairs(6, covers, ("0", "a", "b", "c", "m", "1"))
    return trivial_mult(lattice, name="M3+top")


def n5_plus_top():
    """N_5 with a new top, from ``lattices/n5-top.lat``; b*b = a."""
    return load_path(LATTICE_DIR / "n5-top.lat")[0]


def div_index(M, label: str) -> int:
    """Index of a labelled element, for readable assertions."""
    return M.lattice.index_of(label)


def brute_force_axioms_hold(lattice, rows) -> bool:
    """Triple-loop check of the four defining identities, no shortcuts."""
    n = lattice.size
    R = range(n)
    for a in R:
        if rows[a][lattice.top] != a or rows[a][lattice.bottom] != lattice.bottom:
            return False
        for b in R:
            if rows[a][b] != rows[b][a]:
                return False
            for c in R:
                if rows[a][rows[b][c]] != rows[rows[a][b]][c]:
                    return False
                if rows[a][lattice.join(b, c)] != lattice.join(rows[a][b], rows[a][c]):
                    return False
    return True


def first_axiom_violation(lattice, rows):
    """(axiom, witness) of the first failure, scanning in the original order.

    A plain reference for ``attach_multiplication``: entry range,
    commutativity, identity and annihilation, distributivity, associativity
    over every c, then the product-below-meet bound. None if all hold.
    """
    n = lattice.size
    R = range(n)
    for a in R:
        for b in R:
            if not 0 <= rows[a][b] < n:
                return "closure", (a, b)
    for a in R:
        for b in range(a + 1, n):
            if rows[a][b] != rows[b][a]:
                return "commutativity", (a, b)
    for a in R:
        if rows[a][lattice.top] != a:
            return "identity", (a,)
        if rows[a][lattice.bottom] != lattice.bottom:
            return "annihilation", (a,)
    for a in R:
        for b in R:
            for c in range(b + 1, n):
                if rows[a][lattice.join(b, c)] != lattice.join(rows[a][b], rows[a][c]):
                    return "distributivity", (a, b, c)
    for a in R:
        for b in R:
            for c in R:
                if rows[a][rows[b][c]] != rows[rows[a][b]][c]:
                    return "associativity", (a, b, c)
    for a in R:
        for b in range(a, n):
            if not lattice.leq(rows[a][b], lattice.meet(a, b)):
                return "product-below-meet", (a, b)
    return None
