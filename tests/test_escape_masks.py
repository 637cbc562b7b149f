"""The three escape masks against the literal definitions they shortcut.

F (``_escape_sets``) decides the X-elements from the table over J(L), E
(``_residual_movers``) gives the witnesses, the primes and L14, and R
(``_residual_values``) gives L7. Each is compared here with a scan that
uses none of the shortcuts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    acceptance_corpus,
    canonical_sets,
    complement_characterization,
    downset_m_closed,
    ideal_lattice_zn,
    product,
    residual_characterization,
    x_element_mask,
    x_elements,
    x_witness,
)
from multlat.order import mask_of
from conftest import m3_plus_top, n5_plus_top, x_set_instances


def instances():
    yield from x_set_instances()
    yield from acceptance_corpus(200)
    yield m3_plus_top()
    yield n5_plus_top()
    yield product(n5_plus_top(), ideal_lattice_zn(5040)[0], "N5+top x zn:5040")


@pytest.fixture(scope="module")
def corpus():
    return list(instances())


def escapes_over_every_b(M):
    """Per a, the i with a*b <= i for some b not <= i, b over all of L."""
    up = M.order.up
    out = []
    for row in M.table:
        acc = 0
        for b, ab in enumerate(row):
            acc |= up[ab] & ~up[b]
        out.append(acc)
    return out


def test_corpus_has_the_large_non_distributive_product(corpus):
    big = corpus[-1]
    assert big.size == 360 and len(big.join_irreducibles) == 12


def test_escape_sets_match_the_scan_over_every_b(corpus):
    # Checks the J(L) reduction: F reads only the b in J(L).
    for M in corpus:
        assert list(M._escape_sets) == escapes_over_every_b(M), M.name


def test_residual_movers_match_the_definition(corpus):
    # a is in E[i] when some b has a*b <= i and b not <= i, read from the
    # table and the order only.
    for M in corpus:
        leq, table, n = M.leq, M.table, M.size
        for i in range(n):
            want = mask_of(
                a for a in range(n)
                if any(leq(table[a][b], i) and not leq(b, i) for b in range(n))
            )
            assert M._residual_movers[i] == want, (M.name, i)


def test_residual_values_are_the_residuals_of_the_a_not_below(corpus):
    for M in corpus:
        for i in range(M.size):
            want = mask_of(M.residual(i, a) for a in range(M.size) if not M.leq(a, i))
            assert M._residual_values[i] == want, (M.name, i)


def test_prime_mask_matches_the_per_element_scan(corpus):
    for M in corpus:
        down = M.order.down
        scanned = [M.escape_witness(p, down[p], down[p]) for p in range(M.size)]
        assert [M.prime_witness(p) for p in range(M.size)] == scanned, M.name
        want = mask_of(p for p, w in enumerate(scanned) if p != M.top and w is None)
        assert M._prime_mask == want, M.name


def test_witnesses_match_the_per_element_scan(corpus):
    for M in corpus:
        down = M.order.down
        for X in canonical_sets(M).values():
            scanned = [M.escape_witness(i, X.mask, down[i]) for i in range(M.size)]
            assert [x_witness(M, X, i) for i in range(M.size)] == scanned, (M.name, X.name)
            want = mask_of(i for i, w in enumerate(scanned) if i != M.top and w is None)
            assert x_element_mask(M, X) == want, (M.name, X.name)


@given(n=st.integers(2, 600))
@settings(max_examples=60, deadline=None)
def test_x_elements_match_both_characterizations_on_every_principal_downset(n):
    M, _ = ideal_lattice_zn(n)
    for j in range(M.size):
        X = downset_m_closed(M, j)
        xels = x_elements(M, X)
        for i in M.proper_elements():
            assert (i in xels) == residual_characterization(M, X, i), (n, j, i)
            assert (i in xels) == complement_characterization(M, X, i), (n, j, i)
