"""The three escape masks against the literal definitions they shortcut.

F (``_escape_sets``) decides the X-elements, the primes and the zero
divisors from the table over J(L), E (``_residual_movers``) gives the
witnesses and L14, and R (``_residual_values``) gives L7. Each is compared
here with a scan that uses none of the shortcuts, and the sets F decides
with the residual-table forms they replaced. Deciding the r-, n- and
J-elements reads F only, so ``search`` and ``cross_validate`` never build
the residual table. L5 and L13, which test whole rows at once, and
``join_escape`` are compared with their literal pair scans, witnesses
included.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    acceptance_corpus,
    canonical_sets,
    chain_lattice,
    cross_validate,
    downset_m_closed,
    ideal_lattice_zn,
    product,
    search_corpus,
    x_element_mask,
    x_elements,
    x_witness,
)
from multlat import ringbridge
from multlat.classify import distinct_sets, join_escape
from multlat.lemmas import CheckResult, _check_l5, _check_l13, _lbl
from multlat.order import mask_of
from multlat.search import PROPERTIES
from conftest import (
    complement_characterization,
    m3_plus_top,
    n5_plus_top,
    residual_characterization,
    x_set_instances,
)


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


def not_prime_over_every_pair(M):
    """The p with a*b <= p for some a and b, neither below p, over all pairs."""
    up = M.order.up
    out = 0
    for a, row in enumerate(M.table):
        for b, ab in enumerate(row):
            out |= up[ab] & ~up[a] & ~up[b]
    return out


def test_prime_mask_matches_the_residual_table_and_the_definition(corpus):
    # _prime_mask reads F over J(L) only; the E form reads the residual table,
    # and the all-pairs form the table and the order.
    for M in corpus:
        down, movers = M.order.down, M._residual_movers
        by_movers = mask_of(p for p in range(M.size) if p != M.top and movers[p] & ~down[p] == 0)
        by_pairs = M.full_mask & ~(1 << M.top) & ~not_prime_over_every_pair(M)
        assert M._prime_mask == by_movers == by_pairs, M.name


def test_zdiv_mask_matches_the_annihilators_and_the_definition(corpus):
    # _zdiv_mask reads bit bottom of F; the annihilator form reads the residual
    # table, and the literal form every product.
    for M in corpus:
        bottom = M.bottom
        by_annihilator = mask_of(x for x in range(M.size) if M.annihilator(x) != bottom)
        by_products = mask_of(
            x for x, row in enumerate(M.table)
            if any(ab == bottom for b, ab in enumerate(row) if b != bottom)
        )
        assert M._zdiv_mask == by_annihilator == by_products, M.name


def test_max_mask_matches_the_per_element_scan(corpus):
    for M in corpus:
        assert M._max_mask == mask_of(m for m in range(M.size) if M.is_maximal(m)), M.name


def test_search_and_cross_validate_never_build_the_residual_table():
    # Freshly built zn lattices and meet chains, so no other test has read
    # their residual tables; moduli of one shape share ``derived``, and the
    # shape cache is emptied so those dicts are fresh too. Products are left
    # out: ``product`` seeds ``derived`` with the residual table it builds
    # from its factors.
    ringbridge._shape_lattice.cache_clear()
    lattices = [ideal_lattice_zn.__wrapped__(n)[0] for n in range(2, 301)]
    lattices += [chain_lattice.__wrapped__(n, "meet") for n in range(2, 9)]
    hits = {name: search_corpus(lattices, name) for name in PROPERTIES}
    assert hits["x-exists-iff-min-prime-unique"] and hits["n-strictly-inside-j"]
    ring_side = [ideal_lattice_zn.__wrapped__(n) for n in range(2, 101)]
    for M, model in ring_side:
        cross_validate(M, model)
    for M in lattices + [M for M, _ in ring_side]:
        assert "_escape_sets" in M.derived, M.name
        assert "_prod_below" not in M.derived and "_residual_movers" not in M.derived, M.name


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


# -- L5 and L13: whole-row tests against the literal pair scans -------------------


def literal_l5(M, X, xels):
    for i1, i2 in itertools.combinations_with_replacement(sorted(xels), 2):
        if M.meet(i1, i2) not in xels:
            return CheckResult(
                "L5", X.name, False,
                f"meet of X-elements {_lbl(M, i1, i2)} is {M.label(M.meet(i1, i2))}, not an X-element",
            )
    return CheckResult("L5", X.name, True)


def literal_l13(M, X, xels):
    members = sorted(xels)
    for k in (k for k in range(M.size) if k not in X):
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


def literal_join_escape(M, xels):
    for i1, i2 in itertools.combinations(sorted(xels), 2):
        if M.join(i1, i2) not in xels:
            return i1, i2
    return None


def test_join_escape_matches_the_literal_pair_scan(corpus):
    # L6 and the join-of-x-not-x search read join_escape on the X-element
    # mask; the first pair in index order, (i1, i2) with i1 < i2, on the true
    # X-elements and on the sets near or far from them.
    rng = random.Random(6)
    found = 0
    for M in corpus:
        for X in distinct_sets(canonical_sets(M).values()):
            for xels in candidate_x_elements(M, X, rng):
                want = literal_join_escape(M, xels)
                assert join_escape(M, mask_of(xels)) == want, (M.name, X.name, sorted(xels))
                found += want is not None
    assert found > 100


def candidate_x_elements(M, X, rng):
    """The true X-elements, and three sets near or far from them, to reach the witnesses."""
    xels = x_elements(M, X)
    proper = M.proper_elements()
    yield xels
    yield xels | {rng.choice(proper)}
    if xels:
        yield xels - {rng.choice(sorted(xels))}
    yield frozenset(rng.sample(proper, len(proper) // 2))


def test_l5_and_l13_match_the_literal_pair_scans(corpus):
    rng = random.Random(5)
    failed = set()  # (check, whether two X-elements collapsed) per failure seen
    for M in corpus:
        for X in distinct_sets(canonical_sets(M).values()):
            for xels in candidate_x_elements(M, X, rng):
                for check, literal in ((_check_l5, literal_l5), (_check_l13, literal_l13)):
                    got = check(M, X, mask_of(xels))
                    assert got == literal(M, X, xels), (M.name, X.name, sorted(xels))
                    if not got.passed:
                        failed.add((got.check, "collapse" in got.witness))
    # Both checks fail on some sets, L13 in both of its halves, so the
    # fallback scans name witnesses here.
    assert failed == {("L5", False), ("L13", True), ("L13", False)}
