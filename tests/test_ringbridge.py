"""Divisor-encoded ideal lattices against subset-level ring arithmetic.

The oracle here works with ideals as literal subsets of Z_n: sums and
products are computed by closing generator sets under addition, so none of
the gcd/lcm shortcuts being tested appear on the oracle side.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    CrossValidationMismatch,
    cross_validate_product,
    cross_validate_zn,
    ideal_lattice_product,
    ideal_lattice_zn,
    is_prime_power,
    ring_is_j_ideal,
    ring_is_n_ideal,
    ring_is_r_ideal,
)
from multlat.corpus import PRODUCT_MODULI
from multlat.ringbridge import (
    divisors,
    ring_jacobson,
    ring_nilpotents,
    ring_zero_divisors,
)


def subset_ideal(n, d):
    return frozenset(range(0, n, d))


def additive_closure(n, gens):
    out = set(gens) | {0}
    frontier = True
    while frontier:
        frontier = False
        for x in list(out):
            for y in list(out):
                s = (x + y) % n
                if s not in out:
                    out.add(s)
                    frontier = True
    return frozenset(out)


def subset_sum(n, I, J):
    return additive_closure(n, {(x + y) % n for x in I for y in J})


def subset_product(n, I, J):
    return additive_closure(n, {x * y % n for x in I for y in J})


# -- construction -------------------------------------------------------------------


def test_z12_construction(z12):
    assert z12.size == 6
    assert z12.labels == ("(1)", "(2)", "(3)", "(4)", "(6)", "(0)")
    assert z12.label(z12.bottom) == "(0)" and z12.label(z12.top) == "(1)"


def test_z15_construction(z15):
    assert z15.size == 4


def test_prime_modulus_gives_two_chain():
    z7 = ideal_lattice_zn(7)[0]
    assert z7.size == 2
    assert z7.is_domain()


def test_divisors_match_brute_force():
    for n in range(1, 3001):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0), n
    assert divisors(100000007) == (1, 100000007)


def test_modulus_must_be_at_least_two():
    with pytest.raises(ValueError):
        ideal_lattice_zn(1)
    with pytest.raises(ValueError):
        ideal_lattice_product(2, 1)


def test_product_lattice_is_componentwise():
    M, model = ideal_lattice_product(4, 9)
    assert M.size == len(divisors(4)) * len(divisors(9)) == 9
    i = model.pairs.index((2, 3))
    j = model.pairs.index((4, 9))
    assert M.leq(j, i)  # (4)x(0) inside (2)x(3)
    assert M.product(i, i) == model.pairs.index((4, 9))


@pytest.mark.parametrize("n", range(2, 61))
def test_divisor_arithmetic_matches_subsets(n):
    M, model = ideal_lattice_zn(n)
    divs = model.divisors
    for i, d1 in enumerate(divs):
        I = subset_ideal(n, d1)
        assert model.ideal_subset(i) == I
        for j, d2 in enumerate(divs):
            J = subset_ideal(n, d2)
            assert (I <= J) == M.leq(i, j)
            assert subset_sum(n, I, J) == subset_ideal(n, divs[M.join(i, j)])
            assert I & J == subset_ideal(n, divs[M.meet(i, j)])
            assert subset_product(n, I, J) == subset_ideal(n, divs[M.product(i, j)])


@pytest.mark.parametrize("n", [12, 15, 36, 60])
def test_lattice_sets_match_ring_sets(n):
    M, model = ideal_lattice_zn(n)
    divs = model.divisors
    nil_r = ring_nilpotents(model)
    zdiv_r = ring_zero_divisors(model)
    # radical of bottom generates exactly the nilpotent elements
    assert subset_ideal(n, divs[M.radical(M.bottom)]) == nil_r
    # jacobson element generates the intersection of maximal ideals
    assert subset_ideal(n, divs[M.jacobson()]) == ring_jacobson(model)
    # an ideal is a zero divisor in the lattice iff it sits inside Z(R)
    for i, d in enumerate(divs):
        assert (i in M.zero_divisors()) == (subset_ideal(n, d) <= zdiv_r)
        assert (i in M.nilpotents()) == (subset_ideal(n, d) <= nil_r)


# -- ring-side classification ----------------------------------------------------------


def test_ring_side_examples(z12):
    _, model12 = ideal_lattice_zn(12)
    i0 = model12.divisors.index(12)
    assert not ring_is_n_ideal(model12, i0)
    assert not ring_is_j_ideal(model12, i0)
    assert ring_is_r_ideal(model12, i0)
    _, model4 = ideal_lattice_zn(4)
    for idx in model4.proper_indices():
        assert ring_is_j_ideal(model4, idx)
    _, model15 = ideal_lattice_zn(15)
    assert ring_is_r_ideal(model15, model15.divisors.index(3))


def test_cross_validation_examples():
    for n in (12, 15, 4):
        report = cross_validate_zn(n)
        assert len(report.rows) == len(divisors(n)) - 1
    report = cross_validate_product(4, 9)
    assert len(report.rows) == 8
    assert "agree" in report.render()


def test_cross_validation_full_corpus_small():
    for n in range(2, 40):
        cross_validate_zn(n)


def test_forced_mismatch_is_detected(monkeypatch):
    import multlat.ringbridge as rb

    monkeypatch.setattr(rb, "ring_is_n_ideal", lambda model, idx: True)
    with pytest.raises(CrossValidationMismatch):
        rb.cross_validate_zn(12)


def test_is_prime_power():
    powers = {n for n in range(2, 130) if is_prime_power(n)}
    assert {2, 3, 4, 5, 8, 9, 27, 32, 121, 125, 127, 128} <= powers
    assert {6, 12, 100, 72} & powers == set()
    assert not is_prime_power(1)


@given(n=st.integers(2, 120))
@settings(max_examples=40, deadline=None)
def test_cross_validation_property(n):
    cross_validate_zn(n)  # raises on any mismatch


@given(m=st.sampled_from(PRODUCT_MODULI), n=st.sampled_from(PRODUCT_MODULI))
@settings(max_examples=20, deadline=None)
def test_cross_validation_products_property(m, n):
    cross_validate_product(m, n)
