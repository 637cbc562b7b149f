"""Multiplication validation and the derived element machinery.

The Z_n facts asserted here were computed with the subset-level oracle at
the bottom of this file (ideals as explicit subsets of Z_n, products closed
under addition by hand), then frozen.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    AxiomViolation,
    DegenerateLattice,
    FiniteLattice,
    MultiplicativeLattice,
    TopJoinReducible,
    attach_multiplication,
    ideal_lattice_zn,
    lattice_from_pairs,
    meet_mult,
    trivial_mult,
)
from conftest import brute_force_axioms_hold, div_index


def boolean_square():
    # 0 < x, y < 1 with x, y incomparable.
    return lattice_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)], "0 x y 1".split())


def diamond_m3():
    return lattice_from_pairs(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], "0 x y z 1".split()
    )


# -- axiom validation ----------------------------------------------------------


def test_trivial_mult_on_kite_and_chains(kite):
    assert kite.product(1, 2) == 0  # a*b = 0
    assert kite.product(1, kite.top) == 1
    chain = trivial_mult(lattice_from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
    assert chain.product(1, 2) == 0


def test_trivial_mult_needs_join_irreducible_top():
    with pytest.raises(TopJoinReducible) as err:
        trivial_mult(boolean_square())
    x, y = err.value.witness
    assert {x, y} == {1, 2}


def test_trivial_table_on_boolean_square_fails_distributivity():
    L = boolean_square()
    top, bottom = L.top, L.bottom
    rows = [
        [a if b == top else (b if a == top else bottom) for b in range(4)]
        for a in range(4)
    ]
    with pytest.raises(AxiomViolation) as err:
        attach_multiplication(L, rows)
    assert err.value.axiom == "distributivity"
    a, b, c = err.value.witness
    assert rows[a][L.join(b, c)] != L.join(rows[a][b], rows[a][c])


def test_meet_mult_valid_on_distributive_invalid_on_m3():
    sq = meet_mult(boolean_square())  # the square is distributive
    assert sq.product(1, 2) == 0
    with pytest.raises(AxiomViolation) as err:
        meet_mult(diamond_m3())
    assert err.value.axiom == "distributivity"


def test_trivial_mult_on_singleton():
    M = trivial_mult(lattice_from_pairs(1, []))
    assert M.product(0, 0) == 0


def test_multiplicative_lattice_is_a_finite_lattice():
    chain = lattice_from_pairs(3, [(0, 1), (1, 2)], "0 m 1".split())
    by_meet, trivial = meet_mult(chain), trivial_mult(chain)
    assert isinstance(by_meet, FiniteLattice)
    assert by_meet.product(1, 1) == 1 and trivial.product(1, 1) == 0
    assert by_meet != trivial  # one lattice, two tables
    again = attach_multiplication(trivial, trivial.table, "again")
    assert type(again) is MultiplicativeLattice and again.name == "again"
    assert (again.order, again.labels, again.table) == (trivial.order, trivial.labels, trivial.table)


def test_bad_entry_rejected(z12):
    rows = [list(r) for r in z12.table]
    rows[0][0] = 99
    with pytest.raises(AxiomViolation) as err:
        attach_multiplication(z12.lattice, rows)
    assert err.value.axiom == "closure"


def test_corrupted_identity_detected(z12):
    rows = [list(r) for r in z12.table]
    rows[z12.top][z12.top] = z12.bottom
    with pytest.raises(AxiomViolation):
        attach_multiplication(z12.lattice, rows)


def test_zn8_has_exactly_two_valid_table_mutants():
    # On the divisor chain of 8 the square of (2) can be redirected to (2)
    # (idempotent) or to (0) while staying a multiplicative lattice; every
    # other single-entry change breaks an axiom. Count frozen from the audit.
    M, _ = ideal_lattice_zn(8)
    accepted = []
    for i in range(M.size):
        for j in range(M.size):
            for v in range(M.size):
                if v == M.table[i][j]:
                    continue
                rows = [list(r) for r in M.table]
                rows[i][j] = v
                try:
                    attach_multiplication(M.lattice, rows)
                except AxiomViolation:
                    continue
                accepted.append((M.label(i), M.label(j), M.label(v)))
    assert accepted == [("(2)", "(2)", "(2)"), ("(2)", "(2)", "(0)")]


# -- residuals, powers, radicals -------------------------------------------------


def test_residual_examples(z12):
    i6, i2, i3 = (div_index(z12, s) for s in ("(6)", "(2)", "(3)"))
    assert z12.residual(i6, i2) == i3
    for i in range(z12.size):
        assert z12.residual(i, z12.top) == i
        assert z12.residual(z12.top, i) == z12.top


def test_residual_adjunction_all_triples(z12, kite):
    for M in (z12, kite):
        for i in range(M.size):
            for a in range(M.size):
                r = M.residual(i, a)
                assert M.leq(i, r)
                assert M.leq(M.product(r, a), i)
                for x in range(M.size):
                    assert M.leq(M.product(x, a), i) == M.leq(x, r)


def test_annihilator_examples(z12, kite):
    assert z12.annihilator(z12.bottom) == z12.top
    assert z12.annihilator(div_index(z12, "(4)")) == div_index(z12, "(3)")
    c, d = kite.lattice.index_of("c"), kite.lattice.index_of("d")
    assert kite.annihilator(c) == d


def test_power_examples(z12):
    i2, i4, i6 = (div_index(z12, s) for s in ("(2)", "(4)", "(6)"))
    assert z12.power(i2, 2) == i4
    assert z12.power(i2, 3) == i4
    assert z12.power_closure(i2) == {i2, i4}
    assert z12.power(i6, 2) == z12.bottom
    assert z12.power(z12.top, 5) == z12.top
    with pytest.raises(ValueError):
        z12.power(i2, 0)


def test_power_closure_bounded(z12, kite):
    for M in (z12, kite):
        for a in range(M.size):
            assert 1 <= len(M.power_closure(a)) <= M.size


def test_radical_examples(z12, z15):
    assert z12.radical(z12.bottom) == div_index(z12, "(6)")
    assert z15.radical(z15.bottom) == z15.bottom  # reduced
    assert z12.radical(z12.top) == z12.top
    assert z12.radical(div_index(z12, "(4)")) == div_index(z12, "(2)")


def test_radical_fixed_points_and_monotone(z12, kite):
    for M in (z12, kite):
        for a in range(M.size):
            r = M.radical(a)
            assert M.leq(a, r)
            assert M.radical(r) == r


def test_nilpotents_and_zero_divisors(z12, z15, kite):
    assert {z12.label(i) for i in z12.nilpotents()} == {"(0)", "(6)"}
    assert {z12.label(i) for i in z12.zero_divisors()} == {"(0)", "(2)", "(3)", "(4)", "(6)"}
    assert {z15.label(i) for i in z15.nilpotents()} == {"(0)"}
    assert {z15.label(i) for i in z15.zero_divisors()} == {"(0)", "(3)", "(5)"}
    assert {kite.label(i) for i in kite.nilpotents()} == {"0", "a", "b", "c", "d"}
    assert not kite.is_reduced()
    assert z15.is_reduced()
    for M in (z12, z15, kite):
        assert M.nilpotents() <= M.zero_divisors()


def test_product_below_meet_and_monotone(z12, kite):
    for M in (z12, kite):
        for a in range(M.size):
            for b in range(M.size):
                assert M.leq(M.product(a, b), M.meet(a, b))
                for c in range(M.size):
                    if M.leq(a, b):
                        assert M.leq(M.product(a, c), M.product(b, c))


# -- prime / primary / maximal ---------------------------------------------------


def test_prime_classification_z12(z12):
    expected = {"(2)": True, "(3)": True, "(4)": False, "(6)": False, "(0)": False, "(1)": False}
    for label, is_p in expected.items():
        assert z12.is_prime(div_index(z12, label)) == is_p
    w = z12.prime_witness(div_index(z12, "(6)"))
    a, b = w
    assert z12.leq(z12.product(a, b), div_index(z12, "(6)"))
    assert not z12.leq(a, div_index(z12, "(6)")) and not z12.leq(b, div_index(z12, "(6)"))


def test_primary_classification_z12(z12):
    expected = {"(2)": True, "(3)": True, "(4)": True, "(6)": False, "(0)": False, "(1)": False}
    for label, is_p in expected.items():
        assert z12.is_primary(div_index(z12, label)) == is_p


def test_maximal_and_jacobson(z12, kite):
    assert {z12.label(i) for i in z12.max_elements()} == {"(2)", "(3)"}
    assert z12.label(z12.jacobson()) == "(6)"
    assert {z12.label(i) for i in z12.min_primes()} == {"(2)", "(3)"}
    assert not z12.is_local()
    z4 = ideal_lattice_zn(4)[0]
    assert {z4.label(i) for i in z4.max_elements()} == {"(2)"}
    assert z4.label(z4.jacobson()) == "(2)"
    assert z4.is_local()
    assert {kite.label(i) for i in kite.max_elements()} == {"d"}
    assert kite.label(kite.jacobson()) == "d"
    assert kite.is_local()
    assert not z12.is_maximal(z12.top)


def test_every_maximal_is_prime(z12, z15, kite):
    for M in (z12, z15, kite):
        for m in M.max_elements():
            assert M.is_prime(m)


def test_domain_flags(z12):
    assert not z12.is_domain()
    z7 = ideal_lattice_zn(7)[0]
    assert z7.is_domain()
    chain = meet_mult(lattice_from_pairs(3, [(0, 1), (1, 2)]))
    assert chain.is_domain()


def test_degenerate_lattice_rejected():
    M = trivial_mult(lattice_from_pairs(1, []))
    with pytest.raises(DegenerateLattice):
        M.max_elements()
    with pytest.raises(DegenerateLattice):
        M.is_domain()


# -- properties over random moduli ------------------------------------------------


@given(n=st.integers(2, 240))
@settings(max_examples=60, deadline=None)
def test_zn_residual_adjunction_property(n):
    M, _ = ideal_lattice_zn(n)
    for i in range(M.size):
        for a in range(M.size):
            r = M.residual(i, a)
            for x in range(M.size):
                assert M.leq(M.product(x, a), i) == M.leq(x, r)


@given(n=st.integers(2, 240), k1=st.integers(1, 4), k2=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_zn_power_addition_property(n, k1, k2):
    M, _ = ideal_lattice_zn(n)
    for a in range(M.size):
        assert M.power(a, k1 + k2) == M.product(M.power(a, k1), M.power(a, k2))


@given(
    n=st.sampled_from([6, 8, 12, 16, 18, 20, 24, 30]),
    i=st.integers(0, 63),
    j=st.integers(0, 63),
    v=st.integers(0, 63),
)
@settings(max_examples=300, deadline=None)
def test_validator_agrees_with_brute_force_scan(n, i, j, v):
    # attach_multiplication accepts a mutated table exactly when the
    # unoptimized triple-loop scan says the identities hold.
    M, _ = ideal_lattice_zn(n)
    k = M.size
    i, j, v = i % k, j % k, v % k
    rows = [list(r) for r in M.table]
    rows[i][j] = v
    try:
        attach_multiplication(M.lattice, rows)
        accepted = True
    except AxiomViolation:
        accepted = False
    assert accepted == brute_force_axioms_hold(M.lattice, rows)


@given(n=st.integers(2, 240))
@settings(max_examples=60, deadline=None)
def test_zn_radical_formulas_agree_property(n):
    # radical() cross-asserts internally; recompute the prime route here.
    M, _ = ideal_lattice_zn(n)
    for a in range(M.size):
        over = [p for p in M.prime_elements() if M.leq(a, p)]
        minimal = [p for p in over if not any(q != p and M.leq(q, p) for q in over)]
        assert M.radical(a) == M.big_meet(minimal)
