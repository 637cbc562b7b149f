"""Multiplication validation and the derived element machinery.

The Z_n facts asserted here were computed with the subset-level oracle at
the bottom of this file (ideals as explicit subsets of Z_n, products closed
under addition by hand), then frozen.
"""

import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    AxiomViolation,
    DegenerateLattice,
    FiniteLattice,
    MultiplicativeLattice,
    RadicalMismatch,
    TopJoinReducible,
    attach_multiplication,
    build_order,
    canonical_sets,
    chain_lattice,
    classify_lattice,
    hasse_dot,
    ideal_lattice_product,
    ideal_lattice_zn,
    kite_lattice,
    lattice_from_pairs,
    lemma_suite,
    load_path,
    meet_mult,
    product,
    report_to_json,
    trivial_mult,
    validate_lattice,
)
from multlat import multiplicative, ringbridge
from multlat.ringbridge import cross_validate
from multlat.search import PROPERTIES, search_corpus
from multlat.order import iter_bits, mask_of
from conftest import (
    LATTICE_DIR,
    assert_cover_splits,
    assert_same_derived_data,
    brute_force_axioms_hold,
    distinct_instances,
    div_index,
    first_axiom_violation,
    irreducible_generated_instances,
    join_irreducibles_oracle,
    literal_residual_table,
    m3_plus_top,
    n5_plus_top,
    pair_scan_tables,
    tables_from_irreducibles,
    x_set_instances,
)


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


def test_attach_multiplication_carries_the_irreducibles_over():
    # validate_lattice records J(L) as a field; the axiom checks read it and
    # the result carries the same tuple, which the Hasse-diagram scan confirms.
    singleton = trivial_mult(lattice_from_pairs(1, []))
    for M in (singleton, kite_lattice.__wrapped__(), m3_plus_top(), n5_plus_top(),
              chain_lattice.__wrapped__(7, "meet"), ideal_lattice_zn.__wrapped__(720)[0],
              *itertools.islice(irreducible_generated_instances(), 20)):
        assert "join_irreducibles" in vars(M), M.name
        assert M.join_irreducibles == join_irreducibles_oracle(M), M.name
        again = attach_multiplication(M, M.table, M.name)
        assert again.join_irreducibles is M.join_irreducibles, M.name


def test_join_irreducibles_match_the_hasse_diagram():
    # J(L) has one producer, validate_lattice; every other constructor passes
    # it on. Compared with the q covering exactly one element, from covers().
    instances = itertools.chain(
        x_set_instances(),
        (lattice_from_pairs(1, []), trivial_mult(lattice_from_pairs(1, []))),
        (ideal_lattice_zn(n)[0] for n in range(2, 301)),
        (ideal_lattice_product(m, n)[0] for m in (2, 12, 30) for n in (4, 9, 60)),
        (product(n5_plus_top(), ideal_lattice_zn(12)[0]), product(m3_plus_top(), m3_plus_top())),
    )
    for M in instances:
        assert M.join_irreducibles == join_irreducibles_oracle(M), getattr(M, "name", M.size)
    assert not any(isinstance(v, functools.cached_property) for v in vars(FiniteLattice).values())
    # Moduli of one divisor shape share the shape's tuple, not a copy of it.
    six, ten = (ideal_lattice_zn.__wrapped__(n)[0] for n in (6, 10))
    assert ten.join_irreducibles is six.join_irreducibles
    assert ideal_lattice_zn(10)[0].join_irreducibles == six.join_irreducibles


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


def residual_instances(z12, kite):
    # Distributive and not, trivial, meet and ring multiplications.
    prod49 = ideal_lattice_product(4, 9)[0]
    return (z12, kite, m3_plus_top(), chain_lattice(5, "meet"), prod49, n5_plus_top())


def test_residual_adjunction_all_triples(z12, kite):
    for M in residual_instances(z12, kite):
        for i in range(M.size):
            for a in range(M.size):
                r = M.residual(i, a)
                assert M.leq(i, r)
                assert M.leq(M.product(r, a), i)
                for x in range(M.size):
                    assert M.leq(M.product(x, a), i) == M.leq(x, r)
        literal = {
            x for x in range(M.size)
            if any(M.product(x, y) == M.bottom for y in range(M.size) if y != M.bottom)
        }
        assert M.zero_divisors() == literal, M.name


def test_residual_table_answers_without_joins(z12, kite, monkeypatch):
    for M in residual_instances(z12, kite):
        M._prod_below  # built before big_join is patched
        want = {(i, a): M.big_join(x for x in range(M.size) if M.leq(M.product(x, a), i))
                for i in range(M.size) for a in range(M.size)}

        def no_join(self, items):
            raise AssertionError("residual lookups must not join")

        with monkeypatch.context() as patch:
            patch.setattr(type(M), "big_join", no_join)
            for (i, a), r in want.items():
                assert M.residual(i, a) == r, (M.name, i, a)
            for a in range(M.size):
                assert M.annihilator(a) == want[M.bottom, a], (M.name, a)


class CountingRow:
    """A table row that counts its lookups and fails past ``limit`` of them."""

    def __init__(self, row, reads, limit=None):
        self.row, self.reads, self.limit = row, reads, limit

    def __getitem__(self, k):
        self.reads[0] += 1
        assert self.limit is None or self.reads[0] <= self.limit, "too many table lookups"
        return self.row[k]

    def __len__(self):
        return len(self.row)


def literal_residual(M, i, a):
    """(i : a) from its definition: scan every x with x*a <= i for the largest."""
    fits = [x for x in range(M.size) if M.leq(M.product(x, a), i)]
    every = sum(1 << x for x in fits)
    greatest = [x for x in fits if M.down_mask(x) & every == every]
    assert len(greatest) == 1, (M.name, i, a, fits)
    return greatest[0]


def assert_residuals_literal(M):
    """The table against the definition, and the identity its build relies on."""
    R = range(M.size)
    for a in R:
        for i in R:
            assert M._prod_below[a][i] == literal_residual(M, i, a), (M.name, i, a)
    for i in R:
        for b in R:
            for c in R:
                assert M.residual(i, M.join(b, c)) == M.meet(
                    M.residual(i, b), M.residual(i, c)
                ), (M.name, i, b, c)


def test_residual_table_matches_its_definition(z12, kite):
    for M in residual_instances(z12, kite):
        assert_residuals_literal(M)
    accepted = list(irreducible_generated_instances())
    non_distributive = [M for M in accepted if M.name in ("M3+top", "N5+top")]
    assert len(accepted) > 100 and len(non_distributive) > 20
    for M in accepted:
        assert_residuals_literal(M)


@given(n=st.integers(2, 240), m=st.integers(2, 16), k=st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_residual_table_matches_its_definition_property(n, m, k):
    assert_residuals_literal(ideal_lattice_zn(n)[0])
    assert_residuals_literal(ideal_lattice_product(m, k)[0])


def test_residual_table_lookups_are_bounded():
    # n*|J|^2 joins for the J(L) rows and one meet per entry of the others.
    # One join per (a, q in J(L), i >= a*q) would need 446,720 on zn:720720.
    for M, bound in ((ideal_lattice_zn(720720)[0], 81_600),
                     (ideal_lattice_product(72, 72)[0], 35_136)):
        n, j = M.size, len(M.join_irreducibles)
        assert n * j * j + n * n == bound
        reads = [0]
        twin = dataclasses.replace(  # nothing cached: a new ``derived``
            M,
            join_table=tuple(CountingRow(r, reads) for r in M.join_table),
            meet_table=tuple(CountingRow(r, reads) for r in M.meet_table),
            derived={},
        )
        assert twin._prod_below == M._prod_below
        assert 0 < reads[0] <= bound, (M.name, reads[0])


def test_n5_plus_top_has_a_non_trivial_product():
    M = n5_plus_top()
    a, b, c, m = (M.index_of(s) for s in "abcm")
    assert M.meet(b, M.join(a, c)) != M.join(M.meet(b, a), M.meet(b, c))
    assert M.product(b, b) == a
    assert M.residual(a, b) == m
    assert M.zero_divisors() == {M.bottom, a, b, c}


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


def test_power_stops_at_its_fixed_point():
    # a^k for a huge k reads the table at most n times: the powers descend,
    # so they stop changing after at most n - 1 products.
    for M in (ideal_lattice_zn(72)[0], m3_plus_top(), n5_plus_top(), chain_lattice(6, "meet")):
        reads = [0]
        twin = dataclasses.replace(
            M, table=tuple(CountingRow(r, reads, limit=M.size) for r in M.table)
        )
        for a in range(M.size):
            reads[0] = 0
            assert twin.power(a, 10**12) == M.big_meet(M.power_closure(a)), (M.name, a)
            assert reads[0] <= len(M.power_closure(a)), (M.name, a)


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


def _literal_radicals(M, primes):
    """Per a: the join of the x with big_meet(power_closure(x)) <= a, and the
    meet of the given primes over a."""
    last = [M.big_meet(M.power_closure(x)) for x in range(M.size)]
    by_powers = [M.big_join(x for x in range(M.size) if M.leq(last[x], a)) for a in range(M.size)]
    by_primes = [M.big_meet(p for p in primes if M.leq(a, p)) for a in range(M.size)]
    return by_powers, by_primes


def test_radicals_match_the_literal_definitions():
    # The primes come from _prime_mask, decided over J(L) from the escape masks
    # F; tests/test_escape_masks.py checks it against the per-element scan, the
    # residual-table form and the all-pairs definition. The power side reads
    # only the table.
    large = (product(n5_plus_top(), ideal_lattice_zn(5040)[0], "N5+top x zn:5040"),
             ideal_lattice_product(720, 720)[0])
    for M in itertools.chain(x_set_instances(), large):
        by_powers, by_primes = _literal_radicals(M, M.prime_elements())
        assert list(M._radicals) == by_powers == by_primes, M.name


def test_radical_mismatch_names_the_first_disagreement():
    # A prime mask that lacks the prime (3), seeded into ``derived`` before
    # _radicals is read, makes the prime formula disagree with the powers at
    # several a; the error names the first of them in index order.
    M = ideal_lattice_zn(72)[0]
    fresh = attach_multiplication(M, M.table, M.name)
    seeded = [p for p in M.prime_elements() if p != div_index(M, "(3)")]
    fresh.derived["_prime_mask"] = mask_of(seeded)
    by_powers, by_primes = _literal_radicals(fresh, seeded)
    disagree = [a for a in range(M.size) if by_powers[a] != by_primes[a]]
    assert len(disagree) > 1 and disagree[0] > 0
    with pytest.raises(RadicalMismatch) as exc:
        fresh.radical(M.top)
    assert exc.value.element == disagree[0]


def test_nil_mask_matches_the_power_walk():
    # The nilpotents as the down-set of radical(bottom), against the walk
    # over each element's powers.
    for M in x_set_instances():
        walk = mask_of(a for a in range(M.size) if M.bottom in M.power_closure(a))
        assert M._nil_mask == walk, M.name


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


def monotone_chain_tables(n):
    """Commutative tables on the n-chain, top the identity, bottom absorbing,
    monotone in each argument (on a chain: distributive over joins)."""
    top = n - 1
    cells = [(a, b) for a in range(1, top) for b in range(a, top)]
    for values in itertools.product(*(range(a + 1) for a, _ in cells)):
        rows = [[min(a, b) for b in range(n)] for a in range(n)]
        for (a, b), v in zip(cells, values):
            rows[a][b] = rows[b][a] = v
        if all(rows[a][b] <= rows[a][b + 1] for a in range(n) for b in range(top)):
            yield rows


def single_entry_mutants(M):
    for i, j, v in itertools.product(range(M.size), repeat=3):
        if v != M.table[i][j]:
            rows = [list(r) for r in M.table]
            rows[i][j] = v
            yield rows


def test_axiom_witness_matches_the_full_scan():
    # The first failure and its witness are those of the reference scan,
    # which checks associativity over every c and then a*b <= a^b.
    chain = chain_lattice(6, "meet")
    cases = [(chain, rows) for rows in monotone_chain_tables(6)]
    assert len(cases) == 429
    for M in (ideal_lattice_zn(12)[0], m3_plus_top(), n5_plus_top()):
        cases += [(M, rows) for rows in single_entry_mutants(M)]
    seen = set()
    for lattice, rows in cases:
        want = first_axiom_violation(lattice, rows)
        try:
            attach_multiplication(lattice, rows)
            got = None
        except AxiomViolation as exc:
            got = exc.axiom, exc.witness
        assert got == want, (rows, want)
        seen.add(want and want[0])
    assert "associativity" in seen and "product-below-meet" not in seen


def test_irreducible_checks_match_the_full_scan():
    # Distributive and not; meet, trivial and ring products.
    instances = (m3_plus_top(), n5_plus_top(), chain_lattice(7, "meet"),
                 ideal_lattice_zn(72)[0], ideal_lattice_product(4, 4)[0])
    seen = set()
    for seed, M in enumerate(instances):
        for rows in tables_from_irreducibles(M, 150, seed):
            want = first_axiom_violation(M, rows)
            try:
                attach_multiplication(M, rows)
                got = None
            except AxiomViolation as exc:
                got = exc.axiom, exc.witness
            assert got == want, (M.name, rows)
            assert (got is None) == brute_force_axioms_hold(M, rows), (M.name, rows)
            seen.add(want and want[0])
    assert seen == {None, "distributivity", "associativity"}


def test_valid_tables_never_reach_the_full_scan(monkeypatch):
    def no_full_scan(lattice, rows):
        raise AssertionError("full axiom scan run on a valid table")

    monkeypatch.setattr(multiplicative, "_full_axiom_scan", no_full_scan)
    for M in (ideal_lattice_zn(720720)[0], ideal_lattice_product(72, 72)[0],
              load_path(LATTICE_DIR / "n5-top.lat")[0]):
        again = attach_multiplication(M, M.table, M.name)
        assert again.table == M.table


def test_full_scan_accepting_a_rejected_table_raises(monkeypatch):
    M = m3_plus_top()
    monkeypatch.setattr(multiplicative, "_distributes_over_irreducibles", lambda *args: False)
    with pytest.raises(RuntimeError):
        attach_multiplication(M, M.table)


def test_lower_cover_split_matches_the_hasse_diagram():
    # The lower_split and upper_split fields, recorded by validate_lattice
    # (on a product's componentwise order too): every a outside bottom and
    # J(L) (top and M(L)) once, as two distinct lower (upper) covers joining
    # (meeting) to a, after the triples of its covers. Fresh validation agrees.
    instances = distinct_instances()
    assert len(instances) >= 80
    assert any(M.lower_split and M.upper_split for M in instances)
    for M in instances:
        assert_cover_splits(M)
        L = validate_lattice(M.order)
        assert (L.lower_split, L.upper_split) == (M.lower_split, M.upper_split), M.name


def test_tables_through_the_splits_match_the_pair_scan():
    for M in distinct_instances():
        tables = pair_scan_tables(M.order)
        L = validate_lattice(M.order)
        assert (L.meet_table, L.join_table) == tables == (M.meet_table, M.join_table), M.name
        assert (L.bottom, L.top, L.join_irreducibles) == (M.bottom, M.top, M.join_irreducibles)


def test_residual_table_through_the_splits_matches_the_definition():
    # (i : q) on the M(L) columns of the J(L) rows, then meets over both
    # splits, against the greatest x with x*a <= i.
    for M in distinct_instances():
        twin = dataclasses.replace(M, derived={})  # a product's table is seeded
        assert twin._prod_below == literal_residual_table(M) == M._prod_below, M.name


def test_split_rows_reject_a_table_the_irreducible_rows_accept():
    # (2) in Id(Z_12) is neither bottom nor join-irreducible, and no entry
    # that the J(L) rows or J(L)^3 read is (2)*(2): only the split rows can
    # reject a change to it, and they name the reference scan's witness.
    M = ideal_lattice_zn(12)[0]
    two = M.index_of("(2)")
    assert two != M.bottom and two not in M.join_irreducibles
    irreducibles = M.join_irreducibles
    assert two not in {M.product(p, q) for p in irreducibles for q in irreducibles}
    seen = set()
    for v in range(M.size):
        if v == M.product(two, two):
            continue
        rows = [list(r) for r in M.table]
        rows[two][two] = v
        want = first_axiom_violation(M, rows)
        assert want is not None and want[0] in ("distributivity", "associativity"), v
        with pytest.raises(AxiomViolation) as exc:
            attach_multiplication(M, rows)
        assert (exc.value.axiom, exc.value.witness) == want, v
        seen.add(want[0])
    assert "distributivity" in seen


def test_whole_table_scans_name_the_first_witness():
    # Two violations per table, of the same axiom or of two: the whole-table
    # tests for range, commutativity, identity and annihilation only decide
    # that a table fails, and the ordered scans name the first pair.
    cases = []
    for M in (ideal_lattice_zn(12)[0], m3_plus_top(), n5_plus_top()):
        n = M.size
        cells = list(itertools.product(range(n), repeat=2))
        for (i1, j1), (i2, j2) in itertools.combinations(cells, 2):
            if i1 == i2:
                continue
            # Two entries out of range; one; a changed in-range entry, then one out of range.
            moved = M.bottom if M.table[i1][j1] != M.bottom else M.top
            for v1, v2 in ((n, -1), (-1, M.table[i2][j2]), (moved, n + 3)):
                rows = [list(r) for r in M.table]
                rows[i1][j1], rows[i2][j2] = v1, v2
                cases.append((M, rows))
            if i1 != j1 and i2 != j2:  # asymmetric pairs in two different rows
                rows = [list(r) for r in M.table]
                for i, j in ((i1, j1), (i2, j2)):
                    rows[i][j] = next(v for v in range(n) if v != rows[j][i])
                cases.append((M, rows))
        # Symmetric changes to the top and bottom columns, at two elements.
        for a1, a2 in itertools.combinations(range(n), 2):
            for column in (M.top, M.bottom):
                rows = [list(r) for r in M.table]
                for a in (a1, a2):
                    v = next(v for v in range(n) if v != rows[a][column])
                    rows[a][column] = rows[column][a] = v
                cases.append((M, rows))
    seen = set()
    for M, rows in cases:
        want = first_axiom_violation(M, rows)
        try:
            attach_multiplication(M, rows)
            got = None
        except AxiomViolation as exc:
            got = exc.axiom, exc.witness
        assert got == want, (M.name, rows)
        seen.add(want and want[0])
    assert {"closure", "commutativity", "identity", "annihilation"} <= seen


@given(n=st.integers(2, 240))
@settings(max_examples=60, deadline=None)
def test_zn_radical_formulas_agree_property(n):
    # radical() cross-asserts internally; recompute the prime route here.
    M, _ = ideal_lattice_zn(n)
    for a in range(M.size):
        over = [p for p in M.prime_elements() if M.leq(a, p)]
        minimal = [p for p in over if not any(q != p and M.leq(q, p) for q in over)]
        assert M.radical(a) == M.big_meet(minimal)


# -- products of validated factors ---------------------------------------------


def product_oracle(A, B):
    """A x B from scratch: every componentwise <=-pair through ``validate_lattice``,
    the componentwise table through ``attach_multiplication``."""
    k2 = B.size
    leq_pairs = [
        (a1 * k2 + a2, b1 * k2 + b2)
        for a1 in range(A.size) for b1 in iter_bits(A.order.up[a1])
        for a2 in range(k2) for b2 in iter_bits(B.order.up[a2])
    ]
    labels = [f"{a}x{b}" for a in A.labels for b in B.labels]
    lattice = validate_lattice(build_order(A.size * k2, leq_pairs), labels)
    table = [
        [A.table[a1][b1] * k2 + B.table[a2][b2] for b1 in range(A.size) for b2 in range(k2)]
        for a1 in range(A.size) for a2 in range(k2)
    ]
    return lattice, table, attach_multiplication(lattice, table, "oracle")


def assert_product_matches_oracle(A, B, brute_force=True):
    M = product(A, B, f"{A.name}x{B.name}")
    lattice, table, oracle = product_oracle(A, B)
    assert (M.order.up, M.order.down) == (lattice.order.up, lattice.order.down)
    assert M.meet_table == lattice.meet_table and M.join_table == lattice.join_table
    assert M.table == oracle.table and M.labels == lattice.labels
    assert (M.bottom, M.top, M.name) == (lattice.bottom, lattice.top, f"{A.name}x{B.name}")
    if brute_force:
        assert brute_force_axioms_hold(lattice, table)
    # product seeds ``derived`` with the residual table and passes J(L) on; recompute both.
    assert M._prod_below == dataclasses.replace(M, derived={})._prod_below == oracle._prod_below
    k2 = B.size
    formula = sorted([q * k2 + B.bottom for q in A.join_irreducibles]
                     + [A.bottom * k2 + q for q in B.join_irreducibles])
    assert list(M.join_irreducibles) == formula
    assert M.join_irreducibles == join_irreducibles_oracle(M) == lattice.join_irreducibles


def test_views_store_nothing_after_they_are_built():
    # Every cache is kept in ``derived``, so the commands leave each lattice
    # with its fields only.
    fields = {f.name for f in dataclasses.fields(MultiplicativeLattice)}
    zn = [ideal_lattice_zn.__wrapped__(n) for n in (12, 360, 5040)]
    views = [M for M, _ in zn] + [
        ideal_lattice_product.__wrapped__(12, 30)[0], chain_lattice.__wrapped__(6, "meet"),
        n5_plus_top(), load_path(LATTICE_DIR / "n5-top.lat")[0],
    ]
    for M in views:
        assert vars(M).keys() == fields, M.name
        lemma_suite(M)
        report_to_json(classify_lattice(M))
        for name in PROPERTIES:
            search_corpus([M], name)
        hasse_dot(M, tuple(canonical_sets(M).values()))
        assert M.derived and vars(M).keys() == fields, M.name
    for M, model in zn:
        cross_validate(M, model)
        assert vars(M).keys() == fields, M.name


def test_each_build_makes_one_lattice_object(monkeypatch):
    # attach_multiplication, product and the builders on top of them make one
    # MultiplicativeLattice each; a cold zn build makes two, the unlabelled
    # shape lattice and its view under the modulus's labels. None of them
    # stores a cache on the instance.
    made = []
    init = MultiplicativeLattice.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def made_by(build):
        made.clear()
        M = build()
        return M, len(made)

    z12, z30 = ideal_lattice_zn(12)[0], ideal_lattice_zn(30)[0]
    monkeypatch.setattr(MultiplicativeLattice, "__init__", counting_init)
    ringbridge._shape_lattice.cache_clear()
    ideal_lattice_zn.cache_clear()
    builds = {
        "cold zn:360": (lambda: ideal_lattice_zn(360)[0], 2),
        "warm zn:360": (lambda: ideal_lattice_zn.__wrapped__(360)[0], 1),
        "cold prod:12,30": (lambda: ideal_lattice_product.__wrapped__(12, 30)[0], 5),
        "attach_multiplication": (lambda: attach_multiplication(z12, z12.table, "again"), 1),
        "product": (lambda: product(z12, z30, "z12 x z30"), 1),
        "chain_lattice": (lambda: chain_lattice.__wrapped__(5, "meet"), 1),
        "load_path": (lambda: load_path(LATTICE_DIR / "n5-top.lat")[0], 1),
    }
    fields = {f.name for f in dataclasses.fields(MultiplicativeLattice)}
    for what, (build, count) in builds.items():
        M, objects = made_by(build)
        assert objects == count, what
        lemma_suite(M)
        classify_lattice(M)
        assert vars(M).keys() == fields, what


def test_products_match_the_generic_build():
    # Every cache of a componentwise product, the residual table it was seeded with
    # included, against the generic attach_multiplication build of A x B.
    n5, z72, z5040 = n5_plus_top(), ideal_lattice_zn(72)[0], ideal_lattice_zn(5040)[0]
    for M, A, B in ((ideal_lattice_product(72, 72)[0], z72, z72),
                    (product(n5, z5040, "N5+top x zn:5040"), n5, z5040)):
        lattice, _, oracle = product_oracle(A, B)
        assert (M.table, M.join_irreducibles) == (oracle.table, lattice.join_irreducibles)
        assert_same_derived_data(M, oracle)


PRODUCT_FACTORS = {
    "M3+top": m3_plus_top,
    "N5+top": n5_plus_top,
    "K": kite_lattice,
    "chain-meet:5": lambda: chain_lattice(5, "meet"),
    "zn:12": lambda: ideal_lattice_zn(12)[0],
}


@pytest.mark.parametrize("left", PRODUCT_FACTORS)
@pytest.mark.parametrize("right", PRODUCT_FACTORS)
def test_product_matches_the_oracle_on_non_distributive_factors(left, right):
    assert_product_matches_oracle(PRODUCT_FACTORS[left](), PRODUCT_FACTORS[right]())


def test_product_with_a_one_element_factor():
    point = chain_lattice(1, "meet")
    for A in (m3_plus_top(), n5_plus_top(), point):
        assert_product_matches_oracle(A, point)
        assert_product_matches_oracle(point, A)


def test_product_matches_the_oracle_on_generated_tables():
    # Every 20th accepted J(L)-generated table, times the next one and a chain.
    sample = list(itertools.islice(irreducible_generated_instances(), 0, None, 20))
    assert len(sample) >= 15
    chain = chain_lattice(3, "meet")
    for A, B in zip(sample, sample[1:] + sample[:1]):
        assert_product_matches_oracle(A, B, brute_force=False)
        assert_product_matches_oracle(A, chain, brute_force=A.size <= 7)


def test_product_rejects_colliding_labels():
    A = meet_mult(lattice_from_pairs(2, [(0, 1)], ("a", "ax")))
    B = meet_mult(lattice_from_pairs(2, [(0, 1)], ("xb", "b")))
    with pytest.raises(ValueError, match="duplicate labels"):
        product(A, B)  # "ax" x "b" and "a" x "xb" both read "axxb"
