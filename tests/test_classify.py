"""M-closed sets, X-elements and their characterizations."""

import pytest

from multlat import (
    DegenerateLattice,
    NotMClosed,
    NotXMultClosed,
    PreconditionViolated,
    chain_lattice,
    check_report_witnesses,
    classify_lattice,
    complement_characterization,
    downset_m_closed,
    ideal_lattice_product,
    ideal_lattice_zn,
    is_j_element,
    is_n_element,
    is_r_element,
    is_x_element,
    is_x_mult_closed,
    jacobson_downset,
    kite_lattice,
    lattice_from_pairs,
    make_m_closed,
    make_x_mult_closed,
    maximal_x_avoiding,
    nil_downset,
    prime_meet_downset,
    principal_generator,
    report_from_json,
    report_to_json,
    residual_characterization,
    trivial_mult,
    x_elements,
    x_mult_closed_witness,
    x_witness,
    zero_divisor_set,
)
from conftest import div_index


def members_by_label(M, *labels):
    return frozenset(div_index(M, s) for s in labels)


# -- M-closed sets ---------------------------------------------------------------


def test_top_singleton_is_m_closed(kite):
    X = make_m_closed(kite, {kite.top})
    assert X.members == {kite.top}


def test_down_sets_are_m_closed(z12, kite):
    for M in (z12, kite):
        for j in range(M.size):
            X = downset_m_closed(M, j)
            assert X.members == M.down_set(j)


def test_z15_zero_divisors_m_closed(z15):
    X = make_m_closed(z15, members_by_label(z15, "(0)", "(3)", "(5)"))
    assert X.members == z15.zero_divisors()


def test_not_m_closed_witness(z12):
    members = members_by_label(z12, "(2)", "(3)")
    with pytest.raises(NotMClosed) as err:
        make_m_closed(z12, members)
    a, b, prod = err.value.witness
    assert a in members and b in members
    assert z12.product(a, b) == prod and prod not in members
    # the defining escape: (2)*(3) = (6) outside the set
    i2, i3 = div_index(z12, "(2)"), div_index(z12, "(3)")
    assert z12.product(i2, i3) not in members


def test_empty_set_rejected(z12):
    with pytest.raises(ValueError):
        make_m_closed(z12, set())


def test_canonical_sets(z12, z15):
    assert zero_divisor_set(z12).members == z12.zero_divisors()
    assert nil_downset(z12).members == members_by_label(z12, "(0)", "(6)")
    assert jacobson_downset(z12).members == members_by_label(z12, "(0)", "(6)")
    assert zero_divisor_set(z15).members == members_by_label(z15, "(0)", "(3)", "(5)")
    z7 = ideal_lattice_zn(7)[0]
    assert nil_downset(z7).members == {z7.bottom}  # domain


def test_principal_generator(z12):
    assert principal_generator(z12, nil_downset(z12)) == div_index(z12, "(6)")
    assert principal_generator(z12, zero_divisor_set(z12)) is None


# -- the X-element predicate -------------------------------------------------------


def test_kite_all_proper_are_x_elements(kite):
    X = make_m_closed(kite, set(range(5)), "proper")
    assert x_elements(kite, X) == frozenset(range(5))
    assert not is_x_element(kite, X, kite.top)


def test_z12_nil_set_has_no_x_elements(z12):
    X = nil_downset(z12)
    i0, i6 = div_index(z12, "(0)"), div_index(z12, "(6)")
    assert not is_x_element(z12, X, i0)
    assert not is_x_element(z12, X, i6)
    for i in (i0, i6):
        a, b = x_witness(z12, X, i)
        assert z12.leq(z12.product(a, b), i)
        assert a not in X and not z12.leq(b, i)
    assert x_elements(z12, X) == frozenset()


def test_top_only_set_produces_no_x_elements(z12, kite):
    for M in (z12, kite):
        X = make_m_closed(M, {M.top})
        assert x_elements(M, X) == frozenset()


def test_z15_x_elements(z15):
    X = zero_divisor_set(z15)
    labels = {z15.label(i) for i in x_elements(z15, X)}
    assert {"(3)", "(5)"} <= labels
    assert labels == {"(0)", "(3)", "(5)"}  # membership of (0) computed, not assumed


def test_local_lattice_max_downset(kite):
    X = downset_m_closed(kite, kite.lattice.index_of("d"))
    assert x_elements(kite, X) == frozenset(range(5))


def test_prime_downset_contains_its_generator(z12):
    i2 = div_index(z12, "(2)")
    X = downset_m_closed(z12, i2)
    assert is_x_element(z12, X, i2)
    assert {z12.label(i) for i in x_elements(z12, X)} == {"(2)", "(4)"}


def test_r_n_j_specializations(z12, z15):
    assert is_r_element(z15, div_index(z15, "(3)"))
    z4 = ideal_lattice_zn(4)[0]
    for i in z4.proper_elements():
        assert is_j_element(z4, i)
    for M in (z12, z15, z4):
        for i in M.proper_elements():
            if is_n_element(M, i):
                assert is_r_element(M, i)
                assert is_j_element(M, i)


def test_degenerate_lattice_rejected_for_sets():
    M = trivial_mult(lattice_from_pairs(1, []))
    with pytest.raises(DegenerateLattice):
        zero_divisor_set(M)
    with pytest.raises(DegenerateLattice):
        nil_downset(M)


# -- residual and complement characterizations ---------------------------------------


def test_residual_characterization_examples(z12, kite):
    Xk = make_m_closed(kite, set(range(5)), "proper")
    b = kite.lattice.index_of("b")
    assert residual_characterization(kite, Xk, b)
    Xn = nil_downset(z12)
    i6, i2, i3 = (div_index(z12, s) for s in ("(6)", "(2)", "(3)"))
    assert z12.residual(i6, i2) == i3 != i6
    assert not residual_characterization(z12, Xn, i6)
    assert not residual_characterization(z12, Xn, z12.top)


def test_random_m_closed_sets_characterization_agreement():
    # Sample subsets of small ideal lattices; whenever one happens to be
    # M-closed, every characterization of the X-element predicate must agree.
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from multlat.classify import m_closed_witness

    @given(
        n=st.sampled_from([6, 8, 12, 16, 18, 20]),
        picks=st.sets(st.integers(0, 63), min_size=1, max_size=8),
    )
    @settings(max_examples=250, deadline=None)
    def run(n, picks):
        M, _ = ideal_lattice_zn(n)
        members = frozenset(p % M.size for p in picks)
        if m_closed_witness(M, members) is not None:
            return
        X = make_m_closed(M, members)
        for i in range(M.size):
            direct = is_x_element(M, X, i)
            assert direct == residual_characterization(M, X, i)
            if i != M.top:
                assert direct == complement_characterization(M, X, i)

    run()


def test_residual_characterization_agrees_everywhere(z12, z15, kite):
    for M in (z12, z15, kite):
        sets = [zero_divisor_set(M), nil_downset(M), jacobson_downset(M),
                prime_meet_downset(M)]
        sets.extend(downset_m_closed(M, j) for j in range(M.size))
        for X in sets:
            for i in range(M.size):
                assert residual_characterization(M, X, i) == is_x_element(M, X, i)


def test_complement_characterization_agrees(z12, z15, kite):
    for M in (z12, z15, kite):
        for X in (zero_divisor_set(M), nil_downset(M), jacobson_downset(M)):
            for i in M.proper_elements():
                assert complement_characterization(M, X, i) == is_x_element(M, X, i)


# -- X-multiplicatively closed sets ----------------------------------------------------


def test_kite_top_c_d_is_x_mult_closed_but_not_m_closed(kite):
    X = make_m_closed(kite, set(range(5)), "proper")
    A = {kite.top, kite.lattice.index_of("c"), kite.lattice.index_of("d")}
    assert is_x_mult_closed(kite, X, A)
    make_x_mult_closed(kite, X, A)  # validates
    with pytest.raises(NotMClosed) as err:
        make_m_closed(kite, A)
    a, b, prod = err.value.witness
    assert prod == kite.bottom and prod not in A
    c, d = kite.lattice.index_of("c"), kite.lattice.index_of("d")
    assert kite.product(c, d) == kite.bottom  # the defining failure


def test_z12_top_singleton_not_x_mult_closed(z12):
    X = nil_downset(z12)
    A = {z12.top}
    assert not is_x_mult_closed(z12, X, A)
    w = x_mult_closed_witness(z12, X, A)
    assert w[0] == "missing" and w[1] not in X and w[1] not in A
    with pytest.raises(NotXMultClosed):
        make_x_mult_closed(z12, X, A)


def test_whole_lattice_always_x_mult_closed(z12, kite):
    for M in (z12, kite):
        X = nil_downset(M)
        assert is_x_mult_closed(M, X, set(range(M.size)))


def test_empty_members_rejected(z12):
    assert not is_x_mult_closed(z12, nil_downset(z12), set())
    with pytest.raises(ValueError):
        make_x_mult_closed(z12, nil_downset(z12), set())


# -- maximal avoiding elements -----------------------------------------------------------


def test_maximal_avoiding_kite(kite):
    X = downset_m_closed(kite, kite.lattice.index_of("d"))
    A = make_x_mult_closed(kite, X, {kite.top})
    result = maximal_x_avoiding(kite, X, kite.bottom, A)
    assert kite.label(result) == "d"


def test_maximal_avoiding_z4():
    z4 = ideal_lattice_zn(4)[0]
    X = downset_m_closed(z4, div_index(z4, "(2)"))
    A = make_x_mult_closed(z4, X, {z4.top})
    assert z4.label(maximal_x_avoiding(z4, X, z4.bottom, A)) == "(2)"


def test_maximal_avoiding_precondition(kite):
    X = downset_m_closed(kite, kite.lattice.index_of("d"))
    A = make_x_mult_closed(kite, X, set(range(kite.size)))  # contains bottom
    with pytest.raises(PreconditionViolated):
        maximal_x_avoiding(kite, X, kite.bottom, A)


def test_maximal_avoiding_needs_principal_downset(z12):
    X = zero_divisor_set(z12)  # not a down-set of a single element
    A = make_x_mult_closed(z12, X, {z12.top})
    with pytest.raises(ValueError):
        maximal_x_avoiding(z12, X, z12.bottom, A)


def test_maximal_avoiding_result_is_maximal():
    z8 = ideal_lattice_zn(8)[0]
    X = nil_downset(z8)  # the down-set of (2), all proper ideals
    assert principal_generator(z8, X) is not None
    A = make_x_mult_closed(z8, X, {z8.top})
    i = maximal_x_avoiding(z8, X, z8.bottom, A)
    assert z8.label(i) == "(2)"
    for c in range(z8.size):
        if z8.lt(i, c):
            assert z8.leq(z8.top, c)  # anything strictly above hits A


# -- classification reports -----------------------------------------------------------


ROUND_TRIP_CASES = {
    "z12": lambda: _with_sets(
        ideal_lattice_zn(12)[0],
        nil_downset,
        lambda M: downset_m_closed(M, div_index(M, "(2)")),
    ),
    # The trivial multiplication gives witnesses on every proper element.
    "K": lambda: _with_sets(kite_lattice(), nil_downset),
    "chain-meet:5": lambda: _with_sets(chain_lattice(5, "meet"), jacobson_downset),
    "prod:4,9": lambda: _with_sets(ideal_lattice_product(4, 9)[0], zero_divisor_set),
}


def _with_sets(M, *make_sets):
    return M, tuple(make(M) for make in make_sets)


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_report_round_trip(case):
    M, xsets = ROUND_TRIP_CASES[case]()
    report = classify_lattice(M, xsets)
    dumped = report_to_json(report)
    parsed = report_from_json(dumped)
    assert parsed == report
    assert report_to_json(parsed) == dumped
    assert "null" not in dumped  # absent witnesses and notes are left out
    assert '"note": "improper"' in dumped
    if case in ("z12", "K"):
        assert '"witness": [' in dumped


def test_report_witnesses_recheck(z12, z15, kite):
    for M in (z12, z15, kite):
        xsets = (nil_downset(M),)
        report = classify_lattice(M, xsets)
        assert check_report_witnesses(M, xsets, report)


def test_report_flags_z12(z12):
    report = classify_lattice(z12, (nil_downset(z12),))
    by_element = {row.element: row.flags for row in report.rows}
    assert by_element["(2)"]["prime"].holds
    assert not by_element["(6)"]["prime"].holds
    assert by_element["(6)"]["prime"].witness is not None
    assert by_element["(1)"]["prime"].note == "improper"
    assert not by_element["(0)"]["x:nil"].holds
    assert by_element["(4)"]["primary"].holds
    assert report.summary.jacobson == "(6)"
    assert not report.summary.reduced
