"""The executable property suite on hand-picked instances."""

import dataclasses

import pytest

from multlat import (
    DegenerateLattice,
    MultiplicativeLattice,
    canonical_sets,
    chain_lattice,
    downset_m_closed,
    ideal_lattice_product,
    ideal_lattice_zn,
    is_x_element,
    kite_lattice,
    lattice_from_pairs,
    lemma_suite,
    make_m_closed,
    trivial_mult,
    x_elements,
)
from multlat.classify import distinct_sets, x_element_mask
from multlat.lemmas import CheckResult, _check_l4, _check_l8, _check_l9, _lbl
from multlat.order import iter_bits, mask_of
from conftest import (
    distinct_instances,
    div_index,
    prime_meet_downset,
    subspace_spec_lattice,
    x_set_instances,
)


def assert_suite_passes(report):
    assert report.passed, "\n".join(c.render() for c in report.failures())


def test_suite_reads_the_maxima_a_fixed_number_of_times(monkeypatch):
    # Each check reads max_elements() at most once, so the count per suite
    # does not grow with the number of elements (6 to 240 here).
    calls = []
    real = MultiplicativeLattice.max_elements

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(MultiplicativeLattice, "max_elements", counting)
    counts = []
    for M in (ideal_lattice_zn(12)[0], ideal_lattice_zn(360)[0],
              ideal_lattice_product(12, 30)[0], ideal_lattice_zn(720720)[0]):
        calls.clear()
        assert_suite_passes(lemma_suite(M))
        counts.append(len(calls))
    assert counts == [counts[0]] * 4 and counts[0] <= 6, counts


def test_suite_z12(z12):
    report = lemma_suite(z12, (downset_m_closed(z12, div_index(z12, "(2)")),))
    assert_suite_passes(report)


def test_suite_z15_finds_join_escape(z15):
    report = lemma_suite(z15)
    assert_suite_passes(report)
    zdiv_results = [c for c in report.find("L6") if c.scope == "zdiv"]
    assert len(zdiv_results) == 1
    assert "join" in zdiv_results[0].info
    assert "(3)" in zdiv_results[0].info and "(5)" in zdiv_results[0].info


def test_suite_kite_with_proper_set(kite):
    X = make_m_closed(kite, set(range(5)), "proper")
    assert_suite_passes(lemma_suite(kite, (X,)))


def test_suite_products_and_chains():
    assert_suite_passes(lemma_suite(ideal_lattice_product(4, 9)[0]))
    assert_suite_passes(lemma_suite(ideal_lattice_product(2, 2)[0]))
    for n in range(2, 9):
        assert_suite_passes(lemma_suite(chain_lattice(n, "trivial")))
        assert_suite_passes(lemma_suite(chain_lattice(n, "meet")))


def test_suite_rejects_degenerate():
    M = trivial_mult(lattice_from_pairs(1, []))
    with pytest.raises(DegenerateLattice):
        lemma_suite(M)


def test_every_check_id_appears(z12):
    report = lemma_suite(z12)
    ids = {c.check for c in report.checks}
    assert ids == {f"L{k}" for k in range(1, 17)}


def test_l3_l4_local_vs_not():
    z8 = ideal_lattice_zn(8)[0]
    i2 = div_index(z8, "(2)")
    # local: every proper element is an X-element for the maximal down-set
    X = downset_m_closed(z8, i2)
    assert x_elements(z8, X) == frozenset(z8.proper_elements())
    z12 = ideal_lattice_zn(12)[0]
    # not local: no proper m makes every proper element an X-element
    for m in z12.proper_elements():
        Xm = downset_m_closed(z12, m)
        assert not all(is_x_element(z12, Xm, i) for i in z12.proper_elements())


def test_l10_statements_on_known_instances(z12, z15):
    for M, expect in ((z12, False), (z15, False), (ideal_lattice_zn(8)[0], True)):
        X = prime_meet_downset(M)
        exists = bool(x_elements(M, X))
        assert exists == expect
        assert M.is_prime(M.big_meet(M.prime_elements())) == expect
        assert (len(M.min_primes()) == 1) == expect


def test_l13_exercised_nonvacuously(z12):
    # X = down-set of (2): X-elements are (2) and (4); (3) sits outside X,
    # and multiplying the two X-elements by it gives distinct results.
    X = downset_m_closed(z12, div_index(z12, "(2)"))
    xels = x_elements(z12, X)
    assert {z12.label(i) for i in xels} == {"(2)", "(4)"}
    i3 = div_index(z12, "(3)")
    assert i3 not in X
    products = {z12.product(i3, i) for i in xels}
    assert len(products) == len(xels)


def test_suite_scope_names(z15):
    report = lemma_suite(z15)
    scopes = {c.scope for c in report.checks}
    assert "zdiv" in scopes and "global" in scopes


def test_suite_with_top_containing_set(z12):
    # M-closed sets may contain top; nothing in the suite assumes otherwise.
    members = {div_index(z12, s) for s in ("(1)", "(2)", "(4)", "(6)", "(0)")}
    X = make_m_closed(z12, members, "wide")
    assert_suite_passes(lemma_suite(z12, (X,)))


def test_suite_reports_failures_with_witnesses(z12, monkeypatch):
    # A deliberately wrong predicate must surface as rendered failures, not
    # as a silent pass (the suite checks consequences, so a lying classifier
    # contradicts them immediately).
    # The lie is injected where the suite decides: its one mask per set.
    import multlat.lemmas as lemmas

    truth = lemmas.x_element_mask
    monkeypatch.setattr(
        lemmas, "x_element_mask", lambda M, X: M.full_mask & ~(1 << M.top) & ~truth(M, X)
    )
    report = lemmas.lemma_suite(z12)
    assert not report.passed
    failed = report.failures()
    assert failed and all(c.witness for c in failed)
    assert any(c.check == "L7" for c in failed)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ideal_lattice_zn(360)[0],
        lambda: ideal_lattice_product(4, 9)[0],
        lambda: chain_lattice(6, "meet"),
        kite_lattice,
    ],
    ids=["zn:360", "prod:4,9", "chain:6", "kite"],
)
def test_suite_decides_each_x_element_once_per_set(build, monkeypatch):
    # One mask decision per distinct set, which every check reads (L3 the
    # Jacobson set's); no element is decided on its own. L11's primary test
    # and L12 read the residual-value masks, so no O(n) escape scan runs.
    import multlat.lemmas as lemmas
    from conftest import count_x_decisions

    M = build()
    counts = count_x_decisions(monkeypatch, lemmas)
    assert_suite_passes(lemmas.lemma_suite(M))
    distinct = [X.members for X in distinct_sets(canonical_sets(M).values())]
    assert counts["sets"] == distinct, (counts["sets"], distinct)
    assert (counts["per_element"], counts["escape"]) == (0, 0), counts


def test_join_escapes_read_the_decided_x_elements(z15, monkeypatch, capsys):
    # L6 and the join-of-x-not-x search decide a join by membership in the
    # X-elements already found, so neither calls classify.is_x_element.
    import multlat.classify as classify
    from multlat import acceptance_corpus, search_corpus
    from multlat.cli import main

    instances = [z15, *acceptance_corpus(120)]

    def run():
        suites = [lemma_suite(M).render() for M in instances]
        hits = [h.render() for h in search_corpus(instances, "join-of-x-not-x")]
        code = main(["search", "--corpus", "zn:15", "--find", "join-of-x-not-x"])
        return suites, hits, code, capsys.readouterr().out

    want = run()
    assert want[1] and want[2] == 0 and "zn:15" in want[3]

    def no_decision(M, X, i):
        raise AssertionError("is_x_element called on a decided join")

    monkeypatch.setattr(classify, "is_x_element", no_decision)
    assert run() == want


def test_l10_reads_the_suites_prime_meet_x_elements(z12, z15, kite, monkeypatch):
    # L10 must take the X-elements of the prime-meet down-set from the
    # suite's one pass, not decide them again through x_elements.
    import multlat.classify as classify
    from conftest import n5_plus_top

    instances = (z12, z15, kite, ideal_lattice_zn(8)[0], chain_lattice(5, "meet"), n5_plus_top())
    want = {M.name: lemma_suite(M).render() for M in instances}

    def no_rescan(M, X):
        raise AssertionError("x_elements called during lemma_suite")

    monkeypatch.setattr(classify, "x_elements", no_rescan)
    for M in instances:
        report = lemma_suite(M)
        assert_suite_passes(report)
        assert report.render() == want[M.name]


def l4_by_down_sets(M):
    """L4 as a loop over the down-sets, deciding every X-element: the reference."""
    maxima = M.max_elements()
    for m in M.proper_elements():
        X = downset_m_closed(M, m)
        if all(is_x_element(M, X, i) for i in M.proper_elements()):
            if maxima != {m}:
                return CheckResult(
                    "L4", "global", False,
                    f"every proper element is an X-element for the down-set of {M.label(m)} "
                    f"yet the maximal elements are {{{_lbl(M, *sorted(maxima))}}}",
                )
    return CheckResult("L4", "global", True)


def test_l4_matches_the_down_set_loop():
    local = 0
    for M in x_set_instances():
        want = l4_by_down_sets(M)
        assert _check_l4(M) == want, M.name
        local += M.is_local()
    assert local > 20


def test_l4_failure_matches_the_down_set_loop():
    # zn:8 is local with maximal (2); claiming every proper element is maximal
    # makes both routes report the down-set of (2) with the same witness.
    M = ideal_lattice_zn(8)[0]
    twin = corrupted_twin(M, "_max_mask", lambda mask: M.full_mask & ~(1 << M.top))
    got = _check_l4(twin)
    assert not got.passed and "down-set of (2)" in got.witness
    assert got == l4_by_down_sets(twin)


def corrupted_twin(M, key, flip):
    """M with one derived entry changed by ``flip``, every other cache already built."""
    lemma_suite(M)
    return dataclasses.replace(M, derived={**M.derived, key: flip(M.derived[key])})


def test_l8_reports_a_mask_the_witness_route_contradicts():
    # A maximal X-element made non-prime in the mask alone: the witness route
    # still finds no pair, and L8 fails with both answers instead of raising.
    M = ideal_lattice_zn(12)[0]
    X = canonical_sets(M)["r"]
    xels = x_elements(M, X)
    i = next(i for i in sorted(xels) if not any(j != i and M.leq(i, j) for j in xels))
    assert M.is_prime(i) and M.prime_witness(i) is None
    twin = corrupted_twin(M, "_prime_mask", lambda mask: mask & ~(1 << i))
    failed = [c for c in lemma_suite(twin).find("L8") if not c.passed]
    assert [c.scope for c in failed] == [X.name]
    assert failed[0].witness == (
        f"{M.label(i)} is a maximal X-element but not prime; "
        "the mask says not prime, but the witness route finds no pair (says prime)"
    )


def pairwise_maximal(M, mask):
    """The members of ``mask`` with no other member above them, by pairwise ``leq``."""
    members = list(iter_bits(mask))
    return mask_of(i for i in members if not any(j != i and M.leq(i, j) for j in members))


def suite_sets(M):
    """The canonical sets and every principal down-set of M."""
    return [*canonical_sets(M).values(), *(downset_m_closed(M, j) for j in range(M.size))]


def test_maximal_member_kernel_matches_the_pairwise_definition():
    # L8 takes the maximal X-elements from the mask kernel, and _max_mask the
    # maximal proper elements; both against the O(|X|^2) pairwise scan.
    for M in distinct_instances():
        assert M._max_mask == pairwise_maximal(M, M.full_mask & ~(1 << M.top)), M.name
        for X in suite_sets(M):
            xels = x_element_mask(M, X)
            assert M.maximal_members(xels) == pairwise_maximal(M, xels), (M.name, X.name)
        primes = M._prime_mask
        minimal = mask_of(p for p in iter_bits(primes)
                          if not any(q != p and M.leq(q, p) for q in iter_bits(primes)))
        assert M.minimal_members(primes) == minimal, M.name


def test_l8_names_the_lowest_maximal_x_element_the_prime_mask_drops():
    # Every maximal X-element made non-prime in _prime_mask alone: L8 fails
    # at the lowest of them.
    several = 0
    for M in distinct_instances():
        for X in suite_sets(M):
            xels = x_element_mask(M, X)
            maximal = pairwise_maximal(M, xels)
            if not maximal:
                continue
            several += maximal.bit_count() > 1
            got = _check_l8(corrupted_twin(M, "_prime_mask", lambda mask: mask & ~maximal), X, xels)
            first = min(iter_bits(maximal))
            assert not got.passed and got.witness.startswith(
                f"{M.label(first)} is a maximal X-element but not prime; "), (M.name, X.name)
    assert several > 20


def test_l9_names_the_lowest_element_a_corrupted_mask_gets_wrong():
    # L9 on each proper principal down-set down(j). With every element above
    # j called prime, it fails exactly when j is not prime, at j. With every
    # proper element called maximal, it fails at the lowest i with
    # (i an X-element) != (i == j).
    failed = 0
    for M in distinct_instances():
        proper = M.full_mask & ~(1 << M.top)
        every_maximal = corrupted_twin(M, "_max_mask", lambda mask: proper)
        for j in M.proper_elements():
            X = downset_m_closed(M, j)
            xels = x_element_mask(M, X)
            got = _check_l9(corrupted_twin(M, "_prime_mask", lambda mask: mask | M.order.up[j]), X, j, xels)
            assert got.passed == M.is_prime(j), (M.name, j)
            if not got.passed:
                assert got.witness.startswith(f"prime {M.label(j)} above generator"), (M.name, j)
            got = _check_l9(every_maximal, X, j, xels)
            wrong = [i for i in sorted(iter_bits(proper)) if bool(xels >> i & 1) != (i == j)]
            assert got.passed == (not wrong), (M.name, j)
            if wrong:
                failed += 1
                assert got.witness.startswith(f"maximal {M.label(wrong[0])} vs generator"), (M.name, j)
    assert failed > 100


def test_l8_and_l9_name_the_lowest_index_where_a_frozenset_iterates_otherwise():
    # prod:72,72's maxima are elements 1, 2, 12 and 24, and a frozenset of
    # them iterates 24 first. With the X-elements set to the maxima, L8
    # (the maxima dropped from _prime_mask too) and L9 (X the down-set of
    # element 1) must still name the lowest index that fails.
    M = ideal_lattice_product(72, 72)[0]
    maxima = M._max_mask
    assert sorted(iter_bits(maxima)) == [1, 2, 12, 24] and next(iter(frozenset(iter_bits(maxima)))) == 24
    for X, dropped, check, first in ((canonical_sets(M)["j"], maxima, "L8", 1),
                                     (downset_m_closed(M, 1), 0, "L9", 2)):
        lemma_suite(M, (X,))
        derived = {**M.derived, ("x_element_mask", X.mask): maxima,
                   "_prime_mask": M._prime_mask & ~dropped}
        twin = dataclasses.replace(M, derived=derived)
        (got,) = [c for c in lemma_suite(twin, (X,)).find(check) if c.scope == X.name]
        named = (f"{M.label(first)} is a maximal", f"maximal {M.label(first)} vs")
        assert not got.passed and got.witness.startswith(named), got


def test_l3_reports_a_mask_the_witness_route_contradicts():
    # A local lattice's Jacobson X-elements with one bit cleared in the
    # canonical set's cached mask: L3 fails naming both answers.
    M = ideal_lattice_zn(27)[0]
    assert M.is_local()
    jset = canonical_sets(M)["j"]
    i = next(i for i in M.proper_elements() if i != M.bottom)
    twin = corrupted_twin(M, ("x_element_mask", jset.mask), lambda mask: mask ^ (1 << i))
    (l3,) = lemma_suite(twin).find("L3")
    assert not l3.passed
    assert l3.witness == (
        f"local with maximal {M.label(next(iter(M.max_elements())))} but {M.label(i)} "
        "is not an X-element for its down-set; "
        "the mask says not X-element, but the witness route finds no pair (says X-element)"
    )


def test_primary_and_l12_masks_match_the_escape_scan():
    # is_primary and L12 read R[i] against a down-set; the ordered escape
    # scan over a not <= i answers the same question pair by pair.
    instances = distinct_instances()
    assert len(instances) >= 80
    for M in instances:
        down, values, maxima = M.order.down, M._residual_values, M.max_elements()
        for i in M.proper_elements():
            assert M.is_primary(i) == (M.primary_witness(i) is None), (M.name, i)
            m = M.big_meet(k for k in maxima if M.leq(i, k))
            scanned = M.escape_witness(i, down[i], down[m]) is None
            assert (values[i] & ~down[m] == 0) == scanned, (M.name, i, m)


@pytest.mark.parametrize("build", [lambda: ideal_lattice_zn(27)[0], lambda: subspace_spec_lattice(0)],
                         ids=["zn:27", "subspace-spec"])
def test_l11_reports_a_corrupted_residual_value_mask(build):
    # One residual value added to R[i] at an n-element i below its radical,
    # outside down(radical(i)): is_primary now says no, and L11 fails at i.
    M = build()
    nset = canonical_sets(M)["n"]
    i = min(i for i in x_elements(M, nset) if M.radical(i) != i)
    outside = M.full_mask & ~M.order.down[M.radical(i)]
    x = (outside & -outside).bit_length() - 1
    twin = corrupted_twin(M, "_residual_values", lambda R: (*R[:i], R[i] ^ 1 << x, *R[i + 1:]))
    assert M.is_primary(i) and not twin.is_primary(i)
    (l11,) = lemma_suite(twin).find("L11")
    assert not l11.passed
    assert l11.witness == f"{M.label(i)}: X-element=True but primary-with-radical-the-prime-meet=False"


@pytest.mark.parametrize("build", [lambda: ideal_lattice_zn(12)[0], lambda: subspace_spec_lattice(0)],
                         ids=["zn:12", "subspace-spec"])
def test_l16_reports_a_zero_divisor_mask_the_annihilators_contradict(build):
    # One bit of _zdiv_mask flipped, set at top and cleared at bottom: the
    # annihilator route disagrees there, and L16 names both answers.
    M = build()
    assert [c.render() for c in lemma_suite(M).find("L16")] == ["L16 [global] pass"]
    bot, top = M.bottom, M.top
    for x, said, says, ann in ((top, "a zero divisor", "not a zero divisor", bot),
                               (bot, "not a zero divisor", "a zero divisor", top)):
        twin = corrupted_twin(M, "_zdiv_mask", lambda mask: mask ^ 1 << x)
        (l16,) = lemma_suite(twin).find("L16")
        assert not l16.passed
        assert l16.witness == (
            f"Z(L) routes differ first at {M.label(x)}: the escape masks say {said}, "
            f"the annihilator ({M.label(bot)} : {M.label(x)}) = {M.label(ann)} says {says}"
        )
