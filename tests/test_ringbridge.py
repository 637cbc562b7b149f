"""Divisor-encoded ideal lattices against subset-level ring arithmetic.

The oracle here works with ideals as literal subsets of Z_n: sums and
products are computed by closing generator sets under addition, so none of
the gcd/lcm shortcuts being tested appear on the oracle side.
"""

import dataclasses
import functools
from array import array
from collections import Counter
from itertools import compress
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    CrossValidationMismatch,
    MultiplicativeLattice,
    cross_validate_product,
    cross_validate_zn,
    ideal_lattice_product,
    ideal_lattice_zn,
    ring_is_j_ideal,
    ring_is_n_ideal,
    ring_is_r_ideal,
)
from multlat import nil_downset, ringbridge, x_element_mask
from multlat.corpus import PRODUCT_MODULI
from multlat.order import build_order, validate_lattice
from multlat.ringbridge import (
    ProductRingModel,
    ZnIdealModel,
    cross_validate,
    ring_jacobson,
    ring_nilpotents,
    ring_zero_divisors,
)
from multlat.corpus import parse_corpus_spec
from multlat.search import search_corpus
from conftest import assert_same_derived_data, exponent_vector_oracle, is_prime_power, zn_lattice_oracle


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
        assert ringbridge._divisors_and_shape(n)[0] == tuple(d for d in range(1, n + 1) if n % d == 0), n
    assert ringbridge._divisors_and_shape(100000007)[0] == (1, 100000007)


def test_divisors_of_a_smooth_huge_modulus():
    # 2^18 * 5^18: 19 * 19 divisors, from the factorization rather than a
    # scan of every d up to 10**9.
    divs = ringbridge._divisors_and_shape(10**18)[0]
    assert len(divs) == 361
    assert all(10**18 % d == 0 for d in divs)
    assert all(a < b for a, b in zip(divs, divs[1:]))
    assert (divs[0], divs[-1]) == (1, 10**18)


def test_divisors_and_shape_match_the_exponent_vectors_up_to_5000():
    for n in range(2, 5001):
        assert ringbridge._divisors_and_shape(n) == exponent_vector_oracle(n), n


@pytest.mark.parametrize(
    "n",
    [510510, 735134400, 6983776800, 10**18, 2**20, 3**4 * 5**3 * 7**2, 1000003 * 1000033],
)
def test_divisors_and_shape_of_large_moduli_match_the_exponent_vectors(n):
    # Seven primes, two highly composite moduli, deep exponents on one and
    # on several primes, and two large primes that trial division must reach.
    assert ringbridge._divisors_and_shape(n) == exponent_vector_oracle(n), n


def test_every_ring_row_is_an_r_ideal_and_n_agrees_with_j():
    # In a finite commutative ring every non-zero-divisor is a unit, so every
    # proper ideal is an r-ideal; the nilradical is the Jacobson radical, so
    # the n and J columns agree. Every row holds the verdicts both routes gave.
    reports = [cross_validate_zn(n) for n in range(2, 401)]
    reports += [cross_validate_product(m, n) for m in PRODUCT_MODULI for n in PRODUCT_MODULI]
    rows = [row for report in reports for row in report.rows]
    assert len(rows) == 2321
    for row in rows:
        r, n, j = row.verdicts
        assert r and n == j, row


def test_modulus_must_be_at_least_two():
    with pytest.raises(ValueError):
        ideal_lattice_zn(1)
    with pytest.raises(ValueError):
        ideal_lattice_product(2, 1)


def test_product_lattice_is_componentwise():
    M, model = ideal_lattice_product(4, 9)
    assert M.size == len(exponent_vector_oracle(4)[0]) * len(exponent_vector_oracle(9)[0]) == 9
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
        assert len(report.rows) == len(ringbridge._divisors_and_shape(n)[0]) - 1
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


@pytest.mark.parametrize("which", ["r", "j"])
def test_forced_mismatch_is_detected_for_r_and_j(monkeypatch, which):
    import multlat.ringbridge as rb

    name = f"ring_is_{which}_ideal"
    real = getattr(rb, name)
    monkeypatch.setattr(rb, name, lambda model, idx: not real(model, idx))
    with pytest.raises(CrossValidationMismatch) as caught:
        rb.cross_validate_zn(12)
    # The first proper ideal already disagrees; the lattice keeps the true verdict.
    _, model = ideal_lattice_zn(12)
    first = model.proper_indices()[0]
    truth = real(model, first)
    assert (caught.value.which, caught.value.ideal) == (which, model.labels()[first])
    assert str(caught.value).endswith(f"(ring {not truth}, lattice {truth})")


def test_rows_render_their_verdicts_in_r_n_j_order():
    # On a ring the n and J verdicts always agree, so only a hand-built row
    # shows which letter each tuple position is written under; the ring and
    # the lattice agreed on each verdict, which is written once per route.
    row = ringbridge.CrossValidationRow("(2)", (True, False, True))
    assert ringbridge.CrossValidationReport("zn:4", (row,)).render() == "\n".join([
        "cross-validation zn:4: ring vs lattice on 1 proper ideals",
        "  (2): r=yes/yes n=no/no j=yes/yes",
        "  all classifications agree",
    ])


@pytest.mark.parametrize("model_class", [ZnIdealModel, ProductRingModel])
def test_cross_validate_lists_the_ring_once_per_model(monkeypatch, model_class):
    import multlat.ringbridge as rb

    calls = []
    real = model_class.ring_elements
    monkeypatch.setattr(model_class, "ring_elements", lambda self: calls.append(1) or real(self))
    M, model = ideal_lattice_zn(36) if model_class is ZnIdealModel else ideal_lattice_product(4, 9)
    fresh = dataclasses.replace(model)  # same ring, nothing cached yet
    rb.cross_validate(M, fresh)
    rb.cross_validate(M, fresh)
    assert len(calls) == 1


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


# -- differential check of the ring oracle against the definitions ------------------
#
# The reference scans each definition literally: once per model it finds the
# nilpotents, the Jacobson radical and the a with a zero annihilator (one scan
# of the ring per a), and per ideal it loops over every pair (a, b).


def reference_nilpotents(model, elements):
    zero = model.zero
    out = set()
    for a in elements:
        seen = set()
        cur = a
        while cur not in seen:
            seen.add(cur)
            cur = model.mul(cur, a)
        if zero in seen:
            out.add(a)
    return frozenset(out)


def reference_jacobson(model):
    proper = [model.ideal_subset(i) for i in model.proper_indices()]
    maximal = [s for s in proper if not any(t != s and s < t for t in proper)]
    out = maximal[0]
    for s in maximal[1:]:
        out &= s
    return out


def reference_annihilator_is_zero(model, elements, a):
    zero = model.zero
    return all(model.mul(a, x) != zero for x in elements if x != zero)


def reference_ideal_class(model, elements, index, exempt):
    ideal = model.ideal_subset(index)
    for a in elements:
        if exempt(a):
            continue
        for b in elements:
            if model.mul(a, b) in ideal and b not in ideal:
                return False
    return True


def reference_flags(model):
    """(r, n, j) flags per proper ideal index."""
    elements = list(model.ring_elements())
    zdiv = frozenset(a for a in elements if not reference_annihilator_is_zero(model, elements, a))
    exempt = (zdiv, reference_nilpotents(model, elements), reference_jacobson(model))
    return {
        index: tuple(reference_ideal_class(model, elements, index, s.__contains__) for s in exempt)
        for index in model.proper_indices()
    }


ORACLE = {"r": ring_is_r_ideal, "n": ring_is_n_ideal, "j": ring_is_j_ideal}


def assert_oracle_matches_reference(model):
    want = reference_flags(model)
    # Fresh copies, so that no verdict is cached; the three classes share
    # verdicts per ideal, so they are asked in two orders.
    for order in ("rnj", "jnr"):
        fresh = dataclasses.replace(model)
        for idx, flags in want.items():
            got = {which: ORACLE[which](fresh, idx) for which in order}
            assert (got["r"], got["n"], got["j"]) == flags, (model, idx, order)


@pytest.mark.parametrize("n", range(2, 121))
def test_oracle_matches_reference_on_zn(n):
    assert_oracle_matches_reference(ideal_lattice_zn(n)[1])


@pytest.mark.parametrize("m", PRODUCT_MODULI)
@pytest.mark.parametrize("n", PRODUCT_MODULI)
def test_oracle_matches_reference_on_stock_products(m, n):
    assert_oracle_matches_reference(ideal_lattice_product(m, n)[1])


@given(m=st.integers(2, 30), n=st.integers(2, 30))
@settings(max_examples=6, deadline=None)
def test_oracle_matches_reference_on_products_property(m, n):
    assert_oracle_matches_reference(ideal_lattice_product(m, n)[1])


# -- associate classes against literal scans ----------------------------------------
#
# The oracle scans one representative per class {u*a : u a unit}. Each fact
# that makes this exact is checked here by a literal scan of the ring, through
# its multiplication table as rows of element positions.


CLASS_RINGS = (
    [(n,) for n in range(2, 61)]
    + [(m, n) for m in PRODUCT_MODULI for n in PRODUCT_MODULI]
    + [(28, 30)]
)


def fresh_model(moduli):
    build = ideal_lattice_zn if len(moduli) == 1 else ideal_lattice_product
    M, model = build(*moduli)
    return M, dataclasses.replace(model)  # same ring, nothing cached yet


def product_rows(model, elements):
    """Row a holds the position of a*b for each b, in element order."""
    pos = {x: k for k, x in enumerate(elements)}
    return pos, [array("I", [pos[model.mul(a, b)] for b in elements]) for a in elements]


def ring_id(moduli):
    return ("zn:" if len(moduli) == 1 else "prod:") + ",".join(map(str, moduli))


@pytest.mark.parametrize("moduli", CLASS_RINGS, ids=ring_id)
def test_associate_classes_partition_the_ring(moduli):
    _, model = fresh_model(moduli)
    elements = list(model.ring_elements())
    pos, rows = product_rows(model, elements)
    one, zero = pos[model.one], pos[model.zero]
    nonzero = [x != model.zero for x in elements]
    units = frozenset(a for a, row in zip(elements, rows) if one in row)
    zdiv = frozenset(
        a for a, row in zip(elements, rows) if zero in compress(row, nonzero)
    )
    nil = reference_nilpotents(model, elements)
    assert model._units_nil[0] == units
    assert ring_zero_divisors(model) == zdiv
    assert ring_nilpotents(model) == nil
    assert not units & zdiv

    classes = model._classes
    members = [x for cls in classes.values() for x in cls]
    assert len(members) == len(set(members)) == len(elements)
    assert list(classes) == sorted(classes, key=pos.__getitem__)
    for rep, cls in classes.items():
        assert cls == {model.mul(u, rep) for u in units}
        assert min(cls, key=pos.__getitem__) == rep

    ideals = [model.ideal_subset(i) for i in range(len(model.labels()))]
    for s in [zdiv, nil, reference_jacobson(model), *ideals]:
        for cls in classes.values():
            assert cls <= s or cls.isdisjoint(s), (s, cls)


@pytest.mark.parametrize("moduli", CLASS_RINGS, ids=ring_id)
def test_class_members_share_the_bad_multiplier_verdict(moduli):
    _, model = fresh_model(moduli)
    elements = list(model.ring_elements())
    pos, rows = product_rows(model, elements)
    for index in model.proper_indices():
        ideal = model.ideal_subset(index)
        inside = {pos[x] for x in ideal}
        outside = [k not in inside for k in range(len(elements))]
        # a is bad when a*b lies in I for some b outside I
        bad = {
            a: not inside.isdisjoint(compress(row, outside))
            for a, row in zip(elements, rows)
        }
        for rep, cls in model._classes.items():
            assert {bad[a] for a in cls} == {bad[rep]}, (model, index, rep)


@pytest.mark.parametrize("moduli", [(2310,), (16, 81), (28, 30)], ids=ring_id)
def test_cross_validate_mul_calls_stay_within_the_class_bound(moduli):
    """A full cross-validation makes at most |R| + c*|U| + c^3 products.

    The power pass makes |R|, the classes c*|U|, the zero divisors at most
    c^2, and each proper ideal at most c^2, with fewer proper ideals than
    classes.
    """
    M, model = fresh_model(moduli)
    calls = []
    real = model.mul
    object.__setattr__(model, "mul", lambda x, y: calls.append(1) or real(x, y))
    cross_validate(M, model)
    size, units, c = len(model._elements), len(model._units_nil[0]), len(model._classes)
    assert len(model.proper_indices()) < c
    assert len(calls) <= size + c * units + c ** 3, (len(calls), size, units, c)


@pytest.mark.parametrize("moduli", [(2310,), (28, 30)], ids=ring_id)
def test_cross_validate_decides_each_distinct_set_once(monkeypatch, moduli):
    # The lattice side computes one X-element mask per distinct canonical set
    # and decides no element on its own; on a ring lattice nil = jrad, so the
    # j column reads the n column's mask from the memo in ``derived``.
    import multlat.classify as classify
    from multlat.classify import canonical_sets
    from conftest import count_x_decisions

    M, model = fresh_model(moduli)
    want = cross_validate(M, model).render()
    M = dataclasses.replace(M, derived={})
    counts = count_x_decisions(monkeypatch, classify)
    assert cross_validate(M, model).render() == want
    computed = [key[1] for key in M.derived if key[0] == "x_element_mask"]
    distinct = {X.mask for X in canonical_sets(M).values()}
    assert len(computed) == 2 and set(computed) == distinct, computed
    assert (counts["per_element"], counts["escape"]) == (0, 0), counts


# -- the cover-built lattices against the all-pairs construction --------------------


def all_pairs_construction(moduli):
    """Reference: every ideal pair tested for containment, every product a gcd.

    Returns the lattice of the <=-pairs, the product table and the labels.
    """
    if len(moduli) == 1:
        (n,) = moduli
        divs = exponent_vector_oracle(n)[0]
        elems = [(d,) for d in divs]
        labels = ZnIdealModel(n, divs).labels()
    else:
        m, n = moduli
        elems = [(d1, d2) for d1 in exponent_vector_oracle(m)[0] for d2 in exponent_vector_oracle(n)[0]]
        labels = ProductRingModel(m, n, tuple(elems)).labels()
    k = len(elems)
    leq_pairs = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if all(a % b == 0 for a, b in zip(elems[i], elems[j]))
    ]
    lattice = validate_lattice(build_order(k, leq_pairs), labels)
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(gcd(x * y, q) for x, y, q in zip(a, b, moduli))] for b in elems)
        for a in elems
    )
    return lattice, table, labels


def assert_matches_all_pairs_construction(moduli):
    M = ideal_lattice_zn(*moduli)[0] if len(moduli) == 1 else ideal_lattice_product(*moduli)[0]
    lattice, table, labels = all_pairs_construction(moduli)
    assert (M.order.up, M.order.down) == (lattice.order.up, lattice.order.down), moduli
    assert M.meet_table == lattice.meet_table and M.join_table == lattice.join_table, moduli
    assert tuple(map(tuple, M.table)) == table, moduli
    assert M.labels == labels, moduli
    assert (M.bottom, M.top) == (lattice.bottom, lattice.top), moduli


def test_zn_lattices_match_the_all_pairs_construction():
    for n in range(2, 401):
        assert_matches_all_pairs_construction((n,))


@pytest.mark.parametrize("m", PRODUCT_MODULI)
@pytest.mark.parametrize("n", PRODUCT_MODULI)
def test_stock_products_match_the_all_pairs_construction(m, n):
    assert_matches_all_pairs_construction((m, n))


@pytest.mark.parametrize("moduli", [(28, 30), (72, 72)], ids=ring_id)
def test_large_products_match_the_all_pairs_construction(moduli):
    assert_matches_all_pairs_construction(moduli)


@pytest.mark.parametrize("moduli", [(n,) for n in (2, 12, 30, 64, 360, 720720)], ids=ring_id)
def test_builders_pass_exactly_the_cover_pairs(monkeypatch, moduli):
    # k * omega(n) pairs for Z_n: each Hasse edge once, and nothing else.
    # The shape cache is bypassed, so n's shape is built here.
    seen = []

    def recording(size, pairs):
        seen.append(list(pairs))
        return build_order(size, seen[-1])

    monkeypatch.setattr(ringbridge, "build_order", recording)
    monkeypatch.setattr(ringbridge, "_shape_lattice", ringbridge._shape_lattice.__wrapped__)
    M = ideal_lattice_zn.__wrapped__(*moduli)[0]
    (pairs,) = seen
    assert sorted(pairs) == sorted(M.covers()), moduli


@pytest.mark.parametrize("moduli", [(4, 9), (25, 8), (28, 30), (72, 72)], ids=ring_id)
def test_products_validate_only_their_factors(monkeypatch, moduli):
    # A product is built from its two factor lattices. It validates its own
    # componentwise order once, through validate_lattice, and neither builds
    # an order from pairs nor validates a table, nor computes its residual
    # table; each distinct divisor shape of the factors goes through
    # build_order, validate_lattice and attach_multiplication once, on the
    # factor's size (4 and 9 share one shape, and so do 72 and 72).
    from multlat import multiplicative, order

    for m in moduli:
        ideal_lattice_zn(m)  # the factors, cached

    def forbidden(*args, **kwargs):
        raise AssertionError("a product build validated a table or built an order")

    validated = []
    real_validate = order.validate_lattice

    def validating(product_order, *args, **kwargs):
        validated.append(product_order)
        return real_validate(product_order, *args, **kwargs)

    with monkeypatch.context() as patch:
        for module in (order, multiplicative, ringbridge):
            for name in ("build_order", "attach_multiplication"):
                if hasattr(module, name):
                    patch.setattr(module, name, forbidden)
            if hasattr(module, "validate_lattice"):
                patch.setattr(module, "validate_lattice", validating)
        M = ideal_lattice_product.__wrapped__(*moduli)[0]
    assert len(validated) == 1 and validated[0] is M.order
    assert "_prod_below" in M.derived and "join_irreducibles" in vars(M)

    calls = []

    def recording(name, real):
        def record(first, *args, **kwargs):
            calls.append((name, first if name == "build_order" else first.size))
            return real(first, *args, **kwargs)

        return record

    for name in ("build_order", "validate_lattice", "attach_multiplication"):
        monkeypatch.setattr(ringbridge, name, recording(name, getattr(ringbridge, name)))
    sizes = [len(ringbridge._divisors_and_shape(m)[0]) for m in moduli]
    shapes = {ringbridge._divisors_and_shape(m)[1] for m in moduli}
    monkeypatch.setattr(ringbridge, "ideal_lattice_zn", ideal_lattice_zn.__wrapped__)
    ringbridge._shape_lattice.cache_clear()
    M = ideal_lattice_product.__wrapped__(*moduli)[0]
    assert sorted(calls) == sorted(
        (name, len(shape)) for shape in shapes
        for name in ("build_order", "validate_lattice", "attach_multiplication")
    )
    assert len(shapes) == (1 if moduli in ((4, 9), (72, 72)) else 2)
    assert M.size == sizes[0] * sizes[1]


# -- one validated lattice per divisor shape -------------------------------------


def assert_matches_the_per_modulus_build(n):
    M = ideal_lattice_zn.__wrapped__(n)[0]
    W = zn_lattice_oracle(n)
    assert M.order == W.order, n
    assert (M.meet_table, M.join_table, M.table) == (W.meet_table, W.join_table, W.table), n
    assert (M.labels, M.name, M.bottom, M.top) == (W.labels, W.name, W.bottom, W.top), n
    assert M.join_irreducibles == W.join_irreducibles, n
    assert_same_derived_data(M, W)


def test_shared_shapes_match_the_per_modulus_build_up_to_2000():
    for n in range(2, 2001):
        assert_matches_the_per_modulus_build(n)


@pytest.mark.parametrize("n", [55440, 720720, 510510, 2**20, 3**4 * 5**3 * 7**2])
def test_large_moduli_match_the_per_modulus_build(n):
    # 510510 = 2*3*5*7*11*13*17, seven primes renamed to themselves. 2**20
    # and 3**4*5**3*7**2 have deep exponents, so many steps e -> gcd(e*p, n)
    # keep e (e*p does not divide n).
    assert_matches_the_per_modulus_build(n)


def test_a_fresh_search_derives_each_shape_once(monkeypatch):
    # Moduli of one shape share ``derived``: a fresh search over zn:2..1000
    # computes each cache once per shape, 131 times, not once per modulus.
    computed = Counter()

    def counting(name):
        real = vars(MultiplicativeLattice)[name].func

        def count(M):
            if name not in M.derived:
                computed[name] += 1
            return real(M)

        prop = functools.cached_property(count)
        prop.__set_name__(MultiplicativeLattice, name)
        return prop

    names = ("_radicals", "_escape_sets", "_prime_mask")
    for name in names:
        monkeypatch.setattr(MultiplicativeLattice, name, counting(name))
    ideal_lattice_zn.cache_clear()
    ringbridge._shape_lattice.cache_clear()
    spec = parse_corpus_spec("zn:2..1000")
    hits = search_corpus((M for M, _ in spec), "x-exists-iff-min-prime-unique")
    assert hits and computed == {name: 131 for name in names}


def test_a_fresh_search_validates_each_shape_once(monkeypatch):
    attached = []
    real = ringbridge.attach_multiplication

    def counting(lattice, *args, **kwargs):
        attached.append(lattice.size)
        return real(lattice, *args, **kwargs)

    monkeypatch.setattr(ringbridge, "attach_multiplication", counting)
    ideal_lattice_zn.cache_clear()
    ringbridge._shape_lattice.cache_clear()
    spec = parse_corpus_spec("zn:2..1000")
    hits = search_corpus((M for M, _ in spec), "x-exists-iff-min-prime-unique")
    assert hits and len(attached) == 131


def test_moduli_of_one_shape_share_the_tables_not_the_labels(monkeypatch):
    # Built here, one after another, so both read the shape cache's entry.
    build = ideal_lattice_zn.__wrapped__
    M6, M10 = build(6)[0], build(10)[0]
    assert M6.table is M10.table and M6.meet_table is M10.meet_table
    assert M6.order is M10.order
    # Both are views of the unlabelled shape lattice and share its caches;
    # a view of a view shares them too.
    shared = ringbridge._shape_lattice(ringbridge._divisors_and_shape(6)[1])
    assert M6.derived is M10.derived is shared.derived and shared.labels is None
    assert M6._escape_sets is M10._escape_sets is M6.derived["_escape_sets"]
    assert M6.view(M10.labels, "zn:10").derived is M6.derived
    # X-element masks are kept in ``derived``, per member mask: the other
    # modulus finds it there and reads no escape mask.
    X = nil_downset(M6)
    found = x_element_mask(M6, X)
    monkeypatch.delitem(M6.derived, "_escape_sets")
    assert x_element_mask(M10, X) == found == M10.derived[("x_element_mask", X.mask)]
    assert "_escape_sets" not in M10.derived
    assert M6.labels == ("(1)", "(2)", "(3)", "(0)")
    assert M10.labels == ("(1)", "(2)", "(5)", "(0)")
    assert (M6.name, M10.name) == ("zn:6", "zn:10")
    # 12 = 2^2*3 and 45 = 3^2*5 list their divisors in one exponent order;
    # 20 = 2^2*5 lists 4 before 5, so its shape differs from 12's.
    def shape(n):
        return ringbridge._divisors_and_shape(n)[1]

    assert shape(12) == shape(45) == (1, 2, 3, 4, 6, 12)
    assert shape(20) == (1, 2, 4, 3, 6, 12)
    M12, M45, M20 = build(12)[0], build(45)[0], build(20)[0]
    assert M12.table is M45.table and M12.table is not M20.table
