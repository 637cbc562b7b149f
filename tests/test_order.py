"""Order kernel: closure, antisymmetry, meets/joins against brute force."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multlat import (
    CycleError,
    acceptance_corpus,
    load_path,
    NotALattice,
    build_order,
    lattice_from_pairs,
    validate_lattice,
)
from multlat import corpus, order, ringbridge
from multlat.corpus import KITE_COVERS
from multlat.order import PartialOrder, iter_bits, mask_of
from conftest import assert_cover_splits, pair_scan_tables


def brute_leq(size, pairs):
    """Reference reflexive-transitive closure as a set of pairs."""
    rel = {(i, i) for i in range(size)} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def brute_glb(rel, size, x, y):
    lower = [z for z in range(size) if (z, x) in rel and (z, y) in rel]
    for m in lower:
        if all((z, m) in rel for z in lower):
            return m
    return None


def brute_lub(rel, size, x, y):
    upper = [z for z in range(size) if (x, z) in rel and (y, z) in rel]
    for m in upper:
        if all((m, z) in rel for z in upper):
            return m
    return None


CROWN = [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_singleton_order():
    po = build_order(1, [])
    assert po.size == 1 and po.leq(0, 0)
    L = validate_lattice(po)
    assert L.bottom == L.top == 0


def test_kite_order_matches_brute_closure():
    po = build_order(6, KITE_COVERS)
    rel = brute_leq(6, KITE_COVERS)
    for i in range(6):
        for j in range(6):
            assert po.leq(i, j) == ((i, j) in rel)


def test_two_cycle_raises():
    with pytest.raises(CycleError):
        build_order(2, [(0, 1), (1, 0)])


def test_longer_cycle_raises():
    with pytest.raises(CycleError):
        build_order(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def test_out_of_range_pair():
    with pytest.raises(IndexError):
        build_order(3, [(0, 3)])


def test_chain_is_a_lattice():
    L = lattice_from_pairs(3, [(0, 1), (1, 2)])
    assert L.bottom == 0 and L.top == 2
    assert L.meet(0, 2) == 0 and L.join(0, 2) == 2


def test_kite_is_a_lattice(kite):
    L = kite.lattice
    assert L.label(L.bottom) if hasattr(L, "label") else True
    assert L.labels[L.bottom] == "0" and L.labels[L.top] == "1"
    b, c, d = L.index_of("b"), L.index_of("c"), L.index_of("d")
    assert L.meet(b, c) == L.index_of("0")
    assert L.join(b, c) == d


def test_two_maximal_no_top_is_not_a_lattice():
    # x, y below both u and v; u, v have no upper bound.
    with pytest.raises(NotALattice) as err:
        lattice_from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    x, y = err.value.witness
    rel = brute_leq(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert brute_glb(rel, 4, x, y) is None or brute_lub(rel, 4, x, y) is None


def test_meet_join_tables_match_brute_force(kite, z12):
    for M in (kite, z12):
        L = M.lattice
        pairs = [
            (i, j) for i in range(L.size) for j in range(L.size) if L.leq(i, j)
        ]
        rel = brute_leq(L.size, pairs)
        for x in range(L.size):
            for y in range(L.size):
                assert L.meet(x, y) == brute_glb(rel, L.size, x, y)
                assert L.join(x, y) == brute_lub(rel, L.size, x, y)


def test_z12_join_meet_examples(z12):
    L = z12.lattice
    i4, i6, i2, i0 = (L.index_of(s) for s in ("(4)", "(6)", "(2)", "(0)"))
    assert L.join(i4, i6) == i2   # gcd(4, 6) = 2
    assert L.meet(i4, i6) == i0   # lcm(4, 6) = 12, the zero ideal


def test_big_ops_empty_conventions(kite):
    L = kite.lattice
    assert L.big_meet([]) == L.top
    assert L.big_join([]) == L.bottom


def test_down_sets(kite):
    L = kite.lattice
    assert L.down_set(L.bottom) == {L.bottom}
    d = L.index_of("d")
    assert {L.labels[i] for i in L.down_set(d)} == {"0", "a", "b", "c", "d"}
    assert L.down_set(L.top) == set(range(L.size))


def test_join_with_bottom_is_identity(kite, z12):
    for M in (kite, z12):
        L = M.lattice
        for x in range(L.size):
            assert L.join(x, L.bottom) == x
            assert L.meet(x, L.top) == x


def test_order_reconstruction(kite, z12):
    for M in (kite, z12):
        L = M.lattice
        for x in range(L.size):
            for y in range(L.size):
                leq = L.leq(x, y)
                assert leq == (L.meet(x, y) == x)
                assert leq == (L.join(x, y) == y)


def test_big_join_of_down_set_is_identity(kite, z12):
    for M in (kite, z12):
        L = M.lattice
        for a in range(L.size):
            assert L.big_join(L.down_set(a)) == a


def test_meet_join_bound_properties(kite):
    L = kite.lattice
    for x in range(L.size):
        for y in range(L.size):
            m, j = L.meet(x, y), L.join(x, y)
            assert L.leq(m, x) and L.leq(m, y)
            assert L.leq(x, j) and L.leq(y, j)
            for z in range(L.size):
                if L.leq(z, x) and L.leq(z, y):
                    assert L.leq(z, m)
                if L.leq(x, z) and L.leq(y, z):
                    assert L.leq(j, z)


def test_covers_transitive_reduction(z12):
    L = z12.lattice
    covers = set(L.covers())
    assert (L.index_of("(0)"), L.index_of("(4)")) in covers
    assert (L.index_of("(0)"), L.index_of("(2)")) not in covers  # via (4) or (6)
    for x, y in covers:
        assert L.lt(x, y)
        assert not any(L.lt(x, z) and L.lt(z, y) for z in range(L.size))


def test_unlabelled_lattices():
    # lattice_from_pairs labels each element by its index; validate_lattice
    # writes no labels of its own.
    assert lattice_from_pairs(3, [(0, 1), (1, 2)]).labels == ("0", "1", "2")
    assert validate_lattice(build_order(3, [(0, 1), (1, 2)])).labels is None


def test_labels_validation():
    with pytest.raises(ValueError):
        lattice_from_pairs(2, [(0, 1)], ["a"])
    with pytest.raises(ValueError):
        lattice_from_pairs(2, [(0, 1)], ["a", "a"])


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(iter_bits(0b100101)) == [0, 2, 5]


@given(
    size=st.integers(1, 10),
    perm=st.permutations(range(10)),
    pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    bounded=st.booleans(),
)
# Bounded, with the crown 1, 2 < 3, 4 inside: the first failure is a join,
# then (relabelled) a meet, each with the other bound present.
@example(size=6, perm=list(range(10)), pairs=CROWN, bounded=True)
@example(size=6, perm=[0, 3, 4, 1, 2, 5, 6, 7, 8, 9], pairs=CROWN, bounded=True)
@settings(max_examples=300)
def test_validate_lattice_matches_brute_force(size, perm, pairs, bounded):
    # Relabel the pairs a < b by a random rank order, so the poset is acyclic
    # but its indices need not be a linear extension. A bounded poset puts
    # the lowest rank below and the highest above everything. The tables
    # come through the cover splits; the brute force and the pair scan
    # name the same tables, or the same first pair without a bound.
    rank = [p for p in perm if p < size]
    pairs = [(a, b) for a, b in pairs if a < b < size]
    if bounded:
        pairs += [(0, k) for k in range(size)] + [(k, size - 1) for k in range(size)]
    pairs = [(rank[a], rank[b]) for a, b in pairs]
    po = build_order(size, pairs)
    rel = brute_leq(size, pairs)
    bounds = [(x, y, brute_glb(rel, size, x, y), brute_lub(rel, size, x, y))
              for x in range(size) for y in range(size)]
    first_bad = next(((x, y, glb) for x, y, glb, lub in bounds
                      if glb is None or lub is None), None)
    if first_bad is None:
        L = validate_lattice(po)
        for x, y, glb, lub in bounds:
            assert (L.meet(x, y), L.join(x, y)) == (glb, lub)
        assert (L.meet_table, L.join_table) == pair_scan_tables(po)
        assert all(L.leq(L.bottom, x) and L.leq(x, L.top) for x in range(size))
        assert_cover_splits(L)
        return
    with pytest.raises(NotALattice) as err:
        validate_lattice(po)
    x, y, glb = first_bad
    assert err.value.witness == (x, y)
    assert (err.value.kind == "meet") == (glb is None)
    with pytest.raises(NotALattice) as oracle:
        pair_scan_tables(po)
    assert (oracle.value.witness, oracle.value.kind) == (err.value.witness, err.value.kind)


@given(
    size=st.integers(1, 7),
    pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=18),
)
@settings(max_examples=200)
def test_build_order_closure_or_cycle(size, pairs):
    pairs = [(a % size, b % size) for a, b in pairs]
    try:
        po = build_order(size, pairs)
    except CycleError:
        rel = brute_leq(size, pairs)
        assert any((a, b) in rel and (b, a) in rel and a != b
                   for a in range(size) for b in range(size))
        return
    rel = brute_leq(size, pairs)
    for i in range(size):
        for j in range(size):
            assert po.leq(i, j) == ((i, j) in rel)
    # Idempotence: rebuilding from the closure gives the same order.
    again = build_order(size, [(i, j) for (i, j) in rel])
    assert again.up == po.up


def warshall_build_order(size, pairs):
    """Reference: ``build_order`` as an n^2 Warshall closure on bitmask rows."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    up = [1 << i for i in range(size)]
    for x, y in pairs:
        if not (0 <= x < size and 0 <= y < size):
            raise IndexError(f"pair ({x}, {y}) out of range for size {size}")
        up[x] |= 1 << y
    for k in range(size):
        row_k = up[k]
        bit_k = 1 << k
        for i in range(size):
            if up[i] & bit_k:
                up[i] |= row_k
    down = [0] * size
    for i in range(size):
        row = up[i]
        bit_i = 1 << i
        for j in iter_bits(row):
            down[j] |= bit_i
    for i in range(size):
        both = up[i] & down[i]
        if both != 1 << i:
            j = next(b for b in iter_bits(both) if b != i)
            raise CycleError(i, j)
    return PartialOrder(size, tuple(up), tuple(down))


def outcome(build, size, pairs):
    try:
        po = build(size, pairs)
    except (CycleError, IndexError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return po.up, po.down


@given(
    size=st.integers(1, 9),
    pairs=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=24),
    chain=st.booleans(),
)
@example(size=3, pairs=[(0, 1), (1, 2), (2, 1), (0, 0), (0, 1)], chain=False)
@example(size=4, pairs=[(3, 2), (2, 1), (1, 0), (0, 3)], chain=False)
@settings(max_examples=400)
def test_build_order_matches_warshall(size, pairs, chain):
    # Random pairs: cycles, self-pairs and repeats; optionally on top of the
    # chain 0 < 1 < ... so that most inputs are connected.
    pairs = [(a % size, b % size) for a, b in pairs]
    if chain:
        pairs += [(i, i + 1) for i in range(size - 1)]
    expected = outcome(warshall_build_order, size, pairs)
    assert outcome(build_order, size, pairs) == expected
    # The same on a one-shot iterator, as the builders may pass a generator.
    assert outcome(build_order, size, iter(pairs)) == expected
    if expected[0] is not CycleError:
        # Acyclic input, self-pairs and repeats included, is closed without
        # the Warshall fallback.
        with mock.patch.object(order, "_warshall", side_effect=AssertionError("fallback")):
            assert outcome(build_order, size, pairs) == expected


@given(
    size=st.integers(1, 9),
    pairs=st.lists(st.tuples(st.integers(-2, 11), st.integers(-2, 11)), min_size=1, max_size=12),
)
@settings(max_examples=200)
def test_build_order_names_the_first_out_of_range_pair(size, pairs):
    bad = [(x, y) for x, y in pairs if not (0 <= x < size and 0 <= y < size)]
    expected = outcome(warshall_build_order, size, pairs)
    assert outcome(build_order, size, pairs) == expected
    if bad:
        x, y = bad[0]
        assert expected[:2] == (IndexError, f"pair ({x}, {y}) out of range for size {size}")


def test_build_order_cycle_witnesses_are_pinned():
    # Cycles the Warshall scan names by its first element in index order.
    with pytest.raises(CycleError) as err:
        build_order(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert err.value.witness == (0, 1)
    with pytest.raises(CycleError) as err:
        build_order(5, [(4, 3), (3, 2), (2, 4), (0, 1)])
    assert err.value.witness == (2, 3)


def test_acyclic_builds_never_fall_back_to_warshall(monkeypatch, lattice_dir):
    # The corpus, the meet chains and the shipped spec files are all
    # acyclic, so each is closed in one topological pass. The lru_caches
    # are bypassed, and the shape cache emptied, so that every instance is
    # built here. A Z_n lattice closes the order of its divisor shape, one
    # pass per distinct shape, and a product closes no order of its own:
    # its two factors are built, and their shapes are among zn:2..200's.
    def no_fallback(size, pairs):
        raise AssertionError(f"Warshall fallback on an acyclic input of size {size}")

    builds = []
    build_order_impl = order.build_order

    def counting(size, pairs):
        builds.append(size)
        return build_order_impl(size, pairs)

    monkeypatch.setattr(order, "_warshall", no_fallback)
    monkeypatch.setattr(order, "build_order", counting)
    monkeypatch.setattr(ringbridge, "build_order", counting)
    monkeypatch.setattr(corpus, "ideal_lattice_zn", ringbridge.ideal_lattice_zn.__wrapped__)
    monkeypatch.setattr(ringbridge, "ideal_lattice_zn", ringbridge.ideal_lattice_zn.__wrapped__)
    monkeypatch.setattr(corpus, "ideal_lattice_product", ringbridge.ideal_lattice_product.__wrapped__)
    monkeypatch.setattr(corpus, "chain_lattice", corpus.chain_lattice.__wrapped__)
    monkeypatch.setattr(corpus, "kite_lattice", corpus.kite_lattice.__wrapped__)
    ringbridge._shape_lattice.cache_clear()
    built = sum(1 for _ in acceptance_corpus(200))
    built += sum(1 for n in range(1, 9) if corpus.chain_lattice(n, "meet"))
    paths = sorted(lattice_dir.glob("*.lat"))
    for path in paths:
        load_path(path)
    assert built == 199 + 36 + 7 + 1 + 8 and paths
    shapes = {ringbridge._divisors_and_shape(n)[1] for n in range(2, 201)}
    assert {ringbridge._divisors_and_shape(m)[1] for m in corpus.PRODUCT_MODULI} <= shapes
    assert len(builds) == len(shapes) + 7 + 1 + 8 + len(paths)
