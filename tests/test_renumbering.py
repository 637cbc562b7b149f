"""Every answer is a fact about the lattice, not about its element numbering.

Each lattice is rebuilt under a random renumbering of its elements, through
``lattice_from_pairs`` over the renumbered covers and
``attach_multiplication`` over the renumbered table, and everything the
library decides is compared up to relabelling: the classification summary
and flags, the r-, n- and J-elements, J(L), and the outcome of every suite
check. Witnesses may differ, since each is the first in index order; the
renumbered report's witnesses are re-checked instead.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat import (
    attach_multiplication,
    canonical_sets,
    chain_lattice,
    check_report_witnesses,
    classify_lattice,
    ideal_lattice_product,
    ideal_lattice_zn,
    kite_lattice,
    lattice_from_pairs,
    lemma_suite,
    loads,
    product,
    render_spec,
    x_elements,
)
from conftest import m3_plus_top, n5_plus_top, subspace_spec_lattice, x_set_instances


def renumbering_instances():
    """Every distinct lattice of ``x_set_instances()``, then K, zn:360,
    prod:4,9, N5+top x zn:12 and the benchmark's 68-element subspace spec."""
    extra = (
        m3_plus_top(),
        n5_plus_top(),
        kite_lattice(),
        chain_lattice(6, "meet"),
        ideal_lattice_zn(360)[0],
        ideal_lattice_product(4, 9)[0],
        product(n5_plus_top(), ideal_lattice_zn(12)[0], name="N5+top*zn:12"),
        subspace_spec_lattice(0),
    )
    distinct = {}
    for M in (*x_set_instances(), *extra):
        distinct.setdefault((M.labels, M.order.down, M.table), M)
    return distinct.values()


def renumbered(M, perm):
    """M rebuilt with element i at index perm[i], labels and name kept."""
    n = M.size
    old_of = [0] * n
    for i, new in enumerate(perm):
        old_of[new] = i
    labels = [M.labels[i] for i in old_of]
    lattice = lattice_from_pairs(n, [(perm[x], perm[y]) for x, y in M.covers()], labels)
    table = [[perm[M.table[a][b]] for b in old_of] for a in old_of]
    return attach_multiplication(lattice, table, M.name)


def numbering_free_facts(M):
    """What the library decides about M, with every element given by its label."""

    def labels(items):
        return frozenset(M.label(i) for i in items)

    report = classify_lattice(M)
    s = report.summary
    summary = (
        frozenset(s.maximal), s.jacobson, frozenset(s.min_primes), frozenset(s.nilpotents),
        frozenset(s.zero_divisors), s.radical_of_bottom, s.local, s.domain, s.reduced,
    )
    flags = {
        (row.element, name): flag.holds for row in report.rows for name, flag in row.flags.items()
    }
    xels = {letter: labels(x_elements(M, X)) for letter, X in canonical_sets(M).items()}
    checks = []
    for c in lemma_suite(M).checks:
        info = c.info or ""
        vacuous = c.check in ("L3", "L8") and info.startswith("vacuous")
        join_witness = c.check == "L6" and info.startswith("join witness")
        checks.append((c.check, c.scope, c.passed, vacuous, join_witness))
    return summary, flags, xels, labels(M.join_irreducibles), checks


@pytest.fixture(scope="module")
def expected():
    return [(M, numbering_free_facts(M)) for M in renumbering_instances()]


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_renumbering_changes_no_answer(expected, data):
    for M, facts in expected:
        perm = data.draw(st.permutations(range(M.size)), label=M.name)
        R = renumbered(M, perm)
        assert numbering_free_facts(R) == facts, M.name
        assert check_report_witnesses(R, (), classify_lattice(R)), M.name
        sets = canonical_sets(R)
        named = {X.name: X for X in sets.values()}
        L, loaded = loads(render_spec(R, named))
        assert (L.labels, L.order, L.table) == (R.labels, R.order, R.table), M.name
        assert (L.bottom, L.top, L.join_irreducibles) == (R.bottom, R.top, R.join_irreducibles)
        assert {k: X.members for k, X in loaded.items()} == {k: X.members for k, X in named.items()}


def test_renumbering_moves_the_elements():
    # The identity and the reversal give the same facts, and the reversal
    # really relabels: the rebuilt lattice's bottom and top swap places.
    M = chain_lattice(6, "meet")
    same, flipped = renumbered(M, range(6)), renumbered(M, range(5, -1, -1))
    assert same.table == M.table and same.labels == M.labels
    assert (flipped.bottom, flipped.top) == (5, 0)
    assert flipped.labels == M.labels[::-1]
    assert numbering_free_facts(flipped) == numbering_free_facts(M)


def test_the_subspace_spec_gives_one_answer_at_every_benchmark_numbering():
    # The benchmark and CI write the spec at seeds 0, 7 and 13, three
    # numberings of one non-distributive lattice (|J| = 16), whose lower-cover
    # splits differ with the numbering.
    specs = [subspace_spec_lattice(seed) for seed in (0, 7, 13)]
    assert specs[0].size == 68 and len(specs[0].join_irreducibles) == 16
    splits = {
        frozenset(zip(*(map(M.label, M.lower_split[k::3]) for k in range(3))))
        for M in specs
    }
    assert len(splits) == 3
    facts = numbering_free_facts(specs[0])
    for M in specs[1:]:
        assert numbering_free_facts(M) == facts
        assert check_report_witnesses(M, (), classify_lattice(M))
