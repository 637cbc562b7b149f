"""Witness order of the escape scans, and one meaning for each canonical set.

Every witness the library reports is the first violating pair in element
index order. Here each is compared with a naive double loop over ``product``
and ``leq``, on distributive and non-distributive lattices alike.
"""

from multlat import (
    CANONICAL_SETS,
    acceptance_corpus,
    chain_lattice,
    classify_lattice,
    lattice_from_pairs,
    loads,
    render_spec,
    trivial_mult,
    x_elements,
    x_witness,
)
from multlat.cli import resolve_xset


def m3_plus_top():
    """M_3 (0 < a, b, c < m) with a new top above m; trivial multiplication."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)]
    lattice = lattice_from_pairs(6, covers, ("0", "a", "b", "c", "m", "1"))
    return trivial_mult(lattice, name="M3+top")


def instances():
    yield from acceptance_corpus(60)
    for n in range(2, 9):
        yield chain_lattice(n, "meet")
    yield m3_plus_top()


def naive_first(M, i, a_ok, b_ok):
    for a in range(M.size):
        for b in range(M.size):
            if a_ok(a) and b_ok(b) and M.leq(M.product(a, b), i):
                return a, b
    return None


def test_m3_plus_top_is_not_distributive():
    M = m3_plus_top()
    a, b, c = 1, 2, 3
    assert M.meet(a, M.join(b, c)) != M.join(M.meet(a, b), M.meet(a, c))


def test_witnesses_are_first_in_index_order():
    for M in instances():
        sets = [make(M) for make in CANONICAL_SETS.values()]
        for i in range(M.size):
            def outside(e):
                return not M.leq(e, i)

            for X in sets:
                want = naive_first(M, i, lambda a: a not in X, outside)
                assert x_witness(M, X, i) == want, (M.name, X.name, i)
            assert M.prime_witness(i) == naive_first(M, i, outside, outside), (M.name, i)
            rad = M.radical(i)
            want = naive_first(M, i, outside, lambda b: not M.leq(b, rad))
            assert M.primary_witness(i) == want, (M.name, i)


ROUTES = (  # --x keyword, spec-file keyword, report flag
    ("zdiv", "zdiv", "r-element"),
    ("nil", "nil-downset", "n-element"),
    ("jrad", "jrad-downset", "j-element"),
)


def test_canonical_set_routes_agree():
    decls = "".join(f"xset {kw}: {kw}\n" for _, kw, _ in ROUTES)
    for M in instances():
        truth = {
            "zdiv": M.zero_divisors(),
            "nil": M.down_set(M.radical(M.bottom)),
            "jrad": M.down_set(M.jacobson()),
        }
        _, from_spec = loads(render_spec(M) + decls)
        for arg, keyword, flag in ROUTES:
            X = resolve_xset(M, {}, arg)
            assert X.members == from_spec[keyword].members == truth[arg], (M.name, arg)
            xels = x_elements(M, X)
            for i, row in enumerate(classify_lattice(M, (X,)).rows):
                assert row.flags[flag].holds == row.flags[f"x:{X.name}"].holds == (i in xels), (
                    M.name, arg, i,
                )
