import functools
import importlib
import itertools
import json
import random
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from math import gcd, prod

from multlat import (
    AxiomViolation,
    NotALattice,
    acceptance_corpus,
    attach_multiplication,
    chain_lattice,
    ideal_lattice_product,
    ideal_lattice_zn,
    kite_lattice,
    lattice_from_pairs,
    load_path,
    loads,
    trivial_mult,
)
from multlat.classify import canonical_sets, downset_m_closed, x_element_mask, x_mult_closed_witness
from multlat.order import build_order, iter_bits, validate_lattice

LATTICE_DIR = Path(__file__).resolve().parent.parent / "lattices"
PERFBENCH_DIR = LATTICE_DIR.parent / "perfbench"


@pytest.fixture(scope="session")
def kite():
    return kite_lattice()


@pytest.fixture(scope="session")
def z12():
    return ideal_lattice_zn(12)[0]


@pytest.fixture(scope="session")
def z15():
    return ideal_lattice_zn(15)[0]


@pytest.fixture(scope="session")
def lattice_dir():
    return LATTICE_DIR


def m3_plus_top():
    """M_3 (0 < a, b, c < m) with a new top above m; trivial multiplication."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)]
    lattice = lattice_from_pairs(6, covers, ("0", "a", "b", "c", "m", "1"))
    return trivial_mult(lattice, name="M3+top")


def n5_plus_top():
    """N_5 with a new top, from ``lattices/n5-top.lat``; b*b = a."""
    return load_path(LATTICE_DIR / "n5-top.lat")[0]


def subspace_spec_lattice(seed):
    """The benchmark's 68-element spec (subspaces of F_2^4 plus a new top, not
    distributive, |J| = 16), numbered by ``seed``, loaded as a lattice.

    The text comes from ``perfbench/workloads.py::subspace_spec``, imported
    without writing bytecode next to it.
    """
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH_DIR))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH_DIR))
        sys.dont_write_bytecode = writes
    return loads(workloads.subspace_spec(seed))[0]


def tables_from_irreducibles(M, count, seed):
    """Tables fixed by commutative values on J(L) x J(L), extended by joins.

    Each value p*q starts as M's own product and is redrawn below p^q with
    probability 1/3; p*top = p. The extension x*y joins the p*q over p <= x
    and q <= y in J(L), then top is made the identity, so every table passes
    the O(n^2) axioms and only distribution or associativity can fail.
    """
    rng = random.Random(seed)
    irr, top, down = M.join_irreducibles, M.top, M.order.down
    for _ in range(count):
        value = {}
        for p, q in itertools.combinations_with_replacement(irr, 2):
            v = M.product(p, q)
            if top not in (p, q) and rng.random() < 1 / 3:
                v = rng.choice(sorted(M.down_set(M.meet(p, q))))
            value[p, q] = value[q, p] = v
        rows = [
            [M.big_join(value[p, q] for p in irr if down[x] >> p & 1
                        for q in irr if down[y] >> q & 1) for y in range(M.size)]
            for x in range(M.size)
        ]
        for x in range(M.size):
            rows[x][top] = rows[top][x] = x
        yield rows


def irreducible_generated_instances():
    """The accepted tables of ``tables_from_irreducibles`` on five lattices."""
    instances = (m3_plus_top(), n5_plus_top(), chain_lattice(7, "meet"),
                 ideal_lattice_zn(72)[0], ideal_lattice_product(4, 4)[0])
    for seed, M in enumerate(instances):
        for rows in tables_from_irreducibles(M, 150, seed):
            try:
                yield attach_multiplication(M, rows, M.name)
            except AxiomViolation:
                continue


def x_set_instances():
    """``acceptance_corpus(120)``, M3+top, N5+top, meet chains 2..8, the
    shipped spec files, prod:72,72 and the J(L)-generated tables."""
    yield from acceptance_corpus(120)
    yield m3_plus_top()
    yield n5_plus_top()
    for n in range(2, 9):
        yield chain_lattice(n, "meet")
    for path in sorted(LATTICE_DIR.glob("*.lat")):
        yield load_path(path)[0]
    yield ideal_lattice_product(72, 72)[0]
    yield from irreducible_generated_instances()


@functools.cache
def distinct_instances():
    """Every distinct lattice of ``x_set_instances()`` (the .lat files among
    them), prod:4,9 and the subspace spec at seeds 0, 7 and 13."""
    instances = {}
    for M in (*x_set_instances(), ideal_lattice_product(4, 9)[0],
              *map(subspace_spec_lattice, (0, 7, 13))):
        instances.setdefault((M.order.down, M.table), M)
    return tuple(instances.values())


def count_x_decisions(monkeypatch, deciding_module):
    """Spy on how X-elements get decided; returns the live counts.

    ``sets`` lists the members of each set passed to ``x_element_mask`` as
    ``deciding_module`` looks it up. ``per_element`` counts calls of
    ``x_witness`` and ``is_x_element`` (wherever classify and lemmas bind
    them) and of ``residual_witness``. ``escape`` counts ``escape_witness``
    calls, the O(n) scan.
    """
    import multlat.classify as classify
    import multlat.lemmas as lemmas
    from multlat.multiplicative import MultiplicativeLattice

    counts = {"sets": [], "per_element": 0, "escape": 0}
    decide = deciding_module.x_element_mask

    def deciding(M, X):
        counts["sets"].append(X.members)
        return decide(M, X)

    def spy(key, fn):
        def counting(*args):
            counts[key] += 1
            return fn(*args)
        return counting

    monkeypatch.setattr(deciding_module, "x_element_mask", deciding)
    for module in (classify, lemmas):
        for name in ("x_witness", "is_x_element"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy("per_element", getattr(module, name)))
    ML = MultiplicativeLattice
    monkeypatch.setattr(ML, "residual_witness", spy("per_element", ML.residual_witness))
    monkeypatch.setattr(ML, "escape_witness", spy("escape", ML.escape_witness))
    return counts


def exponent_vector_oracle(n):
    """(divisors, shape) of n from its exponent vectors, sorted by divisor.

    With n = p_1^k_1 * ... * p_r^k_r, every vector (a_1, ..., a_r) with
    a_i <= k_i gives the divisor p_1^a_1 * ... * p_r^a_r and its renamed
    twin P_1^a_1 * ... * P_r^a_r, P_i the i-th prime.
    """
    exponents, rest, p = {}, n, 2
    while p * p <= rest:
        while rest % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            rest //= p
        p += 1
    if rest > 1:
        exponents[rest] = 1
    firsts = [q for q in range(2, 60) if all(q % r for r in range(2, q))][: len(exponents)]
    pairs = sorted(
        (prod(map(pow, exponents, vector)), prod(map(pow, firsts, vector)))
        for vector in itertools.product(*(range(k + 1) for k in exponents.values()))
    )
    return tuple(d for d, _ in pairs), tuple(t for _, t in pairs)


def zn_lattice_oracle(n):
    """Id(Z_n) built and validated on n's own divisors, with no shape sharing.

    The per-modulus reference for ``ideal_lattice_zn``: n's divisors from
    ``exponent_vector_oracle``, which shares no code with the library's
    factorization, the covers (d*p, d) over n's primes, then
    ``build_order``, ``validate_lattice`` and ``attach_multiplication`` on
    n's gcd table.
    """
    divs = exponent_vector_oracle(n)[0]
    index = {d: i for i, d in enumerate(divs)}
    primes = []
    for d in divs[1:]:
        if all(d % p for p in primes):
            primes.append(d)
    covers = [(index[d * p], i) for i, d in enumerate(divs) for p in primes if n % (d * p) == 0]
    table = [[index[gcd(d * e, n)] for e in divs] for d in divs]
    labels = ["(0)" if d == n else f"({d})" for d in divs]
    lattice = validate_lattice(build_order(len(divs), covers), labels)
    return attach_multiplication(lattice, table, name=f"zn:{n}")


DERIVED_CACHES = (
    "_prod_below", "_escape_sets", "_residual_movers", "_residual_values",
    "_radicals", "_prime_mask", "_max_mask", "_zdiv_mask", "_nil_mask",
)


def assert_same_derived_data(M, W):
    """M's caches equal W's, and so do the Jacobson radical and the X-element
    mask of each canonical set; M and W share one numbering."""
    for attr in DERIVED_CACHES:
        assert getattr(M, attr) == getattr(W, attr), (M.name, attr)
    assert M.jacobson() == W.jacobson(), M.name
    for (letter, X), Y in zip(canonical_sets(M).items(), canonical_sets(W).values()):
        assert X.members == Y.members, (M.name, letter)
        assert x_element_mask(M, X) == x_element_mask(W, Y), (M.name, letter)


def join_irreducibles_oracle(M):
    """J(L) from the Hasse diagram: the q covering exactly one element, in index order.

    The reference for the ``join_irreducibles`` field, which
    ``validate_lattice`` reads off its principal down-sets instead.
    """
    lower_covers = [0] * M.size
    for _, y in M.covers():
        lower_covers[y] += 1
    return tuple(q for q, count in enumerate(lower_covers) if count == 1)


def meet_irreducibles_oracle(M):
    """M(L) from the Hasse diagram: the m covered by exactly one element, in index order."""
    upper_covers = [0] * M.size
    for x, _ in M.covers():
        upper_covers[x] += 1
    return tuple(m for m, count in enumerate(upper_covers) if count == 1)


def assert_cover_splits(L):
    """``lower_split`` and ``upper_split`` against the Hasse diagram.

    The lower split lists each a outside bottom and J(L) once, as a triple
    (a, b, c) of two distinct lower covers joining to a, after the triples
    of b and c; the upper split is the dual, through M(L), top and meets.
    """
    name = getattr(L, "name", L.size)
    lower_covers = [set() for _ in range(L.size)]
    upper_covers = [set() for _ in range(L.size)]
    for x, y in L.covers():
        lower_covers[y].add(x)
        upper_covers[x].add(y)
    for split, ends, covers, bound in (
        (L.lower_split, {L.bottom, *join_irreducibles_oracle(L)}, lower_covers, L.join),
        (L.upper_split, {L.top, *meet_irreducibles_oracle(L)}, upper_covers, L.meet),
    ):
        assert len(split) % 3 == 0, name
        triples = list(zip(split[0::3], split[1::3], split[2::3]))
        assert sorted(a for a, _, _ in triples) == sorted(set(range(L.size)) - ends), name
        done = set(ends)
        for a, b, c in triples:
            assert b != c and {b, c} <= covers[a], (name, a, b, c)
            assert bound(b, c) == a, (name, a, b, c)
            assert {b, c} <= done, (name, a, b, c)
            done.add(a)


def pair_scan_tables(order):
    """The meet and join tables by one lookup per pair x <= y (as indices).

    The reference for ``validate_lattice``: the meet of x and y is the
    element whose down-set is down(x) & down(y), and dually the join. Raises
    NotALattice at the first pair in index order without one, the meet
    tested first.
    """
    n, up, down = order.size, order.up, order.down
    by_down = {d: c for c, d in enumerate(down)}
    by_up = {u: c for c, u in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            glb = by_down.get(down[x] & down[y])
            if glb is None:
                raise NotALattice(x, y, "meet")
            lub = by_up.get(up[x] & up[y])
            if lub is None:
                raise NotALattice(x, y, "join")
            meet[x][y] = meet[y][x] = glb
            join[x][y] = join[y][x] = lub
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def literal_residual_table(M):
    """(i : a) for every a and i from the definition: the greatest x with x*a <= i.

    For each a, the x with x*a <= i are collected for every i at once; their
    greatest element is the one whose down-set they form. None marks a pair
    where they have no greatest element.
    """
    by_down = {d: x for x, d in enumerate(M.order.down)}
    rows = []
    for a in range(M.size):
        fits = [0] * M.size
        for x in range(M.size):
            for i in iter_bits(M.order.up[M.product(x, a)]):
                fits[i] |= 1 << x
        rows.append(tuple(by_down.get(f) for f in fits))
    return tuple(rows)


def prime_meet_downset(M):
    """The down-set of the meet of all primes, named "pmeet", from the definition.

    The library reads this set as the nil down-set, the down-set of
    radical(bottom); this builds it from ``prime_elements`` instead.
    """
    return downset_m_closed(M, M.big_meet(M.prime_elements()), "pmeet")


def residual_characterization(M, X, i) -> bool:
    """i proper and (i : a) = i for every a outside X.

    Agrees with ``is_x_element`` on every input of a finite lattice; the
    slow per-element reference for the mask-based decision.
    """
    if i == M.top:
        return False
    return all(row[i] == i for a, row in enumerate(M._prod_below) if a not in X)


def complement_characterization(M, X, i) -> bool:
    """Whether the complement of the down-set of i is X-multiplicatively closed.

    For proper i of a finite lattice this agrees with ``is_x_element``; L14
    decides the same from the masks.
    """
    if i == M.top:
        raise ValueError("i must be proper")
    # Nonempty, since top lies outside the down-set of a proper i.
    outside = iter_bits(M.full_mask & ~M.down_mask(i))
    return x_mult_closed_witness(M, X, outside) is None


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1, by trial division."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself prime


def div_index(M, label: str) -> int:
    """Index of a labelled element, for readable assertions."""
    return M.lattice.index_of(label)


def brute_force_axioms_hold(lattice, rows) -> bool:
    """Triple-loop check of the four defining identities, no shortcuts."""
    n = lattice.size
    R = range(n)
    for a in R:
        if rows[a][lattice.top] != a or rows[a][lattice.bottom] != lattice.bottom:
            return False
        for b in R:
            if rows[a][b] != rows[b][a]:
                return False
            for c in R:
                if rows[a][rows[b][c]] != rows[rows[a][b]][c]:
                    return False
                if rows[a][lattice.join(b, c)] != lattice.join(rows[a][b], rows[a][c]):
                    return False
    return True


def first_axiom_violation(lattice, rows):
    """(axiom, witness) of the first failure, scanning in the original order.

    A plain reference for ``attach_multiplication``: entry range,
    commutativity, identity and annihilation, distributivity, associativity
    over every c, then the product-below-meet bound. None if all hold.
    """
    n = lattice.size
    R = range(n)
    for a in R:
        for b in R:
            if not 0 <= rows[a][b] < n:
                return "closure", (a, b)
    for a in R:
        for b in range(a + 1, n):
            if rows[a][b] != rows[b][a]:
                return "commutativity", (a, b)
    for a in R:
        if rows[a][lattice.top] != a:
            return "identity", (a,)
        if rows[a][lattice.bottom] != lattice.bottom:
            return "annihilation", (a,)
    for a in R:
        for b in R:
            for c in range(b + 1, n):
                if rows[a][lattice.join(b, c)] != lattice.join(rows[a][b], rows[a][c]):
                    return "distributivity", (a, b, c)
    for a in R:
        for b in R:
            for c in R:
                if rows[a][rows[b][c]] != rows[rows[a][b]][c]:
                    return "associativity", (a, b, c)
    for a in R:
        for b in range(a, n):
            if not lattice.leq(rows[a][b], lattice.meet(a, b)):
                return "product-below-meet", (a, b)
    return None


def json_oracle(report) -> str:
    """``json.dumps(..., indent=2)`` of the report made plain: the slow
    reference that ``report_to_json`` must match byte for byte."""
    return json.dumps(_plain(report), indent=2)


def _plain(obj):
    """``obj`` with each report dataclass made a dict of its fields that are not None.

    Only FlagResult.witness and FlagResult.note are ever None. Strings and
    tuples of strings are handed to ``json`` as they are, not copied.
    """
    if is_dataclass(obj):
        return {f.name: _plain(v) for f in fields(obj) if (v := getattr(obj, f.name)) is not None}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and obj and is_dataclass(obj[0]):
        return [_plain(v) for v in obj]
    return obj
