"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Everything asserted here is exact; the two timed criteria
carry their stated budgets (1 s for the kite classification, 60 s for the
full corpus sweep).
"""

import contextlib
import itertools
import time

from multlat import (
    AxiomViolation,
    attach_multiplication,
    cross_validate_product,
    cross_validate_zn,
    classify_lattice,
    ideal_lattice_zn,
    is_j_element,
    is_x_element,
    is_x_mult_closed,
    lemma_suite,
    load_path,
    make_m_closed,
    nil_downset,
    x_elements,
    zero_divisor_set,
)
from multlat.classify import NotMClosed
from multlat.cli import main
from multlat.corpus import PRODUCT_MODULI, acceptance_corpus, chain_lattice
from conftest import (
    brute_force_axioms_hold, div_index, is_prime_power, m3_plus_top, n5_plus_top, prime_meet_downset,
)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def test_c01_kite_example(lattice_dir):
    with criterion(1, "kite lattice: proper elements are exactly the X-elements; non-reduced"):
        t0 = time.perf_counter()
        M, named = load_path(lattice_dir / "k.lat")
        X = named["proper"]
        assert X.members == frozenset(range(5))
        assert x_elements(M, X) == frozenset(M.proper_elements())
        assert len(M.proper_elements()) == 5
        report = classify_lattice(M, (X,))
        assert not report.summary.reduced
        assert set(report.summary.nilpotents) == {"0", "a", "b", "c", "d"}
        assert time.perf_counter() - t0 < 1.0


def test_c02_zn12_nil_witnesses(capsys):
    with criterion(2, "classify zn:12 --x nil marks (0) and (6) as non-X-elements with witnesses"):
        code = main(["classify", "zn:12", "--x", "nil"])
        out = capsys.readouterr().out
        assert code == 0
        rows = {ln.strip().split(":")[0]: ln for ln in out.splitlines()
                if ln.strip().startswith("(")}
        for element in ("(0)", "(6)"):
            assert "x:nil=no [witness" in rows[element]
        # and the witnesses are genuine violating pairs
        M, _ = ideal_lattice_zn(12)
        X = nil_downset(M)
        for element in ("(0)", "(6)"):
            assert not is_x_element(M, X, div_index(M, element))


def test_c03_zn15_join_escape(capsys):
    with criterion(3, "zn:15 zero-divisor set: (3), (5) are X-elements and the corpus search finds the join escape"):
        M, _ = ideal_lattice_zn(15)
        X = zero_divisor_set(M)
        xels = {M.label(i) for i in x_elements(M, X)}
        assert {"(3)", "(5)"} <= xels
        assert xels == {"(0)", "(3)", "(5)"}
        i3, i5 = div_index(M, "(3)"), div_index(M, "(5)")
        assert M.join(i3, i5) == M.top
        code = main(["search", "--corpus", "zn:2..200", "--find", "join-of-x-not-x"])
        out = capsys.readouterr().out
        assert code == 0
        z15_lines = [ln for ln in out.splitlines() if ln.startswith("zn:15:")]
        assert len(z15_lines) == 1
        assert "(3)" in z15_lines[0] and "(5)" in z15_lines[0]


def test_c04_x_mult_closed_examples(kite, z12):
    with criterion(4, "X-mult-closed vs M-closed separations on the kite and zn:12"):
        X = make_m_closed(kite, set(range(5)), "proper")
        A = {kite.top, kite.lattice.index_of("c"), kite.lattice.index_of("d")}
        assert is_x_mult_closed(kite, X, A)
        try:
            make_m_closed(kite, A)
            raise AssertionError("A should not be M-closed")
        except NotMClosed:
            pass
        c, d = kite.lattice.index_of("c"), kite.lattice.index_of("d")
        assert kite.product(c, d) == kite.bottom and kite.bottom not in A
        Xn = nil_downset(z12)
        assert not is_x_mult_closed(z12, Xn, {z12.top})


def test_c05_full_corpus_suite():
    with criterion(5, "property suite L1..L16 passes on the full corpus in under 60 s"):
        t0 = time.perf_counter()
        count = 0
        for M in acceptance_corpus():
            report = lemma_suite(M)
            assert report.passed, f"{M.name}:\n" + "\n".join(
                c.render() for c in report.failures()
            )
            count += 1
        elapsed = time.perf_counter() - t0
        assert count == 199 + 36 + 7 + 1
        print(f"    ({count} instances in {elapsed:.2f} s)", end=" ")
        assert elapsed < 60.0


def test_c06_existence_equivalence():
    with criterion(6, "X-element existence = prime meet prime = unique minimal prime, corpus-wide"):
        for M in acceptance_corpus():
            X = prime_meet_downset(M)
            exists = bool(x_elements(M, X))
            j = M.big_meet(M.prime_elements())
            assert exists == M.is_prime(j) == (len(M.min_primes()) == 1), M.name
        for n in range(2, 201):
            M, _ = ideal_lattice_zn(n)
            exists = bool(x_elements(M, prime_meet_downset(M)))
            assert exists == is_prime_power(n), M.name
        # in particular: every prime power has X-elements, 12 and 15 have none
        for n in (12, 15):
            M, _ = ideal_lattice_zn(n)
            assert not x_elements(M, prime_meet_downset(M))


def test_c07_cross_validation():
    with criterion(7, "ring vs lattice r/n/J agree: zn:2..100 and all stock products"):
        for n in range(2, 101):
            cross_validate_zn(n)  # raises on mismatch
        for m in PRODUCT_MODULI:
            for n in PRODUCT_MODULI:
                cross_validate_product(m, n)


def test_c08_j_elements_and_locality():
    with criterion(8, "prime powers: all proper elements are J-elements; other moduli: some are not"):
        for n in range(2, 129):
            if not is_prime_power(n):
                continue
            M, _ = ideal_lattice_zn(n)
            assert all(is_j_element(M, i) for i in M.proper_elements()), M.name
        for n in range(2, 101):
            if is_prime_power(n):
                continue
            M, _ = ideal_lattice_zn(n)
            assert not all(is_j_element(M, i) for i in M.proper_elements()), M.name


def test_c09_radical_oracle():
    # The corpus is all distributive but for K; M3+top, N5+top and the meet
    # chains put the literal formulas on lattices outside the ring family.
    outside = [m3_plus_top(), n5_plus_top(), *(chain_lattice(n, "meet") for n in range(2, 9))]
    with criterion(9, "power-formula radical equals minimal-prime-meet radical, corpus-wide"):
        for M in itertools.chain(acceptance_corpus(), outside):
            primes = [p for p in M.proper_elements() if _scan_prime(M, p)]
            for a in range(M.size):
                by_powers = M.big_join(
                    x for x in range(M.size) if _some_power_below(M, x, a)
                )
                over = [p for p in primes if M.leq(a, p)]
                minimal = [p for p in over if not any(q != p and M.leq(q, p) for q in over)]
                by_primes = M.big_meet(minimal)
                assert by_powers == by_primes == M.radical(a), (M.name, M.label(a))
        n5 = outside[1]
        assert n5.radical(n5.index_of("a")) == n5.index_of("b")


def _scan_prime(M, p):
    return all(
        not M.leq(M.product(a, b), p) or M.leq(a, p) or M.leq(b, p)
        for a in range(M.size)
        for b in range(M.size)
    )


def _some_power_below(M, x, a):
    seen = set()
    cur = x
    while cur not in seen:
        if M.leq(cur, a):
            return True
        seen.add(cur)
        cur = M.product(cur, x)
    return False


# Every one of the 36*5 single-entry corruptions of the zn:12 table breaks an
# axiom (count computed once with the independent checker below and frozen).
ZN12_VALID_MUTANTS = 0


def test_c10_mutation_audit(z12):
    with criterion(10, "all 180 single-entry corruptions of the zn:12 table are rejected"):
        lattice = z12.lattice
        n = z12.size
        accepted = []
        detected = 0
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == z12.table[i][j]:
                        continue
                    rows = [list(r) for r in z12.table]
                    rows[i][j] = v
                    valid_by_scan = brute_force_axioms_hold(lattice, rows)
                    try:
                        mutant = attach_multiplication(lattice, rows)
                    except AxiomViolation:
                        assert not valid_by_scan, (i, j, v)
                        detected += 1
                        continue
                    # accepted: must be genuinely valid, with the residual and
                    # radical cross-assertions still coherent
                    assert valid_by_scan, (i, j, v)
                    for a in range(n):
                        for b in range(n):
                            r = mutant.residual(a, b)
                            assert mutant.leq(mutant.product(r, b), a)
                        mutant.radical(a)  # raises RadicalMismatch if broken
                    accepted.append((i, j, v))
        assert detected + len(accepted) == 180
        assert len(accepted) == ZN12_VALID_MUTANTS
