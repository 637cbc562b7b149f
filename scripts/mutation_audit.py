#!/usr/bin/env python3
"""Corrupt every multiplication-table entry of an ideal lattice, one entry
and one wrong value at a time, and count how many corruptions survive the
axiom validator.

    python scripts/mutation_audit.py           # zn:12, the stock audit
    python scripts/mutation_audit.py --zn 36
"""

import argparse
import sys
from collections import Counter

from multlat import AxiomViolation, attach_multiplication, ideal_lattice_zn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zn", type=int, default=12, help="modulus (default 12)")
    args = parser.parse_args()
    if args.zn < 2:
        parser.error(f"--zn must be at least 2, got {args.zn}")

    M, _ = ideal_lattice_zn(args.zn)
    n = M.size
    rejected_by = Counter()
    accepted = []
    total = 0
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v == M.table[i][j]:
                    continue
                total += 1
                rows = [list(r) for r in M.table]
                rows[i][j] = v
                try:
                    attach_multiplication(M, rows)
                except AxiomViolation as exc:
                    rejected_by[exc.axiom] += 1
                else:
                    accepted.append((M.label(i), M.label(j), M.label(v)))
    print(f"zn:{args.zn}: {n}x{n} table, {total} single-entry mutants")
    for axiom, k in rejected_by.most_common():
        print(f"  rejected by {axiom}: {k}")
    print(f"  still valid multiplicative lattices: {len(accepted)}")
    for i, j, v in accepted:
        print(f"    {i}*{j} -> {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
