#!/usr/bin/env python3
"""Record ``golden.json``: exit code and stdout sha256 of every op.

    python3 perfbench/record_golden.py

Run from the repository root, at the commit whose outputs are the
reference. Ops run with ``workloads.GOLDEN_SEED``, each with cold caches.
Spec-file ops also record the digest of their numbering-free outcomes,
which is what other seeds are checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    caches = workloads.find_lru_caches()
    golden = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build_ops(workload, workloads.GOLDEN_SEED, workloads.BENCH_DIR / "out")
        records = {}
        for op in ops:
            workloads.clear_caches(caches)
            code, out = op.run()
            records[op.key] = workloads.outcome(op, code, out)
        golden[workload] = dict(sorted(records.items()))
        print(f"{workload}: {len(records)} ops", file=sys.stderr)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
