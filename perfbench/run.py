#!/usr/bin/env python3
"""The multlat benchmark.

    python3 perfbench/run.py --workload suite-large --seed 1 --seconds 40 --trace 0

Run it from the repository root: it imports ``multlat`` from ``./src``.
It runs whole passes over the workload's ops for ``--seconds`` (at least
one pass; none is started that would end later), checks every op's output
against ``golden.json``, and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it holds the run's
metadata: Python version, git sha, ``nproc``, line count of ``src/``, op
counts and, where at least ten ops lie beyond it, the p90 op latency.

Workloads (see ``workloads.py`` for the exact op lists):

- ``suite-large``: ``verify`` and ``classify --json`` on zn:55440, prod:72,72
  and a generated 68-element non-distributive spec file. Few, large
  lattices: the O(n^3) layers (axioms, ``_prod_below``, the L-checks).
- ``cross-validate``: ``cross-validate`` on zn:2..100 and the 36 stock
  product pairs. Small lattices; the element-level ring oracle.
- ``corpus-sweep``: ``lemma_suite`` over ``acceptance_corpus(zn_hi=1000)``
  (1043 lattices), then ``search`` over zn:2..1000 and chain:2..8 for each
  of the four properties. Many small lattices: per-instance construction.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes:

- ``setup_s``: median time for a fresh interpreter to import ``multlat``
  and build the CLI parser, sampled a few times after every pass.
- ``ops_per_s``: ops per pass divided by the sum of each op's latency.
- ``op_p50_s``: median op latency.
- ``peak_rss_mb``: ``ru_maxrss`` of this process after its first pass,
  which runs the ops in key order; later passes use the seed's order.

An op's latency is its fastest time over the run's passes, because other
tenants of a shared machine only ever add time. Over six minutes of
cross-validate passes on a shared 2-core VM, the quartile spread of
``ops_per_s`` between 30 s windows was 0.44 from median op times and 0.22
from fastest op times (0.47 and 0.18 between 60 s windows).

With ``--trace 1`` the run alternates untraced and traced passes and the
metrics are the per-layer ones of ``tracing.pass_metrics``, medians over
the traced passes, plus ``trace.overhead_ratio`` (median traced pass time
over median untraced pass time). The op-level spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_SAMPLES_PER_PASS = 4
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import multlat.cli\n"
    "multlat.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_times(src: Path, count: int) -> list[float]:
    """Import-and-parser times of ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_sha(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def p90_or_none(latencies) -> float | None:
    """p90 when at least ten ops lie beyond it, else None."""
    n = len(latencies)
    k = math.ceil(0.9 * n)  # ops at or below p90
    if n - k < 10:
        return None
    return sorted(latencies)[k - 1]


def end_to_end(setup_s: float, best: list[float], peak_rss_mb: float) -> dict:
    """End-to-end metrics from each op's fastest latency."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(best), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run_pass(ops, caches, golden, seed, latencies, failures, tracer=None) -> float:
    """One pass over ``ops``; records latencies per op key and failures.

    Returns the pass wall time.
    """
    import workloads

    clock = time.perf_counter
    t_pass = clock()
    for op in ops:
        workloads.clear_caches(caches)
        try:
            t0 = clock()
            if tracer is None:
                code, out = op.run()
            else:
                with tracer.op(op.key):
                    code, out = op.run()
            latencies.setdefault(op.key, []).append(clock() - t0)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            continue
        why = workloads.check(golden, op, seed, code, out)
        if why is not None:
            failures.append(why)
    workloads.clear_caches(caches)
    return clock() - t_pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="multlat benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "multlat" / "__init__.py").is_file():
        print(f"error: {src}/multlat not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = workloads.BENCH_DIR / "out"
    ops = workloads.build_ops(args.workload, args.seed, out_dir)
    golden = workloads.load_golden()[args.workload]
    caches = workloads.find_lru_caches()  # before tracing rebinds the names
    latencies: dict[str, list[float]] = {}
    failures: list[str] = []
    pass_walls: list[float] = []
    traced_walls: list[float] = []
    traced_metrics: list[dict] = []
    trace_log: list[dict] = []
    setup_samples: list[float] = []
    peak_rss_mb = None
    tracer = tracing.Tracer() if args.trace else None

    # The first pass runs in key order, so the peak RSS read after it does
    # not depend on the seed's op order (it moved by 6% with it).
    order = sorted(ops, key=lambda op: op.key)
    gc.collect()
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        pass_walls.append(run_pass(order, caches, golden, args.seed, latencies, failures))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            order = ops
        gc.collect()
        if tracer is None:
            # Spread over the run, like the passes, so both see the same machine.
            setup_samples.extend(setup_times(src, SETUP_SAMPLES_PER_PASS))
        else:
            tracer.ops = []
            tracer.install()
            try:
                wall = run_pass(order, caches, golden, args.seed, {}, failures, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            traced_metrics.append(tracing.pass_metrics(tracer.ops, wall))
            trace_log.append({"pass_wall_s": wall, "ops": tracer.ops})
            gc.collect()
        now = time.perf_counter()
        if now - start + (now - t_round) > args.seconds:
            break

    ops_per_pass = len(ops)
    attempted = ops_per_pass * (len(pass_walls) + len(traced_walls))
    best = [min(v) for v in latencies.values()]
    if tracer is None:
        metrics = end_to_end(statistics.median(setup_samples), best, peak_rss_mb)
    else:
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in traced_metrics),
                   "unit": unit}
            for name, (_, unit) in traced_metrics[0].items()
        }
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(pass_walls),
            "unit": "ratio",
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(trace_log), encoding="utf-8")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(src),
        "ops_per_pass": ops_per_pass,
        "untraced_passes": len(pass_walls),
        "traced_passes": len(traced_walls),
        "op_p90_s": p90_or_none(best),
        "failures": failures[:10],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
