"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import multlat  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from multlat.multiplicative import AxiomViolation, meet_mult  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_lru_cache_is_found_and_emptied():
    caches = workloads.find_lru_caches()
    names = {c.__wrapped__.__name__ for c in caches}
    assert {"ideal_lattice_zn", "ideal_lattice_product", "chain_lattice", "kite_lattice"} <= names
    multlat.ideal_lattice_zn(12)
    multlat.ideal_lattice_product(2, 3)
    multlat.chain_lattice(4, "meet")
    multlat.kite_lattice()
    assert all(c.cache_info().currsize for c in caches)
    workloads.clear_caches(caches)
    assert all(c.cache_info().currsize == 0 for c in caches)


@pytest.mark.parametrize("seed", [0, 7])
def test_subspace_spec_is_valid_and_not_distributive(tmp_path, seed, capsys):
    path = tmp_path / "subspaces.lat"
    path.write_text(workloads.subspace_spec(seed))
    assert multlat.cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok: sub(F2^4)+top is a multiplicative lattice (68 elements")
    M, _ = multlat.load_path(path)
    with pytest.raises(AxiomViolation) as exc:
        meet_mult(M.lattice)
    assert exc.value.axiom == "distributivity"


def test_sweep_ops_are_the_acceptance_corpus():
    names = [name for name, _ in workloads.sweep_recipes()]
    assert names == [M.name for M in multlat.acceptance_corpus(zn_hi=1000)]
    assert len(names) == 1043


def test_spec_ops_match_golden_under_another_numbering(tmp_path):
    golden = workloads.load_golden()["suite-large"]
    caches = workloads.find_lru_caches()
    for seed in (0, 11):
        ops = [op for op in workloads.build_ops("suite-large", seed, tmp_path)
               if workloads.SPEC_TOKEN in op.key]
        assert len(ops) == 2
        for op in ops:
            workloads.clear_caches(caches)
            code, out = op.run()
            assert workloads.check(golden, op, seed, code, out) is None
            tampered = out.replace("pass", "FAIL", 1).replace('"holds": true', '"holds": false', 1)
            assert workloads.check(golden, op, seed, code, tampered) is not None
        # A witness depends on the numbering: checked under the golden seed only.
        (classify,) = [op for op in ops if op.key.startswith("classify")]
        workloads.clear_caches(caches)
        code, out = classify.run()
        data = json.loads(out)
        witness = next(f["witness"] for row in data["rows"] for f in row["flags"].values()
                       if f.get("witness"))
        witness[-1] = next(e for e in data["elements"] if e != witness[-1])
        moved = json.dumps(data, indent=2) + "\n"
        assert moved != out
        assert (workloads.check(golden, classify, seed, code, moved) is None) == (seed != 0)


def test_tracer_restores_every_binding_and_reports_the_layers(tmp_path):
    mods = workloads.package_modules()
    before = [dict(vars(m)) for m in mods]
    classes = [multlat.MultiplicativeLattice, multlat.MClosedSet,
               multlat.ZnIdealModel, multlat.ProductRingModel]
    class_before = [dict(vars(c)) for c in classes]
    finders_before = dict(multlat.search._FINDERS)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert multlat.cli.lemma_suite is multlat.lemmas.lemma_suite is not before[0]["lemma_suite"]
        for op in workloads.build_ops("cross-validate", 0, tmp_path)[:3]:
            with tracer.op(op.key):
                op.run()
    finally:
        tracer.uninstall()

    assert [dict(vars(m)) for m in mods] == before
    assert [dict(vars(c)) for c in classes] == class_before
    assert multlat.search._FINDERS == finders_before
    metrics = tracing.pass_metrics(tracer.ops, 1.0)
    assert metrics["ringbridge.oracle.calls"][0] > 0
    assert metrics["cli.self.s"][0] > 0
    assert metrics["multiplicative.axiom_tuples"][0] > 0


def test_axiom_tuples_counts_the_full_scan():
    n = 3
    full = n * n + 3 + 2 * n + n * 3 + n ** 3 + 6
    assert tracing.axiom_tuples(n) == full


def test_metric_names_match_benchmark_json():
    assert set(run.end_to_end(0.1, [0.5, 1.0], 10.0)) == {
        m["name"] for m in BENCHMARK["end_to_end"]
    }
    per_layer = set(tracing.pass_metrics([], 1.0)) | {"trace.overhead_ratio"}
    assert per_layer == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "suite-large",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "multlat not found" in proc.stderr
