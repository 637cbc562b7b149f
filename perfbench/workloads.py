"""The three benchmark workloads: their ops, their inputs and their checks.

An *op* is one ``multlat.cli.main(argv)`` call with stdout captured, or one
``lemma_suite`` call in the corpus sweep (lattice construction included,
since every instance is built cold). Every op looks the library up through
module attributes at call time, so the wrappers that ``tracing`` installs
see it.

Before each op every ``functools.lru_cache`` in the package is cleared and
no ``MultiplicativeLattice`` survives from an earlier op, so each op pays
the full cost a fresh command would pay.

The seed shuffles the order of ops and the numbering of elements in the
generated spec file. Outputs are checked against ``golden.json``, recorded
with ``GOLDEN_SEED``: exit code and sha256 of stdout for every op whose
output does not depend on element numbering, and for spec-file ops with
another seed a digest of the outcomes that do not (exit code, per-check
status, element classes).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import multlat
import multlat.cli
import multlat.corpus
import multlat.lemmas
import multlat.ringbridge

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_SEED = 0

SPEC_NAME = "sub(F2^4)+top"
SPEC_TOKEN = "@subspaces"  # stands for the generated spec path in op keys

SEARCH_PROPERTIES = (
    "join-of-x-not-x",
    "x-exists-iff-min-prime-unique",
    "n-strictly-inside-r",
    "n-strictly-inside-j",
)

WORKLOADS = ("suite-large", "cross-validate", "corpus-sweep")


# -- package introspection -------------------------------------------------------


def package_modules() -> list:
    """``multlat`` and every submodule, imported."""
    mods = [multlat]
    for info in pkgutil.iter_modules(multlat.__path__, multlat.__name__ + "."):
        if info.name.endswith(".__main__"):
            continue
        mods.append(importlib.import_module(info.name))
    return mods


def find_lru_caches() -> list:
    """Every ``functools.lru_cache`` wrapper reachable from a package module."""
    found: dict[int, object] = {}
    for mod in package_modules():
        for obj in list(vars(mod).values()):
            candidates = [obj]
            if isinstance(obj, type) and obj.__module__.startswith(multlat.__name__):
                candidates.extend(vars(obj).values())
            for c in candidates:
                if callable(getattr(c, "cache_clear", None)) and callable(
                    getattr(c, "cache_info", None)
                ):
                    found.setdefault(id(c), c)
    return list(found.values())


# -- the non-distributive instance -------------------------------------------------


def f2_4_subspaces() -> list[int]:
    """Subspaces of F_2^4, each as a 16-bit mask of its member vectors."""
    seen = {1}  # {0}: only the zero vector
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for space in frontier:
            for v in range(16):
                if v in space:
                    continue
                grown = space | {u ^ v for u in space}
                mask = sum(1 << u for u in grown)
                if mask not in seen:
                    seen.add(mask)
                    nxt.append(grown)
        frontier = nxt
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def subspace_spec(seed: int) -> str:
    """Spec text: subspaces of F_2^4 plus a new top, trivial multiplication.

    The lattice is modular but not distributive (it contains M_3), and the
    added top is join-irreducible, so the trivial multiplication is legal.
    It is written in table form. Labels do not depend on the seed; the
    seed permutes the declaration order, which is the element numbering.
    """
    spaces = f2_4_subspaces()
    label = {m: f"s{m:04x}" for m in spaces}
    top = "T"
    covers = [
        (label[a], label[b])
        for a in spaces
        for b in spaces
        if a & ~b == 0 and b.bit_count() == 2 * a.bit_count()
    ]
    covers.append((label[0xFFFF], top))
    labels = [label[m] for m in spaces] + [top]
    bottom = label[1]
    rng = random.Random(seed)
    rng.shuffle(labels)
    rng.shuffle(covers)
    lines = [f"# Subspaces of F_2^4 with a new top; element order from seed {seed}.",
             f"name: {SPEC_NAME}", f"elements: {' '.join(labels)}"]
    lines.extend(f"order: {a} < {b}" for a, b in covers)
    lines.append("multiplication: table")
    for x in labels:
        row = (x if y == top else y if x == top else bottom for y in labels)
        lines.append(f"row {x}: {' '.join(row)}")
    return "\n".join(lines) + "\n"


# -- ops ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    key: str  # stable across seeds; the golden-output key
    run: Callable[[], tuple[int, str]]  # -> (exit code, stdout)
    digest: Callable[[str], str] | None = None  # numbering-free outcome, if needed


def _cli_op(argv: list[str], key: str | None = None, digest=None) -> Op:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = multlat.cli.main(argv)
        return code, out.getvalue()

    return Op(key or " ".join(argv), run, digest)


def _suite_op(name: str, build: Callable) -> Op:
    def run() -> tuple[int, str]:
        report = multlat.lemmas.lemma_suite(build())
        return (0 if report.passed else 1), report.render() + "\n"

    return Op(f"suite {name}", run)


def _verify_digest(out: str) -> str:
    # "L7 [zdiv] pass  witness: ...  (info)": keep check, scope and status.
    return "\n".join(line.strip().split("  ")[0] for line in out.splitlines())


def _classify_digest(out: str) -> str:
    # Everything but the witnesses, with element lists in label order.
    data = json.loads(out)
    summary = {k: sorted(v) if isinstance(v, list) else v for k, v in data["summary"].items()}
    rows = sorted(
        (row["element"], sorted((n, f["holds"], f.get("note")) for n, f in row["flags"].items()))
        for row in data["rows"]
    )
    return json.dumps([data["name"], sorted(data["elements"]), summary, rows])


def sweep_recipes() -> list[tuple[str, Callable]]:
    """``acceptance_corpus(zn_hi=1000)`` as (name, cold constructor) pairs."""
    rb, corpus = multlat.ringbridge, multlat.corpus
    out: list[tuple[str, Callable]] = [
        (f"zn:{n}", lambda n=n: rb.ideal_lattice_zn(n)[0]) for n in range(2, 1001)
    ]
    out.extend(
        (f"prod:{m},{n}", lambda m=m, n=n: rb.ideal_lattice_product(m, n)[0])
        for m in corpus.PRODUCT_MODULI
        for n in corpus.PRODUCT_MODULI
    )
    out.extend(
        (f"chain-trivial:{n}", lambda n=n: corpus.chain_lattice(n, "trivial"))
        for n in range(2, 9)
    )
    out.append(("K", lambda: corpus.kite_lattice()))
    return out


def cross_validate_targets() -> list[str]:
    """The C07 targets: zn:2..100 and every pair of stock product moduli."""
    moduli = multlat.corpus.PRODUCT_MODULI
    return [f"zn:{n}" for n in range(2, 101)] + [
        f"prod:{m},{n}" for m in moduli for n in moduli
    ]


def build_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """The ops of one pass, in the seed's order. Writes the spec file if needed."""
    if workload == "suite-large":
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = out_dir / f"subspaces-seed{seed}.lat"
        spec.write_text(subspace_spec(seed), encoding="utf-8")
        ops = [_cli_op(["verify", t]) for t in ("zn:55440", "prod:72,72")]
        ops += [_cli_op(["classify", t, "--json"]) for t in ("zn:55440", "prod:72,72")]
        ops.append(_cli_op(["verify", str(spec)], f"verify {SPEC_TOKEN}", _verify_digest))
        ops.append(_cli_op(["classify", str(spec), "--json"],
                           f"classify {SPEC_TOKEN} --json", _classify_digest))
    elif workload == "cross-validate":
        ops = [_cli_op(["cross-validate", t]) for t in cross_validate_targets()]
    elif workload == "corpus-sweep":
        ops = [_suite_op(name, build) for name, build in sweep_recipes()]
        ops.extend(
            _cli_op(["search", "--corpus", "zn:2..1000", "--corpus", "chain:2..8", "--find", p])
            for p in SEARCH_PROPERTIES
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops


# -- outcomes ------------------------------------------------------------------------


def outcome(op: Op, code: int, out: str) -> dict:
    rec = {"code": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    if op.digest is not None:
        rec["digest"] = hashlib.sha256(op.digest(out).encode()).hexdigest()
    return rec


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check(golden: dict, op: Op, seed: int, code: int, out: str) -> str | None:
    """None when the op's output matches the record, else why it does not."""
    want = golden.get(op.key)
    if want is None:
        return f"{op.key}: no golden record"
    got = outcome(op, code, out)
    if got["code"] != want["code"]:
        return f"{op.key}: exit code {got['code']}, expected {want['code']}"
    field = "digest" if op.digest is not None and seed != GOLDEN_SEED else "sha256"
    if got[field] != want[field]:
        return f"{op.key}: output {field} differs from the golden record"
    return None


def clear_caches(caches: list) -> None:
    for c in caches:
        c.cache_clear()
