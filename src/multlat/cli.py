"""Command-line surface.

A target is a spec file path or a corpus spec naming exactly one instance:
``zn:<n>`` for the ideal lattice of Z_n, ``prod:<m>,<n>`` for that of
Z_m x Z_n, or ``chain:<n>`` for the meet-multiplied chain. Exit codes: 0 for
pass, 1 for a property failure (witnesses printed), 2 for input or axiom errors.
``validate`` is the exception by design: there an axiom violation is the
property under test, so it exits 1 and only unreadable input exits 2.
"""

from __future__ import annotations

import argparse
import sys

from .classify import MClosedSet, NotMClosed, NotXMultClosed, canonical_sets, downset_m_closed
from .corpus import CORPUS_KINDS, Instance, parse_corpus_spec
from .dot import hasse_dot
from .lemmas import lemma_suite
from .multiplicative import (
    AxiomViolation,
    DegenerateLattice,
    MultiplicativeLattice,
    TopJoinReducible,
)
from .order import CycleError, NotALattice
from .report import classify_lattice, render_report, report_to_json
from .ringbridge import CrossValidationMismatch, cross_validate
from .search import PROPERTIES, search_corpus
from .specfile import load_path

_STRUCTURE_ERRORS = (
    CycleError,
    NotALattice,
    AxiomViolation,
    TopJoinReducible,
    NotMClosed,
    NotXMultClosed,
    DegenerateLattice,
)


def _one_instance(spec: str) -> Instance:
    """The single (lattice, ring model) pair a corpus spec names; a range is rejected unbuilt."""
    parsed = parse_corpus_spec(spec)
    if len(parsed) != 1:
        raise ValueError(f"bad target {spec!r}: expected a single instance, not a range")
    (instance,) = parsed
    return instance


def resolve_target(target: str) -> tuple[MultiplicativeLattice, dict[str, MClosedSet]]:
    if target.partition(":")[0] in CORPUS_KINDS:
        return _one_instance(target)[0], {}
    return load_path(target)


def resolve_xset(
    M: MultiplicativeLattice, named: dict[str, MClosedSet], arg: str
) -> MClosedSet:
    """A declared set, ``downset:<label>``, or a canonical set by its default name."""
    if arg in named:
        return named[arg]
    if arg.startswith("downset:"):
        label = arg.split(":", 1)[1]
        try:
            return downset_m_closed(M, M.index_of(label))
        except ValueError:
            raise ValueError(f"unknown element label {label!r}") from None
    canonical = {X.name: X for X in canonical_sets(M).values()}
    if arg in canonical:
        return canonical[arg]
    raise ValueError(
        f"unknown set {arg!r}: expected a declared set name, {', '.join(canonical)} "
        f"or downset:<label>"
    )


def cmd_validate(args) -> int:
    try:
        M, named = load_path(args.file)
    except _STRUCTURE_ERRORS as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"ok: {M.name} is a multiplicative lattice "
          f"({M.size} elements, {len(named)} named sets)")
    return 0


def cmd_classify(args) -> int:
    M, named = resolve_target(args.target)
    xsets = tuple(resolve_xset(M, named, a) for a in args.x)
    report = classify_lattice(M, xsets)
    print(report_to_json(report) if args.json else render_report(report))
    return 0


def cmd_verify(args) -> int:
    M, named = resolve_target(args.target)
    xsets = list(named.values())
    xsets.extend(resolve_xset(M, named, a) for a in args.x)
    report = lemma_suite(M, tuple(xsets))
    print(report.render())
    return 0 if report.passed else 1


def cmd_cross_validate(args) -> int:
    M, model = _one_instance(args.target)
    if model is None:
        raise ValueError("cross-validate takes zn:<n> or prod:<m>,<n>")
    try:
        report = cross_validate(M, model)
    except CrossValidationMismatch as exc:
        print(f"MISMATCH: {exc}")
        return 1
    print(report.render())
    return 0


def cmd_search(args) -> int:
    corpus = args.corpus or ["zn:2..200"]
    parsed = [parse_corpus_spec(spec) for spec in corpus]  # every spec, before any build
    hits = search_corpus((M for spec in parsed for M, _ in spec), args.find)
    for hit in hits:
        print(hit.render())
    if not hits:
        print(f"no instance with {args.find} in {' '.join(corpus)}")
        return 1
    print(f"{len(hits)} instance(s) found")
    return 0


def cmd_dot(args) -> int:
    M, named = resolve_target(args.target)
    xsets = tuple(resolve_xset(M, named, a) for a in args.x)
    sys.stdout.write(hasse_dot(M, xsets))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multlat",
        description="finite multiplicative lattices: validation, element "
        "classification, executable property checks, ring cross-validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the lattice and multiplication axioms")
    p.add_argument("file")

    p = sub.add_parser("classify", help="per-element classification report")
    p.add_argument("target", help="spec file, zn:<n>, prod:<m>,<n> or chain:<n>")
    p.add_argument("--x", action="append", default=[], metavar="SET",
                   help="extra M-closed set: declared name, zdiv, nil, jrad or downset:<label>")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="run the full property suite L1..L16")
    p.add_argument("target")
    p.add_argument("--x", action="append", default=[], metavar="SET")

    p = sub.add_parser("cross-validate", help="ring-side vs lattice-side r/n/J classification")
    p.add_argument("target", help="zn:<n> or prod:<m>,<n>")

    p = sub.add_parser("search", help="scan a corpus for instances exhibiting a property")
    p.add_argument("--corpus", action="append", default=None, metavar="SPEC",
                   help="zn:A..B, zn:N, prod:M,N or chain:A..B (repeatable; default zn:2..200)")
    p.add_argument("--find", required=True, choices=PROPERTIES)

    p = sub.add_parser("dot", help="Hasse diagram in DOT format")
    p.add_argument("target")
    p.add_argument("--x", action="append", default=[], metavar="SET",
                   help="mark the X-elements of this set")
    return parser


_PARSER = _build_parser()  # built once, at import; it holds no handlers


def build_parser() -> argparse.ArgumentParser:
    return _PARSER


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:  # the handler by name at call time, so a rebound ``cmd_*`` is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError) as exc:  # ParseError and _STRUCTURE_ERRORS subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
