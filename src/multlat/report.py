"""Per-element classification reports with machine and text renderings.

The machine form is JSON whose keys follow the dataclass field order, with
absent witnesses and notes left out; parsing it back yields a report equal to
the original (the dump of the parse is byte-identical). ``report_to_json``
writes the same bytes as ``json.dumps(..., indent=2)`` of the report's
fields, from one recursive writer: with ``indent`` set, CPython's json
module runs its pure-Python encoder, and a report repeats a few distinct
flags over many rows, so the writer writes each distinct FlagResult once per
depth and escapes strings with the C function ``json.dumps`` itself uses.
Every negative flag carries either a violating pair (re-checkable against
the definitions) or the note "improper" for the top element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

from .classify import MClosedSet, canonical_sets, distinct_sets, x_witness
from .multiplicative import DegenerateLattice, MultiplicativeLattice
from .order import iter_bits


@dataclass(frozen=True)
class FlagResult:
    holds: bool
    witness: tuple[str, ...] | None = None
    note: str | None = None

    def render(self) -> str:
        if self.holds:
            return "yes"
        if self.note:
            return f"no [{self.note}]"
        if self.witness:
            return f"no [witness {', '.join(self.witness)}]"
        return "no"


@dataclass(frozen=True)
class ElementReport:
    element: str
    flags: dict[str, FlagResult]


@dataclass(frozen=True)
class LatticeSummary:
    maximal: tuple[str, ...]
    jacobson: str
    min_primes: tuple[str, ...]
    nilpotents: tuple[str, ...]
    zero_divisors: tuple[str, ...]
    radical_of_bottom: str
    local: bool
    domain: bool
    reduced: bool


@dataclass(frozen=True)
class ClassificationReport:
    name: str
    elements: tuple[str, ...]
    summary: LatticeSummary
    xsets: dict[str, tuple[str, ...]]
    rows: tuple[ElementReport, ...]


def classify_lattice(
    M: MultiplicativeLattice, xsets: tuple[MClosedSet, ...] = ()
) -> ClassificationReport:
    if M.size == 1:
        raise DegenerateLattice("classification needs a proper element")

    def labels_of(mask: int) -> tuple[str, ...]:
        return tuple(map(M.label, iter_bits(mask)))

    canonical = _canonical_flags(M)
    summary = LatticeSummary(
        maximal=labels_of(M._max_mask),
        jacobson=M.label(M.jacobson()),
        min_primes=labels_of(M.minimal_members(M._prime_mask)),
        nilpotents=labels_of(M._nil_mask),
        zero_divisors=labels_of(M._zdiv_mask),
        radical_of_bottom=M.label(M.radical(M.bottom)),
        local=M.is_local(),
        domain=M.is_domain(),
        reduced=M.is_reduced(),
    )
    # x_witness reads only the mask, so each distinct set is scanned once
    # (on a ring lattice nil = jrad); top is improper and never scanned.
    proper = M.proper_elements()
    witnesses = {
        X.mask: {i: x_witness(M, X, i) for i in proper}
        for X in distinct_sets([*canonical.values(), *xsets])
    }
    columns = [(flag_name, witnesses[X.mask]) for flag_name, X in canonical.items()]
    columns += [(f"x:{X.name}", witnesses[X.mask]) for X in xsets]
    rows = []
    for i in range(M.size):
        flags: dict[str, FlagResult] = {}
        improper = i == M.top
        flags["prime"] = _flag(M, improper, M.prime_witness(i))
        flags["primary"] = _flag(M, improper, M.primary_witness(i))
        mw = M.maximal_witness(i)
        flags["maximal"] = _flag(M, improper, None if mw is None else (mw,))
        for flag_name, found in columns:
            flags[flag_name] = _flag(M, improper, found.get(i))
        rows.append(ElementReport(M.label(i), flags))
    return ClassificationReport(
        name=M.name,
        elements=M.labels,
        summary=summary,
        xsets={X.name: labels_of(X.mask) for X in xsets},
        rows=tuple(rows),
    )


def _canonical_flags(M: MultiplicativeLattice) -> dict[str, MClosedSet]:
    return {f"{letter}-element": X for letter, X in canonical_sets(M).items()}


# FlagResult is frozen, so every passing flag and every flag of top can be
# one shared instance; the JSON writer's memo then meets the same object.
_HOLDS = FlagResult(True)
_IMPROPER = FlagResult(False, None, "improper")


def _flag(M: MultiplicativeLattice, improper: bool, witness) -> FlagResult:
    if improper:
        return _IMPROPER
    if witness is None:
        return _HOLDS
    return FlagResult(False, tuple(M.label(w) for w in witness))


# -- machine form ---------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii


def report_to_json(report: ClassificationReport) -> str:
    return _write(report, "\n", {})


def _write(obj, nl: str, memo: dict) -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` writes it, ``nl`` being its line break.

    A dataclass is an object of its fields that are not None, in field order
    (only FlagResult.witness and FlagResult.note are ever None), and a tuple
    is a list; the tuples of a report hold strings or dataclasses, never
    both. A FlagResult is written once per distinct value and depth, keyed
    by its fields in a plain tuple: hashing that runs in C, while the
    dataclass's own ``__hash__`` is a Python-level call. A key by identity
    would miss the equal flags that are separate objects.
    """
    if isinstance(obj, FlagResult):
        key = (obj.holds, obj.witness, obj.note, nl)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _write_fields(obj, nl, memo)
        return out
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if is_dataclass(obj):
        return _write_fields(obj, nl, memo)
    if isinstance(obj, dict):
        return _write_object(obj.items(), nl, memo)
    if not obj:
        return "[]"
    inner = nl + "  "
    items = map(_escape, obj) if isinstance(obj[0], str) else [_write(v, inner, memo) for v in obj]
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def _write_fields(obj, nl: str, memo: dict) -> str:
    return _write_object(
        [(f.name, v) for f in fields(obj) if (v := getattr(obj, f.name)) is not None], nl, memo
    )


def _write_object(items, nl: str, memo: dict) -> str:
    if not items:
        return "{}"
    inner = nl + "  "
    members = [f"{_escape(k)}: {_write(v, inner, memo)}" for k, v in items]
    return f"{{{inner}{(',' + inner).join(members)}{nl}}}"


def _tuples(d: dict) -> dict:
    """``d`` with its list values turned back into the tuples a report holds."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}


def report_from_json(text: str) -> ClassificationReport:
    data = _tuples(json.loads(text))
    data["summary"] = LatticeSummary(**_tuples(data["summary"]))
    data["xsets"] = _tuples(data["xsets"])
    data["rows"] = tuple(
        ElementReport(row["element"], {k: FlagResult(**_tuples(f)) for k, f in row["flags"].items()})
        for row in data["rows"]
    )
    return ClassificationReport(**data)


def render_report(report: ClassificationReport) -> str:
    s = report.summary
    lines = [
        f"lattice {report.name} ({len(report.elements)} elements)",
        f"  maximal: {{{', '.join(s.maximal)}}}   jacobson: {s.jacobson}   "
        f"min primes: {{{', '.join(s.min_primes)}}}",
        f"  nilpotents: {{{', '.join(s.nilpotents)}}}   radical of bottom: {s.radical_of_bottom}",
        f"  zero divisors: {{{', '.join(s.zero_divisors)}}}",
        f"  local: {_yn(s.local)}   domain: {_yn(s.domain)}   reduced: {_yn(s.reduced)}",
    ]
    for name, members in report.xsets.items():
        lines.append(f"  set {name}: {{{', '.join(members)}}}")
    for row in report.rows:
        rendered = "  ".join(f"{name}={f.render()}" for name, f in row.flags.items())
        lines.append(f"  {row.element}: {rendered}")
    return "\n".join(lines)


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def check_report_witnesses(
    M: MultiplicativeLattice, xsets: tuple[MClosedSet, ...], report: ClassificationReport
) -> bool:
    """Re-check every recorded witness against the definition it violates."""
    label_index = {lbl: i for i, lbl in enumerate(M.labels)}
    named = {f"x:{X.name}": X for X in xsets}
    named.update(_canonical_flags(M))
    for row in report.rows:
        i = label_index[row.element]
        for flag_name, f in row.flags.items():
            if f.holds or f.witness is None:
                continue
            w = tuple(label_index[lbl] for lbl in f.witness)
            if flag_name == "prime":
                a, b = w
                ok = M.leq(M.product(a, b), i) and not M.leq(a, i) and not M.leq(b, i)
            elif flag_name == "primary":
                a, b = w
                ok = (
                    M.leq(M.product(a, b), i)
                    and not M.leq(a, i)
                    and not M.leq(b, M.radical(i))
                )
            elif flag_name == "maximal":
                (between,) = w
                ok = M.lt(i, between) and between != M.top
            else:
                a, b = w
                X = named[flag_name]
                ok = M.leq(M.product(a, b), i) and a not in X and not M.leq(b, i)
            if not ok:
                return False
    return True
