"""Line-oriented text format for lattices with multiplication and named sets.

    # comment
    name: K
    elements: 0 a b c d 1
    order: 0 < a
    order: a < b
    multiplication: trivial      # or "meet", or "table" with row lines
    row 0: 0 0 0 0 0 0           # table form: one row per element,
    row a: 0 0 0 0 0 a           # columns in declared element order
    xset proper: 0 a b c d       # explicit members, or one keyword of:
    xset zd: zdiv                # zero divisors
    xset nl: nil-downset         # down-set of radical(bottom)
    xset jr: jrad-downset        # down-set of the Jacobson radical
    xset dd: downset d           # down-set of a named element

Order lines accept any <=-pairs; the loader takes the reflexive-transitive
closure, validates the lattice and the multiplication axioms, and validates
every named set as M-closed. Parse errors carry 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .classify import CANONICAL_SETS, MClosedSet, downset_m_closed, make_m_closed
from .multiplicative import (
    MultiplicativeLattice,
    attach_multiplication,
    meet_mult,
    trivial_mult,
)
from .order import lattice_from_pairs


class ParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}")


XSET_KEYWORDS = {"zdiv": "r", "nil-downset": "n", "jrad-downset": "j"}
"""xset keywords for the canonical sets, mapped to their ``CANONICAL_SETS`` letter."""


@dataclass(frozen=True)
class LatticeSpecFile:
    name: str
    labels: tuple[str, ...]
    order_pairs: tuple[tuple[str, str], ...]
    mult_kind: str  # "trivial" | "meet" | "table"
    table_rows: tuple[tuple[str, ...], ...]  # per element, in declared order
    xsets: tuple[tuple[str, str, tuple[str, ...]], ...]  # (name, kind, payload)


def _value_tokens(line: str, colon: int) -> list[tuple[str, int]]:
    return [
        (m.group(), colon + 2 + m.start())
        for m in re.finditer(r"\S+", line[colon + 1 :])
    ]


def parse_spec(text: str) -> LatticeSpecFile:
    name = "L"
    labels: tuple[str, ...] | None = None
    order_pairs: list[tuple[str, str]] = []
    mult_kind: str | None = None
    row_map: dict[str, tuple[str, ...]] = {}
    xsets: list[tuple[str, str, tuple[str, ...]]] = []

    def need_labels(lineno: int) -> tuple[str, ...]:
        if labels is None:
            raise ParseError(lineno, 1, "elements must be declared before this line")
        return labels

    def check_label(tok: str, lineno: int, col: int) -> str:
        if tok not in need_labels(lineno):
            raise ParseError(lineno, col, f"unknown element label {tok!r}")
        return tok

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        colon = line.find(":")
        if colon < 0:
            raise ParseError(lineno, 1, "expected 'directive: value'")
        key = line[:colon].split()
        values = _value_tokens(line, colon)
        if not key:
            raise ParseError(lineno, 1, "missing directive name")
        head = key[0]
        if head == "name" and len(key) == 1:
            name = " ".join(tok for tok, _ in values) or "L"
        elif head == "elements" and len(key) == 1:
            toks = [tok for tok, _ in values]
            if not toks:
                raise ParseError(lineno, colon + 2, "no elements given")
            for tok, col in values:
                if toks.count(tok) > 1:
                    raise ParseError(lineno, col, f"duplicate label {tok!r}")
            labels = tuple(toks)
        elif head == "order" and len(key) == 1:
            if len(values) != 3 or values[1][0] != "<":
                raise ParseError(lineno, colon + 2, "expected 'order: A < B'")
            a = check_label(values[0][0], lineno, values[0][1])
            b = check_label(values[2][0], lineno, values[2][1])
            order_pairs.append((a, b))
        elif head == "multiplication" and len(key) == 1:
            if len(values) != 1 or values[0][0] not in ("trivial", "meet", "table"):
                col = values[0][1] if values else colon + 2
                raise ParseError(lineno, col, "expected trivial, meet or table")
            mult_kind = values[0][0]
        elif head == "row" and len(key) == 2:
            row_label = check_label(key[1], lineno, line.find(key[1]) + 1)
            if row_label in row_map:
                raise ParseError(lineno, 1, f"duplicate row for {row_label!r}")
            n = len(need_labels(lineno))
            if len(values) != n:
                raise ParseError(
                    lineno, colon + 2, f"row needs {n} entries, got {len(values)}"
                )
            row_map[row_label] = tuple(
                check_label(tok, lineno, col) for tok, col in values
            )
        elif head == "xset" and len(key) == 2:
            set_name = key[1]
            if any(set_name == existing for existing, _, _ in xsets):
                raise ParseError(lineno, 1, f"duplicate xset {set_name!r}")
            if not values:
                raise ParseError(lineno, colon + 2, "empty xset")
            first = values[0][0]
            if first in XSET_KEYWORDS:
                if len(values) != 1:
                    raise ParseError(lineno, values[1][1], "keyword form takes no members")
                xsets.append((set_name, first, ()))
            elif first == "downset":
                if len(values) != 2:
                    raise ParseError(lineno, colon + 2, "expected 'downset <label>'")
                lbl = check_label(values[1][0], lineno, values[1][1])
                xsets.append((set_name, "downset", (lbl,)))
            else:
                members = tuple(check_label(tok, lineno, col) for tok, col in values)
                xsets.append((set_name, "members", members))
        else:
            raise ParseError(lineno, 1, f"unknown directive {' '.join(key)!r}")

    if labels is None:
        raise ParseError(1, 1, "missing 'elements:' declaration")
    if mult_kind is None:
        raise ParseError(1, 1, "missing 'multiplication:' declaration")
    if mult_kind == "table":
        missing = [lbl for lbl in labels if lbl not in row_map]
        if missing:
            raise ParseError(1, 1, f"missing table row for {missing[0]!r}")
        table_rows = tuple(row_map[lbl] for lbl in labels)
    else:
        if row_map:
            raise ParseError(1, 1, "row lines require 'multiplication: table'")
        table_rows = ()
    return LatticeSpecFile(name, labels, tuple(order_pairs), mult_kind, table_rows, tuple(xsets))


def load_spec(spec: LatticeSpecFile) -> tuple[MultiplicativeLattice, dict[str, MClosedSet]]:
    """Build and validate; lattice/axiom violations propagate unchanged."""
    index = {lbl: i for i, lbl in enumerate(spec.labels)}
    lattice = lattice_from_pairs(
        len(spec.labels),
        [(index[a], index[b]) for a, b in spec.order_pairs],
        spec.labels,
    )
    if spec.mult_kind == "trivial":
        M = trivial_mult(lattice, name=spec.name)
    elif spec.mult_kind == "meet":
        M = meet_mult(lattice, name=spec.name)
    else:
        table = [[index[v] for v in row] for row in spec.table_rows]
        M = attach_multiplication(lattice, table, name=spec.name)
    named: dict[str, MClosedSet] = {}
    for set_name, kind, payload in spec.xsets:
        if kind == "members":
            named[set_name] = make_m_closed(M, (index[v] for v in payload), set_name)
        elif kind in XSET_KEYWORDS:
            named[set_name] = CANONICAL_SETS[XSET_KEYWORDS[kind]](M, set_name)
        else:
            named[set_name] = downset_m_closed(M, index[payload[0]], set_name)
    return M, named


def loads(text: str) -> tuple[MultiplicativeLattice, dict[str, MClosedSet]]:
    return load_spec(parse_spec(text))


def load_path(path) -> tuple[MultiplicativeLattice, dict[str, MClosedSet]]:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def render_spec(M: MultiplicativeLattice, named: dict[str, MClosedSet] | None = None) -> str:
    """Emit a spec that loads back to the identical lattice and sets."""
    lines = [f"name: {M.name}", f"elements: {' '.join(M.labels)}"]
    for x, y in M.covers():
        lines.append(f"order: {M.label(x)} < {M.label(y)}")
    lines.append("multiplication: table")
    for a in range(M.size):
        row = " ".join(M.label(v) for v in M.table[a])
        lines.append(f"row {M.label(a)}: {row}")
    for set_name, X in (named or {}).items():
        members = " ".join(M.label(i) for i in sorted(X.members))
        lines.append(f"xset {set_name}: {members}")
    return "\n".join(lines) + "\n"
