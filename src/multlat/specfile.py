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
every named set as M-closed. ``elements:`` and ``multiplication:`` appear
once each. A directive ends at its first ``:``, so no label may contain one.
Parse errors carry 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

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
_XSET_HEADS = frozenset((*XSET_KEYWORDS, "downset"))


@dataclass(frozen=True)
class LatticeSpecFile:
    name: str
    labels: tuple[str, ...]
    order_pairs: tuple[tuple[str, str], ...]
    mult_kind: str  # "trivial" | "meet" | "table"
    table_rows: tuple[tuple[str, ...], ...]  # per element, in declared order
    xsets: tuple[tuple[str, str, tuple[str, ...]], ...]  # (name, kind, payload)


_TOKEN = re.compile(r"\S+")


def _column(line: str, start: int, k: int) -> int:
    """1-based column of token k of ``line[start:]``; only error messages need it."""
    return next(islice(_TOKEN.finditer(line, start), k, None)).start() + 1


def parse_spec(text: str) -> LatticeSpecFile:
    name = "L"
    labels: tuple[str, ...] | None = None
    label_set: frozenset[str] = frozenset()
    order_pairs: list[tuple[str, str]] = []
    mult_kind: str | None = None
    row_map: dict[str, tuple[str, ...]] = {}
    xsets: list[tuple[str, str, tuple[str, ...]]] = []

    def need_labels(lineno: int) -> tuple[str, ...]:
        if labels is None:
            raise ParseError(lineno, 1, "elements must be declared before this line")
        return labels

    def check_labels(
        toks: list[str], lineno: int, line: str, start: int, at: tuple[int, ...] | None = None
    ) -> tuple[str, ...]:
        # toks[k] is token at[k] (or k) of line[start:], for the column of an error.
        need_labels(lineno)
        if not label_set.issuperset(toks):
            k = next(k for k, tok in enumerate(toks) if tok not in label_set)
            col = _column(line, start, k if at is None else at[k])
            raise ParseError(lineno, col, f"unknown element label {toks[k]!r}")
        return tuple(toks)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        colon = line.find(":")
        if colon < 0:
            raise ParseError(lineno, 1, "expected 'directive: value'")
        key = line[:colon].split()
        start = colon + 1
        values = line[start:].split()
        if not key:
            raise ParseError(lineno, 1, "missing directive name")
        head = key[0]
        if head == "name" and len(key) == 1:
            name = " ".join(values) or "L"
        elif head == "elements" and len(key) == 1:
            if labels is not None:
                raise ParseError(lineno, 1, "repeated 'elements:' declaration")
            if not values:
                raise ParseError(lineno, colon + 2, "no elements given")
            for k, tok in enumerate(values):
                if ":" in tok:
                    raise ParseError(lineno, _column(line, start, k), f"element label {tok!r} contains ':'")
            label_set = frozenset(values)
            if len(label_set) < len(values):
                for k, tok in enumerate(values):
                    if values.count(tok) > 1:
                        raise ParseError(lineno, _column(line, start, k), f"duplicate label {tok!r}")
            labels = tuple(values)
        elif head == "order" and len(key) == 1:
            if len(values) != 3 or values[1] != "<":
                raise ParseError(lineno, colon + 2, "expected 'order: A < B'")
            order_pairs.append(check_labels([values[0], values[2]], lineno, line, start, (0, 2)))
        elif head == "multiplication" and len(key) == 1:
            if mult_kind is not None:
                raise ParseError(lineno, 1, "repeated 'multiplication:' declaration")
            if len(values) != 1 or values[0] not in ("trivial", "meet", "table"):
                col = _column(line, start, 0) if values else colon + 2
                raise ParseError(lineno, col, "expected trivial, meet or table")
            mult_kind = values[0]
        elif head == "row" and len(key) == 2:
            (row_label,) = check_labels(key[1:], lineno, line, 0, (1,))
            if row_label in row_map:
                raise ParseError(lineno, 1, f"duplicate row for {row_label!r}")
            n = len(need_labels(lineno))
            if len(values) != n:
                raise ParseError(
                    lineno, colon + 2, f"row needs {n} entries, got {len(values)}"
                )
            row_map[row_label] = check_labels(values, lineno, line, start)
        elif head == "xset" and len(key) == 2:
            set_name = key[1]
            if any(set_name == existing for existing, _, _ in xsets):
                raise ParseError(lineno, 1, f"duplicate xset {set_name!r}")
            if not values:
                raise ParseError(lineno, colon + 2, "empty xset")
            first = values[0]
            if first in XSET_KEYWORDS:
                if len(values) != 1:
                    raise ParseError(lineno, _column(line, start, 1), "keyword form takes no members")
                xsets.append((set_name, first, ()))
            elif first == "downset":
                if len(values) != 2:
                    raise ParseError(lineno, colon + 2, "expected 'downset <label>'")
                xsets.append((set_name, "downset", check_labels(values[1:], lineno, line, start, (1,))))
            else:
                xsets.append((set_name, "members", check_labels(values, lineno, line, start)))
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
    """Emit a spec that loads back to the identical lattice and sets.

    ValueError names the first label or set name that has no spec form: an
    empty one, or one with ':', '#' or whitespace. It also rejects a lattice
    name that is empty, has '#', or has whitespace other than single spaces
    between words (a newline among them); ':' is fine in a name.
    A set's members are written in index order, except that those labelled
    ``zdiv``, ``nil-downset``, ``jrad-downset`` or ``downset``, which the
    parser reads in first place as another form, come last; ValueError names
    a set with no other member.
    """
    for text in (*M.labels, *(named or {})):
        if not text or re.search(r"[\s:#]", text):
            raise ValueError(f"cannot write {text!r} in a spec: empty, or has ':', '#' or whitespace")
    if not M.name or "#" in M.name or M.name != " ".join(M.name.split()):
        raise ValueError(
            f"cannot write name {M.name!r} in a spec: empty, has '#', or whitespace other than single spaces"
        )
    lines = [f"name: {M.name}", f"elements: {' '.join(M.labels)}"]
    for x, y in M.covers():
        lines.append(f"order: {M.label(x)} < {M.label(y)}")
    lines.append("multiplication: table")
    for a in range(M.size):
        row = " ".join(M.label(v) for v in M.table[a])
        lines.append(f"row {M.label(a)}: {row}")
    for set_name, X in (named or {}).items():
        members = sorted(map(M.label, sorted(X.members)), key=_XSET_HEADS.__contains__)
        if not members or members[0] in _XSET_HEADS:
            raise ValueError(f"cannot write xset {set_name!r} in a spec: every member label is a keyword")
        lines.append(f"xset {set_name}: {' '.join(members)}")
    return "\n".join(lines) + "\n"
