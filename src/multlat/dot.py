"""Hasse diagrams in DOT text form.

Edges are the cover relation (transitive reduction of <=), drawn bottom-up.
For each requested M-closed set the X-elements are highlighted: filled with
a per-set color, with the set names appended to the node label.
"""

from __future__ import annotations

from .classify import MClosedSet, x_elements
from .multiplicative import MultiplicativeLattice

_PALETTE = ("lightblue", "palegreen", "lightsalmon", "gold", "plum", "khaki")


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def hasse_dot(M: MultiplicativeLattice, marked_sets: tuple[MClosedSet, ...] = ()) -> str:
    marks: dict[int, list[int]] = {}
    for k, X in enumerate(marked_sets):
        for i in x_elements(M, X):
            marks.setdefault(i, []).append(k)
    lines = [f"digraph {_quote(M.name)} {{", "  rankdir=BT;", '  node [shape=ellipse];']
    for k, X in enumerate(marked_sets):
        lines.append(
            f"  // X-elements for {X.name} filled {_PALETTE[k % len(_PALETTE)]}"
        )
    for i in range(M.size):
        label = M.label(i)
        attrs = [f"label={_quote(label)}"]
        if i in marks:
            names = ",".join(marked_sets[k].name for k in marks[i])
            attrs = [f"label={_quote(label + chr(10) + names)}"]
            color = _PALETTE[marks[i][0] % len(_PALETTE)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={color}")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for x, y in M.covers():
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
