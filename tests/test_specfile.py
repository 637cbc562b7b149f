"""Text format: parsing diagnostics, loading, render round-trips."""

import random

import pytest

from multlat import (
    AxiomViolation,
    NotMClosed,
    ParseError,
    ideal_lattice_product,
    ideal_lattice_zn,
    load_path,
    loads,
    nil_downset,
    parse_spec,
    render_spec,
    x_elements,
    zero_divisor_set,
)
from multlat.cli import main
from conftest import first_axiom_violation

KITE_TEXT = """\
name: K
elements: 0 a b c d 1
order: 0 < a
order: a < b
order: b < d
order: 0 < c
order: c < d
order: d < 1
multiplication: trivial
xset proper: 0 a b c d
"""


def test_load_kite_text():
    M, named = loads(KITE_TEXT)
    assert M.name == "K" and M.size == 6
    assert M.labels == ("0", "a", "b", "c", "d", "1")
    assert {M.label(i) for i in x_elements(M, named["proper"])} == {"0", "a", "b", "c", "d"}


def test_shipped_files_load(lattice_dir):
    for path in sorted(lattice_dir.glob("*.lat")):
        M, named = load_path(path)
        assert M.size >= 2, path


def test_keyword_xsets(z12):
    text = render_spec(z12) + "xset zd: zdiv\nxset nl: nil-downset\nxset jr: jrad-downset\nxset d2: downset (2)\n"
    M, named = loads(text)
    assert named["zd"].members == {M.lattice.index_of(l) for l in ("(2)", "(3)", "(4)", "(6)", "(0)")}
    assert named["nl"].members == named["jr"].members
    assert named["d2"].members == M.down_set(M.lattice.index_of("(2)"))


def test_parse_error_dangling_label():
    text = KITE_TEXT.replace("order: d < 1", "order: d < q")
    with pytest.raises(ParseError) as err:
        loads(text)
    assert err.value.line == 8
    assert err.value.col == text.splitlines()[7].index("q") + 1


def test_parse_error_unknown_directive():
    with pytest.raises(ParseError) as err:
        parse_spec("elements: a b\nnonsense: 1\n")
    assert err.value.line == 2


def test_parse_error_needs_colon():
    with pytest.raises(ParseError):
        parse_spec("elements a b\n")


def test_parse_error_duplicate_label():
    with pytest.raises(ParseError):
        parse_spec("elements: a a\nmultiplication: meet\n")


def test_parse_error_elements_first():
    with pytest.raises(ParseError) as err:
        parse_spec("order: a < b\nelements: a b\nmultiplication: meet\n")
    assert err.value.line == 1


def test_parse_error_missing_sections():
    with pytest.raises(ParseError):
        parse_spec("elements: a b\norder: a < b\n")  # no multiplication
    with pytest.raises(ParseError):
        parse_spec("multiplication: meet\n")  # no elements


def test_parse_error_bad_table():
    base = "elements: a b\norder: a < b\nmultiplication: table\n"
    with pytest.raises(ParseError):
        parse_spec(base + "row a: a\nrow b: a b\n")  # short row
    with pytest.raises(ParseError):
        parse_spec(base + "row a: a a\n")  # missing row for b
    with pytest.raises(ParseError):
        parse_spec(base + "row a: a a\nrow a: a a\nrow b: a b\n")  # duplicate


@pytest.mark.parametrize(
    "row_line, col",
    [("row o: a a", 5), ("row  w: a a", 6), ("row r: a a", 5), ("  row\tow: a a", 7)],
)
def test_parse_error_unknown_row_label_column(row_line, col):
    # The column is the label's own, even when the label also occurs in "row".
    with pytest.raises(ParseError) as err:
        parse_spec("elements: a b\norder: a < b\nmultiplication: table\n" + row_line + "\n")
    assert (err.value.line, err.value.col) == (4, col)
    assert row_line[col - 1 :].startswith(row_line.split(":")[0].split()[1])


def test_corrupt_table_raises_axiom_violation():
    # Redirect b*b on the kite, which is not distributive: the J(L) checks
    # reject the table and the error names the reference scan's first failure.
    text = KITE_TEXT.replace("multiplication: trivial", "multiplication: table")
    rows = {
        "0": "0 0 0 0 0 0",
        "a": "0 0 0 0 0 a",
        "b": "0 0 b 0 0 b",  # b*b should be 0 under the trivial multiplication
        "c": "0 0 0 0 0 c",
        "d": "0 0 0 0 0 d",
        "1": "0 a b c d 1",
    }
    text += "".join(f"row {k}: {v}\n" for k, v in rows.items())
    with pytest.raises(AxiomViolation) as err:
        loads(text.replace("xset proper: 0 a b c d\n", ""))
    K = loads(KITE_TEXT)[0]
    table = [[K.index_of(t) for t in row.split()] for row in rows.values()]
    want = first_axiom_violation(K, table)
    assert want is not None
    assert (err.value.axiom, err.value.witness) == want


def test_invalid_xset_raises_not_m_closed(z12):
    text = render_spec(z12) + "xset bad: (2) (3)\n"
    with pytest.raises(NotMClosed):
        loads(text)


def test_render_round_trip_identity(z12, kite):
    for M, named in (
        (z12, {"nl": nil_downset(z12), "zd": zero_divisor_set(z12)}),
        (kite, {}),
        (ideal_lattice_product(4, 9)[0], {}),
    ):
        text = render_spec(M, named)
        M2, named2 = loads(text)
        assert M2.labels == M.labels
        assert M2.table == M.table
        assert M2.lattice.order.up == M.lattice.order.up
        assert M2.lattice.bottom == M.lattice.bottom and M2.lattice.top == M.lattice.top
        assert {k: X.members for k, X in named2.items()} == {
            k: X.members for k, X in named.items()
        }
        # and the rendering of the reload is byte-identical
        assert render_spec(M2, named2) == text


def test_comments_and_blank_lines():
    text = "# header\n\nname: tiny\nelements: x y  # trailing\norder: x < y\nmultiplication: meet\n"
    M, _ = loads(text)
    assert M.name == "tiny" and M.size == 2


# -- error positions and messages, pinned ------------------------------------------

SMALL_HEAD = "elements: a b c\norder: a < b\norder: b < c\n"


@pytest.mark.parametrize(
    "text, line, col, msg",
    [
        # A label three times: the column of its first occurrence.
        ("elements: x a b a c a\n", 1, 13, "duplicate label 'a'"),
        # A duplicate late in the list.
        ("elements: a b c d e f g h e\n", 1, 19, "duplicate label 'e'"),
        ("elements:  p q\telements q\n", 1, 14, "duplicate label 'q'"),
        # Unknown labels in order:, row and xset lines.
        (SMALL_HEAD + "order: c < zz\n", 4, 12, "unknown element label 'zz'"),
        (SMALL_HEAD + "order: zz < c\n", 4, 8, "unknown element label 'zz'"),
        (SMALL_HEAD + "multiplication: table\nrow a: a a q\n", 5, 12, "unknown element label 'q'"),
        (SMALL_HEAD + "multiplication: table\nrow  q: a a a\n", 5, 6, "unknown element label 'q'"),
        (SMALL_HEAD + "multiplication: meet\nxset s: a  q b\n", 5, 12, "unknown element label 'q'"),
        (SMALL_HEAD + "multiplication: meet\nxset s: downset q\n", 5, 17, "unknown element label 'q'"),
        ("order: a < b\nelements: a b\n", 1, 1, "elements must be declared before this line"),
    ],
)
def test_parse_error_positions_and_messages(text, line, col, msg):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {msg}"


@pytest.mark.parametrize(
    "text, line, msg",
    [
        (
            "elements: a b\norder: a < b\nelements: c d\nmultiplication: meet\n",
            3,
            "repeated 'elements:' declaration",
        ),
        (
            "elements: a b\norder: a < b\nmultiplication: meet\n  multiplication: trivial\n",
            4,
            "repeated 'multiplication:' declaration",
        ),
    ],
)
def test_repeated_directive_is_a_parse_error(text, line, msg):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert (err.value.line, err.value.col) == (line, 1)
    assert str(err.value) == f"line {line}, col 1: {msg}"


@pytest.mark.parametrize("command", ["validate", "verify", "classify"])
@pytest.mark.parametrize("directive", ["elements: c d", "multiplication: trivial"])
def test_repeated_directive_exits_2(tmp_path, capsys, command, directive):
    f = tmp_path / "repeated.lat"
    f.write_text(f"elements: a b\norder: a < b\nmultiplication: meet\n{directive}\n")
    code = main([command, str(f)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: line 4, col 1: repeated ")


def generated_grid_spec(rows, cols, seed):
    """A rows x cols grid of labels xIyJ, ordered componentwise, with the meet
    as multiplication, declared in a shuffled element order."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    random.Random(seed).shuffle(cells)
    label = {c: f"x{c[0]}y{c[1]}" for c in cells}
    lines = ["name: grid", "elements: " + " ".join(label[c] for c in cells)]
    for i, j in cells:
        if i + 1 < rows:
            lines.append(f"order: {label[i, j]} < {label[i + 1, j]}")
        if j + 1 < cols:
            lines.append(f"order: {label[i, j]} < {label[i, j + 1]}")
    lines.append("multiplication: table")
    for a in cells:
        entries = (label[min(a[0], b[0]), min(a[1], b[1])] for b in cells)
        lines.append(f"row {label[a]}: " + " ".join(entries))
    return "\n".join(lines) + "\n", cells


def test_generated_150_element_table_spec_round_trips():
    text, cells = generated_grid_spec(10, 15, seed=14)
    M, _ = loads(text)
    assert M.size == 150
    for a, (i, j) in enumerate(cells):
        for b, (k, l) in enumerate(cells):
            assert M.leq(a, b) == (i <= k and j <= l)
            assert M.label(M.table[a][b]) == f"x{min(i, k)}y{min(j, l)}"
    rendered = render_spec(M)
    M2, _ = loads(rendered)
    assert M2.labels == M.labels and M2.table == M.table
    assert M2.lattice.order.up == M.lattice.order.up
    assert render_spec(M2) == rendered


TINY_HEAD = "elements: a b\norder: a < b\n"


@pytest.mark.parametrize(
    "text, line, col, msg",
    [
        (": a b\n", 1, 1, "missing directive name"),
        ("elements:\n", 1, 10, "no elements given"),
        ("elements: a b\norder: a <= b\n", 2, 7, "expected 'order: A < B'"),
        (TINY_HEAD + "multiplication: join\n", 3, 17, "expected trivial, meet or table"),
        (TINY_HEAD + "multiplication:\n", 3, 16, "expected trivial, meet or table"),
        (TINY_HEAD + "xset s: a\nxset s: b\n", 4, 1, "duplicate xset 's'"),
        (TINY_HEAD + "xset s:\n", 3, 8, "empty xset"),
        (TINY_HEAD + "xset s: zdiv a\n", 3, 14, "keyword form takes no members"),
        (TINY_HEAD + "xset s: downset a b\n", 3, 8, "expected 'downset <label>'"),
        (TINY_HEAD + "multiplication: meet\nrow a: a a\nrow b: a b\n", 1, 1,
         "row lines require 'multiplication: table'"),
    ],
)
def test_parse_error_branches_pinned(text, line, col, msg):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {msg}"


def test_colon_in_element_label_is_a_parse_error():
    # A directive ends at its first ':', so no row line could name such a label.
    for text, col in (("elements: 0 a:b 1\n", 13), ("elements: : a\n", 11)):
        with pytest.raises(ParseError) as err:
            parse_spec(text + "order: 0 < 1\nmultiplication: meet\n")
        assert (err.value.line, err.value.col) == (1, col)
        assert "contains ':'" in str(err.value)


@pytest.mark.parametrize(
    "labels, set_name, bad",
    [
        (("0", "a:b", "1"), None, "a:b"),
        (("0", "a#b", "1"), None, "a#b"),
        (("0", "", "1"), None, ""),
        (("0", "a b", "1"), None, "a b"),
        (("0", "a", "1"), "downset:a", "downset:a"),  # the name `--x downset:a` gives
        (("0", "a", "1"), "x\ty", "x\ty"),
    ],
)
def test_render_spec_rejects_unwritable_names(labels, set_name, bad):
    from multlat import downset_m_closed, lattice_from_pairs, meet_mult

    M = meet_mult(lattice_from_pairs(3, [(0, 1), (1, 2)], labels), name="chain")
    named = {} if set_name is None else {set_name: downset_m_closed(M, 1, set_name)}
    with pytest.raises(ValueError) as err:
        render_spec(M, named)
    assert repr(bad) in str(err.value)



@pytest.mark.parametrize("keyword", ["zdiv", "nil-downset", "jrad-downset", "downset"])
def test_render_spec_never_writes_a_keyword_first(keyword):
    # On the meet chain 0 < m < 1 with m labelled as an xset keyword, a set
    # written as "m ..." would load back as a keyword or down-set form (or
    # not at all); another member goes first, and a set of keywords alone
    # has no member-list form.
    from multlat import lattice_from_pairs, make_m_closed, meet_mult

    M = meet_mult(lattice_from_pairs(3, [(0, 1), (1, 2)], ("0", keyword, "1")), name="chain")
    named = {
        name: make_m_closed(M, members, name)
        for name, members in (("s", {1, 2}), ("t", {0, 1}), ("u", {0, 1, 2}), ("v", {2}))
    }
    text = render_spec(M, named)
    _, loaded = loads(text)
    assert {k: X.members for k, X in loaded.items()} == {k: X.members for k, X in named.items()}
    assert f"xset s: 1 {keyword}\n" in text and f"xset t: 0 {keyword}\n" in text
    with pytest.raises(ValueError) as err:
        render_spec(M, {"w": make_m_closed(M, {1}, "w")})
    assert "'w'" in str(err.value)


def _chain(name):
    from multlat import lattice_from_pairs, meet_mult

    return meet_mult(lattice_from_pairs(2, [(0, 1)], ("0", "1")), name=name)


@pytest.mark.parametrize("name", ["a#b", "", "  x  y", "x  y", "x\ny", "x\ty", "x "])
def test_render_spec_rejects_names_that_do_not_reload(name):
    with pytest.raises(ValueError) as err:
        render_spec(_chain(name))
    assert repr(name) in str(err.value)


@pytest.mark.parametrize("name", ["x y", "a:b", "prod:72,72", "sub(F2^4)+top"])
def test_render_spec_names_round_trip(name):
    M, _ = loads(render_spec(_chain(name)))
    assert M.name == name
