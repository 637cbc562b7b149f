"""``report_to_json`` against ``json.dumps`` of the plain report, byte for byte.

Every report here is also parsed back with ``report_from_json``: the parse
equals the report, and writing it again gives the same text.
"""

import dataclasses
import json

import pytest

from multlat import (
    acceptance_corpus,
    canonical_sets,
    classify_lattice,
    downset_m_closed,
    ideal_lattice_product,
    load_path,
    loads,
    report_from_json,
    report_to_json,
)
from multlat.report import _HOLDS, _IMPROPER, FlagResult
from conftest import LATTICE_DIR, json_oracle, m3_plus_top, n5_plus_top

# A diamond under a two-element chain, with a name, labels and set names
# that JSON must escape: a quote, a backslash and two non-ASCII letters.
ESCAPE_SPEC = """\
name: q"uo\\te café ☃
elements: 0 a"b c\\d é ☃ 1
order: 0 < a"b
order: 0 < c\\d
order: a"b < é
order: c\\d < é
order: é < ☃
order: ☃ < 1
multiplication: meet
xset s"et: ☃ 1
xset b\\s: downset é
xset ☃: zdiv
"""


def _corpus_reports():
    # The canonical sets as --x sets, plus the down-sets of bottom and of
    # the first maximal element.
    for M in acceptance_corpus(200):
        if M.size == 1:
            continue
        first_max = min(M.max_elements())
        sets = (*canonical_sets(M).values(),
                downset_m_closed(M, M.bottom), downset_m_closed(M, first_max))
        yield classify_lattice(M, sets)


def _spec_file_reports():
    for path in sorted(LATTICE_DIR.glob("*.lat")):
        M, named = load_path(path)
        yield classify_lattice(M, tuple(named.values()))


def _escape_reports():
    M, named = loads(ESCAPE_SPEC)
    yield classify_lattice(M, tuple(named.values()))


def _hand_made_reports():
    # Empty lists where classify_lattice never leaves one: a summary tuple
    # and a witness.
    report = classify_lattice(m3_plus_top())
    rows = (dataclasses.replace(report.rows[0], flags={"prime": FlagResult(False, ())}),)
    summary = dataclasses.replace(report.summary, min_primes=())
    yield dataclasses.replace(report, summary=summary, rows=rows)


REPORTS = {
    "corpus": _corpus_reports,
    "non-distributive": lambda: (classify_lattice(M) for M in (m3_plus_top(), n5_plus_top())),
    "spec-files": _spec_file_reports,
    "escapes": _escape_reports,
    "hand-made": _hand_made_reports,
}


@pytest.mark.parametrize("group", REPORTS)
def test_writer_matches_json_dumps_and_round_trips(group):
    count = 0
    for report in REPORTS[group]():
        text = report_to_json(report)
        assert text == json_oracle(report), report.name
        parsed = report_from_json(text)
        assert parsed == report, report.name
        assert report_to_json(parsed) == text, report.name
        count += 1
    assert count > 0


def test_escaped_strings_survive():
    (report,) = _escape_reports()
    text = report_to_json(report)
    assert text.isascii()
    for escaped in ('\\"', "\\\\", "\\u00e9", "\\u2603"):
        assert escaped in text
    data = json.loads(text)
    assert data["name"] == 'q"uo\\te café ☃'
    assert list(data["xsets"]) == ['s"et', "b\\s", "☃"]
    assert [row["element"] for row in data["rows"]] == ["0", 'a"b', "c\\d", "é", "☃", "1"]


def test_empty_xsets_are_an_empty_object():
    report = classify_lattice(m3_plus_top())
    assert report.xsets == {}
    text = report_to_json(report)
    assert '\n  "xsets": {},\n' in text
    assert text == json_oracle(report)



def test_pass_and_improper_flags_are_shared():
    # Every passing flag and every flag of top is one of two shared
    # instances; only the failures carry a witness of their own.
    M = ideal_lattice_product(8, 9)[0]
    report = classify_lattice(M)
    flags = [f for row in report.rows for f in row.flags.values()]
    assert all(f is _HOLDS for f in flags if f.holds) and any(f.holds for f in flags)
    assert all(f is _IMPROPER for f in report.rows[M.top].flags.values())
    assert all(f.witness for f in flags if f is not _HOLDS and f is not _IMPROPER)


def test_flags_differing_in_one_field_are_written_apart():
    # The writer keeps each flag's text under the flag's fields: flags that
    # agree on two fields and differ on the third get texts of their own.
    report = classify_lattice(ideal_lattice_product(8, 9)[0])
    flags = {
        "a": FlagResult(False, None, "one"), "b": FlagResult(False, None, "two"),
        "c": FlagResult(True, None, "one"), "d": FlagResult(False, ("x",), "one"),
        "e": FlagResult(False, ("y",), "one"),
    }
    row = dataclasses.replace(report.rows[0], flags=flags)
    edited = dataclasses.replace(report, rows=(row, *report.rows[1:]))
    assert report_to_json(edited) == json_oracle(edited)
