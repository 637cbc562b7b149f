"""Command surface and exit codes (0 pass, 1 property failure, 2 bad input)."""

import json
import re

from multlat.cli import main
from multlat import report_from_json
from multlat.corpus import chain_lattice
from multlat.ringbridge import _LATTICE_CACHE_SIZE, ideal_lattice_product, ideal_lattice_zn


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate -------------------------------------------------------------------


def test_validate_shipped_files(capsys, lattice_dir):
    for path in sorted(lattice_dir.glob("*.lat")):
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0 and out.startswith("ok:"), path


def test_validate_axiom_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.lat"
    bad.write_text(
        "elements: 0 x y 1\norder: 0 < x\norder: 0 < y\norder: x < 1\norder: y < 1\n"
        "multiplication: table\n"
        "row 0: 0 0 0 0\nrow x: 0 0 0 x\nrow y: 0 0 0 y\nrow 1: 0 x y 1\n"
    )
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "invalid" in out and "distributivity" in out


def test_validate_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.lat"
    f.write_text("elements a b\n")
    code, _, err = run_cli(capsys, "validate", str(f))
    assert code == 2 and "line 1" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.lat")
    assert code == 2


# -- classify -------------------------------------------------------------------


def test_classify_zn12_nil_witnesses(capsys):
    code, out, _ = run_cli(capsys, "classify", "zn:12", "--x", "nil")
    assert code == 0
    lines = {ln.strip().split(":")[0]: ln for ln in out.splitlines() if ln.strip().startswith("(")}
    assert "x:nil=no [witness" in lines["(0)"]
    assert "x:nil=no [witness" in lines["(6)"]


def test_classify_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "classify", "zn:15", "--x", "zdiv", "--json")
    assert code == 0
    report = report_from_json(out)
    flags = {row.element: row.flags for row in report.rows}
    assert flags["(3)"]["x:zdiv"].holds
    assert flags["(5)"]["x:zdiv"].holds
    assert json.loads(out)["name"] == "zn:15"


def test_classify_file_with_declared_set(capsys, lattice_dir):
    code, out, _ = run_cli(capsys, "classify", str(lattice_dir / "k.lat"), "--x", "proper")
    assert code == 0
    assert "x:proper=yes" in out


def test_classify_product_target(capsys):
    code, out, _ = run_cli(capsys, "classify", "prod:4,9")
    assert code == 0
    assert "lattice prod:4,9 (9 elements)" in out
    assert "(2)x(3)" in out


def test_classify_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "classify", "zn:12", "--x", "nil", "--x", "zdiv")
    _, second, _ = run_cli(capsys, "classify", "zn:12", "--x", "nil", "--x", "zdiv")
    assert first == second


def test_classify_bad_set_name(capsys):
    code, _, err = run_cli(capsys, "classify", "zn:12", "--x", "bogus")
    assert code == 2 and "bogus" in err


def test_classify_bad_target(capsys):
    code, _, err = run_cli(capsys, "classify", "zn:notanint")
    assert code == 2


def test_classify_chain_target(capsys):
    code, out, _ = run_cli(capsys, "classify", "chain:4")
    assert code == 0 and "lattice chain-meet:4 (4 elements)" in out


def test_single_instance_targets_reject_ranges(capsys):
    for argv in (("classify", "zn:2..5"), ("verify", "chain:2..3"), ("cross-validate", "zn:6..7")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "single instance" in err, argv


def test_cross_validate_rejects_chains(capsys):
    code, _, err = run_cli(capsys, "cross-validate", "chain:3")
    assert code == 2 and "cross-validate takes" in err


def test_classify_degenerate_target(capsys, tmp_path):
    f = tmp_path / "one.lat"
    f.write_text("elements: x\nmultiplication: meet\n")
    code, _, err = run_cli(capsys, "classify", str(f))
    assert code == 2


# -- verify ---------------------------------------------------------------------


def test_verify_targets_pass(capsys, lattice_dir):
    for target in ("zn:12", "zn:15", "prod:4,9", str(lattice_dir / "k.lat"),
                   str(lattice_dir / "chain5-meet.lat"), str(lattice_dir / "z12-table.lat")):
        code, out, _ = run_cli(capsys, "verify", target)
        assert code == 0, (target, out)
        assert "checks pass" in out


def test_verify_with_extra_set(capsys):
    code, out, _ = run_cli(capsys, "verify", "zn:12", "--x", "downset:(2)")
    assert code == 0
    assert "[downset:(2)]" in out


# -- cross-validate ---------------------------------------------------------------


def test_cross_validate_commands(capsys):
    code, out, _ = run_cli(capsys, "cross-validate", "zn:12")
    assert code == 0 and "agree" in out
    code, out, _ = run_cli(capsys, "cross-validate", "prod:4,9")
    assert code == 0 and "agree" in out
    code, _, err = run_cli(capsys, "cross-validate", "lattices/k.lat")
    assert code == 2


# -- search -----------------------------------------------------------------------


def test_search_join_escape(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--corpus", "zn:2..20", "--find", "join-of-x-not-x"
    )
    assert code == 0
    assert "zn:6" in out and "zn:15" in out


def test_search_not_found_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--corpus", "zn:2..5", "--find", "join-of-x-not-x"
    )
    assert code == 1 and "no instance" in out


def test_search_n_inside_r(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--corpus", "zn:2..10", "--find", "n-strictly-inside-r"
    )
    assert code == 0 and "zn:6" in out


def test_search_n_inside_j_needs_chains(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--corpus", "zn:2..60", "--find", "n-strictly-inside-j"
    )
    assert code == 1  # nil and Jacobson down-sets coincide over every Z_n
    code, out, _ = run_cli(
        capsys, "search", "--corpus", "chain:2..6", "--find", "n-strictly-inside-j"
    )
    assert code == 0 and "chain-meet:3" in out


def test_search_bad_corpus_spec(capsys):
    code, _, err = run_cli(capsys, "search", "--corpus", "what:9", "--find", "join-of-x-not-x")
    assert code == 2


def test_search_empty_range_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "search", "--corpus", "zn:5..2", "--find", "join-of-x-not-x")
    assert code == 2 and out == "" and "empty range" in err


def test_bad_specs_fail_before_any_lattice_is_built(capsys):
    for argv in (
        ("search", "--corpus", "zn:2..1000", "--corpus", "zn:5..2", "--find", "join-of-x-not-x"),
        ("classify", "zn:55440..55441"),
    ):
        ideal_lattice_zn.cache_clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert ideal_lattice_zn.cache_info().misses == 0, argv


def test_long_search_keeps_the_lattice_caches_bounded(capsys):
    bound = ideal_lattice_zn.cache_info().maxsize
    assert bound is not None and ideal_lattice_product.cache_info().maxsize == bound
    ideal_lattice_zn.cache_clear()
    code, _, _ = run_cli(capsys, "search", "--corpus", f"zn:2..{bound + 200}",
                         "--find", "n-strictly-inside-r")
    assert code == 0
    info = ideal_lattice_zn.cache_info()
    assert info.misses == bound + 199 and info.currsize == bound


def test_chain_lattice_cache_has_the_ring_lattice_bound():
    assert chain_lattice.cache_info().maxsize == _LATTICE_CACHE_SIZE


def test_search_mixed_corpus(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--corpus", "zn:6", "--corpus", "prod:2,3",
        "--find", "join-of-x-not-x",
    )
    assert code == 0
    assert "zn:6" in out and "prod:2,3" in out


# -- dot ----------------------------------------------------------------------------


DOT_LINE = re.compile(
    r"""^(digraph\ "[^"]*"\ \{      # header
        |\}                         # footer
        |\ \ rankdir=BT;
        |\ \ node\ \[[^\]]*\];
        |\ \ //\ .*                 # comment
        |\ \ n\d+\ \[[^\n]*\];      # node statement
        |\ \ n\d+\ ->\ n\d+;        # edge statement
        )$""",
    re.VERBOSE,
)


def test_dot_structure(capsys, z12):
    code, out, _ = run_cli(capsys, "dot", "zn:12")
    assert code == 0
    assert out.startswith('digraph "zn:12"')
    assert out.count("->") == len(z12.lattice.covers())
    assert out.rstrip().endswith("}")
    for line in out.rstrip("\n").splitlines():
        assert DOT_LINE.match(line), line
    # quoted attribute values never contain raw newlines or unescaped quotes
    for value in re.findall(r'"((?:[^"\\]|\\.)*)"', out):
        assert "\n" not in value


def test_dot_marks_x_elements(capsys):
    code, out, _ = run_cli(capsys, "dot", "zn:15", "--x", "zdiv")
    assert code == 0
    marked = [ln for ln in out.splitlines() if "fillcolor" in ln]
    assert len(marked) == 3  # (0), (3), (5)
    assert all("zdiv" in ln for ln in marked)


def test_dot_two_marked_sets(capsys, lattice_dir):
    code, out, _ = run_cli(
        capsys, "dot", str(lattice_dir / "chain5-meet.lat"),
        "--x", "nilrad", "--x", "jacrad",
    )
    assert code == 0
    # bottom is both an n- and a J-element: its label lists both set names
    both = [ln for ln in out.splitlines() if "nilrad,jacrad" in ln]
    assert len(both) == 1 and "c0" in both[0]
