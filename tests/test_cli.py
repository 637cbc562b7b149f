"""Command surface and exit codes (0 pass, 1 property failure, 2 bad input)."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from multlat import cli
from multlat.cli import main
from multlat import report_from_json
from multlat.corpus import chain_lattice
from multlat.ringbridge import _LATTICE_CACHE_SIZE, ideal_lattice_product, ideal_lattice_zn


COMMANDS = ("validate", "classify", "verify", "cross-validate", "search", "dot")


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
    assert code == 2
    assert err == (
        "error: unknown set 'bogus': expected a declared set name, zdiv, nil, jrad "
        "or downset:<label>\n"
    )


def test_declared_sets_shadow_the_canonical_names(tmp_path):
    # A file may declare a set under a canonical set's default name; --x
    # then means the declared set.
    f = tmp_path / "chain.lat"
    f.write_text(
        "elements: c0 c1 c2 c3\norder: c0 < c1\norder: c1 < c2\norder: c2 < c3\n"
        "multiplication: meet\nxset jrad: c0 c1\n"
    )
    M, named = cli.resolve_target(str(f))
    X = cli.resolve_xset(M, named, "jrad")
    assert X is named["jrad"] and X.members == {0, 1}
    assert cli.resolve_xset(M, {}, "jrad").members == {0, 1, 2}


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
                   str(lattice_dir / "chain5-meet.lat"), str(lattice_dir / "z12-table.lat"),
                   str(lattice_dir / "n5-top.lat")):
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


def test_search_refuses_the_one_element_chain(capsys):
    from multlat.search import PROPERTIES

    for prop in PROPERTIES:
        code, out, err = run_cli(capsys, "search", "--corpus", "chain:1", "--find", prop)
        assert code == 2 and out == "" and err.startswith("error:"), prop


def test_bad_specs_fail_before_any_lattice_is_built(capsys):
    for argv in (
        ("search", "--corpus", "zn:2..1000", "--corpus", "zn:5..2", "--find", "join-of-x-not-x"),
        ("search", "--corpus", "zn:2..1000", "--corpus", "zn:0..3", "--find", "join-of-x-not-x"),
        ("search", "--corpus", "zn:2..1000", "--corpus", "prod:1,3", "--find", "join-of-x-not-x"),
        ("search", "--corpus", "zn:2..1000", "--corpus", "chain:0..3", "--find", "join-of-x-not-x"),
        ("search", "--corpus", "zn:2..1000", "--corpus", "chain:1..3", "--find", "join-of-x-not-x"),
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


# -- many calls in one process ------------------------------------------------------


def test_main_calls_the_handler_bound_at_call_time(capsys, monkeypatch):
    assert run_cli(capsys, "cross-validate", "zn:12")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_cross_validate", lambda args: seen.append(args.target) or 7)
    assert run_cli(capsys, "cross-validate", "zn:12") == (7, "", "")
    assert seen == ["zn:12"]


def test_repeated_calls_share_no_state(capsys):
    plain = run_cli(capsys, "classify", "zn:12")
    with_x = run_cli(capsys, "classify", "zn:12", "--x", "nil", "--x", "zdiv")
    assert "x:nil" in with_x[1] and "x:nil" not in plain[1]
    assert run_cli(capsys, "classify", "zn:12") == plain  # no --x value carried over

    default = ("search", "--find", "n-strictly-inside-j")
    expected = (1, "no instance with n-strictly-inside-j in zn:2..200\n", "")
    assert run_cli(capsys, *default) == expected
    assert run_cli(capsys, *default) == expected

    for argv in (["no-such-command"], ["search"], ["classify"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""
        assert run_cli(capsys, "classify", "zn:12") == plain, argv


HELP_ARGVS = [["--help"]] + [[command, "--help"] for command in COMMANDS]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_matches_a_freshly_built_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    shared = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == shared
    assert shared.out.startswith("usage: multlat")


def test_main_builds_no_parser(capsys, monkeypatch, lattice_dir):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [
        ["validate", str(lattice_dir / "k.lat")],
        ["classify", "zn:12", "--x", "nil"],
        ["verify", "zn:12"],
        ["cross-validate", "zn:12"],
        ["search", "--corpus", "zn:2..12", "--find", "join-of-x-not-x"],
        ["dot", "zn:12"],
    ]
    for i in range(20):
        assert main(calls[i % len(calls)]) in (0, 1)
    capsys.readouterr()
    assert built == []
    cli._build_parser()
    assert len(built) == 1 + len(COMMANDS)  # the counter sees every construction


# -- scripts ----------------------------------------------------------------------


@pytest.mark.parametrize("modulus", ["1", "0"])
def test_mutation_audit_rejects_a_modulus_below_2(modulus):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "mutation_audit.py"), "--zn", modulus],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"--zn must be at least 2, got {modulus}" in proc.stderr
    assert "Traceback" not in proc.stderr
