"""Command-line behavior: output shapes, exit codes, and file plumbing.

Most cases drive main() in process for speed; a couple of subprocess runs
confirm the installed entry point wires up the same way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from langrep import cli
from langrep.cli import main
from langrep.constructions import BUILDERS, CLASSES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("3 2\na c\nb c\n")
    return str(path)


# --- eval -------------------------------------------------------------------


def test_eval_edges_output(capsys):
    code, out, _ = run_cli(capsys, "eval", "--lang", "<0101>", "--word", "14213243")
    assert code == 0
    assert out.splitlines()[0].split() == ["4", "4"]


def test_eval_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--lang", "<0101>", "--word", "14213243", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["1", "2", "3", "4"]
    assert ["1", "2"] in payload["edges"] and ["1", "3"] not in payload["edges"]


def test_eval_dot_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--lang", "<01>", "--word", "ab", "--out", "dot"
    )
    assert code == 0 and out.startswith("graph G {")


def test_eval_bad_word_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--lang", "<01>", "--word", "")
    assert code == 2 and "error:" in err


def test_eval_asymmetric_language_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--lang", "re:0*", "--word", "ab")
    assert code == 2 and "symmetric" in err


def test_eval_language_past_the_automaton_budget_exit_one(capsys):
    code, _, err = run_cli(capsys, "eval", "--lang", "re:(0|1)*0" + "(0|1)" * 16, "--word", "ab")
    assert code == 1 and "error:" in err and "budget" in err


# --- check / search ---------------------------------------------------------


def test_check_match(capsys, c4_file):
    code, out, _ = run_cli(
        capsys,
        "check", "--lang", "<0101>", "--word", "14213243", "--graph", c4_file,
    )
    assert code == 0 and out.strip() == "match"


def test_check_mismatch_exit_one(capsys, star_file):
    code, out, _ = run_cli(
        capsys,
        "check", "--lang", "<0101>", "--word", "14213243", "--graph", star_file,
        "--json",
    )
    assert code == 1
    assert json.loads(out)["match"] is False


def test_search_found(capsys, c4_file):
    code, out, _ = run_cli(
        capsys,
        "search", "--lang", "<0101>", "--graph", c4_file, "--uniform", "2",
    )
    assert code == 0
    assert out.strip()  # some representing word


def test_search_not_found(capsys, c4_file):
    code, out, _ = run_cli(
        capsys,
        "search", "--lang", "<0101>", "--graph", c4_file, "--freq", "1",
    )
    assert code == 1 and out.strip() == "none"


def test_search_budget_capacity(capsys, c4_file):
    code, _, err = run_cli(
        capsys,
        "search", "--lang", "<0101>", "--graph", c4_file,
        "--uniform", "2", "--budget", "1",
    )
    assert code == 1 and "error:" in err


def test_search_budget_below_one_is_a_usage_error(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "search", "--lang", "<0101>", "--graph", c4_file, "--budget", "0"
    )
    assert code == 2 and "node budget must be at least 1" in err


def test_search_bad_freq(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "search", "--lang", "<01>", "--graph", c4_file, "--freq", "x"
    )
    assert code == 2 and "frequentness" in err


# --- build ------------------------------------------------------------------


def test_build_word(capsys, star_file):
    code, out, _ = run_cli(capsys, "build", "--class", "threshold", "--graph", star_file)
    assert code == 0 and out.strip() == "aabbc"


def test_build_cert(capsys, star_file):
    code, out, _ = run_cli(
        capsys,
        "build", "--class", "threshold", "--graph", star_file, "--emit-cert",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "match"
    assert payload["language"] == "<01,001>"


def test_build_unknown_class(capsys, star_file):
    code, _, err = run_cli(capsys, "build", "--class", "mystery", "--graph", star_file)
    assert code == 2 and "unknown class" in err


def test_build_unknown_class_names_the_known_tags(capsys, star_file):
    code, _, err = run_cli(capsys, "build", "--class", "co-interval", "--graph", star_file)
    assert code == 2 and "unknown class tag 'co-interval'" in err
    listed = err.strip().split("known tags: ", 1)[1].split(", ")
    assert listed == list(BUILDERS) + ["and cograph for cograph-wrep-like"]


def test_build_out_of_domain(capsys, tmp_path):
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\na b\nb c\nc d\n")
    code, _, err = run_cli(capsys, "build", "--class", "cograph", "--graph", str(p4))
    assert code == 1 and "P4" in err


# --- decompose / decide -----------------------------------------------------


def test_decompose_output(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--lang", "<01,001>", "--word", "aabbc", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [[1, 1], [1, 2]]
    assert payload["whole"]["edges"] == [["a", "c"], ["b", "c"]]


def test_decide_lang_negative(capsys):
    code, out, _ = run_cli(capsys, "decide", "--lang", "<0101>", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["answer"] is False and payload["witness"] == "0101"


def test_decide_lang_positive(capsys):
    code, out, _ = run_cli(capsys, "decide", "--lang", "re:0*|1*", "--json")
    assert code == 0 and json.loads(out)["answer"] is True


def test_decide_cfg_file(capsys, tmp_path):
    path = tmp_path / "anbn.cfg"
    path.write_text("S -> 0 S 1 | eps\n")
    code, out, _ = run_cli(
        capsys, "decide", "--cfg", str(path), "--property", "degeneracy", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload == {
        "property": "bounded-degeneracy",
        "answer": False,
        "witness": "01",
    }


def test_decide_cfg_file_with_a_unit_cycle(capsys, tmp_path):
    path = tmp_path / "cycle.cfg"
    path.write_text("S -> A\nA -> S | 0 1\n")
    code, out, _ = run_cli(capsys, "decide", "--cfg", str(path), "--json")
    assert code == 1 and json.loads(out)["witness"] == "01"


def test_decide_regular_builtin(capsys):
    code, out, _ = run_cli(capsys, "decide", "--lang", "wrep", "--json")
    assert code == 1 and json.loads(out)["witness"] == "01"


def test_decide_opaque_builtin_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "decide", "--lang", "copy", "--json")
    assert code == 2 and "regular or context-free" in err


def test_decide_sources_exclusive(capsys):
    code, _, _ = run_cli(capsys, "decide", "--lang", "<01>", "--cfg", "x.cfg")
    assert code == 2


# --- codec commands ---------------------------------------------------------


def test_encode_decode_adjacent_round_trip(capsys, tmp_path, c4_file):
    blob_path = tmp_path / "c4.lgr"
    code, _, _ = run_cli(
        capsys, "encode", "--graph", c4_file, "-o", str(blob_path)
    )
    assert code == 0 and blob_path.read_bytes()[:4] == b"LGR1"

    code, out, _ = run_cli(capsys, "decode", str(blob_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["1", "2", "3", "4"]
    assert len(payload["edges"]) == 4

    code, out, _ = run_cli(capsys, "adjacent", str(blob_path), "1", "2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "adjacent", str(blob_path), "1", "3")
    assert code == 1 and out.strip() == "false"


def test_decode_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.lgr"
    bad.write_bytes(b"NOPE")
    code, _, err = run_cli(capsys, "decode", str(bad))
    assert code == 2 and "magic" in err


# --- classes / selftest -----------------------------------------------------


def test_classes_empty_language(capsys):
    code, out, _ = run_cli(
        capsys, "classes", "--order", "2", "--lang", "{}", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["graphs"]) == 1
    assert payload["graphs"][0]["graph"]["edges"] == []


def test_classes_order_capped(capsys):
    code, _, err = run_cli(capsys, "classes", "--order", "7", "--lang", "<01>")
    assert code == 2 and "capped" in err


def test_selftest_small_cap(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--order-cap", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["negative_control"]["detected"] is True
    assert [s["name"] for s in payload["suites"]] == [
        "figure-vectors", "characterizations-n5", "properties"
    ]
    # the characterization suite checks these four class-table rows against
    # their recognizers
    assert [row.tag for row in cli._N5_ROWS] == ["interval", "permutation", "circle", "co-interval"]
    assert all(row in CLASSES for row in cli._N5_ROWS)


@pytest.mark.parametrize("cap", ["0", "8"])
def test_selftest_order_cap_out_of_range_is_usage_error(capsys, cap):
    code, out, err = run_cli(capsys, "selftest", "--order-cap", cap, "--json")
    assert code == 2 and out == "" and "--order-cap" in err


# --- argparse plumbing ------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_missing_graph_file(capsys):
    code, _, err = run_cli(
        capsys, "check", "--lang", "<01>", "--word", "ab", "--graph", "/nonexistent"
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("edges", ["5", "null", '[["a", ["b"]]]'])
def test_encode_of_graph_json_with_malformed_edges_is_a_usage_error(capsys, tmp_path, edges):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["a", "b"], "edges": %s}' % edges)
    code, out, err = run_cli(capsys, "encode", "--graph", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# --- installed entry point --------------------------------------------------


def run_module(*argv):
    # the child imports the package under test: the repository's src first
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "langrep", *argv], capture_output=True, text=True, env=env
    )


def test_subprocess_eval():
    proc = run_module("eval", "--lang", "<01>", "--word", "ab")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].split() == ["2", "1"]


def test_subprocess_decide_exit_code():
    proc = run_module("decide", "--lang", "<01>")
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["answer"] is False and out["witness"] == "01"


def test_subprocess_eval_of_a_deeply_nested_regex():
    # the regex reader keeps its open groups on an explicit stack, so ten
    # thousand nested parentheses compile
    n = 10_000
    proc = run_module("eval", "--lang", "re:" + "(" * n + "(0|1)*" + ")" * n, "--word", "ab")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == ["2", "1"]
