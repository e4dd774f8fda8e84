"""Command-line interface: exit codes, output formats, determinism."""
import ast
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modgraphs
from modgraphs import GraphKind
from modgraphs.cli import _parse, dispatch

from helpers import argparse_reading

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(*argv, capsys=None):
    code = dispatch(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


# -------------------------------------------------------------- exit codes

def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys=capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli("--help", capsys=capsys)
    assert code == 0
    assert "enumerate" in out and "check" in out


def test_command_help_lists_the_kind_choices(capsys):
    code, out, err = run_cli("graph", "-h", capsys=capsys)
    assert (code, err) == (0, "")
    kind = next(line for line in out.splitlines() if line.lstrip().startswith("--kind"))
    assert kind.split() == ["--kind", "{ssi,pss,sii,pis,ssi_tilde,pss_tilde}"]


def test_prefix_and_equals_forms_read_as_the_full_option(capsys):
    want = run_cli("check", "--family", "zmod:Z16", "--checks", "C6,D6", capsys=capsys)
    assert want[0] == 0 and json.loads(want[1])["summary"]["findings"] == 2
    assert run_cli("check", "--fam", "zmod:Z16", "--checks", "C6,D6", capsys=capsys) == want
    assert run_cli("check", "--family=zmod:Z16", "--che=C6,D6", capsys=capsys) == want


@pytest.mark.parametrize("argv,named", [
    (("check", "--f", "x"), "--f could match --family, --fail-on-findings"),
    (("graph", "--module", "Z12"), "--kind"),
    (("check", "--max-order", "ten"), "'ten'"),
    (("graph", "--module", "Z12", "--kind", "zzz"), "'zzz'"),
    (("enumerate", "--module"), "--module"),
    (("enumerate", "--module", "Z6", "Z12"), "Z12"),
    (("check", "--strict=yes"), "--strict"),
    (("bogus",), "'bogus'"),
], ids=["ambiguous", "missing-kind", "bad-int", "bad-choice", "no-value", "stray",
        "flag-value", "bad-command"])
def test_usage_errors_exit_2_with_nothing_on_stdout(argv, named, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: modgraphs ") and error.startswith("modgraphs: error: ")
    assert named in error


def test_bad_module_descriptor(capsys):
    code, _, err = run_cli("enumerate", "--module", "Q8", capsys=capsys)
    assert code == 2
    assert err.startswith("error:")


def test_oversize_module_is_guarded(capsys):
    code, _, err = run_cli("enumerate", "--module", "Z9999", capsys=capsys)
    assert code == 3
    assert "9999" in err and "4096" in err


def test_guard_override_flag(capsys):
    code, out, _ = run_cli("enumerate", "--module", "Z9999",
                           "--max-order", "10000", capsys=capsys)
    assert code == 0
    assert "Z9999" in out


@pytest.mark.parametrize("argv", [
    ("classify", "--module", "Z1000000000000000000"),
    ("graph", "--module", "Z1000000000000000000", "--kind", "ssi"),
    ("check", "--family", "zmod:Z1000000000000000000"),
])
def test_guard_refuses_before_any_divisor_work(argv, monkeypatch, capsys):
    # listing the divisors of 10^18 takes 10^9 trial divisions, so the size
    # guard must stop every command before anything asks for them
    from modgraphs import algebra
    calls = []
    monkeypatch.setattr(algebra, "divisors", lambda n: calls.append(n) or [1, n])
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 3 and "exceeds the guard" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("classify", "--module", "Z2", "--ring", "Z4096", "--max-order", "100"),
    ("graph", "--module", "Z2", "--ring", "Z4096", "--kind", "ssi_tilde",
     "--max-order", "100"),
])
def test_guard_names_the_ring_when_the_ring_is_refused(argv, capsys):
    # Z2 is within the guard; the ideal lattice of Z4096 is what is refused
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "error: ring Z4096 order 4096 exceeds the guard 100\n"


def test_family_run_names_the_module_past_the_lattice_guard(capsys):
    # Z2^7 over Z2 has 29,212 submodules, past the guard of 20,000; the
    # modules before it in the family are not reported either
    code, out, err = run_cli("check", "--family", "cyclic:2..4,zmod:Z2xZ2xZ2xZ2xZ2xZ2xZ2/Z2",
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert err == ("error: module Z2xZ2xZ2xZ2xZ2xZ2xZ2 over Z2 "
                   "lattice size 29212 exceeds the guard 20000\n")


def test_family_run_names_the_module_past_the_order_guard(capsys):
    # |Z64xZ64xZ2| = 8192; the family stops as the item is expanded, and
    # the refusal names the item, not only its order
    code, out, err = run_cli("check", "--family", "cyclic:2..4,zmod:Z64xZ64xZ2", capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "error: module Z64xZ64xZ2 over Z64 order 8192 exceeds the guard 4096\n"


Z2_4, Z2_7 = "x".join(["Z2"] * 4), "x".join(["Z2"] * 7)


@pytest.mark.parametrize("argv", [
    ("check", "--family", f"zmod:{Z2_4}/Z2", "--checks", "all"),
    ("enumerate", "--module", Z2_4, "--ring", "Z2"),
    ("classify", "--module", Z2_4, "--ring", "Z2"),
    ("graph", "--module", Z2_4, "--ring", "Z2", "--kind", "ssi"),
], ids=["check", "enumerate", "classify", "graph"])
def test_max_lattice_sets_the_lattice_guard(argv, capsys):
    # Z2^4 over Z2 has 67 submodules
    code, out, err = run_cli(*argv, "--max-lattice", "66", capsys=capsys)
    assert (code, out) == (3, "")
    assert err == f"error: module {Z2_4} over Z2 lattice size 67 exceeds the guard 66\n"
    code, out, err = run_cli(*argv, "--max-lattice", "67", capsys=capsys)
    assert (code, err) == (0, "") and out


Z2_7_SIZE = f"module {Z2_7} over Z2 lattice size 29212"


@pytest.mark.parametrize("argv,name", [
    (("check", "--family", f"cyclic:2..4,zmod:{Z2_7}/Z2"), Z2_7_SIZE),
    (("check", "--family", "vector:3^6"), "module Z3xZ3xZ3xZ3xZ3xZ3 over Z3 lattice size 56632"),
    (("enumerate", "--module", Z2_7, "--ring", "Z2"), Z2_7_SIZE),
    (("classify", "--module", Z2_7, "--ring", "Z2"), Z2_7_SIZE),
    (("graph", "--module", Z2_7, "--ring", "Z2", "--kind", "pss"), Z2_7_SIZE),
], ids=["check-Z2^7", "check-vector-3^6", "enumerate", "classify", "graph"])
def test_oversize_lattices_are_refused_before_any_cover_step(argv, name, monkeypatch, capsys):
    # Z2^7 has 29,212 submodules and F_3^6 56,632: the count refuses both
    # at once, where a walk would first climb to the guard
    import modgraphs.checks
    import modgraphs.harness  # compiled before the clock starts

    def refuse(*args):
        raise AssertionError("a cover step ran")

    monkeypatch.setattr(modgraphs.algebra, "_cover", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(*argv, capsys=capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == f"error: {name} exceeds the guard 20000\n"
    assert elapsed < 0.1


def test_check_reads_the_ring_lattice_only_where_a_check_needs_it(capsys):
    # in `check` only C14/D14, which need Z_n over itself, and a C7 failure
    # witness read the ideal lattice, so the guard on Z4096 never fires
    code, _, _ = run_cli("check", "--family", "zmod:Z2/Z4096", "--max-order", "100",
                         "--checks", "all", capsys=capsys)
    assert code == 0
    code, _, err = run_cli("classify", "--module", "Z2", "--ring", "Z4096",
                           "--max-order", "100", capsys=capsys)
    assert code == 3 and "ring Z4096" in err


def test_oversized_family_fails_before_it_is_built(monkeypatch, capsys):
    # a million-module family must stop at its first oversized module, not
    # after every module in it has been built
    from modgraphs import algebra
    built = []
    init = algebra.FiniteModule.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        assert len(built) <= 100, "the whole family is being built"
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra.FiniteModule, "__init__", counting_init)
    code, out, err = run_cli("check", "--family", "cyclic:4090..1000000",
                             "--checks", "C1", capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "error: ring Z4097 order 4097 exceeds the guard 4096\n"
    assert len(built) == 8  # Z4090..Z4097, each built once


HUGE = "1" * 4400  # past the 4,300 digits Python converts between str and int


@pytest.mark.parametrize("argv", [
    ("classify", "--module", f"Z{HUGE}"),
    ("graph", "--module", "Z2", "--ring", f"Z{HUGE}", "--kind", "ssi"),
    ("check", "--family", f"cyclic:2..{HUGE}"),
    ("check", "--family", f"zmod:Z{HUGE}"),
    ("check", "--family", f"product:ab<={HUGE}"),
    ("check", "--family", "vector:2^20000"),
    ("classify", "--module", "x".join(["Z2"] * 15000)),
], ids=["classify", "graph-ring", "cyclic", "zmod", "product", "vector", "15000-factors"])
def test_huge_numbers_are_refused_without_a_traceback(argv, capsys):
    # a number too long to parse is a descriptor error; an order too long to
    # print is named by its bit length
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code in (2, 3) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_lattice_count_too_long_to_print_is_named_by_its_bit_length(capsys):
    # F_2^240 passes an order guard of 2^240, but its count of subspaces has
    # 14,403 bits, more digits than str() converts
    code, out, err = run_cli("check", "--family", "vector:2^240", "--max-order", str(2 ** 240),
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "error: module lattice size at least 2^14402 exceeds the guard 20000\n"


@pytest.mark.parametrize("item,message", [
    ("vector:2^10000000", "module order 2^10000000 exceeds the guard 4096"),
    (f"vector:{'9' * 600}^1", f"module order {'9' * 600}^1 exceeds the guard 4096"),
])
def test_vector_family_is_refused_before_it_is_built(item, message, monkeypatch, capsys):
    # the k-tuple of factors grows with k and trial division with sqrt(p), so
    # the refusal comes before the module and the primality test (k is kept
    # at 10^7, an 80 MB tuple, should the guard ever come too late)
    from modgraphs import harness

    def unreachable(*args):
        raise AssertionError("reached past the guard")

    monkeypatch.setattr(harness, "FiniteModule", unreachable)
    monkeypatch.setattr(harness, "_is_prime", unreachable)
    code, out, err = run_cli("check", "--family", item, capsys=capsys)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_domination_search_is_bounded(monkeypatch):
    # no command runs the search; past its node budget the library
    # function refuses, naming the stage and graph
    monkeypatch.setattr(modgraphs.harness, "DOMINATION_NODES", 5)
    _, module = modgraphs.parse_descriptor("Z5xZ5xZ5", "Z5")
    g = modgraphs.build_graph("pss", modgraphs.enumerate_submodules(module))
    with pytest.raises(modgraphs.SizeGuardError) as refused:
        modgraphs.domination_number(g)
    assert str(refused.value) == "domination search on pss of Z5xZ5xZ5 exceeded 5 nodes"


def test_ideal_graph_on_module_is_an_error(capsys):
    code, _, err = run_cli("graph", "--module", "Z2xZ4", "--ring", "Z4",
                           "--kind", "pis", capsys=capsys)
    assert code == 2
    assert "ideal graph" in err


@pytest.mark.parametrize("argv,code,enumerated", [
    (("--module", "Z72", "--kind", "pss_tilde"), 0, ["Z72"]),
    (("--module", "Z2xZ4", "--ring", "Z8", "--kind", "ssi_tilde"), 0, ["Z2xZ4", "Z8"]),
    (("--module", "Z2xZ4", "--ring", "Z8", "--kind", "ssi"), 0, ["Z2xZ4"]),
    (("--module", "Z2xZ4", "--ring", "Z4", "--kind", "pis"), 2, ["Z2xZ4"]),
], ids=["ring-tilde", "module-tilde", "module-ssi", "module-pis"])
def test_graph_enumerates_only_the_lattices_its_kind_reads(argv, code, enumerated,
                                                           monkeypatch, capsys):
    # Z_n over itself is its own ideal lattice, so one enumeration serves
    # both sides; only a tilde kind reads the ring's ideals of a module
    calls = []
    real = modgraphs.algebra.enumerate_submodules

    def counted(module, **kwargs):
        calls.append(module.descriptor)
        return real(module, **kwargs)

    for mod in (modgraphs, modgraphs.algebra, modgraphs.cli, modgraphs.graphs,
                modgraphs.harness):
        if hasattr(mod, "enumerate_submodules"):
            monkeypatch.setattr(mod, "enumerate_submodules", counted)
    assert run_cli("graph", *argv, capsys=capsys)[0] == code
    assert calls == enumerated


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli("enumerate", "--module", "Z6", "--out", str(target),
                             capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_unknown_graph_kind_is_usage_error(capsys):
    code, _, _ = run_cli("graph", "--module", "Z12", "--kind", "zzz",
                         capsys=capsys)
    assert code == 2


# ------------------------------------------- the parser against argparse

# the values each option is drawn with, good ones first; flags take none
MODULE_VALUES = {"--module": ["Z12", "Z2xZ4", "", "-5", "-a b", "-x"],
                 "--ring": ["Z24", "Z4"],
                 "--max-order": ["100", "4096", "-5", " 7", "1_000", "ten", "4.5"],
                 "--max-lattice": ["66", "20000", "-1", "x"],
                 "--out": ["out.txt", "-"]}
OPTIONS = {
    "enumerate": {**MODULE_VALUES, "--format": ["json", "text", "dot"]},
    "classify": {**MODULE_VALUES, "--format": ["json", "text", "xml"]},
    "graph": {**MODULE_VALUES, "--kind": [k.value for k in GraphKind] + ["zzz", "SSI"],
              "--format": ["dot", "json", "text"]},
    "check": {"--family": ["zmod:Z16", "cyclic:2..4"], "--checks": ["C6,D6", "all"],
              "--strict": None, "--fail-on-findings": None, "--timing": None,
              "--max-order": MODULE_VALUES["--max-order"],
              "--max-lattice": MODULE_VALUES["--max-lattice"], "--out": ["out.txt"]},
}
REQUIRED = {"enumerate": ["--module", "Z6"], "classify": ["--module", "Z6"],
            "graph": ["--module", "Z6", "--kind", "pss"], "check": []}
HELP = ["-h", "--help", "--he", "--help=x", "-h=x"]
STRAY = ["x", "Z12", "-", "-x", "--zzz", "--zzz=1", "-5", "a b", "--kind", "--family"]


@st.composite
def option_tokens(draw, command):
    """One option of `command` as one or two tokens: its name or a prefix
    of it, then its value (more often the first) after '=', as the next
    token, or not at all."""
    name, values = draw(st.sampled_from(sorted(OPTIONS[command].items())))
    spelled = draw(st.sampled_from([name, name[:draw(st.integers(3, len(name)))]]))
    value = draw(st.sampled_from([(values or ["x"])[0]] * 3 + (values or [])))
    if values is None:
        return draw(st.sampled_from([[spelled]] * 5 + [[f"{spelled}={value}"]]))
    return draw(st.sampled_from([[spelled, value]] * 3 + [[f"{spelled}={value}"], [spelled]]))


@st.composite
def command_lines(draw):
    """argv over the four commands: maybe a token before the command, the
    command (or a bad one, or none), maybe its required options, then
    options, and now and then help or a stray token, in any order."""
    before = draw(st.sampled_from([[]] * 24 + [[token] for token in ["--zzz", "-x"] + HELP]))
    command = draw(st.sampled_from(list(OPTIONS) * 3 + ["bogus", None]))
    if command is None:
        return before
    pieces = [REQUIRED.get(command, [])] * draw(st.sampled_from([1, 1, 0]))
    pieces += draw(st.lists(st.one_of(
        *[option_tokens(command)] * 8 * (command in OPTIONS),
        st.sampled_from(HELP + STRAY).map(lambda token: [token])), max_size=5))
    order = draw(st.permutations(range(len(pieces))))
    return before + [command] + [token for i in order for token in pieces[i]]


def table_reading(argv):
    """The table parser's reading of argv in argparse_reading's shape."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        parsed = _parse(argv)
    if isinstance(parsed, int):
        return parsed, None, out.getvalue(), err.getvalue()
    return None, vars(parsed), out.getvalue(), err.getvalue()


def assert_reads_as_argparse(argv):
    code, values, out, err = table_reading(argv)
    assert (code, values) == argparse_reading(argv)[:2], argv
    if code == 0:  # help
        assert out.startswith("usage: modgraphs") and err == "", argv
    elif code == 2:
        assert out == "", argv
        usage, error = err.splitlines()
        assert usage.startswith("usage: modgraphs") and error.startswith("modgraphs: error: ")
    else:
        assert out == err == "", argv


@settings(derandomize=True, deadline=None, max_examples=400)
@given(command_lines())
def test_options_read_as_argparse_reads_them(argv):
    assert_reads_as_argparse(argv)


# ------------------------------------------------------------ enumerate

def test_enumerate_text(capsys):
    code, out, _ = run_cli("enumerate", "--module", "Z12", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "module Z12 over Z12: 6 submodules"
    assert lines[1] == "0 order=1 elements={0}"
    assert "2M order=6 elements={0,2,4,6,8,10}" in lines


def test_enumerate_json(capsys):
    code, out, _ = run_cli("enumerate", "--module", "Z2xZ4", "--ring", "Z4",
                           "--format", "json", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["module"] == "Z2xZ4" and data["ring"] == "Z4"
    assert len(data["submodules"]) == 8
    assert [s["label"] for s in data["submodules"]][0] == "0"
    assert all({"label", "order", "generators", "elements"} <= set(s)
               for s in data["submodules"])


# ------------------------------------------------------------- classify

def test_classify_text(capsys):
    code, out, _ = run_cli("classify", "--module", "Z12", capsys=capsys)
    assert code == 0
    assert "second_socle=2M prime_radical=6M" in out
    assert ("properties: coreduced=False reduced=False multiplication=True "
            "comultiplication=True dac=True strong_comultiplication=True "
            "faithful=True hollow=False uniform=False") in out
    assert "2M: order=6 minimal=False maximal=True second=False prime=True" in out


def test_classify_json(capsys):
    code, out, _ = run_cli("classify", "--module", "Z16", "--format", "json",
                           capsys=capsys)
    data = json.loads(out)
    assert data["second_socle"] == "8M"
    assert data["prime_radical"] == "2M"
    flags = {row["label"]: row for row in data["submodules"]}
    assert flags["8M"]["minimal"] and flags["8M"]["second"]
    assert flags["2M"]["maximal"] and flags["2M"]["prime"]


# ---------------------------------------------------------------- graph

def test_graph_dot_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    for target in (a, b):
        code, _, _ = run_cli("graph", "--module", "Z12", "--kind", "ssi",
                             "--out", str(target), capsys=capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("graph ssi {") and text.endswith("}\n")


def test_graph_json_to_stdout(capsys):
    code, out, _ = run_cli("graph", "--module", "Z12", "--kind", "pss",
                           "--format", "json", capsys=capsys)
    data = json.loads(out)
    assert data["kind"] == "pss"
    assert data["edges"] == [[0, 2], [0, 3], [1, 3], [2, 3]]


def test_graph_tilde_kind(capsys):
    code, out, _ = run_cli("graph", "--module", "Z2xZ4", "--ring", "Z4",
                           "--kind", "ssi_tilde", "--format", "json",
                           capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "Z4"
    assert [v["label"] for v in data["vertices"]] == ["2R"]


# exit code and sha256 of stdout for ring-side exports; the empty digest
# pins the ideal-graph refusal on a module that is not the ring itself
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
RING_SIDE_DIGESTS = {
    ("Z72", None, "classify"):
        (0, "8057ea36d2960ab1522f1488208c69c1f22bf72b4cded0bc962a81127bd617ad"),
    ("Z72", None, "pss_tilde"):
        (0, "497441923ac78fa8f690d834a48d78cb803a28c73009948f45e86a6022b21b51"),
    ("Z72", None, "ssi_tilde"):
        (0, "a1ff784447b58384ac0021c0e7037de198711162b42a2998e3b1d256a7e3ef5d"),
    ("Z72", None, "pis"):
        (0, "dace389d23e33c3ddbf6dd2afb20829803bb69f2938b24cbc6d1b351e0a2796a"),
    ("Z2xZ4", "Z48", "classify"):
        (0, "6854e564b5c7d2cab36c595d4d4f8a86389172c01183d27c84c9513199ce6ab1"),
    ("Z2xZ4", "Z48", "pss_tilde"):
        (0, "b27b4437df280d31227ee4b54c5136d2e13378e51208b89d3420ba6c93d018eb"),
    ("Z2xZ4", "Z48", "ssi_tilde"):
        (0, "dc430737789563f55978dcd3c5c72325e3d13adaed809e6b103fec5754eb7bef"),
    ("Z2xZ4", "Z48", "pis"): (2, EMPTY),
}


@pytest.mark.parametrize("module_text,ring_text,what", list(RING_SIDE_DIGESTS))
def test_ring_side_exports_are_byte_stable(module_text, ring_text, what, capsys):
    target = ["--module", module_text] + (["--ring", ring_text] if ring_text else [])
    command = ["classify"] if what == "classify" else ["graph", "--kind", what]
    code, out, _ = run_cli(command[0], *target, *command[1:], "--format", "json",
                           capsys=capsys)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == RING_SIDE_DIGESTS[module_text, ring_text, what]


# ---------------------------------------------------------------- check

def test_check_reports_json(capsys):
    code, out, _ = run_cli("check", "--family", "cyclic:2..12", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "strict"
    assert data["summary"]["fail"] == 0
    assert len(data["results"]) == 11 * 27


def test_check_all_is_byte_stable_on_a_374_member_lattice(capsys):
    # a lattice larger than any the benchmark runs: Z2^5 over Z2
    code, out, _ = run_cli("check", "--family", "zmod:Z2xZ2xZ2xZ2xZ2/Z2",
                           "--checks", "all", capsys=capsys)
    blob = out.encode()
    assert (code, len(blob), hashlib.sha256(blob).hexdigest()) == (
        0, 3958, "0696bd6bec66bb675df75ad9d81e2253920b43ba94b7cfe9bb2fc96f6b7fdf8e")


# argv of a graph export, a check run or a classify -> byte count and
# sha256 of stdout; the Z4xZ4xZ4 exports carry generator labels, Z2^6 over
# Z2 is the 2,825-member lattice, F_5^4 and F_7^4 (1,120 and 3,652 members)
# are the largest vector spaces the guards accept, Z3^3xZ9^2 and Z6^4
# (14,372 and 14,204 members) the slowest checks they accept, and classify
# writes the module properties through ModuleProperties._asdict
BYTE_PINS = {
    ("graph", "--module", "Z4xZ4xZ4", "--kind", "pss", "--format", "dot"):
        (74640, "5c00cae83131ae4c757e39e76dfd4b39159c93bb57643cde4bb8ce368b98ae50"),
    ("graph", "--module", "Z4xZ4xZ4", "--kind", "pss", "--format", "json"):
        (163411, "6c8ac0052b05a9fdc6bd3705be35a3ef121b08f12a8ab978b1d9f3e812d05da2"),
    ("check", "--family", "zmod:Z2xZ2xZ2xZ2xZ2xZ2/Z2", "--checks", "all"):
        (4052, "6f31385082e6ef69b8a99986cbcfac28228c69f6c2ebae6bf07954f9ce02b409"),
    ("check", "--family", "zmod:Z3xZ3xZ3xZ3xZ3/Z3", "--checks", "all"):
        (3959, "92f513afda16090fb7952caa4339fb8eeb341786ba878eaf7bcc90ff24a6ae29"),
    ("check", "--family", "vector:5^4", "--checks", "all"):
        (3858, "78cb651c7494b4c737125e9c8002c7092d487fb950f560321a280c6c2dbe1a5b"),
    ("check", "--family", "vector:7^4", "--checks", "all"):
        (3858, "79e09f7635e0a19c1186b83e7f007989b23fd774e0cdc736b9a47bf203ed019b"),
    ("check", "--family", "zmod:Z3xZ3xZ3xZ9xZ9", "--checks", "all"):
        (3936, "e7fe012fd2079079a75e26fd7bfafc077013ce3f3ad56719edd016d7055fa309"),
    ("check", "--family", "zmod:Z6xZ6xZ6xZ6", "--checks", "all"):
        (3863, "38d316c749e49126f3362ea7ffba0e09f738d1440f765cec6a0f6e1d3001b212"),
    ("check", "--family", "cyclic:2..60,product:ab<=64,vector:2^3,vector:3^3",
     "--checks", "all"):
        (488363, "e4e5d4c2c1dc61d4bf499644f6996921d3007c8b29efedeaa6014b36cc452e0e"),
    ("classify", "--module", "Z720", "--format", "json"):
        (7511, "2cfbe5ff7abde8c67dabe31c6cef3a3ae2333c19e309ce85a3560b40a53ae819"),
    ("classify", "--module", "Z2xZ4", "--ring", "Z4096"):
        (1149, "3bdc1e0e4e1b02f5fee4bb2a1398ef72c5120ba7bacaa772221640d3ed345f25"),
}


@pytest.mark.parametrize("pin", list(BYTE_PINS))
def test_outputs_match_their_byte_pins(pin, capsys):
    code, out, _ = run_cli(*pin, capsys=capsys)
    blob = out.encode()
    assert (code, len(blob), hashlib.sha256(blob).hexdigest()) == (0, *BYTE_PINS[pin])


@pytest.mark.parametrize("argv", [
    *BYTE_PINS,
    ("enumerate", "--module", "Z12"),
    ("classify", "--module", "Z12", "--format", "json"),
    ("graph", "--module", "Z2xZ4", "--ring", "Z4", "--kind", "pss_tilde", "--format", "json"),
    ("check", "--fail-on-findings", "--timing"),
    ("check", "--strict"),
    ("check", "--fam", "zmod:Z16", "--ch=C6,D6", "--fam=cyclic:2..4", "--str", "--out", "x"),
    ("graph", "--kind", "sii", "--module=Z8", "--max", "-5", "--form=json", "-h"),
    ("enumerate", "--module", "-a b", "--ring", "-12", "--out", "-"),
    (),
])
def test_documented_command_lines_read_as_argparse_reads_them(argv):
    assert_reads_as_argparse(list(argv))


def test_cyclic_check_picks_no_generators(monkeypatch, capsys):
    # every member of a cyclic module is dM, so no label, check or witness
    # needs canonical generators, and the report keeps its bytes
    def refuse(module, mask):
        raise AssertionError("canonical generators were picked")

    monkeypatch.setattr(modgraphs.algebra, "_canonical_generators", refuse)
    code, out, _ = run_cli("check", "--family", "cyclic:2..60", "--checks", "all",
                           capsys=capsys)
    blob = out.encode()
    assert (code, len(blob), hashlib.sha256(blob).hexdigest()) == (
        0, 201888, "39224d92f7c08f2c530acb41926b3bdc10b64755be8f8eec9ae446cf311762b5")


def test_girth_three_decides_c10_without_an_edge_scan(monkeypatch, capsys):
    # both graphs of Z4xZ4xZ4 have a triangle, which passes C10/D10 outright
    argv = ("check", "--family", "zmod:Z4xZ4xZ4", "--checks", "C10,D10")
    want = run_cli(*argv, capsys=capsys)
    assert json.loads(want[1])["summary"]["pass"] == 2

    def refuse(self):
        raise AssertionError("an edge scan ran")

    monkeypatch.setattr(modgraphs.graphs.SimpleGraph, "iter_edges", refuse)
    assert run_cli(*argv, capsys=capsys) == want


def test_findings_do_not_fail_by_default(capsys):
    code, out, _ = run_cli("check", "--family", "zmod:Z12", "--checks", "D9",
                           capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["findings"] == 1


def test_fail_on_findings_flag(capsys):
    code, _, _ = run_cli("check", "--family", "zmod:Z12", "--checks", "D9",
                         "--fail-on-findings", capsys=capsys)
    assert code == 1


def test_strict_flag_passes_when_no_failures(capsys):
    code, _, _ = run_cli("check", "--family", "cyclic:2..20", "--strict",
                         capsys=capsys)
    assert code == 0


def test_check_timing_flag(capsys):
    code, out, _ = run_cli("check", "--family", "zmod:Z12", "--checks", "C1",
                           "--timing", capsys=capsys)
    data = json.loads(out)
    assert "millis" in data["results"][0]
    code2, out2, _ = run_cli("check", "--family", "zmod:Z12", "--checks", "C1",
                             capsys=capsys)
    assert "millis" not in json.loads(out2)["results"][0]


def test_check_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("check", "--family", "zmod:Z16",
                           "--checks", "C6,D6", "--out", str(target),
                           capsys=capsys)
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["summary"]["findings"] == 2


def test_check_streams_the_report_without_collecting_it(monkeypatch, capsys):
    # `check` writes each result's piece as it is made: neither the
    # collected report nor its one-string JSON is built
    def refuse(*args, **kwargs):
        raise AssertionError("the whole report was collected")

    monkeypatch.setattr(modgraphs.harness, "run_suite", refuse)
    monkeypatch.setattr(modgraphs.harness.CheckReport, "to_json", refuse)
    code, out, _ = run_cli("check", "--checks", "all", capsys=capsys)
    blob = out.encode()
    assert (code, len(blob), hashlib.sha256(blob).hexdigest()) == (
        0, 488363, "e4e5d4c2c1dc61d4bf499644f6996921d3007c8b29efedeaa6014b36cc452e0e")


@pytest.mark.parametrize("flag,verdict,code", [
    ("--strict", "fail", 1), ("--fail-on-findings", "finding", 1),
    ("--strict", "finding", 0), ("--fail-on-findings", "fail", 0),
    ("--timing", "fail", 0), ("--timing", "finding", 0),
])
def test_exit_codes_follow_the_streamed_verdicts(flag, verdict, code, monkeypatch, capsys):
    # one result of the middle instance is turned into a failure or a finding
    import modgraphs.checks
    evaluate = modgraphs.checks.evaluate_check

    def one_verdict(check, inst):
        result = evaluate(check, inst)
        if (check.id, inst.descriptor) == ("C1", "Z3"):
            result.verdict = verdict
        return result

    monkeypatch.setattr(modgraphs.checks, "evaluate_check", one_verdict)
    got, out, _ = run_cli("check", "--family", "cyclic:2..4", "--checks", "C1,C2", flag,
                          capsys=capsys)
    summary = json.loads(out)["summary"]
    assert got == code
    assert summary["fail" if verdict == "fail" else "findings"] == 1


@pytest.mark.parametrize("family", [f"cyclic:2..4,zmod:{Z2_7}/Z2", "cyclic:2..4,zmod:Z64xZ64xZ2",
                                    "planet:9"])
def test_a_refused_check_creates_no_out_file(family, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli("check", "--family", family, "--out", str(target), capsys=capsys)
    assert code in (2, 3) and out == "" and err.startswith("error: ")
    assert not target.exists()


def test_check_to_an_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli("check", "--family", "zmod:Z12", "--checks", "C1",
                             "--out", str(target), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_check_bad_family(capsys):
    code, _, err = run_cli("check", "--family", "planet:9", capsys=capsys)
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------- installed app

def child_env():
    """Environment for a child interpreter that imports the same modgraphs
    package as this process: the directory holding that package goes first
    on PYTHONPATH."""
    package_root = str(Path(modgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def declared_entry_point(name):
    """The ``(module, function)`` pair that ``[project.scripts]`` in
    pyproject.toml declares for the console script ``name``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, function = entry.strip().partition(":")
    return module, function


def assert_enumerates_z6(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "module Z6 over Z6: 4 submodules"


def test_installed_script_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "modgraphs", "graph", "--module", "Z12",
         "--kind", "ssi"],
        capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph ssi {")
    assert proc.stderr == ""


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "modgraphs", "enumerate", "--module", "Z6"],
                          capture_output=True, text=True, timeout=60, env=child_env())
    assert_enumerates_z6(proc)
    assert proc.stderr == ""


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every op of a fresh process pays for this import before any lattice
    # is built; dataclasses alone pulls in inspect, ast and dis, and the
    # command line is read without argparse and the gettext it imports
    probe = ("import sys; before = set(sys.modules); import modgraphs.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "modgraphs.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "argparse", "gettext"}), \
        sorted(loaded)
    # the check registry, the suite runner and the graph invariants wait for `check`
    assert {name for name in loaded if name.partition(".")[0] == "modgraphs"} == {
        "modgraphs", "modgraphs.algebra", "modgraphs.graphs", "modgraphs.cli"}


def test_only_check_loads_the_check_registry():
    # graph, classify and enumerate never compile checks.py or harness.py;
    # check loads both inside dispatch, not at import
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        import modgraphs.cli

        def loaded():
            return [name in sys.modules for name in ("modgraphs.checks", "modgraphs.harness")]

        seen = [loaded()]
        for argv in (["graph", "--module", "Z12", "--kind", "ssi"],
                     ["classify", "--module", "Z12"],
                     ["enumerate", "--module", "Z12"],
                     ["check", "--family", "cyclic:2..3"]):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = modgraphs.cli.dispatch(argv)
            seen.append([argv[0], rc, loaded()])
        print(json.dumps(seen))
    """)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    neither = [False, False]
    assert json.loads(proc.stdout) == [neither, ["graph", 0, neither],
                                       ["classify", 0, neither], ["enumerate", 0, neither],
                                       ["check", 0, [True, True]]]


# Under Python 3.10 and 3.11, a source file whose token count passes a
# power of two (2,048, 4,096, ...) doubles the compiler's token array; each
# module stays under the one it lands under now, so a new module, or one
# that crosses, is named here.
TOKEN_CEILINGS = {"__init__": 2048, "__main__": 2048, "cli": 2048, "graphs": 2048,
                  "checks": 4096, "harness": 4096, "algebra": 8192}


def count_tokens(tokens):
    # counted as the README counts: tokenize tokens but comments and blank
    # lines, and an f-string as one token, as Python 3.10 and 3.11 emit it;
    # 3.12 and later split it from FSTRING_START to its FSTRING_END
    fstring_start = getattr(tokenize, "FSTRING_START", None)
    fstring_end = getattr(tokenize, "FSTRING_END", None)
    count = depth = 0
    for token in tokens:
        if token.type == fstring_start:
            count += depth == 0
            depth += 1
        elif token.type == fstring_end:
            depth -= 1
        elif depth == 0:
            count += token.type not in (tokenize.COMMENT, tokenize.NL)
    return count


def test_token_count_is_the_same_on_every_python():
    # a nested f-string, a conversion and a nested format spec count once
    source = "x = f\"a{f'{b}'!r:>{w}}c\" + 'd'  # note\n\n"
    assert count_tokens(tokenize.generate_tokens(io.StringIO(source).readline)) == 7


def test_modules_stay_under_their_token_ceilings():
    counts = {}
    for path in sorted(Path(modgraphs.__file__).parent.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            counts[path.stem] = count_tokens(tokenize.generate_tokens(fh.readline))
    assert counts.keys() == TOKEN_CEILINGS.keys(), str(counts)
    over = {name: n for name, n in counts.items() if n >= TOKEN_CEILINGS[name]}
    assert not over, f"at or over the ceiling: {over}; every count: {counts}"


def test_package_names_resolve_and_star_import_works():
    import modgraphs.checks
    for name in modgraphs.__all__:
        assert getattr(modgraphs, name) is not None, name
    assert modgraphs.CHECKS is modgraphs.checks.CHECKS
    assert modgraphs.evaluate_check is modgraphs.checks.evaluate_check
    with pytest.raises(AttributeError) as info:
        modgraphs.no_such_name
    assert str(info.value) == "module 'modgraphs' has no attribute 'no_such_name'"
    probe = ("import modgraphs; from modgraphs import *; import modgraphs.checks as c; "
             "missing = [n for n in modgraphs.__all__ if n not in globals()]; "
             "print(missing, CHECKS is c.CHECKS, Check is c.Check)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True True\n"


def test_console_script_entrypoint():
    # run the declared entry point the way a generated console-script
    # wrapper does, so the test needs no installed script
    module, function = declared_entry_point("modgraphs")
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"

    def run(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *argv],
                              capture_output=True, text=True, timeout=60,
                              env=child_env())

    assert_enumerates_z6(run("enumerate", "--module", "Z6"))
    # a usage error must reach the shell as exit 2, not be swallowed as 0
    assert run("enumerate", "--module", "Q8").returncode == 2


@pytest.mark.skipif(
    shutil.which("modgraphs") is None,
    reason="the modgraphs console script is not on PATH (`pip install -e .` "
           "installs it)")
def test_console_script_on_path():
    proc = subprocess.run(["modgraphs", "enumerate", "--module", "Z6"],
                          capture_output=True, text=True, timeout=60)
    assert_enumerates_z6(proc)


# ---------------------------------------------------------------- README

README = PYPROJECT.parent / "README.md"


def test_readme_library_example_gives_its_results():
    # each expression with a result comment, after it on its line (up to a
    # dash) or on the next line, must evaluate to that result
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, last, checked = {}, None, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if code:
            try:
                last = eval(compile(code, "README.md", "eval"), namespace)
            except SyntaxError:
                exec(compile(code, "README.md", "exec"), namespace)
                last = None
        if comment.strip():
            expected = comment.split("—")[0].strip()
            assert last == ast.literal_eval(expected), (line, last)
            checked += 1
    assert checked == 3
