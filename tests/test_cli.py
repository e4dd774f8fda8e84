"""Command-line interface: exit codes, output formats, determinism."""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import modgraphs
from modgraphs.cli import dispatch

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
    assert err == "error: module order 4097 exceeds the guard 4096\n"
    assert len(built) == 8  # Z4090..Z4097, each built once


def test_domination_search_is_bounded(monkeypatch, capsys):
    # past its node budget the search refuses, naming the stage and graph
    monkeypatch.setattr(modgraphs.graphs, "DOMINATION_NODES", 5)
    code, out, err = run_cli("check", "--family", "zmod:Z5xZ5xZ5/Z5", "--checks", "D15",
                             capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "error: domination search on pss of Z5xZ5xZ5 exceeded 5 nodes\n"


def test_ideal_graph_on_module_is_an_error(capsys):
    code, _, err = run_cli("graph", "--module", "Z2xZ4", "--ring", "Z4",
                           "--kind", "pis", capsys=capsys)
    assert code == 2
    assert "ideal graph" in err


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
# Z2 is the 2,825-member lattice, and classify writes the module properties
# through ModuleProperties._asdict
BYTE_PINS = {
    ("graph", "--module", "Z4xZ4xZ4", "--kind", "pss", "--format", "dot"):
        (74640, "5c00cae83131ae4c757e39e76dfd4b39159c93bb57643cde4bb8ce368b98ae50"),
    ("graph", "--module", "Z4xZ4xZ4", "--kind", "pss", "--format", "json"):
        (163411, "6c8ac0052b05a9fdc6bd3705be35a3ef121b08f12a8ab978b1d9f3e812d05da2"),
    ("check", "--family", "zmod:Z2xZ2xZ2xZ2xZ2xZ2/Z2", "--checks", "all"):
        (4052, "6f31385082e6ef69b8a99986cbcfac28228c69f6c2ebae6bf07954f9ce02b409"),
    ("check", "--family", "zmod:Z3xZ3xZ3xZ3xZ3/Z3", "--checks", "all"):
        (3959, "92f513afda16090fb7952caa4339fb8eeb341786ba878eaf7bcc90ff24a6ae29"),
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
    # is built; dataclasses alone pulls in inspect, ast and dis
    probe = ("import sys; before = set(sys.modules); import modgraphs.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "modgraphs.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis"}), sorted(loaded)


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
