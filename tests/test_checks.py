"""Check registry and individual check verdicts on known instances."""
import hashlib
import json

import pytest

import helpers
from conftest import make_instance
from modgraphs import (CHECKS, CHECKS_BY_ID, DEFAULT_FAMILY, GraphKind, Instance,
                       SimpleGraph, SubmoduleLattice, checks, domination_number,
                       evaluate_check, generate_family, graph_metrics, graphs, run_suite)
from modgraphs.checks import PSS_SIDE, REPORT, SSI_SIDE, STRICT, Check, facts
from modgraphs.harness import CheckReport


def run(check_id, inst):
    return evaluate_check(CHECKS_BY_ID[check_id], inst)


# --------------------------------------------------------------- registry

def test_registry_shape():
    assert len(CHECKS) == 30
    assert [c.id for c in CHECKS] == (
        [f"C{i}" for i in range(1, 16)] + [f"D{i}" for i in range(1, 16)])
    names = [c.name for c in CHECKS]
    assert len(set(names)) == 30
    for c in CHECKS:
        prefix = "ssi-" if c.id.startswith("C") else "pss-"
        assert c.name.startswith(prefix), c.id
        assert c.name == c.name.lower()


def test_report_mode_checks():
    report_ids = {c.id for c in CHECKS if c.mode == REPORT}
    assert report_ids == {"C6", "D6", "D9"}
    assert all(c.mode in (STRICT, REPORT) for c in CHECKS)


# ------------------------------------------------- scoping on known cases

def test_universal_vertex_check_scoped_to_few_minimals(z12, z2z4):
    # two minimals: in scope and true
    assert run("C1", z12).verdict == "pass"
    # three minimals: deliberately out of scope -- the naive biconditional
    # is false there (the 2-torsion joint sits above all three)
    assert run("C1", z2z4).verdict == "not_applicable"
    assert run("D1", z2z4).verdict == "not_applicable"


def test_socle_universality_is_one_directional(z12, z16):
    # Z12: socle 2M is universal yet not minimal -> hypothesis absent
    assert run("C3", z12).verdict == "not_applicable"
    assert run("D3", z12).verdict == "not_applicable"
    # Z16: socle 8M is the unique minimal -> claim bites and holds
    assert run("C3", z16).verdict == "pass"
    assert run("D3", z16).verdict == "pass"


def test_isolated_iff_extremal(z6):
    assert run("C4", z6).verdict == "pass"
    assert run("D4", z6).verdict == "pass"


# ------------------------------------------------------ report-mode checks

def test_completeness_converse_flagged_on_z16(z16):
    r = run("C6", z16)
    assert r.verdict == "finding"
    assert r.witness == {"pair": ["2M", "4M"], "intersection": "4M",
                         "intersection_second": False}
    d = run("D6", z16)
    assert d.verdict == "finding"
    assert d.witness == {"pair": ["4M", "8M"], "sum": "4M", "sum_prime": False}


def test_completeness_converse_passes_on_z8():
    z8 = make_instance("Z8")
    assert run("C6", z8).verdict == "pass"
    assert run("D6", z8).verdict == "pass"


def test_c6_witness_replays(z16):
    r = run("C6", z16)
    lat = z16.lattice
    by_label = {s.label(): s for s in lat.all}
    a, b = (by_label[x] for x in r.witness["pair"])
    meet = lat.meet(a, b)
    assert meet.label() == r.witness["intersection"]
    assert lat.is_second(meet) == r.witness["intersection_second"] == False


def test_spanning_pairs_reading_recorded_both_ways(z12, z16):
    r = run("D9", z12)
    assert r.verdict == "finding"
    assert r.witness == {"minimal_pairs": 1, "every_pair_spans": False,
                         "no_pair_spans": True}
    ok = run("D9", z16)
    assert ok.verdict == "pass"
    assert ok.witness == {"minimal_pairs": 0, "every_pair_spans": True,
                          "no_pair_spans": True}


def test_d9_witness_always_present():
    for text in ("Z12", "Z16", "Z30", "Z36"):
        inst = make_instance(text)
        r = run("D9", inst)
        if r.verdict != "not_applicable":
            assert r.witness is not None and "minimal_pairs" in r.witness


# ------------------------------------------------------- vacuous hypotheses

@pytest.mark.parametrize("text,ring", [("Z12", None), ("Z16", None),
                                       ("Z2xZ4", "Z4"), ("Z30", None),
                                       ("Z2xZ2xZ2", "Z2")])
def test_complete_graph_hypotheses_do_not_fire_here(text, ring):
    inst = make_instance(text, ring)
    assert run("C13", inst).verdict == "not_applicable"
    assert run("D13", inst).verdict == "not_applicable"


LADDER_FAMILY = ("zmod:Z16xZ16,zmod:Z4xZ4xZ4,zmod:Z5xZ5xZ5/Z5,zmod:Z2xZ4xZ8,"
                 "zmod:Z2xZ2xZ2xZ2/Z2")


@pytest.mark.parametrize("family", [DEFAULT_FAMILY, LADDER_FAMILY, "cyclic:2..200"])
def test_c13_and_d13_never_apply(family):
    # uniform (hollow) forces a cyclic p-group, every nonzero submodule second
    # (every proper one prime) then forces exponent p, and Z_p has no vertex
    for inst in generate_family(family):
        assert run("C13", inst).verdict == "not_applicable", inst.descriptor
        assert run("D13", inst).verdict == "not_applicable", inst.descriptor


# ------------------------------------------------- ideal-graph transfers

def test_ideal_graph_transfers_apply_and_pass():
    z8 = make_instance("Z8")
    for cid in ("C7", "D7", "C14", "D14"):
        assert run(cid, z8).verdict == "pass", cid
    z12 = make_instance("Z12")
    assert run("C7", z12).verdict == "pass"
    assert run("D7", z12).verdict == "pass"


# ------------------------------------------------------------- fail path

def test_strict_failure_gets_fallback_witness(z12):
    broken = Check("X1", "always-wrong", STRICT,
                   applies=lambda inst: True,
                   claim=lambda inst: (False, None))
    r = evaluate_check(broken, z12)
    assert r.verdict == "fail"
    assert r.witness == {"reason": "claim violated"}
    assert r.instance == "Z12"


def test_report_failure_is_a_finding(z12):
    noisy = Check("X2", "always-noisy", REPORT,
                  applies=lambda inst: True,
                  claim=lambda inst: (False, {"detail": 7}))
    r = evaluate_check(noisy, z12)
    assert r.verdict == "finding"
    assert r.witness == {"detail": 7}


def test_result_serialization(z16):
    r = run("C6", z16)
    d = r.as_dict()
    assert set(d) == {"check", "instance", "verdict", "witness"}
    assert d["check"] == "C6" and d["instance"] == "Z16"
    timed = run("C6", z16)
    timed.millis = 1.25
    assert timed.as_dict(include_timing=True)["millis"] == 1.25


# -------------------------------------------- whole-registry sanity sweep

@pytest.mark.parametrize("text,ring", [("Z12", None), ("Z16", None),
                                       ("Z6", None), ("Z2xZ4", "Z4"),
                                       ("Z3xZ3", "Z3"), ("Z36", None)])
def test_no_strict_failures_on_sample(text, ring):
    inst = make_instance(text, ring)
    for check in CHECKS:
        r = evaluate_check(check, inst)
        assert r.verdict in ("pass", "finding", "not_applicable"), (check.id, r.witness)


def test_domination_checks_agree_with_metrics(z12, z2z4):
    # C15/D15 assert the extremal families dominate; spot-check that the
    # claimed bound is consistent with the computed domination number
    for inst in (z12, z2z4):
        for cid, kind, extremals in (("C15", GraphKind.SSI, inst.lattice.minimals()),
                                     ("D15", GraphKind.PSS, inst.lattice.maximals())):
            r = run(cid, inst)
            if r.verdict == "not_applicable":
                continue
            assert r.verdict == "pass"
            assert domination_number(inst.graph(kind)) <= len(extremals)


def test_claim_15_matches_its_oracle_on_the_default_family():
    # the claim reads universal vertices where the oracle searches for the
    # domination number
    for inst in generate_family(DEFAULT_FAMILY):
        for cid, ssi in (("C15", True), ("D15", False)):
            check = CHECKS_BY_ID[cid]
            if check.applies(inst):
                assert check.claim(inst) == helpers.brute_claim_15(inst, ssi), (cid, inst)


LADDER_FAMILY = ("zmod:Z16xZ16,zmod:Z4xZ4xZ4,zmod:Z5xZ5xZ5/Z5,zmod:Z2xZ4xZ8,"
                 "zmod:Z2xZ2xZ2xZ2/Z2")


@pytest.mark.parametrize("family", [DEFAULT_FAMILY, LADDER_FAMILY])
def test_check_runs_no_domination_search_and_no_pis_graph(family, monkeypatch):
    # C15/D15 read universal vertices and C7/D7 a gcd, so no check needs
    # the domination number or the ideal-sum graph PIS(Z_n)
    def refuse(g):
        raise AssertionError("domination search ran")

    witness_graph = graphs._witness_graph

    def no_pis(kind, *args):
        assert kind is not GraphKind.PIS, "PIS graph built"
        return witness_graph(kind, *args)

    monkeypatch.setattr(graphs, "domination_number", refuse)
    monkeypatch.setattr(graphs, "_witness_graph", no_pis)
    assert not run_suite(family, "all").failures()


class _NoScan(tuple):
    def __iter__(self):
        raise AssertionError("scan over every member")


@pytest.mark.parametrize("family", [DEFAULT_FAMILY, LADDER_FAMILY])
def test_lattice_premises_take_no_join_meet_or_member_scan(family, monkeypatch):
    # two lows joining to the top and the two-lows shape are read off the
    # lows' prime orders; each side's facts (graph, metrics, lows, ...) are
    # read first
    insts = generate_family(family)
    for inst in insts:
        for side in (SSI_SIDE, PSS_SIDE):
            facts(side, inst)

    def refuse(self, a, b):
        raise AssertionError("lattice join or meet taken")

    monkeypatch.setattr(SubmoduleLattice, "join", refuse)
    monkeypatch.setattr(SubmoduleLattice, "meet", refuse)
    for inst in insts:
        monkeypatch.setattr(inst.lattice, "all", _NoScan(inst.lattice.all))
        for cid in ("C1", "D1", "C8", "D8", "C9", "D9", "C15", "D15"):
            assert evaluate_check(CHECKS_BY_ID[cid], inst).verdict != "fail", (cid, inst)


def test_joins_and_meets_are_taken_only_for_witnesses(monkeypatch):
    # C7/D7 compare adjacency with "gcd(c, d) is a prime" before the pair
    # premise, so over the default family a lattice join or meet is taken
    # only where a C6/D6/C7/D7 failure witness names one
    calls = []
    for op in ("join", "meet"):
        def counted(self, a, b, op=op, real=getattr(SubmoduleLattice, op)):
            calls.append(op)
            return real(self, a, b)
        monkeypatch.setattr(SubmoduleLattice, op, counted)
    taken = []

    def evaluate(check, inst):
        before = len(calls)
        result = evaluate_check(check, inst)
        if len(calls) > before:
            taken.append((check.id, result.verdict, tuple(calls[before:])))
        return result

    monkeypatch.setattr(checks, "evaluate_check", evaluate)
    run_suite(DEFAULT_FAMILY, "all")
    assert taken and all(cid in ("C6", "D6", "C7", "D7") and verdict in ("fail", "finding")
                         for cid, verdict, _ops in taken), taken
    assert sorted(calls) == ["join", "join", "meet", "meet"]


# ----------------------------------------- failure witnesses, pinned exactly
#
# No module in the bundled families breaks a strict check, so the failure
# witnesses are reached here by doctoring the graphs an instance hands to
# the checks.  The digest pins every verdict and witness byte; the key map
# states which witness shapes each check produced.

DOCTORED_FAMILY = "cyclic:2..40,product:ab<=32,vector:2^3,vector:3^2"
DOCTORED_KINDS = (GraphKind.SSI, GraphKind.PSS,
                  GraphKind.SSI_TILDE, GraphKind.PSS_TILDE)


def _all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _cycle(n):
    if n < 3:
        return _all_pairs(n)
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _swapped(base, kind):
    other = {GraphKind.SSI: GraphKind.PSS, GraphKind.PSS: GraphKind.SSI}.get(kind)
    return None if other is None else base.graph(other).edges()


def _emptied(base, kind):
    return [] if kind in DOCTORED_KINDS else None


def _completed(base, kind):
    if kind not in DOCTORED_KINDS:
        return None
    return _all_pairs(base.graph(kind).vertex_count)


def _complemented(base, kind):
    if kind not in (GraphKind.SSI, GraphKind.PSS):
        return None
    g = base.graph(kind)
    return [p for p in _all_pairs(g.vertex_count) if not g.adjacent(*p)]


def _cycled(base, kind):
    if kind not in DOCTORED_KINDS:
        return None
    return _cycle(base.graph(kind).vertex_count)


def _complete_without_tilde(base, kind):
    if kind in (GraphKind.SSI, GraphKind.PSS):
        return _all_pairs(base.graph(kind).vertex_count)
    return [] if kind in DOCTORED_KINDS else None


DOCTORINGS = (("swap", _swapped), ("empty", _emptied),
              ("complete", _completed), ("complement", _complemented),
              ("cycle", _cycled), ("complete_no_tilde", _complete_without_tilde))


class DoctoredInstance(Instance):
    """An instance whose graphs are rewired by `doctor(base, kind)`, which
    returns the new edge list, or None to keep the real graph; only the
    SSI, PSS and tilde graphs, the ones the checks read, are rewired.  The
    lattice is shared with `base`."""

    def __init__(self, base, doctor):
        super().__init__(base.module, max_order=base.max_order,
                         max_lattice=base.max_lattice)
        self._lattice = base.lattice
        self._base = base
        self._doctor = doctor

    def graph(self, kind):
        kind = GraphKind(str(kind))
        if kind not in self._graphs:
            real = self._base.graph(kind)
            edges = self._doctor(self._base, kind)
            if edges is None:
                self._graphs[kind] = real
            else:
                rows = [0] * real.vertex_count
                for i, j in edges:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                self._graphs[kind] = SimpleGraph(
                    kind, real.ring, real.module, real.vertices, rows)
        return self._graphs[kind]

    def metrics(self, kind):
        # rewired graphs need not be dual, so no record is read off the twin
        kind = GraphKind(str(kind))
        if kind not in self._metrics:
            self._metrics[kind] = graph_metrics(self.graph(kind))
        return self._metrics[kind]


# sha256 of json.dumps([[doctoring, result.as_dict()], ...]) in run order
DOCTORED_DIGEST = "537fedbfaae4549234d195e646c0dc408c1cc4b6014b0bfc0d402b7ba79930a4"

# C13/D13 never apply here: no instance is uniform (hollow) with all
# nonzero (proper) submodules second (prime)
DOCTORED_WITNESS_KEYS = {
    "C1": {("universal_vertices", "minimals", "condition")},
    "C2": {("second_socle", "non_neighbors")},
    "C3": {("second_socle", "degree", "vertex_count")},
    "C4": {("vertex", "isolated", "minimal_and_maximal")},
    "C5": {("minimals",), ("neither_second_nor_maximal",)},
    "C6": {("pair", "intersection", "intersection_second")},
    "C7": {("pair", "annihilators", "intersection_second", "ideal_sum_prime")},
    "C8": {("connected", "minimal_pair_spanning", "diameter")},
    "C9": {("pair",)},
    "C10": {("edge", "smaller_endpoint", "smaller_endpoint_second"),
            ("noncomparable_edge", "girth")},
    "C11": {("girth", "second_count")},
    "C12": {("girth", "second_count")},
    "C14": {("vertex_count", "edge_count")},
    "C15": {("domination_number", "condition"), ("minimals", "reason"),
            ("redundant_member",)},
    "D1": {("universal_vertices", "maximals", "condition")},
    "D2": {("prime_radical", "non_neighbors")},
    "D3": {("prime_radical", "degree", "vertex_count")},
    "D4": {("vertex", "isolated", "maximal_and_minimal")},
    "D5": {("maximals",), ("neither_prime_nor_minimal",)},
    "D6": {("pair", "sum", "sum_prime")},
    "D7": {("pair", "colon_ideals", "sum_prime", "ideal_sum_prime")},
    "D8": {("connected", "maximal_pair_meeting_in_zero", "diameter")},
    "D9": {("minimal_pairs", "every_pair_spans", "no_pair_spans")},
    "D10": {("edge", "larger_endpoint", "larger_endpoint_prime"),
            ("noncomparable_edge", "girth")},
    "D11": {("girth", "prime_count")},
    "D12": {("girth", "prime_count")},
    "D14": {("vertex_count", "edge_count")},
    "D15": {("domination_number", "condition"), ("maximals", "reason"),
            ("redundant_member",)},
}


def test_doctored_graphs_pin_failure_witnesses():
    results = []
    keys = {}
    for base in generate_family(DOCTORED_FAMILY):
        for name, doctor in DOCTORINGS:
            inst = DoctoredInstance(base, doctor)
            for check in CHECKS:
                r = evaluate_check(check, inst)
                results.append([name, r.as_dict()])
                if r.verdict in ("fail", "finding"):
                    keys.setdefault(check.id, set()).add(tuple(r.witness))
    blob = json.dumps(results).encode()
    assert keys == DOCTORED_WITNESS_KEYS
    assert hashlib.sha256(blob).hexdigest() == DOCTORED_DIGEST


@pytest.mark.parametrize("timing", [False, True])
def test_doctored_report_json_is_json_dumps_of_as_dict(timing):
    # the failure witnesses hold nested lists and "reason" entries
    report = CheckReport("all", DOCTORED_FAMILY, include_timing=timing)
    for base in generate_family(DOCTORED_FAMILY):
        for _name, doctor in DOCTORINGS:
            inst = DoctoredInstance(base, doctor)
            report.results += [evaluate_check(check, inst) for check in CHECKS]
    assert report.findings() and report.failures()
    assert helpers.json_dumps_mismatch(report.to_json(), report.as_dict()) is None


def _rewired(labels, add):
    """A doctor that adds (or removes) the SSI edges from the vertex
    labelled labels[0] to those labelled labels[1:]."""
    def doctor(base, kind):
        if kind is not GraphKind.SSI:
            return None
        g = base.graph(kind)
        at = {v.label: v.index for v in g.vertices}
        hub, *others = (at[label] for label in labels)
        touched = {tuple(sorted((hub, v))) for v in others}
        return sorted(set(g.edges()) | touched if add else set(g.edges()) - touched)
    return doctor


@pytest.mark.parametrize("text,doctor,witness", [
    # two minimals off the universal-vertex shape, and 2M made universal
    ("Z36", _rewired(["2M", "3M", "4M", "6M", "9M", "12M", "18M"], True),
     {"domination_number": 1, "condition": None}),
    # the shape holds, and the universal 2M loses its edge to 4M
    ("Z12", _rewired(["2M", "4M"], False),
     {"domination_number": 2, "condition": "two-minimals-second-interval"}),
])
def test_c15_witness_reads_the_domination_number_off_universal_vertices(
        text, doctor, witness):
    inst = DoctoredInstance(make_instance(text), doctor)
    claim = CHECKS_BY_ID["C15"].claim(inst)
    assert claim == helpers.brute_claim_15(inst, True) == (False, witness)


def test_doctored_graphs_reach_every_closed_form_witness():
    # rewired graphs break C1, D1, C7, D7, C8, D8, C15 and D15; C9 and D9
    # read the lattice alone and fail without a hypothesis to hold them back
    failed = set()
    for base in generate_family(DOCTORED_FAMILY):
        for _name, doctor in DOCTORINGS:
            inst = DoctoredInstance(base, doctor)
            want = helpers.brute_claims(inst)
            for cid, (ok, witness) in want.items():
                assert CHECKS_BY_ID[cid].claim(inst) == (ok, witness), (cid, inst)
                if not ok:
                    failed.add(cid)
    assert failed == {"C1", "D1", "C7", "D7", "C8", "D8", "C9", "D9", "C15", "D15"}
