"""Acceptance gate: one test per criterion, run with -v for the scoreboard.

Each test is self-contained and states its criterion in the name. Timing
budgets are asserted where the criterion carries one.
"""
import json
import math
import time

import pytest

import helpers
from conftest import make_instance
from modgraphs import (
    CHECKS,
    DEFAULT_FAMILY,
    GraphKind,
    domination_number,
    evaluate_check,
    generate_family,
    run_suite,
)
from modgraphs.checks import CHECKS_BY_ID
from modgraphs.cli import dispatch

INF = math.inf


@pytest.fixture(scope="module")
def family():
    return generate_family(DEFAULT_FAMILY)


def edge_labels(graph):
    return {frozenset((graph.vertices[i].label(), graph.vertices[j].label()))
            for i, j in graph.iter_edges()}


# criterion 1 -- every lattice in the default family equals an independent
# oracle enumeration, exact set equality, under 5 seconds total

def test_criterion_01_lattice_enumeration_matches_oracles(family):
    started = time.perf_counter()
    checked = 0
    for inst in family:
        factors = inst.module.invariant_factors
        got = {s.elements for s in inst.lattice.all}
        if len(factors) == 1:
            assert got == helpers.cyclic_subgroups(factors[0]), inst.descriptor
            assert len(got) == len(helpers.divisors(factors[0]))
        elif len(factors) == 2:
            assert got == helpers.rank2_subgroups(*factors), inst.descriptor
            assert len(got) == helpers.rank2_count(*factors)
        else:
            p = factors[0]
            assert got == helpers.rref_subspaces(p), inst.descriptor
            assert len(got) == helpers.gaussian_subspace_total(p, 3)
        if inst.module.order <= 12:
            # small enough for the literal all-subsets filter
            assert got == helpers.power_set_subgroups(factors), inst.descriptor
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == len(family) == 141
    assert elapsed < 5.0, f"lattice oracle sweep took {elapsed:.2f}s"


# criterion 2 -- exact graphs and invariants on Z12

def test_criterion_02_z12_graphs_are_exact():
    inst = make_instance("Z12")
    ssi = inst.graph(GraphKind.SSI)
    assert edge_labels(ssi) == {frozenset(p) for p in
                                [("2M", "3M"), ("2M", "4M"),
                                 ("2M", "6M"), ("3M", "6M")]}
    pss = inst.graph(GraphKind.PSS)
    assert edge_labels(pss) == {frozenset(p) for p in
                                [("2M", "4M"), ("2M", "6M"),
                                 ("3M", "6M"), ("4M", "6M")]}
    ms = inst.metrics(GraphKind.SSI)
    assert ms.is_connected and ms.diameter == 2 and ms.girth == 3
    assert domination_number(ssi) == 1
    assert [ssi.vertices[i].label() for i in ms.universal_vertices] == ["2M"]
    mp = inst.metrics(GraphKind.PSS)
    assert mp.is_connected and mp.diameter == 2 and mp.girth == 3
    assert domination_number(pss) == 1
    assert [pss.vertices[i].label() for i in mp.universal_vertices] == ["6M"]


# criterion 3 -- Z6: both graphs empty on two vertices, each vertex
# simultaneously minimal and maximal, hence isolated and disconnected

def test_criterion_03_z6_disconnected_extremes():
    inst = make_instance("Z6")
    for kind in (GraphKind.SSI, GraphKind.PSS):
        g = inst.graph(kind)
        m = inst.metrics(kind)
        assert m.vertex_count == 2 and m.edge_count == 0
        assert not m.is_connected
        assert g.degree(0) == g.degree(1) == 0
        for v in g.vertices:
            assert inst.lattice.is_minimal(v) and inst.lattice.is_maximal(v)


# criterion 4 -- prime-power towers give stars centered on the unique
# minimal submodule

def test_criterion_04_prime_power_stars():
    for p in (2, 3, 5):
        for k in range(3, 7):
            inst = make_instance(f"Z{p ** k}", max_order=max(4096, p ** k))
            g = inst.graph(GraphKind.SSI)
            m = inst.metrics(GraphKind.SSI)
            assert m.edge_count == m.vertex_count - 1, (p, k)
            minimals = inst.lattice.minimals()
            assert len(minimals) == 1
            center = g.vertex_for(minimals[0])
            assert center in m.universal_vertices, (p, k)
            if m.vertex_count >= 3:
                # center is unique once the star has at least two leaves
                assert m.universal_vertices == (center,), (p, k)


# criterion 5 -- the strict suite passes with zero failures over the
# bundled family, within the time budget

def test_criterion_05_strict_suite_clean(family):
    started = time.perf_counter()
    report = run_suite(DEFAULT_FAMILY, checks="strict")
    elapsed = time.perf_counter() - started
    strict_ids = {c.id for c in CHECKS if c.mode == "strict"}
    assert strict_ids == ({f"C{i}" for i in range(1, 16)} |
                          {f"D{i}" for i in range(1, 16)}) - {"C6", "D6", "D9"}
    assert report.summary()["fail"] == 0, report.failures()
    assert len(report.results) == len(family) * 27
    assert elapsed < 60.0, f"strict suite took {elapsed:.2f}s"


# criterion 6 -- report-mode checks surface the known gaps with
# replayable witnesses

def test_criterion_06_discrepancies_reported_with_witnesses(family):
    z16 = make_instance("Z16")

    c6 = evaluate_check(CHECKS_BY_ID["C6"], z16)
    assert c6.verdict == "finding"
    assert c6.witness["pair"] == ["2M", "4M"]
    lat = z16.lattice
    by_label = {s.label(): s for s in lat.all}
    a, b = (by_label[x] for x in c6.witness["pair"])
    ssi = z16.graph(GraphKind.SSI)
    assert not ssi.adjacent(ssi.vertex_for(a), ssi.vertex_for(b))
    assert not lat.is_second(lat.meet(a, b))

    d6 = evaluate_check(CHECKS_BY_ID["D6"], z16)
    assert d6.verdict == "finding"
    assert d6.witness["pair"] == ["4M", "8M"]
    c, d = (by_label[x] for x in d6.witness["pair"])
    pss = z16.graph(GraphKind.PSS)
    assert not pss.adjacent(pss.vertex_for(c), pss.vertex_for(d))
    assert not lat.is_prime(lat.join(c, d))

    # the spanning-pair statement gets both readings recorded on every
    # connected instance
    recorded = findings = 0
    for inst in family:
        r = evaluate_check(CHECKS_BY_ID["D9"], inst)
        if inst.metrics(GraphKind.PSS).is_connected:
            assert r.witness is not None, inst.descriptor
            assert {"minimal_pairs", "every_pair_spans",
                    "no_pair_spans"} <= set(r.witness)
            recorded += 1
            findings += r.verdict == "finding"
        else:
            assert r.verdict == "not_applicable"
    assert recorded > 0 and findings > 0


# criterion 7 -- ideal-graph transfers hold wherever their hypotheses do

def test_criterion_07_ideal_graph_transfers(family):
    applicable = {"C7": 0, "D7": 0, "C14": 0, "D14": 0}
    for inst in family:
        for cid in applicable:
            r = evaluate_check(CHECKS_BY_ID[cid], inst)
            assert r.verdict != "fail", (cid, inst.descriptor, r.witness)
            if r.verdict == "pass":
                applicable[cid] += 1
        # equivalences must never fail on instances satisfying their
        # module-class hypotheses
        if inst.props.multiplication:
            assert evaluate_check(CHECKS_BY_ID["D7"], inst).verdict != "fail"
        if inst.props.comultiplication:
            assert evaluate_check(CHECKS_BY_ID["C7"], inst).verdict != "fail"
    assert all(count > 0 for count in applicable.values()), applicable
    # a ring over itself lands in every module class the transfers assume
    for n in (4, 12, 16, 30, 36, 60):
        props = make_instance(f"Z{n}").props
        assert props.multiplication and props.comultiplication
        assert props.strong_comultiplication and props.faithful


# criterion 8 -- computed metrics agree with exhaustive enumeration on
# every small family graph

def test_criterion_08_metrics_match_exhaustive_search(family):
    diam_checked = dom_checked = 0
    for inst in family:
        for kind in (GraphKind.SSI, GraphKind.PSS):
            g = inst.graph(kind)
            m = inst.metrics(kind)
            if g.vertex_count <= 10:
                assert m.diameter == helpers.exhaustive_diameter(g), \
                    (inst.descriptor, kind)
                assert m.girth == helpers.exhaustive_girth(g), \
                    (inst.descriptor, kind)
                diam_checked += 1
            if g.vertex_count <= 15:
                assert domination_number(g) == helpers.exhaustive_domination(g), \
                    (inst.descriptor, kind)
                dom_checked += 1
    assert diam_checked > 100 and dom_checked > 100


# criterion 9 -- graph and check runs are byte-identical across invocations

def test_criterion_09_outputs_are_deterministic(tmp_path):
    def run_twice(*argv):
        blobs = []
        for i in range(2):
            target = tmp_path / f"out{len(blobs)}_{i}"
            assert dispatch(list(argv) + ["--out", str(target)]) == 0
            blobs.append(target.read_bytes())
        return blobs

    for argv in (["graph", "--module", "Z12", "--kind", "ssi"],
                 ["graph", "--module", "Z12", "--kind", "pss",
                  "--format", "json"],
                 ["graph", "--module", "Z2xZ4", "--ring", "Z4",
                  "--kind", "pss_tilde", "--format", "json"],
                 ["check", "--family", "cyclic:2..24", "--checks", "all"]):
        first, second = run_twice(*argv)
        assert first == second, argv
        assert len(first) > 0
