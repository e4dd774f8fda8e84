"""Graph construction, invariants, and exports."""
import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from conftest import make_instance
from test_algebra import FLAG_SAMPLE
from modgraphs import (
    DEFAULT_FAMILY,
    DescriptorError,
    GraphKind,
    SimpleGraph,
    algebra,
    build_graph,
    domination_number,
    enumerate_submodules,
    export_graph,
    generate_family,
    graph_metrics,
    graphs,
    parse_descriptor,
    span,
)

INF = math.inf

FROZEN_SSI_Z12_DOT = """graph ssi {
  // module Z12 over Z12
  v0 [label="2M={0,2,4,6,8,10}"];
  v1 [label="3M={0,3,6,9}"];
  v2 [label="4M={0,4,8}"];
  v3 [label="6M={0,6}"];
  v0 -- v1;
  v0 -- v2;
  v0 -- v3;
  v1 -- v3;
}
"""


# ---------------------------------------------------------------- frozen

class TestFrozenZ12:
    def test_ssi_structure(self, z12):
        g = z12.graph(GraphKind.SSI)
        assert [v.label() for v in g.vertices] == ["2M", "3M", "4M", "6M"]
        assert list(g.iter_edges()) == [(0, 1), (0, 2), (0, 3), (1, 3)]

    def test_ssi_metrics(self, z12):
        g = z12.graph(GraphKind.SSI)
        m = z12.metrics(GraphKind.SSI)
        assert m.is_connected and not m.is_complete
        assert m.diameter == 2 and m.girth == 3
        assert domination_number(g) == 1
        assert m.universal_vertices == (0,)
        assert all(g.degree(v) for v in range(m.vertex_count))
        # a universal vertex, but one edge more than a star on 4 vertices
        assert m.edge_count == m.vertex_count

    def test_pss_structure(self, z12):
        g = z12.graph(GraphKind.PSS)
        assert [v.label() for v in g.vertices] == ["2M", "3M", "4M", "6M"]
        assert list(g.iter_edges()) == [(0, 2), (0, 3), (1, 3), (2, 3)]

    def test_pss_metrics(self, z12):
        m = z12.metrics(GraphKind.PSS)
        assert m.is_connected and m.diameter == 2 and m.girth == 3
        # 6M sits at index 3 and meets everything
        assert m.universal_vertices == (3,)
        assert domination_number(z12.graph(GraphKind.PSS)) == 1

    def test_tilde_matches_ideal_graph(self, z12):
        # over a cyclic module every proper nonzero colon ideal shows up,
        # so the deduped graph coincides with the ideal-sum graph
        tilde = z12.graph(GraphKind.PSS_TILDE)
        pis = z12.graph(GraphKind.PIS)
        assert tilde.vertices == pis.vertices
        assert tilde.rows == pis.rows
        ssi_tilde = z12.graph(GraphKind.SSI_TILDE)
        sii = z12.graph(GraphKind.SII)
        assert ssi_tilde.vertices == sii.vertices
        assert ssi_tilde.rows == sii.rows


def test_z6_ssi_is_two_isolated_vertices(z6):
    g = z6.graph(GraphKind.SSI)
    m = z6.metrics(GraphKind.SSI)
    assert m.vertex_count == 2 and m.edge_count == 0
    assert not m.is_connected
    assert m.diameter == INF and m.girth == INF
    assert g.degree(0) == g.degree(1) == 0 and m.universal_vertices == ()
    assert domination_number(g) == 2


def test_z16_ssi_is_a_star(z16):
    g = z16.graph(GraphKind.SSI)
    m = z16.metrics(GraphKind.SSI)
    assert m.edge_count == m.vertex_count - 1
    assert [g.vertices[v].label() for v in m.universal_vertices] == ["8M"]
    assert m.girth == INF


def test_z8_annihilator_graph():
    inst = make_instance("Z8")
    g = inst.graph(GraphKind.SSI_TILDE)
    assert [v.label("R") for v in g.vertices] == ["2R", "4R"]
    assert list(g.iter_edges()) == [(0, 1)]


@pytest.mark.parametrize("module_text,ring_text", [("Z12", None), ("Z2xZ4", "Z8")])
@pytest.mark.parametrize("kind", list(GraphKind))
def test_vertices_are_the_members_the_graph_reads(kind, module_text, ring_text):
    # the submodules of M for ssi and pss, the ideals of Z_n for sii and
    # pis, and for the tilde kinds the ideals that are some member's
    # annihilator (ssi_tilde) or colon ideal (pss_tilde)
    inst = make_instance(module_text, ring_text)
    g = helpers.graph_of(inst, kind)
    if kind in (GraphKind.SSI, GraphKind.PSS):
        members = inst.lattice.proper_nonzero()
    elif kind in (GraphKind.SII, GraphKind.PIS):
        members = inst.ring_lattice.proper_nonzero()
    else:
        ideal_of = inst.ann_ideal if kind is GraphKind.SSI_TILDE else inst.colon_of
        picked = {ideal_of(s) for s in inst.lattice.all}
        members = tuple(i for i in inst.ring_lattice.proper_nonzero() if i in picked)
    assert g.vertices == members
    assert g.symbol == ("M" if kind in (GraphKind.SSI, GraphKind.PSS) else "R")
    positions = list(range(g.vertex_count))
    assert [g.vertex_for(v) for v in g.vertices] == positions
    dot = export_graph(g, "dot")
    assert [int(line.split()[0][1:]) for line in dot.splitlines() if "[label=" in line] == positions
    assert [v["id"] for v in json.loads(export_graph(g, "json"))["vertices"]] == positions


def test_vertex_lookup(z12):
    g = z12.graph(GraphKind.SSI)
    for i, v in enumerate(g.vertices):
        assert g.vertex_for(v) == i
    for sub in (z12.lattice.zero, z12.lattice.top):
        with pytest.raises(ValueError):
            g.vertex_for(sub)


def test_submodules_of_another_module_are_never_found():
    # <(1,0)> in Z2xZ3 sits at positions 0 and 3, as 3M does in Z6, so a
    # lookup by mask alone would take one for the other
    _, z6 = parse_descriptor("Z6")
    _, z2z3 = parse_descriptor("Z2xZ3")
    foreign = span(z2z3, [(1, 0)])
    three_m = span(z6, [(3,)])
    assert foreign.mask == three_m.mask
    assert foreign != three_m
    lattice = enumerate_submodules(z6)
    with pytest.raises(ValueError):
        lattice.index_of(foreign)
    with pytest.raises(ValueError):
        lattice.join(three_m, foreign)
    g = build_graph("ssi", lattice)
    assert g.vertices[g.vertex_for(three_m)] == three_m
    with pytest.raises(ValueError):
        g.vertex_for(foreign)


def test_vertex_index_by_mask_keeps_its_module_check():
    # 2M of Z4 and <(1,0)> of Z2xZ2 over Z2 both have mask 0b101; the
    # vertices are indexed by mask, and the module check tells them apart
    _, z4 = parse_descriptor("Z4")
    _, plane = parse_descriptor("Z2xZ2", "Z2")
    two_m, line = span(z4, [(2,)]), span(plane, [(1, 0)])
    assert two_m.mask == line.mask == 0b101
    g = build_graph("ssi", enumerate_submodules(z4))
    assert g.vertices[g.vertex_for(two_m)] == two_m
    assert g.vertex_mask([two_m]) == 1
    with pytest.raises(ValueError):
        g.vertex_for(line)


def test_neighbors_and_degrees(z12):
    g = z12.graph(GraphKind.SSI)
    assert helpers.neighbors(g, 0) == {1, 2, 3}
    assert g.degree(1) == 2
    assert g.adjacent(0, 3) and not g.adjacent(2, 3)
    assert not g.adjacent(1, 1)


# ----------------------------------------------------- adjacency oracles

ADJ_SAMPLE = [("Z12", None), ("Z16", None), ("Z30", None),
              ("Z2xZ4", "Z4"), ("Z3xZ9", None)]


@pytest.mark.parametrize("module_text,ring_text", ADJ_SAMPLE)
def test_ssi_edges_are_second_intersections(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    g = inst.graph(GraphKind.SSI)
    lat = inst.lattice
    n = g.vertex_count
    for i in range(n):
        for j in range(i + 1, n):
            meet = lat.meet(g.vertices[i], g.vertices[j])
            assert g.adjacent(i, j) == helpers.brute_second(meet)


@pytest.mark.parametrize("module_text,ring_text", ADJ_SAMPLE)
def test_pss_edges_are_prime_sums(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    g = inst.graph(GraphKind.PSS)
    lat = inst.lattice
    n = g.vertex_count
    for i in range(n):
        for j in range(i + 1, n):
            join = lat.join(g.vertices[i], g.vertices[j])
            assert g.adjacent(i, j) == helpers.brute_prime(join)


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_edges_match_pairwise_oracle(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    for kind in GraphKind:
        g = helpers.graph_of(inst, kind)
        lat = inst.lattice if kind in (GraphKind.SSI, GraphKind.PSS) else inst.ring_lattice
        assert list(g.iter_edges()) == helpers.pairwise_edges(kind, lat, g.vertices), kind


@pytest.mark.parametrize("module_text,ring_text",
                         [("Z12", None), ("Z2xZ4", "Z8"), ("Z4xZ4xZ4", None), ("Z720", None)])
def test_building_a_graph_makes_no_lattice_calls(module_text, ring_text, monkeypatch):
    # the edges come from witness sets, so no graph needs a join or a meet
    def refuse(*args):
        raise AssertionError("a graph build called join or meet")

    monkeypatch.setattr(algebra.SubmoduleLattice, "join", refuse)
    monkeypatch.setattr(algebra.SubmoduleLattice, "meet", refuse)
    inst = make_instance(module_text, ring_text)
    for kind in GraphKind:
        assert helpers.graph_of(inst, kind).vertex_count > 0


def test_ideal_graphs_need_the_ring_itself():
    # sii and pis are graphs on ideals: refused on any other module, by the
    # builder and by Instance.graph alike, and built on the ring's own lattice
    inst = make_instance("Z2xZ4", "Z4")
    for kind in (GraphKind.SII, GraphKind.PIS):
        with pytest.raises(DescriptorError, match=f"^graph kind {kind} is an ideal graph"):
            build_graph(kind, inst.lattice)
        with pytest.raises(DescriptorError, match=f"^graph kind {kind} is an ideal graph"):
            inst.graph(kind)
    g = build_graph(GraphKind.PIS, inst.ring_lattice)
    assert [v.label("R") for v in g.vertices] == ["2R"]


@pytest.mark.parametrize("kind", [GraphKind.PSS_TILDE, GraphKind.SSI_TILDE])
def test_tilde_graph_of_the_ring_enumerates_once(kind, monkeypatch):
    # Z_n over itself is its own ideal lattice, so the module side and the
    # ring side of a tilde graph need one enumeration between them
    calls = []
    real = algebra.enumerate_submodules

    def counted(module, **kwargs):
        calls.append(module.descriptor)
        return real(module, **kwargs)

    monkeypatch.setattr(algebra, "enumerate_submodules", counted)
    monkeypatch.setattr(graphs, "enumerate_submodules", counted)
    g = make_instance("Z72").graph(kind)
    assert calls == ["Z72"]
    assert g.vertex_count == 10  # the proper nonzero ideals of Z72


def test_sii_equals_ssi_on_the_ring_as_module():
    inst = make_instance("Z12")
    assert inst.graph(GraphKind.SII).rows == inst.graph(GraphKind.SSI).rows
    assert inst.graph(GraphKind.PIS).rows == inst.graph(GraphKind.PSS).rows


# --------------------------------------------------- metric conventions

def test_empty_graph_conventions():
    # Z4 over Z4: proper nonzero = {2M} -> single vertex; Zp -> no vertices
    z4, z5 = make_instance("Z4"), make_instance("Z5")
    single = z4.metrics(GraphKind.SSI)
    assert single.vertex_count == 1 and single.edge_count == 0
    assert single.is_connected and single.is_complete
    assert single.diameter == 0 and single.girth == INF
    assert domination_number(z4.graph(GraphKind.SSI)) == 1
    assert single.universal_vertices == (0,)

    empty = z5.metrics(GraphKind.SSI)
    assert empty.vertex_count == 0 and empty.edge_count == 0
    assert empty.is_connected and empty.is_complete
    assert empty.diameter == 0 and empty.girth == INF
    assert domination_number(z5.graph(GraphKind.SSI)) == 0
    assert empty.universal_vertices == ()


def graph_from_edges(n, edges):
    """A graph on n <= 65 vertices with these edges, its vertices the first
    n proper nonzero members of Z2^4 over Z2."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    _, module = parse_descriptor("Z2xZ2xZ2xZ2", "Z2")
    vertices = enumerate_submodules(module).proper_nonzero()[:n]
    return SimpleGraph(GraphKind.SSI, module, vertices, rows)


def _clique(vertices):
    return list(combinations(vertices, 2))


# No lattice graph in the samples reaches diameter 3 (C8 forbids it), so
# the breadth-first fallback behind the complete and diameter-2 shortcuts
# runs only on graphs built by hand from rows.  The last two have more
# vertices than `harness.HUBS`: in the first, vertex 0 has no hub for a
# neighbour and 0, 3 are at distance 3; in the second, vertex 1's hubs
# leave the far clique's vertices for the pair loop.
HAND_GRAPHS = {
    "path P5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "cycle C6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    "cycle C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "two components": (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    "path into K20": (24, [(0, 1), (1, 2), (2, 3), (3, 4)] + _clique(range(4, 24))),
    "two K10 and a bridge": (20, _clique(range(10)) + _clique(range(10, 20)) + [(0, 10)]),
}


@pytest.mark.parametrize("name", list(HAND_GRAPHS))
def test_diameter_fallback_on_hand_built_graphs(name):
    n, edges = HAND_GRAPHS[name]
    g = graph_from_edges(n, edges)
    assert list(g.iter_edges()) == sorted(edges)
    assert graph_metrics(g).diameter == helpers.exhaustive_diameter(g)
    assert domination_number(g) == helpers.exhaustive_domination(g)


@st.composite
def random_graphs(draw):
    """Up to 12 vertices, each pair an edge with one of several densities."""
    n = draw(st.integers(0, 12))
    percent = draw(st.sampled_from([10, 30, 50, 70, 90]))
    pairs = list(combinations(range(n), 2))
    coins = draw(st.lists(st.integers(0, 99), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [pair for pair, c in zip(pairs, coins) if c < percent])


@given(random_graphs())
@settings(derandomize=True, deadline=None)
def test_search_metrics_are_exact_on_random_graphs(g):
    assert domination_number(g) == helpers.exhaustive_domination(g)
    assert graph_metrics(g).diameter == helpers.exhaustive_diameter(g)


def test_flags_graphs_and_metrics_pick_no_generators(monkeypatch):
    # canonical generators are picked only when a label or export reads them
    def refuse(module, mask):
        raise AssertionError("canonical generators were picked")

    monkeypatch.setattr(algebra, "_canonical_generators", refuse)
    inst = make_instance("Z4xZ4xZ4")
    lat = inst.lattice
    for s in lat.all:
        for name in ("second", "prime", "minimal", "maximal", "large", "small"):
            getattr(lat, f"is_{name}")(s)
    lat.properties()
    for kind in (GraphKind.SSI, GraphKind.PSS):
        assert inst.metrics(kind).vertex_count == len(lat) - 2


# ------------------------------------------------------- metric oracles

METRIC_SAMPLE = [f"Z{n}" for n in (12, 16, 24, 30, 36, 48, 60)] + ["Z2xZ4", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ2"]


@pytest.mark.parametrize("text", METRIC_SAMPLE)
@pytest.mark.parametrize("kind", [GraphKind.SSI, GraphKind.PSS])
def test_metrics_against_exhaustive_oracles(text, kind):
    inst = make_instance(text)
    g = inst.graph(kind)
    m = inst.metrics(kind)
    n = g.vertex_count
    if n <= 10:
        assert m.diameter == helpers.exhaustive_diameter(g)
        assert m.girth == helpers.exhaustive_girth(g)
    assert domination_number(g) == helpers.exhaustive_domination(g)


# The exhaustive search stays fast on these 65-127 vertex graphs since
# gamma <= 3; on Z5xZ5xZ5/Z5 (gamma = 6) it takes tens of seconds per kind,
# so that value, confirmed once by it, is pinned instead.
@pytest.mark.parametrize("module_text,ring_text,gamma", [
    ("Z16xZ16", None, None), ("Z4xZ4xZ4", None, None), ("Z2xZ4xZ8", None, None),
    ("Z2xZ2xZ2xZ2", "Z2", None), ("Z5xZ5xZ5", "Z5", 6)])
@pytest.mark.parametrize("kind", [GraphKind.SSI, GraphKind.PSS])
def test_domination_at_lattice_scale(module_text, ring_text, gamma, kind):
    inst = make_instance(module_text, ring_text)
    g = inst.graph(kind)
    assert g.vertex_count > 60
    assert domination_number(g) == (gamma or helpers.exhaustive_domination(g))


# In F_q^k every nonzero subspace is second, so SSI joins two subspaces
# that meet beyond 0.  Every line then lies in a member of a dominating
# set of SSI, so the members' union is F_q^k, which takes q + 1 proper
# subspaces (q + 1 hyperplanes through one codimension-2 subspace do).
# PSS is SSI's dual.
@pytest.mark.parametrize("q,k", [(2, 6), (3, 4), (7, 3)])
def test_domination_number_of_a_vector_space_is_q_plus_one(q, k):
    inst = make_instance("x".join([f"Z{q}"] * k), f"Z{q}")
    for kind in (GraphKind.SSI, GraphKind.PSS):
        assert domination_number(inst.graph(kind)) == q + 1, kind


# N -> N^perp, into the character group of M (isomorphic to M), reverses
# inclusion and exp(M^/N^perp) = exp(N); so it maps SSI(M) onto PSS(M)
DUALITY_FAMILY = ",".join([DEFAULT_FAMILY] + [
    f"zmod:{m}" for m in ("Z16xZ16", "Z4xZ4xZ4", "Z5xZ5xZ5/Z5", "Z2xZ4xZ8",
                          "Z2xZ2xZ2xZ2/Z2", "Z2xZ2xZ2xZ2xZ2/Z2", "Z3xZ3xZ3xZ3/Z3",
                          "Z3xZ3xZ3xZ3xZ3/Z3")])


def test_gaussian_binomial_is_an_int_zero_past_k():
    assert helpers.gaussian_binomial(2, 3, 4) == 0
    assert type(helpers.gaussian_binomial(2, 3, 4)) is int
    assert helpers.gaussian_binomial(3, 2, -1) == 0


@pytest.mark.parametrize("p,k,edges", [(2, 4, 1155), (3, 3, 130), (2, 5, 41385),
                                       (5, 3, 651), (2, 6, 2499840), (3, 5, 1733325),
                                       (5, 4, 220038)])
def test_vector_space_edge_count_closed_form(p, k, edges):
    assert helpers.vector_space_edge_count(p, k) == edges


@pytest.mark.parametrize("p,k", [(2, 6), (3, 5), (5, 4)])
def test_vector_space_edge_counts_match_the_closed_form(p, k):
    # every nonzero subspace is second and every proper one prime, so SSI
    # joins the pairs that meet beyond 0 and PSS those that sum below M
    _, module = parse_descriptor("x".join([f"Z{p}"] * k), f"Z{p}")
    lattice = enumerate_submodules(module)
    want = helpers.vector_space_edge_count(p, k)
    for kind in (GraphKind.SSI, GraphKind.PSS):
        assert build_graph(kind, lattice).edge_count == want, kind


def test_ssi_and_pss_are_isomorphic_by_duality():
    def invariants(inst, kind):
        g = inst.graph(kind)
        m = graph_metrics(g)
        return (sorted(g.degree(v) for v in range(g.vertex_count)), m.edge_count,
                m.is_connected, m.diameter, m.girth, domination_number(g),
                len(m.universal_vertices))

    family = generate_family(DUALITY_FAMILY)
    assert len(family) > 140
    for inst in family:
        assert invariants(inst, GraphKind.SSI) == invariants(inst, GraphKind.PSS), \
            inst.descriptor


@pytest.mark.parametrize("first,second", [(GraphKind.SSI, GraphKind.PSS),
                                          (GraphKind.PSS, GraphKind.SSI)])
def test_metrics_read_off_the_twin_match_the_graph(first, second):
    # Instance.metrics computes the first kind asked for and reads the
    # second off it; that record must be the second graph's own
    for inst in generate_family(DUALITY_FAMILY):
        inst.metrics(first)
        read = inst.metrics(second)
        assert read._asdict() == graph_metrics(inst.graph(second))._asdict(), inst.descriptor


def test_girth_on_dense_graph():
    # complete-ish prime-sum graph over Z2xZ4: triangle must be found
    inst = make_instance("Z2xZ4", "Z4")
    m = inst.metrics(GraphKind.PSS)
    g = inst.graph(GraphKind.PSS)
    assert m.girth == helpers.exhaustive_girth(g)


# -------------------------------------------------------------- exports

def test_dot_export_is_byte_stable(z12):
    g = z12.graph(GraphKind.SSI)
    assert export_graph(g, "dot") == FROZEN_SSI_Z12_DOT
    assert export_graph(g, "dot") == export_graph(g, "dot")


def test_json_export_schema(z12):
    g = z12.graph(GraphKind.PSS)
    payload = json.loads(export_graph(g, "json"))
    assert payload["kind"] == "pss"
    assert payload["ring"] == "Z12" and payload["module"] == "Z12"
    assert [v["id"] for v in payload["vertices"]] == [0, 1, 2, 3]
    assert payload["vertices"][0]["label"] == "2M"
    assert payload["vertices"][0]["order"] == 6
    assert all(isinstance(v["generators"], list) for v in payload["vertices"])
    assert payload["edges"] == [[0, 2], [0, 3], [1, 3], [2, 3]]
    assert export_graph(g, "json").endswith("\n")


def test_unknown_export_format(z12):
    with pytest.raises(DescriptorError):
        export_graph(z12.graph(GraphKind.SSI), "gexf")


def test_tilde_labels_use_ring_symbol(z12):
    g = z12.graph(GraphKind.PSS_TILDE)
    assert g.symbol == "R"
    dot = export_graph(g, "dot")
    assert 'label="2R=' in dot
