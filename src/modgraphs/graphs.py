"""Graphs attached to a module's submodule lattice, plus their invariants.

Six kinds are supported.  The meet/join graphs put the nonzero proper
submodules on the vertices and connect two of them when their
intersection is second (ssi) or their sum is prime (pss).  The ideal
variants (sii, pis) are the same constructions for the ring over itself.
The tilde variants move to the ring side through annihilators (ssi_tilde)
or colon ideals (pss_tilde), merging duplicate ideals into one vertex.

Conventions for the invariants live in `graph_metrics`: graphs on at
most one vertex count as connected and complete with diameter 0, a
disconnected graph has infinite diameter, an acyclic graph has infinite
girth, and an empty vertex set has domination number 0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import inf

from .algebra import (
    DescriptorError,
    FiniteModule,
    Ring,
    Submodule,
    SubmoduleLattice,
    _format_element,
    bit_positions,
    module_lattice,
)


class GraphKind(str, Enum):
    SSI = "ssi"
    PSS = "pss"
    SII = "sii"
    PIS = "pis"
    SSI_TILDE = "ssi_tilde"
    PSS_TILDE = "pss_tilde"

    def __str__(self):
        return self.value


IDEAL_KINDS = frozenset({GraphKind.SII, GraphKind.PIS})
TILDE_KINDS = frozenset({GraphKind.SSI_TILDE, GraphKind.PSS_TILDE})
MEET_KINDS = frozenset({GraphKind.SSI, GraphKind.SII, GraphKind.SSI_TILDE})


@dataclass(frozen=True)
class GraphVertex:
    index: int
    submodule: Submodule
    label: str
    order: int


class SimpleGraph:
    """Undirected graph on lattice vertices; adjacency row i is an int
    bitmask with bit j set when i and j are adjacent."""

    def __init__(self, kind: GraphKind, ring: Ring, module: FiniteModule,
                 vertices: tuple[GraphVertex, ...], edges: list[tuple[int, int]]):
        self.kind = kind
        self.ring = ring
        self.module = module
        self.vertices = vertices
        self._edges = sorted(edges)
        self._adj = [0] * len(vertices)
        for i, j in self._edges:
            self._adj[i] |= 1 << j
            self._adj[j] |= 1 << i
        self._vertex_index = {v.submodule: v.index for v in vertices}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        return list(self._edges)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self._adj[i] >> j & 1)

    def neighbors(self, i: int) -> set:
        return set(bit_positions(self._adj[i]))

    def degree(self, i: int) -> int:
        return self._adj[i].bit_count()

    def vertex_for(self, sub: Submodule) -> GraphVertex:
        """The vertex carrying this submodule (or this ideal)."""
        try:
            return self.vertices[self._vertex_index[sub]]
        except KeyError:
            raise ValueError(f"{sub!r} is not a vertex of this graph") from None

    def has_vertex(self, sub: Submodule) -> bool:
        return sub in self._vertex_index

    def __repr__(self):
        return (f"SimpleGraph({self.kind}, {self.module.descriptor}, "
                f"{self.vertex_count} vertices, {self.edge_count} edges)")


def _coerce_kind(kind) -> GraphKind:
    if isinstance(kind, GraphKind):
        return kind
    try:
        return GraphKind(str(kind))
    except ValueError:
        names = ", ".join(k.value for k in GraphKind)
        raise DescriptorError(f"unknown graph kind {kind!r}; expected one of {names}")


def build_graph(kind, module: FiniteModule, lattice: SubmoduleLattice | None = None,
                *, ring_lattice: SubmoduleLattice | None = None) -> SimpleGraph:
    """Construct one of the six graphs for the given module.

    The submodule lattice is computed on demand when not supplied.  Ideal
    kinds (sii, pis) insist that the module literally is the ring over
    itself, since their vertices are ideals.
    """
    kind = _coerce_kind(kind)
    ring = module.ring
    if kind in IDEAL_KINDS and module != ring.as_module():
        raise DescriptorError(
            f"graph kind {kind} is an ideal graph; build it for {ring.descriptor} "
            f"over itself, not for {module.descriptor}")
    if lattice is None:
        lattice = module_lattice(module)

    if kind in TILDE_KINDS:
        return _build_tilde(kind, module, lattice, ring_lattice)

    symbol = "R" if kind in IDEAL_KINDS else "M"
    return _pair_graph(kind, module, lattice, lattice.proper_nonzero(), symbol)


def _pair_graph(kind: GraphKind, module: FiniteModule, lattice: SubmoduleLattice,
                verts, symbol: str) -> SimpleGraph:
    """The graph on `verts` (members of `lattice`) under the kind's edge
    rule: the meet is second (ssi, sii, ssi_tilde) or the join is prime."""
    holds, combine = ((lattice.is_second, lattice.meet) if kind in MEET_KINDS
                      else (lattice.is_prime, lattice.join))
    vertices = tuple(GraphVertex(i, s, s.label(symbol), s.order)
                     for i, s in enumerate(verts))
    edges = [(i, j) for i, j in combinations(range(len(verts)), 2)
             if holds(combine(verts[i], verts[j]))]
    return SimpleGraph(kind, module.ring, module, vertices, edges)


def _build_tilde(kind: GraphKind, module: FiniteModule, lattice: SubmoduleLattice,
                 ring_lattice: SubmoduleLattice | None) -> SimpleGraph:
    ring = module.ring
    if ring_lattice is None:
        ring_lattice = ring.lattice()
    divisor = (lattice.colon_divisor if kind is GraphKind.PSS_TILDE
               else lattice.annihilator_divisor)
    picked = {ring_lattice.ideal(divisor(s)) for s in lattice.all}
    ideals = [i for i in ring_lattice.proper_nonzero() if i in picked]
    return _pair_graph(kind, module, ring_lattice, ideals, "R")


@dataclass(frozen=True)
class GraphMetrics:
    vertex_count: int
    edge_count: int
    is_complete: bool
    is_empty_graph: bool
    is_connected: bool
    diameter: float
    girth: float
    domination_number: int
    dominating_set: tuple[int, ...]
    universal_vertices: tuple[int, ...]
    isolated_vertices: tuple[int, ...]
    is_star: bool
    star_center: int | None

    def as_dict(self) -> dict:
        """JSON-ready dict; infinite diameter/girth become null."""
        def fin(x):
            return None if x == inf else int(x)
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "is_complete": self.is_complete,
            "is_empty_graph": self.is_empty_graph,
            "is_connected": self.is_connected,
            "diameter": fin(self.diameter),
            "girth": fin(self.girth),
            "domination_number": self.domination_number,
            "dominating_set": list(self.dominating_set),
            "universal_vertices": list(self.universal_vertices),
            "isolated_vertices": list(self.isolated_vertices),
            "is_star": self.is_star,
            "star_center": self.star_center,
        }


def _bfs_distances(g: SimpleGraph, root: int) -> tuple[int, int]:
    """Eccentricity of root within its component, and that component's mask."""
    adj = g._adj
    reached = frontier = 1 << root
    ecc = 0
    while True:
        nxt = 0
        for u in bit_positions(frontier):
            nxt |= adj[u]
        frontier = nxt & ~reached
        if not frontier:
            return ecc, reached
        reached |= frontier
        ecc += 1


def _girth(g: SimpleGraph) -> float:
    # Layered BFS from every root.  A vertex at depth d with a neighbour
    # at the same depth closes a cycle of length at most 2d+1; one reached
    # from two vertices at depth d closes one of length at most 2d+2.
    # From a root on a shortest cycle the bound is met exactly, so the
    # minimum over roots is the girth.  No simple graph beats 3.
    adj = g._adj
    best = inf
    for root in range(g.vertex_count):
        reached = frontier = 1 << root
        depth = 0
        while frontier and 2 * depth + 1 < best:
            nxt = 0
            for u in bit_positions(frontier):
                row = adj[u]
                if row & frontier:
                    best = 2 * depth + 1
                    break
                fresh = row & ~reached
                if fresh & nxt:
                    best = min(best, 2 * depth + 2)
                nxt |= fresh
            if best == 3:
                return best
            reached |= nxt
            frontier = nxt
            depth += 1
    return best


def _domination(g: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    n = g.vertex_count
    if n == 0:
        return 0, ()
    closed = [row | 1 << v for v, row in enumerate(g._adj)]
    full = (1 << n) - 1

    # closed neighbourhoods are symmetric: v's coverers are closed[v] itself
    coverers = [sorted(bit_positions(closed[v]), key=lambda u: (-closed[u].bit_count(), u))
                for v in range(n)]
    max_gain = max(m.bit_count() for m in closed)

    def search(uncovered: int, budget: int, chosen: list[int]) -> list[int] | None:
        if uncovered == 0:
            return list(chosen)
        if budget == 0 or uncovered.bit_count() > budget * max_gain:
            return None
        v = (uncovered & -uncovered).bit_length() - 1
        for u in coverers[v]:
            chosen.append(u)
            got = search(uncovered & ~closed[u], budget - 1, chosen)
            chosen.pop()
            if got is not None:
                return got
        return None

    k = 1
    while (got := search(full, k, [])) is None:
        k += 1
    return k, tuple(sorted(got))


def graph_metrics(g: SimpleGraph) -> GraphMetrics:
    """All invariants of one graph, under the documented conventions."""
    n = g.vertex_count
    m = g.edge_count
    degrees = [g.degree(v) for v in range(n)]
    universal = tuple(v for v in range(n) if degrees[v] == n - 1)
    isolated = tuple(v for v in range(n) if degrees[v] == 0)
    is_complete = m == n * (n - 1) // 2
    is_empty = m == 0

    if n <= 1:
        connected = True
        diameter: float = 0
    else:
        _ecc, reached = _bfs_distances(g, 0)
        connected = reached == (1 << n) - 1
        if not connected:
            diameter = inf
        else:
            diameter = max(_bfs_distances(g, root)[0] for root in range(n))

    girth = _girth(g)
    dom_n, dom_set = _domination(g)
    is_star = n >= 2 and bool(universal) and m == n - 1
    star_center = universal[0] if is_star else None

    return GraphMetrics(
        vertex_count=n,
        edge_count=m,
        is_complete=is_complete,
        is_empty_graph=is_empty,
        is_connected=connected,
        diameter=diameter,
        girth=girth,
        domination_number=dom_n,
        dominating_set=dom_set,
        universal_vertices=universal,
        isolated_vertices=isolated,
        is_star=is_star,
        star_center=star_center,
    )


def _element_set_text(sub: Submodule) -> str:
    return "{" + ",".join(_format_element(x) for x in sorted(sub.elements)) + "}"


def export_graph(g: SimpleGraph, fmt: str = "dot") -> str:
    """Serialize a graph to 'dot' or 'json' text, byte-stable."""
    if fmt == "dot":
        lines = [f"graph {g.kind.value} {{"]
        lines.append(f'  // module {g.module.descriptor} over {g.ring.descriptor}')
        for v in g.vertices:
            lines.append(f'  v{v.index} [label="{v.label}={_element_set_text(v.submodule)}"];')
        for i, j in g.edges():
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "kind": g.kind.value,
            "ring": g.ring.descriptor,
            "module": g.module.descriptor,
            "vertices": [
                {
                    "id": v.index,
                    "label": v.label,
                    "order": v.order,
                    "generators": [list(x) for x in v.submodule.generators],
                }
                for v in g.vertices
            ],
            "edges": [[i, j] for i, j in g.edges()],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise DescriptorError(f"unknown export format {fmt!r}; expected dot or json")
