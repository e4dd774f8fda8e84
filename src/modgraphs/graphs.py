"""Graphs attached to a module's submodule lattice, plus their invariants.

Six kinds are supported.  The meet/join graphs put the nonzero proper
submodules on the vertices and connect two of them when their
intersection is second (ssi) or their sum is prime (pss).  The ideal
variants (sii, pis) are the same constructions for the ring over itself.
The tilde variants move to the ring side through annihilators (ssi_tilde)
or colon ideals (pss_tilde), merging duplicate ideals into one vertex.

No edge needs a meet or a join.  X is second iff exp(X) is a prime p,
which holds iff X contains a witness of order p (an atom), no atom of
another prime order and no cyclic witness of order p^2.  With C(W) the
vertices containing the witness W, the row of N is the OR over p of
A_p & ~(the A_p' for p' != p) & ~Q_p, where A_p and Q_p are the ORs of
C(W) over the atoms of order p and the cyclic witnesses of order p^2
inside N; then N's own bit is cleared.  Dually, M/X has exponent p iff
X lies in a witness H with M/H of order p, in none of another prime
index and in no T with |M/T| = exp(M/T) = p^2, so the prime-sum rows
take D(W), the vertices inside W, over the witnesses containing N.
The tilde graphs take their witnesses from the ring lattice and keep
the bits of the picked ideals only.  A graph is held as these rows.

Conventions for the invariants live in `graph_metrics`: graphs on at
most one vertex count as connected and complete with diameter 0, a
disconnected graph has infinite diameter, and an acyclic graph has
infinite girth.  The diameter-2 test first clears the rows of v's `HUBS`
highest-degree neighbours from its non-neighbours.  SSI(M) and PSS(M)
are isomorphic (N -> N^perp), so `Instance.metrics` computes one record
per pair.  No check needs the domination number, a separate search.
"""
from __future__ import annotations

import json
from enum import Enum
from math import inf, isqrt
from typing import NamedTuple

from .algebra import (
    DescriptorError,
    FiniteModule,
    Ring,
    SizeGuardError,
    Submodule,
    SubmoduleLattice,
    _format_element,
    _is_prime,
    _same_module,
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


class GraphVertex(NamedTuple):
    """A vertex and the member it carries; the label is written on read."""
    index: int
    submodule: Submodule
    symbol: str  # M for submodules, R for ideals

    @property
    def label(self) -> str:
        return self.submodule.label(self.symbol)

    @property
    def order(self) -> int:
        return self.submodule.order


class SimpleGraph:
    """Undirected graph on lattice vertices, held as its adjacency rows:
    row i is an int bitmask with bit j set when i and j are adjacent.
    The rows are the one representation; the edge list is derived from
    them on demand."""

    def __init__(self, kind: GraphKind, ring: Ring, module: FiniteModule,
                 vertices: tuple[GraphVertex, ...], rows: list[int]):
        self.kind = kind
        self.ring = ring
        self.module = module
        self.vertices = vertices
        self.rows = rows
        self._vertex_index = {v.submodule.mask: v.index for v in vertices}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (i, j) with i < j, in sorted order."""
        return list(self.iter_edges())

    def iter_edges(self):
        """The edges of `edges()`, read off one row at a time."""
        for i, row in enumerate(self.rows):
            for j in bit_positions(row >> i + 1 << i + 1):
                yield i, j

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def vertex_for(self, sub: Submodule) -> GraphVertex:
        """The vertex carrying this submodule (or this ideal)."""
        i = self._vertex_index.get(sub.mask)
        if i is None or not _same_module(sub.module, self.vertices[i].submodule.module):
            raise ValueError(f"{sub!r} is not a vertex of this graph")
        return self.vertices[i]

    def vertex_mask(self, subs) -> int:
        """The bitmask of the vertices carrying members of subs, which come
        from the lattice the graph was built on; the others are skipped."""
        index = self._vertex_index
        return sum(1 << index[s.mask] for s in subs if s.mask in index)

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
    return _witness_graph(kind, module, lattice, lattice.proper_nonzero(), symbol)


def _witness_graph(kind: GraphKind, module: FiniteModule, lattice: SubmoduleLattice,
                   verts, symbol: str) -> SimpleGraph:
    """The graph on `verts` (members of `lattice`) under the kind's edge
    rule, one adjacency row per vertex from the witness sets (see the
    module docstring): the meet is second (ssi, sii, ssi_tilde) or the
    join is prime."""
    meet = kind in MEET_KINDS
    top = lattice.module.order
    witnesses = []  # (p, square, mask): prime-order or cyclic p^2 witness
    for s in lattice.all:
        size = s.order if meet else top // s.order
        if _is_prime(size):
            witnesses.append((size, 0, s.mask))
            continue
        p = isqrt(size)
        if (p * p == size and _is_prime(p)
                and (s.exponent if meet else s.quotient_exponent) == size):
            witnesses.append((p, 1, s.mask))

    masks = [s.mask for s in verts]
    # per vertex N and prime p: [A_p, Q_p], the ORs of the vertex sets of
    # the atom-like and the square witnesses on N's side
    sides: list[dict[int, list[int]]] = [{} for _ in verts]
    for p, square, w in witnesses:
        hits = [i for i, m in enumerate(masks) if (m & w == w if meet else m & w == m)]
        bits = sum(1 << i for i in hits)
        for i in hits:
            sides[i].setdefault(p, [0, 0])[square] |= bits
    rows = []
    for i, side in enumerate(sides):
        # K joins N when exactly one prime p has an A_p bit for K, and
        # Q_p has none
        row = seen = twice = 0
        for atoms, squares in side.values():
            twice |= seen & atoms
            seen |= atoms
            row |= atoms & ~squares
        rows.append(row & ~twice & ~(1 << i))
    vertices = tuple(GraphVertex(i, s, symbol) for i, s in enumerate(verts))
    return SimpleGraph(kind, module.ring, module, vertices, rows)


def _build_tilde(kind: GraphKind, module: FiniteModule, lattice: SubmoduleLattice,
                 ring_lattice: SubmoduleLattice | None) -> SimpleGraph:
    ring = module.ring
    if ring_lattice is None:
        ring_lattice = ring.lattice()
    # the ideal cZ_n, c | n, has colon divisor exp(Z_n/cZ_n) = c
    colon = kind is GraphKind.PSS_TILDE
    picked = {s.quotient_exponent if colon else s.exponent for s in lattice.all}
    ideals = [i for i in ring_lattice.proper_nonzero() if i.quotient_exponent in picked]
    return _witness_graph(kind, module, ring_lattice, ideals, "R")


HUBS = 16  # highest-degree vertices whose rows `_within_two` clears first
DOMINATION_NODES = 1_000_000  # nodes `domination_number` visits on one graph before it refuses


class GraphMetrics(NamedTuple):
    vertex_count: int
    edge_count: int
    is_complete: bool
    is_connected: bool
    diameter: float
    girth: float
    universal_vertices: tuple[int, ...]


def _bfs_distances(g: SimpleGraph, root: int) -> tuple[int, int]:
    """Eccentricity of root within its component, and that component's mask."""
    adj = g.rows
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


def _within_two(rows: list[int]) -> bool:
    """Whether every two non-adjacent vertices have a common neighbour."""
    n = len(rows)
    full = (1 << n) - 1
    hubs = sorted(range(n), key=lambda u: -rows[u].bit_count())[:HUBS]
    for v, row in enumerate(rows):
        far = full & ~row >> v + 1 << v + 1
        for h in hubs:
            if row >> h & 1:  # h is a common neighbour of v and all of h's
                far &= ~rows[h]
        if any(not rows[u] & row for u in bit_positions(far)):
            return False
    return True


def _girth(g: SimpleGraph) -> float:
    # Layered BFS from every root.  A vertex at depth d with a neighbour
    # at the same depth closes a cycle of length at most 2d+1; one reached
    # from two vertices at depth d closes one of length at most 2d+2.
    # From a root on a shortest cycle the bound is met exactly, so the
    # minimum over roots is the girth.  No simple graph beats 3.
    adj = g.rows
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


def domination_number(g: SimpleGraph) -> int:
    """The fewest vertices whose closed rows cover the graph (0 with no
    vertex), by iterative deepening: branch on the uncovered vertex with
    the fewest coverers, tried by falling gain; the last pick is one AND
    of the rest's closed rows, sparsest first.  SizeGuardError past
    `DOMINATION_NODES` visited nodes."""
    n = g.vertex_count
    if n == 0:
        return 0
    closed = [row | 1 << v for v, row in enumerate(g.rows)]
    # closed neighbourhoods are symmetric: v's coverers are closed[v]
    scarce = sorted(range(n), key=lambda u: closed[u].bit_count())
    nodes = 0

    def scarce_first(uncovered: int):
        """The uncovered vertices, those with the fewest coverers first."""
        bits = bin(uncovered)[:1:-1].ljust(n, "0")
        return (u for u in scarce if bits[u] == "1")

    def dominated(uncovered: int, budget: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > DOMINATION_NODES:
            raise SizeGuardError(
                f"domination search on {g.kind.value} of {g.module.descriptor} "
                f"exceeded {DOMINATION_NODES} nodes")
        if budget == 1:
            # one vertex covers the rest iff their closed rows share a bit
            common = -1
            for u in scarce_first(uncovered):
                common &= closed[u]
                if not common:
                    return False
            return True
        # no pick covers more than the most any vertex still covers
        gains = [(c & uncovered).bit_count() for c in closed]
        if uncovered.bit_count() > budget * max(gains):
            return False
        # the vertex with the fewest coverers, its coverers tried by falling gain
        v = next(scarce_first(uncovered))
        for u in sorted(bit_positions(closed[v]), key=lambda u: -gains[u]):
            rest = uncovered & ~closed[u]
            if not rest or dominated(rest, budget - 1):
                return True
        return False

    k = 1
    while not dominated((1 << n) - 1, k):
        k += 1
    return k


def universal_vertices(g: SimpleGraph) -> tuple[int, ...]:
    """The vertices adjacent to every other vertex."""
    others = g.vertex_count - 1
    return tuple(v for v, row in enumerate(g.rows) if row.bit_count() == others)


def graph_metrics(g: SimpleGraph) -> GraphMetrics:
    """All invariants of one graph, under the documented conventions."""
    n = g.vertex_count
    m = g.edge_count
    is_complete = m == n * (n - 1) // 2

    if n <= 1:
        connected = True
        diameter: float = 0
    else:
        _ecc, reached = _bfs_distances(g, 0)
        connected = reached == (1 << n) - 1
        if not connected:
            diameter = inf
        elif is_complete:
            diameter = 1
        elif _within_two(g.rows):
            diameter = 2
        else:
            diameter = max(_bfs_distances(g, root)[0] for root in range(n))

    return GraphMetrics(
        vertex_count=n,
        edge_count=m,
        is_complete=is_complete,
        is_connected=connected,
        diameter=diameter,
        girth=_girth(g),
        universal_vertices=universal_vertices(g),
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
