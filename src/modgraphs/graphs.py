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

`Instance` holds one module with its lattices and graphs, and picks the
lattices each kind reads.  The graph invariants live with the check
suite in `harness`, which `Instance.metrics` imports when first called.
"""
from __future__ import annotations

import json
from enum import Enum
from math import isqrt, lcm

from .algebra import (
    MAX_LATTICE_SIZE,
    MAX_MODULE_ORDER,
    DescriptorError,
    FiniteModule,
    Submodule,
    SubmoduleLattice,
    _format_element,
    _is_prime,
    _same_module,
    bit_positions,
    enumerate_submodules,
    prime_radical,
    second_socle,
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


class SimpleGraph:
    """Undirected graph on the lattice members `vertices`, held as its
    adjacency rows: row i is an int bitmask with bit j set when vertices i
    and j are adjacent, and the edges are read off the rows.  `symbol`
    names the top in labels: M for submodules, R for ideals."""

    def __init__(self, kind: GraphKind, module: FiniteModule,
                 vertices: tuple[Submodule, ...], rows: list[int]):
        self.kind = kind
        self.module = module
        self.vertices = vertices
        self.rows = rows
        self.symbol = "M" if kind in (GraphKind.SSI, GraphKind.PSS) else "R"
        self._vertex_index = {v.mask: i for i, v in enumerate(vertices)}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def iter_edges(self):
        """Every edge (i, j) with i < j, in sorted order, read off one row
        at a time."""
        for i, row in enumerate(self.rows):
            for j in bit_positions(row >> i + 1 << i + 1):
                yield i, j

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def vertex_for(self, sub: Submodule) -> int:
        """The index of the vertex that is this submodule (or this ideal)."""
        i = self._vertex_index.get(sub.mask)
        if i is None or not _same_module(sub.module, self.vertices[i].module):
            raise ValueError(f"{sub!r} is not a vertex of this graph")
        return i

    def vertex_mask(self, subs) -> int:
        """The bitmask of the vertices among subs, which come from the
        lattice the graph was built on; the others are skipped."""
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


def build_graph(kind, lattice: SubmoduleLattice,
                ring_lattice: SubmoduleLattice | None = None) -> SimpleGraph:
    """One of the six graphs on `lattice`, the submodules of a module M.

    The ideal kinds (sii, pis) insist that M is the ring over itself, as
    their vertices are ideals; the tilde kinds take their vertices from
    `ring_lattice`, the ring's cached lattice when not supplied.
    """
    kind = _coerce_kind(kind)
    module = lattice.module
    ring = module.ring
    if kind in IDEAL_KINDS and module != ring.as_module():
        raise DescriptorError(
            f"graph kind {kind} is an ideal graph; build it for {ring.descriptor} "
            f"over itself, not for {module.descriptor}")

    if kind in TILDE_KINDS:
        if ring_lattice is None:
            ring_lattice = ring.lattice()
        # the ideal cZ_n, c | n, has colon divisor exp(Z_n/cZ_n) = c
        colon = kind is GraphKind.PSS_TILDE
        picked = {s.quotient_exponent if colon else s.exponent for s in lattice.all}
        return _witness_graph(kind, module, ring_lattice, tuple(
            i for i in ring_lattice.proper_nonzero() if i.quotient_exponent in picked))
    return _witness_graph(kind, module, lattice, lattice.proper_nonzero())


def _witness_graph(kind: GraphKind, module: FiniteModule, lattice: SubmoduleLattice,
                   verts: tuple[Submodule, ...]) -> SimpleGraph:
    """The graph on `verts` (members of `lattice`) under the kind's edge
    rule, one adjacency row per vertex from the witness sets (see the
    module docstring): the meet is second (ssi, sii, ssi_tilde) or the
    join is prime."""
    meet = kind in MEET_KINDS
    top = lattice.module.order
    # (p, square, mask): the minimals (maximals) are the witnesses of prime
    # order (index) but a simple M (its 0), which holds (lies in) no vertex
    witnesses = [(s.order if meet else top // s.order, 0, s.mask)
                 for s in (lattice.minimals() if meet else lattice.maximals())]
    for s in lattice.all:
        size = s.order if meet else top // s.order
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
    return SimpleGraph(kind, module, verts, rows)


_TWINS = {GraphKind.SSI: GraphKind.PSS, GraphKind.PSS: GraphKind.SSI}


class Instance:
    """One module under test, with memoized lattice, graphs and metrics;
    the socle and radical are read off the lattice on each access, and
    `facts` holds what the checks read once per side (`checks.facts`)."""

    def __init__(self, module: FiniteModule, *,
                 max_order: int = MAX_MODULE_ORDER,
                 max_lattice: int = MAX_LATTICE_SIZE):
        self.module = module
        self.ring = module.ring
        self.max_order = max_order
        self.max_lattice = max_lattice
        self._lattice = None
        self._graphs = {}
        self._metrics = {}
        self.facts = {}
        self.descriptor = module.descriptor
        if self.ring.modulus != lcm(*module.invariant_factors):
            self.descriptor += f"/{self.ring.descriptor}"

    @property
    def lattice(self):
        """M's submodule lattice; Z_n over itself shares its ring's cached one."""
        if self._lattice is None:
            self._lattice = (self.ring_lattice if self.module == self.ring.as_module() else
                             enumerate_submodules(self.module, max_order=self.max_order,
                                                  max_lattice=self.max_lattice))
        return self._lattice

    @property
    def ring_lattice(self):
        return self.ring.lattice(max_order=self.max_order, max_lattice=self.max_lattice)

    @property
    def sec_socle(self) -> Submodule:
        return second_socle(self.lattice.top, self.lattice)

    @property
    def radical(self) -> Submodule:
        return prime_radical(self.lattice)

    @property
    def props(self):
        return self.lattice.properties()

    def ann_ideal(self, sub: Submodule) -> Submodule:
        return self.ring_lattice.ideal(sub.exponent)

    def colon_of(self, sub: Submodule) -> Submodule:
        return self.ring_lattice.ideal(sub.quotient_exponent)

    def graph(self, kind):
        """The kind's graph; an ideal kind needs M to be the ring over itself."""
        kind = _coerce_kind(kind)
        if kind not in self._graphs:
            self._graphs[kind] = build_graph(
                kind, self.lattice, self.ring_lattice if kind in TILDE_KINDS else None)
        return self._graphs[kind]

    def metrics(self, kind):
        """The graph's invariants, computed once per SSI/PSS pair: N -> N^perp
        into the character group M^ (isomorphic to M) reverses inclusion and
        gives exp(N) = exp(M^/N^perp), so it maps SSI(M) onto PSS(M).  The
        second kind asked for reads the first's record but for the indices
        in `universal_vertices`."""
        kind = _coerce_kind(kind)
        if kind not in self._metrics:
            from .harness import graph_metrics, universal_vertices  # only checks need them
            g = self.graph(kind)
            twin = self._metrics.get(_TWINS.get(kind))
            self._metrics[kind] = (graph_metrics(g) if twin is None else
                                   twin._replace(universal_vertices=universal_vertices(g)))
        return self._metrics[kind]

    def __repr__(self):
        return f"Instance({self.descriptor})"


def _element_set_text(sub: Submodule) -> str:
    return "{" + ",".join(_format_element(x) for x in sorted(sub.elements)) + "}"


def export_graph(g: SimpleGraph, fmt: str = "dot") -> str:
    """Serialize a graph to 'dot' or 'json' text, byte-stable."""
    if fmt == "dot":
        lines = [f"graph {g.kind.value} {{"]
        lines.append(f'  // module {g.module.descriptor} over {g.module.ring.descriptor}')
        for i, v in enumerate(g.vertices):
            lines.append(f'  v{i} [label="{v.label(g.symbol)}={_element_set_text(v)}"];')
        for i, j in g.iter_edges():
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "kind": g.kind.value,
            "ring": g.module.ring.descriptor,
            "module": g.module.descriptor,
            "vertices": [
                {
                    "id": i,
                    "label": v.label(g.symbol),
                    "order": v.order,
                    "generators": [list(x) for x in v.generators],
                }
                for i, v in enumerate(g.vertices)
            ],
            "edges": [[i, j] for i, j in g.iter_edges()],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise DescriptorError(f"unknown export format {fmt!r}; expected dot or json")
