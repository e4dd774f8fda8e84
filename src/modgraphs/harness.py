"""Module families, the graph invariants and the check-suite runner.

A family string is a comma-separated list of generators:

    cyclic:LO..HI      one cyclic module Z_n for each n in the range
    product:ab<=N      Z_a x Z_b over Z_lcm(a,b) for 2 <= a <= b, a*b <= N
    vector:P^K         K copies of Z_P over the field Z_P (P prime)
    zmod:MOD[/RING]    one explicit instance, e.g. zmod:Z2xZ4/Z8

Conventions for the invariants live in `graph_metrics`: graphs on at
most one vertex count as connected and complete with diameter 0, a
disconnected graph has infinite diameter, and an acyclic graph has
infinite girth.  The diameter-2 test first clears the rows of v's `HUBS`
highest-degree neighbours from its non-neighbours.  SSI(M) and PSS(M)
are isomorphic (N -> N^perp), so `Instance.metrics` computes one record
per pair.  No check needs the domination number, a separate search.
Only the check suite reads the invariants, so other commands never
compile this module.

`check_results` evaluates a selection of checks over a family, one
instance at a time, and `report_pieces` writes the JSON report one piece
per result as they come, so `check` streams it in constant memory;
`run_suite` and `CheckReport.to_json` collect and join the same two.
Per-result timings are measured but only included in the JSON when
explicitly requested, so default output is byte-stable.
"""
from __future__ import annotations

import json
import re
import time
from json.encoder import encode_basestring_ascii
from math import inf, lcm
from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    DEFAULT_FAMILY,
    MAX_LATTICE_SIZE,
    MAX_MODULE_ORDER,
    DescriptorError,
    FiniteModule,
    Ring,
    SizeGuardError,
    _NUMBER,
    _is_prime,
    bit_positions,
    guard_lattice_size,
    guard_module_order,
    parse_factors,
)
from .graphs import Instance, SimpleGraph

if TYPE_CHECKING:  # the check registry is loaded only when a suite runs
    from .checks import CheckResult

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


_CYCLIC_RE = re.compile(rf"^cyclic:{_NUMBER}\.\.{_NUMBER}$")
_PRODUCT_RE = re.compile(f"^product:ab<={_NUMBER}$")
_VECTOR_RE = re.compile(rf"^vector:{_NUMBER}\^{_NUMBER}$")
_ZMOD_RE = re.compile(r"^zmod:([A-Za-z0-9x]+)(?:/([A-Za-z0-9]+))?$")


def _expand_item(item: str, max_order: int):
    """The (ring modulus, invariant factors) of each module of one item."""
    m = _CYCLIC_RE.match(item)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo < 2 or hi < lo:
            raise DescriptorError(f"bad cyclic range in {item!r}")
        for n in range(lo, hi + 1):
            yield n, (n,)
        return
    m = _PRODUCT_RE.match(item)
    if m:
        cap = int(m.group(1))
        a = 2
        while a * a <= cap:
            for b in range(a, cap // a + 1):
                yield lcm(a, b), (a, b)
            a += 1
        return
    m = _VECTOR_RE.match(item)
    if m:
        p, k = int(m.group(1)), int(m.group(2))
        if k < 1:
            raise DescriptorError(f"vector family needs a positive power in {item!r}")
        # p^k >= max(p, 2^k): refused before the primality test and the k-tuple
        if p > 1 and (p > max_order or k > max_order.bit_length()):
            raise SizeGuardError(f"module order {p}^{k} exceeds the guard {max_order}")
        if not _is_prime(p):
            raise DescriptorError(f"vector family needs a prime base, got {p}")
        yield p, (p,) * k
        return
    m = _ZMOD_RE.match(item)
    if m:
        yield parse_factors(m.group(1), m.group(2))
        return
    raise DescriptorError(f"unrecognized family item {item!r}")


def generate_family(text: str, *, max_order: int = MAX_MODULE_ORDER,
                    max_lattice: int = MAX_LATTICE_SIZE) -> list[Instance]:
    """Expand a family string into instances, first occurrence wins.

    Modules over the same Z_n share one Ring, so its ideal lattice is
    enumerated once per family, as Z_n's own lattice or as a ring lattice;
    Z_n over itself is the ring's own module, so its lattice is counted
    once too.
    The order guard runs as each module is expanded, not after the whole
    family is built.
    """
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise DescriptorError("empty family description")
    out: list[Instance] = []
    seen: set[str] = set()
    rings: dict[int, Ring] = {}
    for item in items:
        for modulus, factors in _expand_item(item, max_order):
            ring = rings.setdefault(modulus, Ring(modulus))
            module = ring.as_module() if factors == (modulus,) else FiniteModule(ring, factors)
            guard_module_order(module, max_order)
            inst = Instance(module, max_order=max_order, max_lattice=max_lattice)
            if inst.descriptor not in seen:
                seen.add(inst.descriptor)
                out.append(inst)
    if not out:
        raise DescriptorError(f"family {text!r} matches no modules")
    return out


def select_checks(selection: str):
    """Resolve 'strict', 'all', or a comma list of ids, in registry order."""
    from .checks import CHECKS, CHECKS_BY_ID, STRICT
    if selection == "strict":
        return [c for c in CHECKS if c.mode == STRICT]
    if selection == "all":
        return list(CHECKS)
    ids = [s.strip() for s in selection.split(",") if s.strip()]
    if not ids:
        raise DescriptorError("empty check selection")
    unknown = [i for i in ids if i not in CHECKS_BY_ID]
    if unknown:
        raise DescriptorError(f"unknown check ids: {', '.join(unknown)}")
    wanted = set(ids)
    return [c for c in CHECKS if c.id in wanted]


class _Encoded(dict):
    """JSON string literals, each distinct string encoded on first lookup."""
    def __missing__(self, text):
        got = self[text] = encode_basestring_ascii(text)
        return got


def _tally(results, counts: dict):
    """Pass the results through, counting each verdict into counts, the
    report's summary."""
    counts.update({"pass": 0, "fail": 0, "findings": 0, "not_applicable": 0})
    for r in results:
        counts["findings" if r.verdict == "finding" else r.verdict] += 1
        yield r


def report_pieces(suite: str, family: str, results, counts: dict,
                  include_timing: bool = False):
    """The report, json.dumps(`CheckReport.as_dict()`, indent=2) + "\n",
    written from its fixed shape one piece per result as each is taken
    from results, with counts filled as `_tally` does.  The header goes
    out with the first result, so the guards a generator of results runs
    before its first yield come before any piece."""
    enc = _Encoded()
    head = f'{{\n  "suite": {enc[suite]},\n  "family": {enc[family]},\n  "results": '
    sep, n = head + "[\n    ", 0
    for n, r in enumerate(_tally(results, counts), 1):
        w = ("null" if r.witness is None
             else json.dumps(r.witness, indent=2).replace("\n", "\n      "))
        if include_timing:
            w += ',\n      "millis": ' + ("null" if r.millis is None
                                          else float.__repr__(r.millis))
        yield (f'{sep}{{\n      "check": {enc[r.check_id]},\n      "instance": '
               f'{enc[r.instance]},\n      "verdict": {enc[r.verdict]},\n'
               f'      "witness": {w}\n    }}')
        sep = ",\n    "
    summary = json.dumps(counts, indent=2).replace("\n", "\n  ")
    yield ("\n  ]" if n else head + "[]") + f',\n  "summary": {summary}\n}}\n'


class CheckReport:
    """The results of one suite run, in evaluation order."""
    __slots__ = ("suite", "family", "results", "include_timing")

    def __init__(self, suite: str, family: str, results: list[CheckResult] | None = None,
                 include_timing: bool = False):
        self.suite = suite
        self.family = family
        self.results = [] if results is None else results
        self.include_timing = include_timing

    def summary(self) -> dict:
        counts = {}
        for _ in _tally(self.results, counts):
            pass
        return counts

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.verdict == "fail"]

    def findings(self) -> list[CheckResult]:
        return [r for r in self.results if r.verdict == "finding"]

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "family": self.family,
            "results": [r.as_dict(self.include_timing) for r in self.results],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return "".join(report_pieces(self.suite, self.family, self.results, {},
                                     self.include_timing))


def check_results(family: str = DEFAULT_FAMILY, checks: str = "strict", *,
                  max_order: int = MAX_MODULE_ORDER,
                  max_lattice: int = MAX_LATTICE_SIZE):
    """Yield the result of each selected check on each instance of the
    family, in report order, with its millis.

    Before the first yield the whole family is built under its order
    guard, and then every module's lattice is counted under the lattice
    guard, so any refusal comes before any result.  Each instance, with
    its lattice, graphs and metrics, is dropped once its checks have run.
    """
    from .checks import evaluate_check  # read here, so a replacement is seen
    selected = select_checks(checks)
    instances = generate_family(family, max_order=max_order, max_lattice=max_lattice)
    for inst in instances:
        guard_lattice_size(inst.module, max_lattice)
    instances.reverse()
    while instances:
        inst = instances.pop()
        for check in selected:
            start = time.perf_counter()
            result = evaluate_check(check, inst)
            # milliseconds to the microsecond; round(x, 3) costs several times more
            result.millis = round((time.perf_counter() - start) * 1e6) / 1000
            yield result


def run_suite(family: str = DEFAULT_FAMILY, checks: str = "strict", *,
              include_timing: bool = False,
              max_order: int = MAX_MODULE_ORDER,
              max_lattice: int = MAX_LATTICE_SIZE) -> CheckReport:
    """Every result of `check_results` over the family, collected into one
    report; every guard stops the run before any check."""
    return CheckReport(checks, family, list(check_results(
        family, checks, max_order=max_order, max_lattice=max_lattice)), include_timing)
