"""Module families and the check-suite runner.

A family string is a comma-separated list of generators:

    cyclic:LO..HI      one cyclic module Z_n for each n in the range
    product:ab<=N      Z_a x Z_b over Z_lcm(a,b) for 2 <= a <= b, a*b <= N
    vector:P^K         K copies of Z_P over the field Z_P (P prime)
    zmod:MOD[/RING]    one explicit instance, e.g. zmod:Z2xZ4/Z8

`run_suite` evaluates a selection of checks over a family and returns a
deterministic report; per-result timings are measured but only included
in the JSON when explicitly requested, so default output is byte-stable.
"""
from __future__ import annotations

import json
import re
import time
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import TYPE_CHECKING

from .algebra import (
    MAX_LATTICE_SIZE,
    MAX_MODULE_ORDER,
    DescriptorError,
    FiniteModule,
    Ring,
    SizeGuardError,
    Submodule,
    _NUMBER,
    _is_prime,
    enumerate_submodules,
    guard_module_order,
    parse_factors,
    prime_radical,
    second_socle,
)
from .graphs import (TILDE_KINDS, GraphKind, _coerce_kind, build_graph, graph_metrics,
                     universal_vertices)

if TYPE_CHECKING:  # the check registry is loaded only when a suite runs
    from .checks import CheckResult

_TWINS = {GraphKind.SSI: GraphKind.PSS, GraphKind.PSS: GraphKind.SSI}

DEFAULT_FAMILY = "cyclic:2..60,product:ab<=64,vector:2^3,vector:3^3"


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
            g = self.graph(kind)
            twin = self._metrics.get(_TWINS.get(kind))
            self._metrics[kind] = (graph_metrics(g) if twin is None else
                                   twin._replace(universal_vertices=universal_vertices(g)))
        return self._metrics[kind]

    def __repr__(self):
        return f"Instance({self.descriptor})"


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
    enumerated once per family, as Z_n's own lattice or as a ring lattice.
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
            module = FiniteModule(rings.setdefault(modulus, Ring(modulus)), factors)
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
        counts = {"pass": 0, "fail": 0, "findings": 0, "not_applicable": 0}
        for r in self.results:
            counts["findings" if r.verdict == "finding" else r.verdict] += 1
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
        # json.dumps(self.as_dict(), indent=2) + "\n", written from the fixed
        # shape as one list of pieces joined once
        enc = _Encoded()
        parts = [f'{{\n  "suite": {enc[self.suite]},\n  "family": {enc[self.family]},\n'
                 '  "results": ']
        sep = "[\n    "
        for r in self.results:
            w = ("null" if r.witness is None
                 else json.dumps(r.witness, indent=2).replace("\n", "\n      "))
            if self.include_timing:
                w += ',\n      "millis": ' + ("null" if r.millis is None
                                              else float.__repr__(r.millis))
            parts.append(f'{sep}{{\n      "check": {enc[r.check_id]},\n      "instance": '
                         f'{enc[r.instance]},\n      "verdict": {enc[r.verdict]},\n'
                         f'      "witness": {w}\n    }}')
            sep = ",\n    "
        summary = json.dumps(self.summary(), indent=2).replace("\n", "\n  ")
        parts.append("\n  ]" if self.results else "[]")
        parts.append(f',\n  "summary": {summary}\n}}\n')
        return "".join(parts)


def run_suite(family: str = DEFAULT_FAMILY, checks: str = "strict", *,
              include_timing: bool = False,
              max_order: int = MAX_MODULE_ORDER,
              max_lattice: int = MAX_LATTICE_SIZE) -> CheckReport:
    """Evaluate the selected checks over every instance of the family.

    The whole family is built first, so its order guard stops the run
    before any check; each instance, with its lattice, graphs and metrics,
    is dropped once its checks have run.
    """
    from .checks import evaluate_check  # read here, so a replacement is seen
    selected = select_checks(checks)
    instances = generate_family(family, max_order=max_order, max_lattice=max_lattice)
    report = CheckReport(suite=checks, family=family, include_timing=include_timing)
    instances.reverse()
    while instances:
        inst = instances.pop()
        for check in selected:
            start = time.perf_counter()
            result = evaluate_check(check, inst)
            # milliseconds to the microsecond; round(x, 3) costs several times more
            result.millis = round((time.perf_counter() - start) * 1e6) / 1000
            report.results.append(result)
    return report
