"""Spans and counters around the public entry points of each modgraphs layer.

`Tracer.install` swaps the entry points of the imported modgraphs modules
for wrappers.  A wrapper appends a span (id, parent id, name, start, end,
module) to an in-memory list, or bumps a counter; `Tracer.report` hands
both to the op process, which writes them out when it ends.  Nothing in
`src/` is changed: the wrappers live here and are installed only in a
traced op process.

Memoized lattice stages (flag families, module properties) get a span on
their first call per lattice only, which is the call that computes them;
later calls are cache reads and stay in their caller's self time.  The
first time a check instance is used, its memoized stages are pre-warmed in
pipeline order (lattice, flags, properties, graphs, metrics), so each
stage's cost is charged to that stage instead of to whichever check
happened to touch it first.  Under `check --checks all` every instance
computes all of these anyway, so pre-warming adds no work; the self-tests
hold that to account.

A hook whose target no longer exists is skipped and listed in
`missing_hooks`, so the time lands in its caller instead of breaking the
run.
"""
from __future__ import annotations

import time
import weakref
from collections import Counter

_clock = time.perf_counter

GRAPH_BUILD_SPANS = {
    "ssi": "graphs.build_ssi",
    "pss": "graphs.build_pss",
    "sii": "graphs.build_ideal",
    "pis": "graphs.build_ideal",
    "ssi_tilde": "graphs.build_tilde",
    "pss_tilde": "graphs.build_tilde",
}

# lattice accessor -> (memoized family it computes on first call, span name)
MEMO_ACCESSORS = {
    "is_second": ("second", "algebra.second_flags"),
    "seconds": ("second", "algebra.second_flags"),
    "is_prime": ("prime", "algebra.prime_flags"),
    "primes": ("prime", "algebra.prime_flags"),
    "is_minimal": ("minimal", "algebra.order_flags"),
    "minimals": ("minimal", "algebra.order_flags"),
    "is_maximal": ("maximal", "algebra.order_flags"),
    "maximals": ("maximal", "algebra.order_flags"),
    "is_large": ("large", "algebra.order_flags"),
    "is_small": ("small", "algebra.order_flags"),
    "properties": ("properties", "algebra.properties"),
}


class Tracer:
    """Span and counter store for one op process."""

    def __init__(self, module: str, *, prewarm: bool = True):
        self.module = module
        self.prewarm_enabled = prewarm
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._pairs = {"join": set(), "meet": set()}
        self._done = weakref.WeakKeyDictionary()
        self._lattices: list = []  # kept alive so id() in pair keys stays unique
        self._warmed: dict[int, object] = {}  # id -> instance, kept alive likewise

    # -- recording -----------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        module = self.module
        self._stack.append(sid)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, module)

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["join_distinct"] = len(self._pairs["join"])
        counts["meet_distinct"] = len(self._pairs["meet"])
        return {"spans": self.spans, "counts": counts,
                "missing_hooks": self.missing}

    # -- installation --------------------------------------------------

    def install(self, dispatch):
        """Hook every layer and return `dispatch` wrapped as the root span."""
        import modgraphs
        from modgraphs import algebra, checks, cli, graphs, harness
        modules = (modgraphs, algebra, graphs, checks, harness, cli)

        for attr, make in (
                ("enumerate_submodules", self._enumerate),
                ("build_graph", self._build_graph),
                ("graph_metrics", self._span("graphs.metrics")),
                ("export_graph", self._span("graphs.export")),
                ("evaluate_check", self._evaluate_check),
                ("run_suite", self._span("harness.family")),
                ("generate_family", self._generate_family),
                ("second_socle", self._span("algebra.socle_radical")),
                ("prime_radical", self._span("algebra.socle_radical"))):
            self._hook_function(modules, attr, make)

        lattice_cls = algebra.SubmoduleLattice
        for attr, (family, name) in MEMO_ACCESSORS.items():
            self._hook_method(lattice_cls, attr, self._memo(family, name))
        for attr in ("colon_elements", "annihilator_elements"):
            self._hook_method(lattice_cls, attr, self._span("algebra.ideals"))
        for attr in ("ann_ideal", "colon_of"):
            self._hook_method(harness.Instance, attr, self._span("algebra.ideals"))
        for attr in ("join", "meet"):
            self._hook_method(lattice_cls, attr, self._pair_counter(attr))
        self._hook_method(harness.CheckReport, "to_json", self._span("harness.report"))

        instance_cls = getattr(cli, "Instance", None)
        if instance_cls is None:
            self.missing.append("cli.Instance")
        else:
            cli.Instance = self._prewarmed_instance(instance_cls)

        return self._span("cli.dispatch")(dispatch)

    def _hook_function(self, modules, attr: str, make) -> None:
        """Replace `attr` in every one of `modules` that binds it."""
        wrapped = {}
        for mod in modules:
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            if id(orig) not in wrapped:
                wrapped[id(orig)] = make(orig)
            setattr(mod, attr, wrapped[id(orig)])
        if not wrapped:
            self.missing.append(attr)

    def _hook_method(self, cls, attr: str, make) -> None:
        orig = getattr(cls, attr, None)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, make(orig))

    # -- wrapper factories ---------------------------------------------

    def _span(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.timed(name, fn, *args, **kwargs)
            return wrapper
        return make

    def _memo(self, family: str, name: str):
        done = self._done

        def make(fn):
            def wrapper(lat, *args):
                seen = done.get(lat)
                if seen is None:
                    seen = done[lat] = set()
                if family in seen:
                    return fn(lat, *args)
                seen.add(family)
                return self.timed(name, fn, lat, *args)
            return wrapper
        return make

    def _pair_counter(self, op: str):
        pairs = self._pairs[op]
        counts = self.counts
        key = f"{op}_calls"

        def make(fn):
            def wrapper(lat, a, b):
                counts[key] += 1
                i, j = lat.index_of(a), lat.index_of(b)
                pairs.add((id(lat), i, j) if i <= j else (id(lat), j, i))
                return fn(lat, a, b)
            return wrapper
        return make

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            lat = self.timed("algebra.enumerate", fn, *args, **kwargs)
            self._lattices.append(lat)
            self.counts["lattice_size"] += len(lat)
            return lat
        return wrapper

    def _build_graph(self, fn):
        def wrapper(kind, *args, **kwargs):
            name = GRAPH_BUILD_SPANS[str(kind)]
            g = self.timed(name, fn, kind, *args, **kwargs)
            v = g.vertex_count
            self.counts["pairs_tested"] += v * (v - 1) // 2
            self.counts["edges"] += g.edge_count
            return g
        return wrapper

    def _generate_family(self, fn):
        def wrapper(*args, **kwargs):
            out = self.timed("harness.family", fn, *args, **kwargs)
            self.counts["instances"] += len(out)
            return out
        return wrapper

    def _evaluate_check(self, fn):
        def wrapper(check, inst, *args, **kwargs):
            outer = self.module
            self.module = inst.descriptor
            try:
                self._prewarm(inst, graphs=True)
                result = self.timed("checks.evaluate", fn, check, inst, *args, **kwargs)
            finally:
                self.module = outer
            self.counts["evaluated"] += 1
            if result.verdict != "not_applicable":
                self.counts["applicable"] += 1
            if result.verdict == "fail":
                self.counts["failures"] += 1
            elif result.verdict == "finding":
                self.counts["findings"] += 1
            return result
        return wrapper

    def _prewarmed_instance(self, cls):
        def make(*args, **kwargs):
            inst = cls(*args, **kwargs)
            self._prewarm(inst, graphs=False)
            return inst
        return make

    # -- pre-warming ---------------------------------------------------

    def _prewarm(self, inst, *, graphs: bool) -> None:
        """Compute the instance's memoized stages once, in pipeline order."""
        if not self.prewarm_enabled or id(inst) in self._warmed:
            return
        self._warmed[id(inst)] = inst
        try:
            lat = inst.lattice
            lat.seconds()
            lat.primes()
            lat.minimals()
            lat.maximals()
            lat.is_large(lat.zero)
            lat.is_small(lat.zero)
            inst.props
            inst.ring_lattice
            if graphs:
                from modgraphs.graphs import GraphKind
                inst.metrics(GraphKind.SSI)
                inst.metrics(GraphKind.PSS)
        except AttributeError as exc:  # an accessor was renamed: stop early
            self.missing.append(f"prewarm: {exc}")
