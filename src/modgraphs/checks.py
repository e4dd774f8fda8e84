"""Registry of machine checks tying lattice structure to graph shape.

Every check is a pair of predicates over one module instance: `applies`
guards the hypothesis, `claim` decides the conclusion and produces a
JSON-safe witness.  Strict checks are expected to hold on every instance
they apply to; report checks record counterexamples as findings instead
of failures, for statements that are known to break.

The context object passed in (see `harness.Instance`) memoizes the
lattice, graphs, metrics and ring lattice, and `facts` reads what one
side's checks share once per instance.

The D checks are the C checks read in the order-dual lattice.  A `Side`
record carries everything the duality swaps; each mirrored pair is
written once over a side and bound to both.  C9/D9 is the one pair that
is not a mirror, so it is written twice.

The lattice premises of C1, C8, C9, C15 and their duals read the lows'
primes (`Side.low_prime`); C7/D7 take a meet (join) for a failing pair only.
"""
from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb, gcd, inf
from typing import Callable, NamedTuple, Optional

from .algebra import _is_prime, bit_positions
from .graphs import GraphKind

STRICT = "strict"
REPORT = "report"


class Check(NamedTuple):
    id: str
    name: str
    mode: str
    applies: Callable
    claim: Callable
    notes: str = ""


class CheckResult:
    """One check's verdict on one instance; `millis` is set once it is timed."""
    __slots__ = ("check_id", "instance", "verdict", "witness", "millis")

    def __init__(self, check_id: str, instance: str, verdict: str,
                 witness: Optional[dict] = None, millis: Optional[float] = None):
        self.check_id = check_id
        self.instance = instance
        self.verdict = verdict  # pass | fail | finding | not_applicable
        self.witness = witness
        self.millis = millis

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {"check": self.check_id, "instance": self.instance,
               "verdict": self.verdict, "witness": self.witness}
        if include_timing:
            out["millis"] = self.millis
        return out


class Side(NamedTuple):
    """What the order duality swaps between a C check and its D check.

    The C side reads the lattice under inclusion and the D side under
    reverse inclusion, so meet and join, 0 and M, minimal and maximal,
    second and prime, a low's order and its index trade places.  What a
    side's checks read on one instance is read once, by `facts`; the
    callables that reach instance and lattice members do so when called,
    never through stored methods, so hooks installed on those classes
    later still see the calls.  The name fields spell the witness keys,
    which differ by more than the swapped words.
    """
    graph: GraphKind       # ssi | pss
    tilde: GraphKind       # the ideal graph C14/D14 lifts completeness to
    low: str               # the extremes just off the side's bottom
    high: str              # the extremes just under the side's top
    flag: str              # second | prime
    core: str              # witness key of the core
    meet_name: str         # intersection | sum
    ideals: str            # witness key of the pair's two ideals
    spanning: str          # witness key of two lows joining to the top
    endpoint: str          # smaller | larger: an edge's end nearer the bottom
    members: Callable      # inst -> (lows, highs, flagged, core); core None if (co)reduced
    divisor: Callable      # sub -> c with annihilator | colon ideal cZ_n
    meet: Callable         # (lat, a, b) -> meet in the side's order
    below: Callable        # (a, b) -> a strictly below b in the side's order
    low_prime: Callable    # low N -> the prime |N| | |M/N|
    transfers: Callable    # props -> the C7/D7 premise
    simple_shape: Callable  # props -> uniform | hollow
    lifts: Callable        # props -> the C14/D14 premise


SSI_SIDE = Side(
    graph=GraphKind.SSI, tilde=GraphKind.PSS_TILDE,
    low="minimal", high="maximal", flag="second", core="second_socle",
    meet_name="intersection", ideals="annihilators",
    spanning="minimal_pair_spanning", endpoint="smaller",
    members=lambda inst, lat: (lat.minimals(), lat.maximals(), lat.seconds(),
                               None if inst.props.coreduced else inst.sec_socle),
    divisor=lambda sub: sub.exponent,
    meet=lambda lat, a, b: lat.meet(a, b), below=lambda a, b: a < b,
    low_prime=lambda sub: sub.order,
    transfers=lambda props: props.comultiplication,
    simple_shape=lambda props: props.uniform,
    lifts=lambda props: props.strong_comultiplication,
)

PSS_SIDE = Side(
    graph=GraphKind.PSS, tilde=GraphKind.SSI_TILDE,
    low="maximal", high="minimal", flag="prime", core="prime_radical",
    meet_name="sum", ideals="colon_ideals",
    spanning="maximal_pair_meeting_in_zero", endpoint="larger",
    members=lambda inst, lat: (lat.maximals(), lat.minimals(), lat.primes(),
                               None if inst.props.reduced else inst.radical),
    divisor=lambda sub: sub.quotient_exponent,
    meet=lambda lat, a, b: lat.join(a, b), below=lambda a, b: b < a,
    low_prime=lambda sub: sub.module.order // sub.order,
    transfers=lambda props: props.multiplication,
    simple_shape=lambda props: props.hollow,
    lifts=lambda props: props.faithful and props.multiplication,
)


class Facts:
    """One side's members, graph and metrics on one instance, read once;
    `core` is None when M is coreduced (reduced).  The `*_bits` fields are
    vertex bitmasks: the lows and highs are all vertices, the flagged but M or 0."""
    __slots__ = ("lows", "highs", "flagged", "core", "graph", "metrics",
                 "low_bits", "high_bits", "flagged_bits")

    def __init__(self, side: Side, inst):
        self.lows, self.highs, self.flagged, self.core = side.members(inst, inst.lattice)
        g = self.graph = inst.graph(side.graph)
        self.metrics = inst.metrics(side.graph)
        self.low_bits = g.vertex_mask(self.lows)
        self.high_bits = g.vertex_mask(self.highs)
        self.flagged_bits = g.vertex_mask(self.flagged)


def facts(side: Side, inst) -> Facts:
    """The side's `Facts` on inst, read on the first call and kept."""
    got = inst.facts.get(side.flag)
    if got is None:
        got = inst.facts[side.flag] = Facts(side, inst)
    return got


def _labels(subs) -> list:
    return [s.label() for s in subs]


def _vertex_labels(g, bits: int) -> list:
    return [g.vertices[i].label for i in bit_positions(bits)]


def _always(side, inst):
    return True


def _has_vertices(side, inst):
    return facts(side, inst).metrics.vertex_count >= 1


def _spanning_pairs(side, inst):
    """The pairs of lows joining to the side's top, in `combinations` order:
    two minimals of prime orders p, p' meet in 0, so they sum to M iff
    |M| = pp', and two maximals of prime indices p, p' sum to M, so they
    meet in 0 iff |M| = pp'."""
    lows, top = facts(side, inst).lows, inst.lattice.module.order
    pairs = combinations(zip(lows, map(side.low_prime, lows)), 2)
    return ((a, b) for (a, p), (b, q) in pairs if p * q == top)


# A universal vertex in the side's graph comes from one of two lattice
# shapes: a unique low submodule, or exactly two whose side-join V is high
# while everything strictly between the bottom and V is flagged.  On the
# C side: a unique minimal, or two minimals whose sum V is maximal with
# every nonzero submodule under V second.  The equivalence is only claimed
# with at most two lows; with three or more, the join of two of them can
# itself be flagged and universal without either shape holding.
def _few_lows_condition(side, inst):
    lows = facts(side, inst).lows
    if len(lows) == 1:
        return f"unique-{side.low}"
    # Two lows of one prime p would span a Z_p x Z_p, which holds p + 1 of
    # them; so two lows have primes p != p', V is cyclic of order (C) or index
    # (D) pp', only the two lows, both flagged, lie strictly between the
    # bottom and V, and V is high iff |M| / pp' is a prime.
    if len(lows) == 2 and _is_prime(inst.lattice.module.order // (
            side.low_prime(lows[0]) * side.low_prime(lows[1]))):
        return f"two-{side.low}s-{side.flag}-interval"
    return None


# ---------------------------------------------------------------- C1/D1

def _applies_1(side, inst):
    return len(facts(side, inst).lows) <= 2


def _claim_1(side, inst):
    cond = _few_lows_condition(side, inst)
    f = facts(side, inst)
    if (len(f.metrics.universal_vertices) > 0) == (cond is not None):
        return True, None
    return False, {
        "universal_vertices": [f.graph.vertices[i].label for i in f.metrics.universal_vertices],
        f"{side.low}s": _labels(f.lows),
        "condition": cond,
    }


# ---------------------------------------------------------------- C2/D2

def _applies_2(side, inst):
    return facts(side, inst).core is not None


def _claim_2(side, inst):
    # exp(M) is not q, so M[q] and qM are proper and nonzero: a vertex, and
    # every flagged member is one
    f = facts(side, inst)
    vi = f.graph.vertex_for(f.core).index
    missed = f.flagged_bits & ~f.graph.rows[vi] & ~(1 << vi)
    if missed:
        return False, {side.core: f.core.label(),
                       "non_neighbors": _vertex_labels(f.graph, missed)}
    return True, None


# ---------------------------------------------------------------- C3/D3

def _applies_3(side, inst):
    f = facts(side, inst)
    return f.core is not None and f.lows == (f.core,)


def _claim_3(side, inst):
    f = facts(side, inst)
    vi = f.graph.vertex_for(f.core).index
    if vi in f.metrics.universal_vertices:
        return True, None
    return False, {side.core: f.core.label(),
                   "degree": f.graph.degree(vi), "vertex_count": f.metrics.vertex_count}


# ---------------------------------------------------------------- C4/D4

def _claim_4(side, inst):
    f = facts(side, inst)
    isolated = sum(1 << i for i, row in enumerate(f.graph.rows) if not row)
    both = f.low_bits & f.high_bits
    if isolated == both:
        return True, None
    i = ((isolated ^ both) & -(isolated ^ both)).bit_length() - 1
    return False, {"vertex": f.graph.vertices[i].label, "isolated": bool(isolated >> i & 1),
                   f"{side.low}_and_{side.high}": bool(both >> i & 1)}


# ---------------------------------------------------------------- C5/D5

def _applies_5(side, inst):
    m = facts(side, inst).metrics
    return m.vertex_count >= 1 and m.is_complete


def _claim_5(side, inst):
    f = facts(side, inst)
    if len(f.lows) != 1:
        return False, {f"{side.low}s": _labels(f.lows)}
    stray = (1 << f.metrics.vertex_count) - 1 & ~f.flagged_bits & ~f.high_bits
    if stray:
        return False, {f"neither_{side.flag}_nor_{side.high}": _vertex_labels(f.graph, stray)}
    return True, None


# ---------------------------------------------------------------- C6/D6

def _applies_6(side, inst):
    return len(facts(side, inst).lows) == 1


def _claim_6(side, inst):
    f = facts(side, inst)
    full = (1 << f.metrics.vertex_count) - 1
    for i, row in enumerate(f.graph.rows):
        missed = full & ~row >> i + 1 << i + 1
        if missed:
            a = f.graph.vertices[i].submodule
            b = f.graph.vertices[(missed & -missed).bit_length() - 1].submodule
            meet = side.meet(inst.lattice, a, b)
            return False, {
                "pair": [a.label(), b.label()],
                side.meet_name: meet.label(),
                f"{side.meet_name}_{side.flag}": meet in f.flagged,
            }
    return True, None


# ---------------------------------------------------------------- C7/D7

def _applies_7(side, inst):
    return side.transfers(inst.props)


def _claim_7(side, inst):
    # The ideal of a member is cZ_n for its divisor c | n: the zero ideal is
    # c = n, and cZ_n + dZ_n = gcd(c, d)Z_n, so the pair premise is a test
    # on divisors, and the two ideals are adjacent in PIS(Z_n) iff their
    # sum's divisor gcd(c, d) is a prime.  The conclusion is compared
    # first, so the premise's meet (join) is taken only for a pair that
    # would fail.
    lat, n = inst.lattice, inst.ring.modulus
    g = facts(side, inst).graph
    vs = lat.proper_nonzero()
    cs = [side.divisor(s) for s in vs]
    for i, j in combinations(range(len(vs)), 2):
        c, d = cs[i], cs[j]
        if c == n or d == n or c == d:
            continue
        e = gcd(c, d)
        lhs = g.adjacent(i, j)
        rhs = _is_prime(e)
        if lhs == rhs or side.divisor(side.meet(lat, vs[i], vs[j])) != e:
            continue
        rlat = inst.ring_lattice
        return False, {
            "pair": [vs[i].label(), vs[j].label()],
            side.ideals: [rlat.ideal(c).label("R"), rlat.ideal(d).label("R")],
            f"{side.meet_name}_{side.flag}": lhs,
            "ideal_sum_prime": rhs,
        }
    return True, None


# ---------------------------------------------------------------- C8/D8

def _claim_8(side, inst):
    m = facts(side, inst).metrics
    spanning = next((_labels(pair) for pair in _spanning_pairs(side, inst)), None)
    if m.is_connected == (spanning is None) and not (
            m.is_connected and m.diameter > 2):
        return True, None
    return False, {"connected": m.is_connected,
                   side.spanning: spanning,
                   "diameter": None if m.diameter == inf else m.diameter}


# ---------------------------------------------------------------- C9/D9

def _c9_applies(inst):
    f = facts(SSI_SIDE, inst)
    return f.metrics.is_connected and len(f.highs) >= 2


def _c9_claim(inst):
    for pair in _spanning_pairs(PSS_SIDE, inst):
        return False, {"pair": _labels(pair)}
    return True, None


def _d9_applies(inst):
    return facts(PSS_SIDE, inst).metrics.is_connected


def _d9_claim(inst):
    pairs = comb(len(facts(SSI_SIDE, inst).lows), 2)
    spans = sum(1 for _ in _spanning_pairs(SSI_SIDE, inst))
    literal = spans == pairs
    return literal, {"minimal_pairs": pairs, "every_pair_spans": literal,
                     "no_pair_spans": spans == 0}


# -------------------------------------------------------------- C10/D10

def _applies_10(side, inst):
    return facts(side, inst).metrics.edge_count >= 1


def _claim_10(side, inst):
    f = facts(side, inst)
    if f.metrics.girth == 3:  # a triangle answers both branches below
        return True, None
    vs = inst.lattice.proper_nonzero()
    noncomparable = next(([vs[i].label(), vs[j].label()] for i, j in f.graph.iter_edges()
                          if vs[i].mask & vs[j].mask not in (vs[i].mask, vs[j].mask)), None)
    if noncomparable is not None:
        return False, {"noncomparable_edge": noncomparable,
                       "girth": None if f.metrics.girth == inf else f.metrics.girth}
    # every edge is comparable here; its end nearer the bottom is checked
    for i, j in f.graph.iter_edges():
        end = i if side.below(vs[i], vs[j]) else j
        if not f.flagged_bits >> end & 1:
            return False, {"edge": [vs[i].label(), vs[j].label()],
                           f"{side.endpoint}_endpoint": vs[end].label(),
                           f"{side.endpoint}_endpoint_{side.flag}": False}
    return True, None


# ------------------------------------------------------- C11/D11, C12/D12

def _applies_11(side, inst):
    return facts(side, inst).metrics.girth != inf


def _girth_claim(side, inst, *, half: bool):
    # C11: count >= girth // 2 for a finite girth; C12: girth <= 2 count
    f = facts(side, inst)
    girth, count = f.metrics.girth, len(f.flagged)
    if girth == inf or (count >= girth // 2 if half else girth <= 2 * count):
        return True, None
    return False, {"girth": girth, f"{side.flag}_count": count}


_claim_11 = partial(_girth_claim, half=True)
_claim_12 = partial(_girth_claim, half=False)


# -------------------------------------------------------------- C13/D13

def _complete(g):
    n, m = g.vertex_count, g.edge_count
    if m == n * (n - 1) // 2:
        return True, None
    return False, {"vertex_count": n, "edge_count": m}


def _applies_13(side, inst):
    # the bottom is never flagged, so every other member is when the
    # flagged ones number all but one
    f = facts(side, inst)
    return (side.simple_shape(inst.props)
            and len(f.flagged) == len(inst.lattice) - 1
            and f.metrics.vertex_count >= 2)


def _claim_13(side, inst):
    return _complete(facts(side, inst).graph)


# -------------------------------------------------------------- C14/D14

def _applies_14(side, inst):
    return side.lifts(inst.props) and facts(side, inst).metrics.is_complete


def _claim_14(side, inst):
    return _complete(inst.graph(side.tilde))


# -------------------------------------------------------------- C15/D15

def _claim_15(side, inst):
    # Past the first two tests the lows are an irredundant dominating set,
    # so the domination number is at most their count; with at most two of
    # them it is 1 iff some vertex is universal, and their count otherwise.
    f = facts(side, inst)
    closed = {i: f.graph.rows[i] | 1 << i for i in bit_positions(f.low_bits)}
    covered = twice = 0
    for row in closed.values():
        twice |= covered & row
        covered |= row
    if covered != (1 << f.metrics.vertex_count) - 1:
        return False, {f"{side.low}s": _labels(f.lows), "reason": "do not dominate"}
    # the rest still dominate without a low iff every vertex its closed
    # row covers is covered twice
    for i, row in closed.items():
        if not row & ~twice:
            return False, {"redundant_member": f.graph.vertices[i].label}
    if len(f.lows) <= 2:
        cond = _few_lows_condition(side, inst)
        universal = bool(f.metrics.universal_vertices)
        if universal != (cond is not None):
            return False, {"domination_number": 1 if universal else len(f.lows),
                           "condition": cond}
    return True, None


def _sided(cid, name, mode, applies, claim, notes):
    """A C check bound to the SSI side, or a D check to the PSS side."""
    side = SSI_SIDE if cid.startswith("C") else PSS_SIDE
    return Check(cid, name, mode, partial(applies, side), partial(claim, side), notes)


CHECKS: tuple[Check, ...] = (
    _sided("C1", "ssi-universal-vertex-from-few-minimals", STRICT, _applies_1, _claim_1,
           "with at most two minimal submodules, a universal vertex exists "
           "exactly when the unique-minimal or paired-minimal shape holds"),
    _sided("C2", "ssi-second-socle-neighbors-all-seconds", STRICT, _applies_2, _claim_2,
           "when some d*M collapses under squaring, the sum of all second "
           "submodules is a vertex adjacent to every other second"),
    _sided("C3", "ssi-minimal-second-socle-is-universal", STRICT, _applies_3, _claim_3,
           "if the second socle is the unique minimal submodule it is "
           "universal; the converse is false (e.g. Z12), so only this "
           "direction is claimed"),
    _sided("C4", "ssi-isolated-iff-minimal-and-maximal", STRICT, _has_vertices, _claim_4,
           "a vertex is isolated exactly when it is both minimal and maximal"),
    _sided("C5", "ssi-complete-forces-unique-minimal", STRICT, _applies_5, _claim_5,
           "a complete intersection graph forces one minimal submodule and "
           "makes every non-second vertex maximal"),
    _sided("C6", "ssi-unique-minimal-completeness", REPORT, _applies_6, _claim_6,
           "one minimal submodule does not force completeness: Z16 has the "
           "non-adjacent pair (2M, 4M); recorded as a finding"),
    _sided("C7", "ssi-matches-ideal-graph-for-comultiplication", STRICT, _applies_7, _claim_7,
           "for comultiplication modules, adjacency transfers to the "
           "annihilator ideals whenever those are nonzero, distinct, and "
           "the annihilator of the intersection is their sum"),
    _sided("C8", "ssi-connectivity-and-diameter", STRICT, _always, _claim_8,
           "connected exactly when no two minimals sum to M, and then the "
           "diameter is at most 2"),
    Check("C9", "ssi-connected-maximals-intersect", STRICT, _c9_applies, _c9_claim,
          "in a connected graph any two maximal submodules intersect "
          "beyond zero"),
    _sided("C10", "ssi-girth-three-or-comparable-edges", STRICT, _applies_10, _claim_10,
           "one non-comparable edge forces a triangle; otherwise every edge "
           "is a chain step whose lower end is second"),
    _sided("C11", "ssi-seconds-at-least-half-girth", STRICT, _applies_11, _claim_11,
           "a finite girth needs at least girth/2 second submodules"),
    _sided("C12", "ssi-girth-at-most-twice-seconds", STRICT, _has_vertices, _claim_12,
           "the girth is infinite or bounded by twice the number of seconds"),
    _sided("C13", "ssi-uniform-all-second-complete", STRICT, _applies_13, _claim_13,
           "uniform modules all of whose nonzero submodules are second have "
           "complete graphs; no finite module qualifies (uniform and all "
           "second force M = Z_p, which has no vertex)"),
    _sided("C14", "ssi-complete-lifts-to-colon-ideal-graph", STRICT, _applies_14, _claim_14,
           "for strong comultiplication modules a complete intersection "
           "graph forces a complete colon-ideal graph"),
    _sided("C15", "ssi-minimals-dominate", STRICT, _has_vertices, _claim_15,
           "the minimal submodules are an irredundant dominating set and "
           "bound the domination number; with at most two of them the "
           "domination number is 1 exactly under the universal-vertex shape"),
    _sided("D1", "pss-universal-vertex-from-few-maximals", STRICT, _applies_1, _claim_1,
           "with at most two maximal submodules, a universal vertex exists "
           "exactly when the unique-maximal or paired-maximal shape holds"),
    _sided("D2", "pss-radical-neighbors-all-primes", STRICT, _applies_2, _claim_2,
           "when some r*x dies against r*M, the intersection of all primes "
           "is a vertex adjacent to every other prime"),
    _sided("D3", "pss-maximal-radical-is-universal", STRICT, _applies_3, _claim_3,
           "if the prime radical is the unique maximal submodule it is "
           "universal; the converse is false (e.g. Z12), so only this "
           "direction is claimed"),
    _sided("D4", "pss-isolated-iff-maximal-and-minimal", STRICT, _has_vertices, _claim_4,
           "a vertex is isolated exactly when it is both maximal and minimal"),
    _sided("D5", "pss-complete-forces-unique-maximal", STRICT, _applies_5, _claim_5,
           "a complete sum graph forces one maximal submodule and makes "
           "every non-prime vertex minimal"),
    _sided("D6", "pss-unique-maximal-completeness", REPORT, _applies_6, _claim_6,
           "one maximal submodule does not force completeness: Z16 has the "
           "non-adjacent pair (4M, 8M); recorded as a finding"),
    _sided("D7", "pss-matches-ideal-graph-for-multiplication", STRICT, _applies_7, _claim_7,
           "for multiplication modules, adjacency transfers to the colon "
           "ideals whenever those are nonzero, distinct, and the colon of "
           "the sum is their sum"),
    _sided("D8", "pss-connectivity-and-diameter", STRICT, _always, _claim_8,
           "connected exactly when no two maximals meet in zero, and then "
           "the diameter is at most 2"),
    Check("D9", "pss-connected-minimal-pairs-span", REPORT, _d9_applies, _d9_claim,
          "read literally, connectivity should make every pair of distinct "
          "minimals sum to M; both this and its negation are recorded, and "
          "the negation is what the connectivity argument actually uses"),
    _sided("D10", "pss-girth-three-or-comparable-edges", STRICT, _applies_10, _claim_10,
           "one non-comparable edge forces a triangle; otherwise every edge "
           "is a chain step whose upper end is prime"),
    _sided("D11", "pss-primes-at-least-half-girth", STRICT, _applies_11, _claim_11,
           "a finite girth needs at least girth/2 prime submodules"),
    _sided("D12", "pss-girth-at-most-twice-primes", STRICT, _has_vertices, _claim_12,
           "the girth is infinite or bounded by twice the number of primes"),
    _sided("D13", "pss-hollow-all-prime-complete", STRICT, _applies_13, _claim_13,
           "hollow modules all of whose proper submodules are prime have "
           "complete graphs; no finite module qualifies (hollow and all "
           "prime force M = Z_p, which has no vertex)"),
    _sided("D14", "pss-complete-lifts-to-annihilator-graph", STRICT, _applies_14, _claim_14,
           "for faithful multiplication modules a complete sum graph forces "
           "a complete annihilator-ideal graph"),
    _sided("D15", "pss-maximals-dominate", STRICT, _has_vertices, _claim_15,
           "the maximal submodules are an irredundant dominating set and "
           "bound the domination number; with at most two of them the "
           "domination number is 1 exactly under the universal-vertex shape"),
)

CHECKS_BY_ID = {c.id: c for c in CHECKS}


def evaluate_check(check: Check, inst) -> CheckResult:
    """Run one check on one instance; timing is left to the caller."""
    if not check.applies(inst):
        return CheckResult(check.id, inst.descriptor, "not_applicable")
    ok, witness = check.claim(inst)
    if ok:
        verdict = "pass"
    else:
        verdict = "finding" if check.mode == REPORT else "fail"
        if witness is None:
            witness = {"reason": "claim violated"}
    return CheckResult(check.id, inst.descriptor, verdict, witness)
