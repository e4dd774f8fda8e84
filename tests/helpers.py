"""Independent oracles for the test suite.

Everything here recomputes results a second way: subgroups come from a
power-set filter, a divisor walk, a basis parameterization, RREF
matrices, a closure of every triple of elements or sumsets of cyclic
p-subgroups instead of the package's enumeration; flags, labels, the second socle, the prime
radical and module properties come from raw definitional loops over all
elements and all submodules, joins from closing the union under
addition; graph edges come from one meet or join per vertex pair, graph
invariants from Floyd-Warshall and subset search, the C7/D7, C8/D8 and
C9/D9 claims from lattice joins, meets and ideals, the C1/D1 claims from
the literal few-lows shape, the C15/D15 claims from the searched
domination number, JSON text from json.dumps, and the command line from
argparse, with the four subparsers the CLI built before it read its own
option table.
The oracles deliberately avoid the package's enumeration and metric code
paths; only the C15/D15 oracle calls `domination_number`, the exact
search the package's claim does without.
"""
import argparse
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import (combinations, combinations_with_replacement, permutations,
                       product as cartesian)
from math import comb, gcd, inf, lcm

from modgraphs import (DEFAULT_FAMILY, MAX_LATTICE_SIZE, MAX_MODULE_ORDER, GraphKind, build_graph,
                       domination_number)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def elements_of(factors):
    return [tuple(x) for x in cartesian(*(range(d) for d in factors))]


def add_mod(x, y, factors):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def close_under_addition(seed, factors):
    """Subgroup generated by seed: plain worklist, one generator step at a
    time.  Finite abelian groups need no separate inverse handling."""
    zero = (0,) * len(factors)
    out = {zero}
    frontier = [zero]
    seed = list(seed)
    while frontier:
        x = frontier.pop()
        for g in seed:
            y = add_mod(x, g, factors)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def power_set_subgroups(factors):
    """Every additively closed subset containing zero; |M| <= 12 only.

    Over Z_n the action is repeated addition, so these are exactly the
    submodules.
    """
    els = elements_of(factors)
    n = len(els)
    assert n <= 12, "power-set oracle is only meant for tiny modules"
    index = {e: i for i, e in enumerate(els)}
    table = [[index[add_mod(a, b, factors)] for b in els] for a in els]
    zero_bit = 1 << index[(0,) * len(factors)]
    found = set()
    for mask in range(1, 1 << n):
        if not mask & zero_bit:
            continue
        members = [i for i in range(n) if (mask >> i) & 1]
        closed = True
        for i in members:
            row = table[i]
            for j in members:
                if not (mask >> row[j]) & 1:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            found.add(frozenset(els[i] for i in members))
    return found


def cyclic_subgroups(n):
    """Subgroups of Z_n as 1-tuple element sets: one per divisor."""
    out = set()
    for d in divisors(n):
        out.add(frozenset(((d * k) % n,) for k in range(n // d)))
    return out


def rank2_subgroups(m, n):
    """Subgroups of Z_m x Z_n from the (a, b, l) basis parameterization:
    a | m and b | n fix the first-coordinate image and the axis part,
    l < b with (m/a)*l = 0 mod b picks the twist."""
    subs = set()
    for a in divisors(m):
        c = m // a
        for b in divisors(n):
            for twist in range(b):
                if (c * twist) % b == 0:
                    seed = [(a % m, twist % n), (0, b % n)]
                    subs.add(close_under_addition(seed, (m, n)))
    return subs


def rank2_count(m, n):
    return sum(gcd(a, b) for a in divisors(m) for b in divisors(n))


def rref_subspaces(p):
    """All subspaces of F_p^3, one RREF matrix each."""

    def span(rows):
        if not rows:
            return frozenset({(0, 0, 0)})
        out = set()
        for coeffs in cartesian(range(p), repeat=len(rows)):
            vec = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                        for i in range(3))
            out.add(vec)
        return frozenset(out)

    out = {span([])}
    for c in range(3):
        free = [i for i in range(3) if i > c]
        for vals in cartesian(range(p), repeat=len(free)):
            row = [0, 0, 0]
            row[c] = 1
            for i, v in zip(free, vals):
                row[i] = v
            out.add(span([tuple(row)]))
    for c1, c2 in combinations(range(3), 2):
        r1_free = [i for i in range(3) if i > c1 and i != c2]
        r2_free = [i for i in range(3) if i > c2]
        for v1 in cartesian(range(p), repeat=len(r1_free)):
            for v2 in cartesian(range(p), repeat=len(r2_free)):
                row1 = [0, 0, 0]
                row1[c1] = 1
                for i, v in zip(r1_free, v1):
                    row1[i] = v
                row2 = [0, 0, 0]
                row2[c2] = 1
                for i, v in zip(r2_free, v2):
                    row2[i] = v
                out.add(span([tuple(row1), tuple(row2)]))
    out.add(span([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    return out


def all_triples_subgroups(factors):
    """The subgroups generated by at most three elements, one closure per
    triple; for rank at most 3 that is every subgroup."""
    els = elements_of(factors)
    return {close_under_addition(triple, factors)
            for triple in combinations_with_replacement(els, 3)}


def is_power_of(k, p):
    while k % p == 0:
        k //= p
    return k == 1


def cyclic_p_subgroups(factors, p):
    """The nonzero cyclic subgroups of p-power order, one closure per element."""
    spans = {close_under_addition([x], factors) for x in elements_of(factors)}
    return {c for c in spans if len(c) > 1 and is_power_of(len(c), p)}


def p_subgroups(factors, p):
    """The subgroups of p-power order: from 0, add one cyclic p-subgroup at
    a time to each subgroup found; S + <x> is the sumset."""
    cyclic = cyclic_p_subgroups(factors, p)
    found = {frozenset([(0,) * len(factors)])}
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for c in cyclic:
            t = frozenset(add_mod(a, b, factors) for a in s for b in c)
            if t not in found:
                found.add(t)
                frontier.append(t)
    return found


def gaussian_binomial(p, k, j):
    """[k:j]_p, the number of j-dimensional subspaces of F_p^k (0 unless
    0 <= j <= k)."""
    if not 0 <= j <= k:
        return 0
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def gaussian_subspace_total(p, k):
    """All subspaces of F_p^k: the sum of [k:j]_p over j = 0..k."""
    return sum(gaussian_binomial(p, k, j) for j in range(k + 1))


def vector_space_edge_count(p, k):
    """The edges of SSI(F_p^k), and of PSS(F_p^k): every pair of the V
    proper nonzero subspaces but those meeting in 0 (for PSS: summing to
    M).  A subspace of dimension a meets [k-a:b]_p p^(ab) subspaces of
    dimension b in 0, so E = C(V, 2) - 1/2 sum_{a,b >= 1, a+b <= k}
    [k:a]_p [k-a:b]_p p^(ab)."""
    v = sum(gaussian_binomial(p, k, j) for j in range(1, k))
    apart = sum(gaussian_binomial(p, k, a) * gaussian_binomial(p, k - a, b) * p ** (a * b)
                for a in range(1, k) for b in range(1, k - a + 1))
    return comb(v, 2) - apart // 2


def sub_partitions(lam, cap=None):
    """Every partition mu inside lambda (mu_i <= lambda_i), as tuples of
    lambda's length, zeros kept."""
    if not lam:
        return [()]
    top = lam[0] if cap is None else min(cap, lam[0])
    return [(a,) + rest for a in range(top + 1) for rest in sub_partitions(lam[1:], a)]


def conjugate(partition):
    """The conjugate partition: its i-th part counts the parts >= i."""
    return [sum(part >= i for part in partition) for i in range(1, max(partition, default=0) + 1)]


def birkhoff_alpha(lam, mu, p):
    """alpha_lambda(mu; p), the subgroups of type mu in an abelian p-group of
    type lambda (Birkhoff): with l, m the conjugates of lambda, mu, the
    product over i of p^(m_{i+1}(l_i - m_i)) [l_i - m_{i+1} : m_i - m_{i+1}]_p."""
    l = conjugate(lam)
    m = conjugate(mu) + [0] * (len(l) + 1)
    out = 1
    for i, li in enumerate(l):
        out *= (p ** (m[i + 1] * (li - m[i]))
                * gaussian_binomial(p, li - m[i + 1], m[i] - m[i + 1]))
    return out


def birkhoff_orders(lam, p):
    """Order -> the number of subgroups of that order in an abelian p-group
    of type lambda, one mu inside lambda at a time."""
    counts = Counter()
    for mu in sub_partitions(tuple(lam)):
        counts[p ** sum(mu)] += birkhoff_alpha(lam, mu, p)
    return counts


# ---- brute-force flags on package objects (raw loops, no lattice flags)

def brute_second(sub):
    module = sub.module
    if sub.order == 1:
        return False
    zero = frozenset({module.zero})
    for r in module.ring.elements():
        image = frozenset(module.scale(r, x) for x in sub.elements)
        if image != zero and image != sub.elements:
            return False
    return True


def brute_prime(sub):
    module = sub.module
    if sub.order == module.order:
        return False
    colon = brute_colon(sub)
    for r in module.ring.elements():
        if r in colon:
            continue
        for m in module.elements():
            if m not in sub.elements and module.scale(r, m) in sub.elements:
                return False
    return True


def brute_colon(sub):
    module = sub.module
    members = sub.elements
    return frozenset(r for r in module.ring.elements()
                     if all(module.scale(r, m) in members
                            for m in module.elements()))


def brute_annihilator(sub):
    module = sub.module
    zero = module.zero
    return frozenset(r for r in module.ring.elements()
                     if all(module.scale(r, x) == zero for x in sub.elements))


def brute_label(sub, symbol="M"):
    """0, the symbol, the first dM (d a divisor of exp(M) above 1) whose
    element set is N's, else N's generators."""
    module = sub.module
    if sub.order == 1:
        return "0"
    if sub.order == module.order:
        return symbol
    members = sub.elements
    for d in divisors(lcm(*module.invariant_factors))[1:]:
        if frozenset(module.scale(d, m) for m in module.elements()) == members:
            return f"{d}{symbol}"
    return "<" + ",".join(str(g[0]) if len(g) == 1 else "(" + ",".join(map(str, g)) + ")"
                          for g in sub.generators) + ">"


def brute_properties(lattice):
    """The nine module properties straight from their definitions, with
    every r in R and m in M; submodules come from `lattice.all`."""
    module = lattice.module
    n = module.ring.modulus
    els = module.elements()
    zero = module.zero
    factors = module.invariant_factors
    subs = lattice.all

    def image(r):  # rM
        return frozenset(module.scale(r, m) for m in els)

    def killed(residues):  # (0 :_M I)
        return frozenset(m for m in els
                         if all(module.scale(r, m) == zero for r in residues))

    def ann(elements):  # Ann_R of a set of elements
        return frozenset(r for r in range(n)
                         if all(module.scale(r, m) == zero for m in elements))

    coreduced = all(image(r) == image(r * r % n) for r in range(n))
    reduced = all(image(r) & killed({r}) == {zero} for r in range(n))
    multiplication = all(
        close_under_addition({module.scale(r, m) for r in brute_colon(s) for m in els},
                             factors) == s.elements
        for s in subs)
    comultiplication = all(killed(ann(s.elements)) == s.elements for s in subs)
    ideals = {frozenset(r * k % n for k in range(n)) for r in range(n)}
    dac = all(ann(killed(ideal)) == ideal for ideal in ideals)
    return {
        "coreduced": coreduced,
        "reduced": reduced,
        "multiplication": multiplication,
        "comultiplication": comultiplication,
        "dac": dac,
        "strong_comultiplication": comultiplication and dac,
        "faithful": ann(els) == {0},
        "hollow": all(brute_small(s, subs) for s in subs if s.order < module.order),
        "uniform": all(brute_large(s, subs) for s in subs if s.order > 1),
    }


def brute_second_socle(n, lattice):
    """The sum of the second submodules inside N, by `brute_second`."""
    inside = [s.elements for s in lattice.all
              if s.elements <= n.elements and brute_second(s)]
    return close_under_addition(frozenset().union(*inside), n.module.invariant_factors)


def brute_prime_radical(lattice):
    """The intersection of the prime submodules, by `brute_prime`."""
    out = frozenset(lattice.module.elements())
    for p in lattice.all:
        if brute_prime(p):
            out &= p.elements
    return out


# ---- brute-force order flags and lattice operations on package objects
# (element sets only; `subs` is every submodule of the module)

def brute_join(a, b):
    """A + B as the subgroup generated by A u B."""
    return close_under_addition(a.elements | b.elements, a.module.invariant_factors)


def brute_minimal(sub, subs):
    if sub.order in (1, sub.module.order):
        return False
    return not any(t.order > 1 and t.elements < sub.elements for t in subs)


def brute_maximal(sub, subs):
    if sub.order in (1, sub.module.order):
        return False
    return not any(t.order < sub.module.order and sub.elements < t.elements
                   for t in subs)


def brute_large(sub, subs):
    """Meets every nonzero submodule nontrivially."""
    return sub.order > 1 and all(len(sub.elements & t.elements) > 1
                                 for t in subs if t.order > 1)


def brute_small(sub, subs):
    """Sums with no proper submodule to the whole module."""
    order = sub.module.order
    return sub.order < order and all(len(brute_join(sub, t)) < order
                                     for t in subs if t.order < order)


# ---- graph edges by their definition

def pairwise_edges(kind, lattice, verts):
    """The edges (i, j), i < j, of a graph of `kind` on `verts` (members of
    `lattice`): one meet per pair, second for ssi, sii and ssi_tilde, or
    one join per pair, prime for pss, pis and pss_tilde."""
    if str(kind) in ("ssi", "sii", "ssi_tilde"):
        holds, combine = lattice.is_second, lattice.meet
    else:
        holds, combine = lattice.is_prime, lattice.join
    return [(i, j) for i, j in combinations(range(len(verts)), 2)
            if holds(combine(verts[i], verts[j]))]


def graph_of(inst, kind):
    """The instance's graph of this kind, an ideal kind (sii, pis) built on
    the ring's own ideals, as `Instance.graph` refuses it off Z_n over itself."""
    if str(kind) in ("sii", "pis"):
        return build_graph(kind, inst.ring_lattice)
    return inst.graph(kind)


# ---- check claims by their definition: lattice joins and meets, ring
# ideals and their join, PIS vertices looked up per pair.  The package
# decides the same claims on divisors, orders and masks.

def brute_transfer_claim(inst, ssi):
    """C7 (ssi) or D7: adjacency of N, K against the PIS adjacency of
    their ideals, over the pairs whose ideals are nonzero and distinct and
    whose meet (C7) or join (D7) has the ring join of the two as ideal."""
    lat, rlat = inst.lattice, inst.ring_lattice
    ideal_of, combine = (inst.ann_ideal, lat.meet) if ssi else (inst.colon_of, lat.join)
    g = inst.graph("ssi" if ssi else "pss")
    pis = build_graph("pis", rlat)
    vs = lat.proper_nonzero()
    ideals = [ideal_of(s) for s in vs]
    for i, j in combinations(range(len(vs)), 2):
        a, b = ideals[i], ideals[j]
        if a.is_zero or b.is_zero or a == b:
            continue
        if ideal_of(combine(vs[i], vs[j])) != rlat.join(a, b):
            continue
        lhs = g.adjacent(i, j)
        rhs = pis.adjacent(pis.vertex_for(a), pis.vertex_for(b))
        if lhs != rhs:
            return False, {
                "pair": [vs[i].label(), vs[j].label()],
                "annihilators" if ssi else "colon_ideals": [a.label("R"), b.label("R")],
                "intersection_second" if ssi else "sum_prime": lhs,
                "ideal_sum_prime": rhs,
            }
    return True, None


def brute_connectivity_claim(inst, ssi):
    """C8 (ssi) or D8: connected iff no two minimals join to M (no two
    maximals meet in 0), and then the diameter is at most 2."""
    lat = inst.lattice
    m = inst.metrics("ssi" if ssi else "pss")
    lows = inst.lattice.minimals() if ssi else inst.lattice.maximals()
    key = "minimal_pair_spanning" if ssi else "maximal_pair_meeting_in_zero"
    spanning = next(([a.label(), b.label()] for a, b in combinations(lows, 2)
                     if (lat.join(a, b).is_full if ssi else lat.meet(a, b).is_zero)),
                    None)
    if m.is_connected == (spanning is None) and not (m.is_connected and m.diameter > 2):
        return True, None
    return False, {"connected": m.is_connected, key: spanning,
                   "diameter": None if m.diameter == inf else m.diameter}


def brute_c9_claim(inst):
    """No two maximals meet in 0."""
    lat = inst.lattice
    for a, b in combinations(inst.lattice.maximals(), 2):
        if lat.meet(a, b).is_zero:
            return False, {"pair": [a.label(), b.label()]}
    return True, None


def brute_d9_claim(inst):
    """Every two minimals join to M, with the counts of both readings."""
    lat = inst.lattice
    spans = [lat.join(a, b).is_full for a, b in combinations(inst.lattice.minimals(), 2)]
    return all(spans), {"minimal_pairs": len(spans), "every_pair_spans": all(spans),
                        "no_pair_spans": not any(spans)}


def brute_few_lows_condition(inst, ssi):
    """The universal-vertex shape of C1/C15 (ssi) or D1/D15: a unique
    minimal (maximal), or two whose join (meet) V is maximal (minimal)
    with every member strictly between 0 and V (V and M) second (prime)."""
    lat = inst.lattice
    low, flag = ("minimal", "second") if ssi else ("maximal", "prime")
    lows = lat.minimals() if ssi else lat.maximals()
    if len(lows) == 1:
        return f"unique-{low}"
    if len(lows) == 2:
        a, b = (s.elements for s in lows)
        v = brute_join(*lows) if ssi else a & b
        between = [x for x in lat.all
                   if (x.order > 1 and x.elements < v if ssi
                       else x.order < x.module.order and v < x.elements)]
        flagged = brute_second if ssi else brute_prime
        highs = lat.maximals() if ssi else lat.minimals()
        if any(h.elements == v for h in highs) and all(map(flagged, between)):
            return f"two-{low}s-{flag}-interval"
    return None


def brute_claim_1(inst, ssi):
    """C1 (ssi) or D1: some vertex is adjacent to every other exactly under
    the few-lows shape; one adjacency test per pair of vertices."""
    g = inst.graph("ssi" if ssi else "pss")
    universal = [v.label() for i, v in enumerate(g.vertices)
                 if len(neighbors(g, i)) == g.vertex_count - 1]
    cond = brute_few_lows_condition(inst, ssi)
    if bool(universal) == (cond is not None):
        return True, None
    low = "minimal" if ssi else "maximal"
    lows = inst.lattice.minimals() if ssi else inst.lattice.maximals()
    return False, {"universal_vertices": universal,
                   f"{low}s": [s.label() for s in lows], "condition": cond}


def brute_claim_15(inst, ssi):
    """C15 (ssi) or D15: the minimals (maximals) dominate irredundantly and
    bound the domination number; with at most two of them it is 1 exactly
    under the universal-vertex shape, and 2 otherwise when there are two.
    Each of the last three tests reads the searched domination number."""
    g = inst.graph("ssi" if ssi else "pss")
    low = "minimal" if ssi else "maximal"
    lows = inst.lattice.minimals() if ssi else inst.lattice.maximals()
    picked = {g.vertex_for(s) for s in lows}

    def dominates(vs):
        return set(vs).union(*(neighbors(g, v) for v in vs)) == set(range(g.vertex_count))

    if not dominates(picked):
        return False, {f"{low}s": [s.label() for s in lows], "reason": "do not dominate"}
    for drop in sorted(picked):
        if dominates(picked - {drop}):
            return False, {"redundant_member": g.vertices[drop].label()}
    gamma = domination_number(g)
    if gamma > len(lows):
        return False, {"domination_number": gamma, f"{low}_count": len(lows)}
    if len(lows) <= 2:
        cond = brute_few_lows_condition(inst, ssi)
        if (gamma == 1) != (cond is not None):
            return False, {"domination_number": gamma, "condition": cond}
        if len(lows) == 2 and cond is None and gamma != 2:
            return False, {"domination_number": gamma, f"{low}_count": 2}
    return True, None


def brute_claims(inst):
    """(ok, witness) of C1, D1, C7, D7, C8, D8, C9 and D9, hypotheses not
    tested, and of C15 and D15 where their graph has a vertex."""
    claims = {
        "C1": brute_claim_1(inst, True),
        "D1": brute_claim_1(inst, False),
        "C7": brute_transfer_claim(inst, True),
        "D7": brute_transfer_claim(inst, False),
        "C8": brute_connectivity_claim(inst, True),
        "D8": brute_connectivity_claim(inst, False),
        "C9": brute_c9_claim(inst),
        "D9": brute_d9_claim(inst),
    }
    for cid, ssi in (("C15", True), ("D15", False)):
        if inst.graph("ssi" if ssi else "pss").vertex_count:
            claims[cid] = brute_claim_15(inst, ssi)
    return claims


# ---- exhaustive graph invariants

def neighbors(g, v):
    """The neighbours of vertex v, one adjacency test per vertex."""
    return {u for u in range(g.vertex_count) if g.adjacent(v, u)}


def exhaustive_diameter(g):
    n = g.vertex_count
    if n <= 1:
        return 0
    dist = [[0 if i == j else (1 if g.adjacent(i, j) else inf)
             for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return max(dist[i][j] for i in range(n) for j in range(n))


def exhaustive_girth(g):
    n = g.vertex_count
    for k in range(3, n + 1):
        for subset in combinations(range(n), k):
            inside = set(subset)
            if any(len(neighbors(g, v) & inside) < 2 for v in subset):
                continue
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                cycle = (first,) + perm
                if all(g.adjacent(cycle[i], cycle[(i + 1) % k])
                       for i in range(k)):
                    return k
    return inf


def exhaustive_domination(g):
    n = g.vertex_count
    if n == 0:
        return 0
    closed = [frozenset({v}) | neighbors(g, v) for v in range(n)]
    everything = set(range(n))
    for size in range(1, n + 1):
        for picked in combinations(range(n), size):
            covered = set()
            for v in picked:
                covered |= closed[v]
            if covered == everything:
                return size
    return n


def json_dumps_mismatch(text, payload):
    """None if text is json.dumps(payload, indent=2) + "\\n", else the index
    where the two first differ and a short stretch of each around it, so a
    failing assertion prints a few lines rather than diffing whole reports."""
    want = json.dumps(payload, indent=2) + "\n"
    if text == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b),
              min(len(text), len(want)))
    return at, text[max(at - 60, 0):at + 60], want[max(at - 60, 0):at + 60]


# ---- the command line as argparse reads it

def build_argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgraphs",
        description="submodule lattices of finite Z_n-modules, their "
                    "intersection/sum graphs, and machine checks over them")
    sub = parser.add_subparsers(dest="command", required=True)

    def module_args(sp):
        sp.add_argument("--module", required=True,
                        help="module descriptor, e.g. Z12 or Z2xZ4")
        sp.add_argument("--ring", default=None,
                        help="ring descriptor Z<n>; defaults to the lcm "
                             "of the module's factors")
        sp.add_argument("--max-order", type=int, default=MAX_MODULE_ORDER,
                        help="size guard on the module order, and on the "
                             "ring's when its ideal lattice is needed "
                             f"(default {MAX_MODULE_ORDER})")
        sp.add_argument("--max-lattice", type=int, default=MAX_LATTICE_SIZE)
        sp.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")

    pe = sub.add_parser("enumerate", help="list every submodule")
    module_args(pe)
    pe.add_argument("--format", choices=("text", "json"), default="text")

    pc = sub.add_parser("classify",
                        help="flags for each submodule plus module properties")
    module_args(pc)
    pc.add_argument("--format", choices=("text", "json"), default="text")

    pg = sub.add_parser("graph", help="export one of the six graphs")
    module_args(pg)
    pg.add_argument("--kind", required=True,
                    choices=[k.value for k in GraphKind])
    pg.add_argument("--format", choices=("dot", "json"), default="dot")

    pk = sub.add_parser("check", help="run the checks over a module family")
    pk.add_argument("--family", default=DEFAULT_FAMILY,
                    help=f"family description (default: {DEFAULT_FAMILY})")
    pk.add_argument("--checks", default="strict",
                    help="'strict', 'all', or a comma list of ids like C1,D6")
    pk.add_argument("--strict", action="store_true",
                    help="exit 1 when any strict check fails")
    pk.add_argument("--fail-on-findings", action="store_true",
                    help="exit 1 when any report check records a finding")
    pk.add_argument("--timing", action="store_true",
                    help="include per-result millis; output is then no "
                         "longer byte-stable")
    pk.add_argument("--max-order", type=int, default=MAX_MODULE_ORDER,
                    help="size guard on each module's order and its ring's "
                         f"(default {MAX_MODULE_ORDER})")
    pk.add_argument("--max-lattice", type=int, default=MAX_LATTICE_SIZE)
    pk.add_argument("--out", default=None)
    return parser


def argparse_reading(argv):
    """(exit code, parsed options, stdout, stderr) of the argparse parser on
    argv: (0 or 2, None, ...) when it prints help or a usage error, else
    (None, vars of the namespace, ...)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            values = vars(build_argparse_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return None, values, out.getvalue(), err.getvalue()
