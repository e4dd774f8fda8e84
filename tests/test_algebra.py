"""Lattice enumeration, classification flags, and module properties."""
import gc
import math
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from conftest import make_instance
from modgraphs import (
    DescriptorError,
    FiniteModule,
    GraphKind,
    Instance,
    Ring,
    SizeGuardError,
    build_graph,
    enumerate_submodules,
    generate_family,
    parse_descriptor,
    prime_radical,
    second_socle,
    span,
)
from modgraphs import algebra
from modgraphs.checks import CHECKS, CHECKS_BY_ID, SSI_SIDE


def by_label(lattice, label):
    for s in lattice.all:
        if s.label() == label:
            return s
    raise AssertionError(f"no submodule labelled {label}")


# ---------------------------------------------------------------- frozen

class TestFrozenZ12:
    def test_lattice(self, z12):
        lat = z12.lattice
        assert len(lat) == 6
        assert sorted(s.label() for s in lat.all) == ["0", "2M", "3M", "4M", "6M", "M"]

    def test_seconds_and_primes(self, z12):
        assert sorted(s.label() for s in z12.lattice.seconds()) == ["4M", "6M"]
        assert sorted(p.label() for p in z12.lattice.primes()) == ["2M", "3M"]

    def test_socle_and_radical(self, z12):
        assert z12.sec_socle.label() == "2M"
        assert z12.radical.label() == "6M"

    def test_colon_and_annihilator_ideals(self, z12):
        lat = z12.lattice
        assert lat.annihilator_divisor(by_label(lat, "6M")) == 2
        assert lat.annihilator_divisor(by_label(lat, "2M")) == 6
        assert lat.colon_divisor(by_label(lat, "2M")) == 2
        assert lat.colon_divisor(lat.zero) == 12
        zero_colon = z12.ring_lattice.ideal(lat.colon_divisor(lat.zero))
        assert zero_colon.is_zero

    def test_properties(self, z12):
        p = z12.props
        assert p.multiplication and p.comultiplication and p.dac and p.faithful
        assert p.strong_comultiplication
        assert not p.coreduced and not p.reduced
        assert not p.hollow and not p.uniform

    def test_minimal_maximal_split(self, z12):
        assert sorted(s.label() for s in z12.lattice.minimals()) == ["4M", "6M"]
        assert sorted(s.label() for s in z12.lattice.maximals()) == ["2M", "3M"]


def test_z6_three_is_simultaneously_everything(z6):
    lat = z6.lattice
    flags = lat.flags(by_label(lat, "3M"))
    assert flags.is_minimal and flags.is_maximal
    assert flags.is_second and flags.is_prime


def test_z4_is_hollow_and_uniform():
    inst = make_instance("Z4")
    assert inst.props.hollow and inst.props.uniform


def test_z2z2_over_z2_properties():
    inst = make_instance("Z2xZ2", "Z2")
    assert len(inst.lattice) == 5
    p = inst.props
    assert not p.multiplication
    assert p.coreduced and p.reduced


def test_z2z4_counterexample_shape(z2z4):
    # three minimals; their pairwise sums all land on the 2-torsion V,
    # which is second without being minimal
    lat = z2z4.lattice
    assert len(lat) == 8
    mins = z2z4.lattice.minimals()
    assert len(mins) == 3
    v = lat.join(mins[0], lat.join(mins[1], mins[2]))
    assert v.order == 4 and lat.is_second(v) and not lat.is_minimal(v)
    assert z2z4.sec_socle == v
    two_m = by_label(lat, "2M")
    assert lat.is_prime(two_m) and not lat.is_maximal(two_m)


# --------------------------------------------------------------- oracles

SMALL_POWER_SET_INSTANCES = [
    ("Z2", None), ("Z4", None), ("Z6", None), ("Z8", None), ("Z9", None),
    ("Z10", None), ("Z12", None), ("Z2xZ4", "Z4"), ("Z2xZ6", None),
    ("Z2xZ2", "Z2"), ("Z3xZ3", "Z3"), ("Z2xZ2xZ2", "Z2"),
]


@pytest.mark.parametrize("module_text,ring_text", SMALL_POWER_SET_INSTANCES)
def test_enumeration_matches_power_set_filter(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    expected = helpers.power_set_subgroups(inst.module.invariant_factors)
    got = {s.elements for s in inst.lattice.all}
    assert got == expected


@pytest.mark.parametrize("n", list(range(2, 41)))
def test_cyclic_lattices_are_divisor_subgroups(n):
    inst = make_instance(f"Z{n}")
    assert {s.elements for s in inst.lattice.all} == helpers.cyclic_subgroups(n)
    assert len(inst.lattice) == len(helpers.divisors(n))


@pytest.mark.parametrize("m,n", [(2, 4), (4, 4), (2, 8), (6, 6), (4, 9),
                                 (8, 8), (2, 32), (3, 9), (6, 10),
                                 (12, 36), (6, 30), (10, 20)])
def test_rank2_lattices_match_basis_parameterization(m, n):
    inst = make_instance(f"Z{m}xZ{n}")
    expected = helpers.rank2_subgroups(m, n)
    assert {s.elements for s in inst.lattice.all} == expected
    assert len(inst.lattice) == helpers.rank2_count(m, n)


@pytest.mark.parametrize("p", [2, 3])
def test_vector_space_lattices_match_rref(p):
    inst = make_instance(f"Z{p}xZ{p}xZ{p}", f"Z{p}")
    expected = helpers.rref_subspaces(p)
    assert {s.elements for s in inst.lattice.all} == expected
    assert len(inst.lattice) == helpers.gaussian_subspace_total(p, 3)


@pytest.mark.parametrize("p,k,size", [(2, 4, 67), (2, 5, 374), (2, 6, 2825), (3, 4, 212)])
def test_vector_space_lattice_sizes_match_gaussian_binomials(p, k, size):
    # F_p^k has [k:j]_p subspaces of dimension j
    _, module = parse_descriptor("x".join([f"Z{p}"] * k), f"Z{p}")
    lat = enumerate_submodules(module)
    assert len(lat) == helpers.gaussian_subspace_total(p, k) == size
    counts = Counter(s.order for s in lat.all)
    assert counts == {p ** j: helpers.gaussian_binomial(p, k, j) for j in range(k + 1)}


@pytest.mark.parametrize("module_text,ring_text", [("Z2xZ2xZ2xZ2xZ2", "Z2"),
                                                   ("Z4xZ4xZ4", None), ("Z720", None),
                                                   ("Z12xZ36", None), ("Z4xZ12", None)])
def test_enumeration_grows_once_per_cover(monkeypatch, module_text, ring_text):
    # A cyclic p-part's submodules are coordinate masks, with no step at
    # all.  For each prime p of rank >= 2, enumeration spans each nonzero
    # cyclic p-subgroup <x> with one cover step from <px>, then climbs
    # L(M_p) with one cover step per cover pair a < b, |b|/|a| = p.  No
    # member is grown by doubling; generators are picked only when read.
    grow, calls = algebra._grow, []
    monkeypatch.setattr(algebra, "_grow",
                        lambda module, closed, g: calls.append(g) or grow(module, closed, g))
    cover, steps = algebra._cover, []
    monkeypatch.setattr(algebra, "_cover",
                        lambda module, closed, g, p: steps.append(p) or cover(module, closed, g, p))
    _, module = parse_descriptor(module_text, ring_text)
    enumerate_submodules(module)
    assert calls == []
    factors = module.invariant_factors
    expected = Counter()
    for p in (q for q in helpers.divisors(module.order) if helpers.is_prime(q)):
        if sum(d % p == 0 for d in factors) >= 2:
            subs = helpers.p_subgroups(factors, p)
            covers = sum(1 for a in subs for b in subs if a < b and len(b) == p * len(a))
            expected[p] = len(helpers.cyclic_p_subgroups(factors, p)) + covers
    assert Counter(steps) == expected


def test_lattice_sizes_are_products_over_primes():
    # L(M) is the product of the lattices of the p-parts: Z6^3 splits into
    # F_2^3 and F_3^3, Z12xZ36 into Z4xZ4 and Z3xZ9
    _, z6_cubed = parse_descriptor("Z6xZ6xZ6")
    assert len(enumerate_submodules(z6_cubed)) == 448 == (
        helpers.gaussian_subspace_total(2, 3) * helpers.gaussian_subspace_total(3, 3))
    _, module = parse_descriptor("Z12xZ36")
    assert len(enumerate_submodules(module)) == 150 == helpers.rank2_count(12, 36) == (
        helpers.rank2_count(4, 4) * helpers.rank2_count(3, 9))


@pytest.mark.parametrize("module_text,size", [("Z2xZ2xZ4", 27)])
def test_rank3_lattice_matches_all_triples_closure(module_text, size):
    inst = make_instance(module_text)
    expected = helpers.all_triples_subgroups(inst.module.invariant_factors)
    assert {s.elements for s in inst.lattice.all} == expected
    assert len(expected) == size


@pytest.mark.parametrize("module_text,size", [("Z4xZ4xZ4", 129), ("Z2xZ4xZ8", 81),
                                              ("Z16xZ16", helpers.rank2_count(16, 16))])
def test_subgroup_counts_are_symmetric_in_the_order(module_text, size):
    # a finite abelian group's subgroup lattice is self-dual through its
    # character group, so as many subgroups have order k as index k
    inst = make_instance(module_text)
    counts = Counter(s.order for s in inst.lattice.all)
    order = inst.module.order
    assert len(inst.lattice) == size
    assert all(counts[k] == counts[order // k] for k in counts)


FLAG_SAMPLE = [("Z12", None), ("Z16", None), ("Z30", None),
               ("Z2xZ4", "Z4"), ("Z3xZ9", None), ("Z2xZ2xZ2", "Z2"),
               ("Z2xZ2xZ4", None), ("Z2xZ4", "Z24"), ("Z6", "Z36"),
               ("Z2xZ6", None), ("Z5xZ25", None), ("Z2xZ2xZ2", "Z4"),
               ("Z3xZ3", "Z9"), ("Z2xZ3", None), ("Z3", None), ("Z5", "Z25")]


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_second_and_prime_flags_match_bruteforce(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    lat = inst.lattice
    for s in lat.all:
        assert lat.is_second(s) == helpers.brute_second(s), s
        assert lat.is_prime(s) == helpers.brute_prime(s), s


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_order_flags_join_and_meet_match_bruteforce(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    lat = inst.lattice
    subs = lat.all
    for s in subs:
        assert lat.is_minimal(s) == helpers.brute_minimal(s, subs), s
        assert lat.is_maximal(s) == helpers.brute_maximal(s, subs), s
        assert lat.is_large(s) == helpers.brute_large(s, subs), s
        assert lat.is_small(s) == helpers.brute_small(s, subs), s
    for a in subs:
        for b in subs:
            assert lat.join(a, b).elements == helpers.brute_join(a, b), (a, b)
            assert lat.meet(a, b).elements == a.elements & b.elements, (a, b)


def assert_members_are_the_flags(lat):
    for family in ("second", "prime", "minimal", "maximal"):
        listed = getattr(lat, f"{family}s")()
        assert listed == tuple(filter(getattr(lat, f"is_{family}"), lat.all)), family
        assert getattr(lat, f"{family}s")() is listed, family
    for s in lat.all:
        for name, value in lat.flags(s)._asdict().items():
            assert value == getattr(lat, name)(s), (s, name)


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_member_tuples_and_flags_are_the_predicates(module_text, ring_text):
    assert_members_are_the_flags(make_instance(module_text, ring_text).lattice)


def test_dropped_instance_frees_its_lattice_without_the_cycle_collector():
    # nothing the lattice keeps may point back at it (a cache keyed by a bound
    # method would), or each dropped instance waits for the cycle collector
    gc.disable()
    try:
        inst = make_instance("Z2xZ4xZ8")
        lat = inst.lattice
        assert_members_are_the_flags(lat)
        inst.props, inst.sec_socle, inst.radical
        inst.metrics(GraphKind.SSI), inst.metrics(GraphKind.PSS)
        freed = weakref.ref(lat)
        del inst, lat
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_generator_colon_and_annihilator_match_full_scan(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    lat = inst.lattice
    for s in lat.all:
        assert lat.colon_elements(s) == helpers.brute_colon(s)
        assert lat.annihilator_elements(s) == helpers.brute_annihilator(s)


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_labels_match_bruteforce(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    for s in inst.lattice.all:
        assert s.label() == helpers.brute_label(s), s
    for ideal in inst.ring_lattice.all:
        assert ideal.label("R") == helpers.brute_label(ideal, "R"), ideal


@pytest.mark.parametrize("module_text,ring_text",
                         FLAG_SAMPLE + [("Z2xZ6xZ6", None), ("Z2xZ6xZ30", "Z30")])
def test_scaled_and_kernel_masks_match_every_residue(module_text, ring_text):
    module = make_instance(module_text, ring_text).module
    els = module.elements()
    for r in module.ring.elements():
        image = frozenset(module.scale(r, m) for m in els)
        killed = frozenset(m for m in els if module.scale(r, m) == module.zero)
        assert module.elements_in(module.scaled_mask(r)) == image, r
        assert module.elements_in(module.kernel_mask(r)) == killed, r
    factors = module.invariant_factors
    for i, c in enumerate(module.unit_spans()):
        e = tuple(int(i == j) for j in range(len(factors)))
        assert module.elements_in(c) == helpers.close_under_addition([e], factors), i


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_module_properties_match_definitions(module_text, ring_text):
    lat = make_instance(module_text, ring_text).lattice
    assert lat.properties()._asdict() == helpers.brute_properties(lat)


def test_module_properties_list_the_nine_in_order(z12):
    assert list(z12.props._asdict()) == [
        "coreduced", "reduced", "multiplication", "comultiplication", "dac",
        "strong_comultiplication", "faithful", "hollow", "uniform"]


def _frozen_records(inst):
    lat = inst.lattice
    records = (lat.flags(lat.all[1]), lat.properties(),
               inst.graph(GraphKind.SSI).vertices[0], inst.metrics(GraphKind.SSI),
               CHECKS[0], SSI_SIDE)
    return {type(r).__name__: r for r in records}


@pytest.mark.parametrize("name", ["SubmoduleFlags", "ModuleProperties", "GraphVertex",
                                  "GraphMetrics", "Check", "Side"])
def test_frozen_records_are_hashable_values(name, z12):
    record = _frozen_records(z12)[name]
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    copy = type(record)(*(getattr(record, f) for f in record._fields))
    assert copy == record and hash(copy) == hash(record)
    assert record._replace(**{first: object()}) != record


def closed_form_claims(inst):
    """The package's verdicts on the checks `helpers.brute_claims` covers,
    hypotheses not tested but for C15/D15's nonempty graph."""
    return {cid: CHECKS_BY_ID[cid].claim(inst)
            for cid in ("C1", "D1", "C7", "D7", "C8", "D8", "C9", "D9", "C15", "D15")
            if cid[1:] != "15" or CHECKS_BY_ID[cid].applies(inst)}


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_closed_form_claims_match_lattice_oracles(module_text, ring_text):
    # C7/D7 on divisors, C1/D1, C8/D8, C9/D9 and C15/D15 on the primes of
    # the lows, C15/D15 also on universal vertices
    inst = make_instance(module_text, ring_text)
    assert closed_form_claims(inst) == helpers.brute_claims(inst)


@pytest.mark.parametrize("family", ["vector:3^4", "vector:5^3"])
def test_closed_form_claims_match_lattice_oracles_with_many_lows(family):
    # 40 and 31 lows on each side, and no pair of them spans
    inst, = generate_family(family)
    assert closed_form_claims(inst) == helpers.brute_claims(inst)


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_minimal_implies_second_and_maximal_implies_prime(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    lat = inst.lattice
    for s in inst.lattice.minimals():
        assert lat.is_second(s)
    for s in inst.lattice.maximals():
        assert lat.is_prime(s)


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_second_socle_is_sum_of_minimals(module_text, ring_text):
    inst = make_instance(module_text, ring_text)
    lat = inst.lattice
    # a simple M is second and has no minimal submodule
    total = lat.zero if inst.lattice.minimals() else lat.top
    for s in inst.lattice.minimals():
        total = lat.join(total, s)
    assert second_socle(lat.top, lat) == total


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_second_socle_and_prime_radical_match_bruteforce(module_text, ring_text):
    lat = make_instance(module_text, ring_text).lattice
    for n in lat.all:
        assert second_socle(n, lat).elements == helpers.brute_second_socle(n, lat), n
    assert prime_radical(lat).elements == helpers.brute_prime_radical(lat)


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_members_are_listed_in_bit_positions_order(module_text, ring_text):
    masks = [s.mask for s in make_instance(module_text, ring_text).lattice.all]
    assert masks == sorted(masks, key=algebra.bit_positions)
    assert sorted(reversed(masks), key=algebra.mask_sort_key) == masks


def test_mask_sort_key_orders_random_masks_as_bit_positions():
    rng = random.Random(0)
    for _ in range(20000):
        a = rng.getrandbits(rng.randint(1, 90)) | 1
        # half the pairs share a's low bits, so prefixes and late splits occur
        if rng.random() < 0.5:
            low = rng.randint(0, a.bit_length())
            b = a & ((1 << low) - 1) | rng.getrandbits(rng.randint(1, 90)) << low | 1
        else:
            b = rng.getrandbits(rng.randint(1, 90)) | 1
        ka, kb = algebra.mask_sort_key(a), algebra.mask_sort_key(b)
        pa, pb = algebra.bit_positions(a), algebra.bit_positions(b)
        assert (ka < kb, ka == kb) == (pa < pb, pa == pb), (a, b)


def test_second_socle_of_single_submodule(z12):
    lat = z12.lattice
    # inside 3M the only second is 6M
    assert second_socle(by_label(lat, "3M"), lat).label() == "6M"
    assert second_socle(lat.zero, lat).is_zero


# ------------------------------------------------------ span and lattice ops

def test_span_and_ops_on_z12(z12):
    mod, lat = z12.module, z12.lattice
    a = span(mod, [(4,)])
    b = span(mod, [(6,)])
    assert a.order == 3 and b.order == 2
    assert lat.join(a, b).label() == "2M"
    assert lat.meet(a, b).is_zero


def test_span_rejects_foreign_elements(z12):
    with pytest.raises(ValueError):
        span(z12.module, [(1, 2)])


def test_ops_reject_mixed_modules(z12, z6):
    with pytest.raises(ValueError):
        z12.lattice.join(z12.lattice.zero, z6.lattice.zero)


def test_labels_on_noncyclic_submodules(z2z4):
    labels = {s.label() for s in z2z4.lattice.all}
    assert "0" in labels and "M" in labels and "2M" in labels
    # the rest have no d*M form and fall back to generators
    assert "<(1,0)>" in labels and "<(0,1)>" in labels


def test_canonical_generators_regenerate(z2z4):
    for s in z2z4.lattice.all:
        assert span(s.module, s.generators).elements == s.elements


@pytest.mark.parametrize("module_text,ring_text", FLAG_SAMPLE)
def test_exponent_carried_up_the_walk_matches_the_span(module_text, ring_text):
    # enumeration carries exp(a + <g>) = lcm(exp a, |<g>|), span takes the
    # lcm of the generators' orders; both must name the same exp(N)
    for s in make_instance(module_text, ring_text).lattice.all:
        assert span(s.module, s.generators).exponent == s.exponent, s


# ----------------------------------------------------------- descriptors

def test_parse_descriptor_defaults_ring_to_lcm():
    ring, module = parse_descriptor("Z2xZ4")
    assert ring.modulus == 4
    assert module.invariant_factors == (2, 4)


@pytest.mark.parametrize("bad", ["", "Z", "Z1", "12", "Z2x", "Z2xZ0",
                                 "Z-3", "Z2 x Z4", "M12"])
def test_bad_module_descriptors(bad):
    with pytest.raises(DescriptorError):
        parse_descriptor(bad)


def test_factor_must_divide_ring():
    with pytest.raises(DescriptorError):
        parse_descriptor("Z8", "Z12")
    with pytest.raises(DescriptorError):
        parse_descriptor("Z2xZ4", "Z6")


def test_ring_descriptor_must_be_single():
    with pytest.raises(DescriptorError):
        parse_descriptor("Z4", "Z2xZ4")


# ----------------------------------------------------------- size guards

def test_module_order_guard():
    _, module = parse_descriptor("Z9999")
    with pytest.raises(SizeGuardError):
        enumerate_submodules(module)
    # explicit override lifts it
    lat = enumerate_submodules(module, max_order=10000)
    assert len(lat) == len(helpers.divisors(9999))


def test_lattice_size_guard():
    _, module = parse_descriptor("Z2xZ2xZ2", "Z2")
    with pytest.raises(SizeGuardError):
        enumerate_submodules(module, max_lattice=3)


def test_lattice_size_guard_counts_cyclic_submodules():
    # Z720 has 30 submodules, one dZ720 per divisor d, more than 10
    _, module = parse_descriptor("Z720")
    with pytest.raises(SizeGuardError):
        enumerate_submodules(module, max_lattice=10)


def test_lattice_size_guard_counts_the_product_of_the_parts():
    # the parts of Z6^3 have 16 and 28 members, each under the guard, but
    # their product has 448
    _, module = parse_descriptor("Z6xZ6xZ6")
    with pytest.raises(SizeGuardError, match="lattice size exceeds the guard 100"):
        enumerate_submodules(module, max_lattice=100)
    assert len(enumerate_submodules(module, max_lattice=448)) == 448


@pytest.mark.parametrize("cached", [False, True])
def test_ring_lattice_guards_hold_on_every_call(cached):
    # a ring whose ideal lattice is already listed meets the guards a fresh
    # one does; Z4096 has 13 ideals
    ring = Ring(4096)
    if cached:
        assert len(ring.lattice()) == 13
    with pytest.raises(SizeGuardError, match="^ring Z4096 order 4096 exceeds the guard 100$"):
        Instance(FiniteModule(ring, (2, 4)), max_order=100).ring_lattice
    with pytest.raises(SizeGuardError, match="^lattice size exceeds the guard 12$"):
        ring.lattice(max_lattice=12)


# ------------------------------------------------------------ properties

def test_ring_constructor_validation():
    with pytest.raises(DescriptorError):
        Ring(1)
    with pytest.raises(DescriptorError):
        FiniteModule(Ring(6), ())


@pytest.mark.parametrize("n,coreduced", [(6, True), (30, True), (12, False),
                                         (4, False), (7, True)])
def test_coreduced_iff_squarefree_modulus(n, coreduced):
    inst = make_instance(f"Z{n}")
    assert inst.props.coreduced == coreduced
    assert inst.props.reduced == coreduced


# ----------------------------------------------------- property-based part

factors_strategy = st.sampled_from([
    (2,), (3,), (4,), (6,), (8,), (9,), (12,),
    (2, 2), (2, 4), (2, 6), (3, 3), (4, 4), (2, 2, 2),
])


@st.composite
def module_and_elements(draw):
    factors = draw(factors_strategy)
    module = FiniteModule(Ring(math.lcm(*factors)), factors)
    els = module.elements()
    picks = draw(st.lists(st.sampled_from(els), min_size=0, max_size=3))
    return module, picks


@given(module_and_elements())
@settings(max_examples=60, deadline=None)
def test_span_is_smallest_containing_submodule(data):
    module, gens = data
    target = span(module, gens)
    for g in gens:
        assert g in target.elements
    lat = enumerate_submodules(module)
    for s in lat.all:
        if all(g in s.elements for g in gens):
            assert target.elements <= s.elements


@given(module_and_elements())
@settings(max_examples=40, deadline=None)
def test_modular_law(data):
    module, _ = data
    lat = enumerate_submodules(module)
    subs = lat.all
    for a in subs:
        for b in subs:
            for c in subs:
                if a.elements <= c.elements:
                    left = lat.join(a, lat.meet(b, c))
                    right = lat.meet(lat.join(a, b), c)
                    assert left == right
    # join/meet really are least upper and greatest lower bounds
    for a in subs:
        for b in subs:
            j, m = lat.join(a, b), lat.meet(a, b)
            assert a.elements <= j.elements and b.elements <= j.elements
            assert m.elements <= a.elements and m.elements <= b.elements


@st.composite
def generated_modules(draw):
    # invariant factors with |M| <= 32, over Z_n for n = k * lcm, k <= 3
    rank = draw(st.integers(min_value=1, max_value=5))
    factors = []
    for left in range(rank - 1, -1, -1):  # each factor leaves room for 2^left
        room = 32 // (math.prod(factors) << left)
        factors.append(draw(st.integers(min_value=2, max_value=room)))
    k = draw(st.sampled_from([1, 2, 3]))
    return FiniteModule(Ring(k * math.lcm(*factors)), tuple(factors))


@given(generated_modules())
@settings(derandomize=True, deadline=None)
def test_generated_modules_match_oracles(module):
    lat = enumerate_submodules(module)
    for s in lat.all:
        assert lat.colon_elements(s) == helpers.brute_colon(s), s
        assert lat.annihilator_elements(s) == helpers.brute_annihilator(s), s
        assert s.label() == helpers.brute_label(s), s
    ring_lattice = module.ring.lattice()
    for kind in (GraphKind.SSI, GraphKind.PSS, GraphKind.SSI_TILDE, GraphKind.PSS_TILDE):
        g = build_graph(kind, module, lat, ring_lattice=ring_lattice)
        side = lat if kind in (GraphKind.SSI, GraphKind.PSS) else ring_lattice
        verts = [v.submodule for v in g.vertices]
        assert g.edges() == helpers.pairwise_edges(kind, side, verts), kind
    # self-duality: as many subgroups of order k as of index k
    counts = Counter(s.order for s in lat.all)
    assert all(counts[k] == counts[module.order // k] for k in counts)


@given(generated_modules())
@settings(derandomize=True, deadline=None)
def test_generated_member_tuples_and_flags_are_the_predicates(module):
    assert_members_are_the_flags(enumerate_submodules(module))


@given(generated_modules())
@settings(derandomize=True, deadline=None)
def test_generated_modules_closed_form_claims_match_oracles(module):
    inst = Instance(module)
    assert closed_form_claims(inst) == helpers.brute_claims(inst)


@given(st.sampled_from([(12, "Z12"), (16, "Z16"), (18, "Z18"), (8, "Z2xZ4")]),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_annihilator_of_second_is_prime_ideal(params, seed):
    _, text = params
    inst = make_instance(text)
    seconds = inst.lattice.seconds()
    if not seconds:
        return
    s = seconds[seed % len(seconds)]
    ideal = inst.ann_ideal(s)
    assert inst.ring_lattice.is_prime(ideal)


def test_ideal_lookup_needs_the_ring_lattice(z2z4):
    # ideals are found by order, which names one member only in Z_n's lattice
    with pytest.raises(ValueError):
        z2z4.lattice.ideal(2)
    assert z2z4.ring_lattice.ideal(2).elements == frozenset({(0,), (2,)})
    assert z2z4.ring_lattice.ideal(6).elements == frozenset({(0,), (2,)})
