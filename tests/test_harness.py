"""Family grammar, check selection, and suite runs."""
import json

import pytest

import helpers
from modgraphs import (
    CHECKS,
    DEFAULT_FAMILY,
    DescriptorError,
    SizeGuardError,
    generate_family,
    run_suite,
    select_checks,
)
from modgraphs import harness
from modgraphs.harness import Instance
from modgraphs import parse_descriptor


# --------------------------------------------------------------- families

def test_default_family_size():
    fam = generate_family(DEFAULT_FAMILY)
    assert len(fam) == 141
    descriptors = [i.descriptor for i in fam]
    assert len(set(descriptors)) == 141
    assert descriptors[0] == "Z2"


def test_cyclic_range():
    fam = generate_family("cyclic:2..10")
    assert [i.descriptor for i in fam] == [f"Z{n}" for n in range(2, 11)]


def test_product_bound():
    fam = generate_family("product:ab<=8")
    assert [i.descriptor for i in fam] == ["Z2xZ2", "Z2xZ3", "Z2xZ4"]


def test_vector_item():
    fam = generate_family("vector:2^3")
    assert [i.descriptor for i in fam] == ["Z2xZ2xZ2"]
    assert fam[0].module.ring.modulus == 2


def test_zmod_item_with_ring():
    fam = generate_family("zmod:Z2xZ4/Z8")
    assert len(fam) == 1
    inst = fam[0]
    assert inst.descriptor == "Z2xZ4/Z8"
    assert inst.module.ring.modulus == 8


def test_zmod_item_plain():
    fam = generate_family("zmod:Z12")
    assert fam[0].descriptor == "Z12"


def test_family_dedupe_keeps_first():
    fam = generate_family("zmod:Z12,cyclic:10..14")
    assert [i.descriptor for i in fam] == ["Z12", "Z10", "Z11", "Z13", "Z14"]


@pytest.mark.parametrize("bad", ["", "cyclic:9..2", "cyclic:0..5",
                                 "vector:4^2", "vector:2^0", "product:ab<=3",
                                 "planet:9", "zmod:", "cyclic:a..b"])
def test_bad_family_items(bad):
    with pytest.raises(DescriptorError):
        generate_family(bad)


def test_family_respects_order_guard():
    fam = generate_family("cyclic:5000..5001", max_order=6000)
    assert len(fam) == 2
    with pytest.raises(SizeGuardError):
        generate_family("cyclic:5000..5001")[0].lattice


def test_family_guard_fires_while_expanding():
    # Z4097 is refused as it is expanded, before the family is returned
    with pytest.raises(SizeGuardError, match="module order 4097 exceeds the guard 4096"):
        generate_family("cyclic:4090..5000")


# --------------------------------------------------------------- instances

def test_instance_descriptor_mentions_ring_only_when_larger():
    _, m1 = parse_descriptor("Z2xZ4")
    assert Instance(m1).descriptor == "Z2xZ4"
    _, m2 = parse_descriptor("Z2xZ4", "Z8")
    assert Instance(m2).descriptor == "Z2xZ4/Z8"


def test_instance_is_lazy():
    _, big = parse_descriptor("Z9999")
    inst = Instance(big)  # no enumeration yet
    assert inst.descriptor == "Z9999"
    # a bad kind is refused before the lattice is built, as a ValueError
    with pytest.raises(DescriptorError):
        inst.graph("sis")
    with pytest.raises(ValueError):
        inst.metrics("ssi-tilde")
    with pytest.raises(SizeGuardError):
        inst.lattice


def test_cyclic_instance_shares_ring_lattice(z12):
    assert z12.ring_lattice is z12.lattice


def test_family_shares_one_ring_per_modulus():
    fam = {i.descriptor: i for i in
           generate_family("product:ab<=8,cyclic:2..8,vector:2^3")}
    assert fam["Z2xZ4"].ring_lattice is fam["Z4"].lattice
    assert fam["Z2xZ3"].ring_lattice is fam["Z6"].lattice
    assert fam["Z2xZ2xZ2"].ring_lattice is fam["Z2"].lattice


def test_product_instance_builds_separate_ring_lattice(z2z4):
    assert z2z4.ring_lattice is not z2z4.lattice
    assert len(z2z4.ring_lattice) == 3  # ideals of Z4


# ---------------------------------------------------------- check selection

def test_select_strict_and_all():
    strict = select_checks("strict")
    assert len(strict) == 27
    assert all(c.mode == "strict" for c in strict)
    every = select_checks("all")
    assert list(every) == list(CHECKS)


def test_select_by_ids_normalizes_to_registry_order():
    picked = select_checks("D9,C1,C6")
    assert [c.id for c in picked] == ["C1", "C6", "D9"]


@pytest.mark.parametrize("bad", ["", "C99", "c one", "C0,D1"])
def test_select_rejects_unknown(bad):
    with pytest.raises(DescriptorError):
        select_checks(bad)


def test_select_tolerates_stray_commas():
    assert [c.id for c in select_checks("C1,,D2,")] == ["C1", "D2"]


# -------------------------------------------------------------- suite runs

def test_suite_over_small_family():
    report = run_suite("cyclic:2..20", checks="all")
    assert report.summary()["fail"] == 0
    assert report.family == "cyclic:2..20"
    assert report.suite == "all"
    # instance-major ordering, registry order within an instance
    per_instance = [r.check_id for r in report.results if r.instance == "Z12"]
    assert per_instance == [c.id for c in CHECKS]
    instances = [r.instance for r in report.results]
    assert instances == sorted(instances, key=instances.index)  # grouped


def test_suite_reads_evaluate_check_from_the_check_module(monkeypatch):
    # a replacement of checks.evaluate_check, as a tracer installs, sees
    # every evaluation of a suite run
    from modgraphs import checks
    calls = []
    evaluate = checks.evaluate_check
    monkeypatch.setattr(checks, "evaluate_check",
                        lambda check, inst: calls.append(check.id) or evaluate(check, inst))
    report = run_suite("cyclic:2..3", checks="C1,C6,D6")
    assert calls == ["C1", "C6", "D6"] * 2 == [r.check_id for r in report.results]


def test_summary_counts_are_exhaustive():
    report = run_suite("cyclic:2..20", checks="all")
    s = report.summary()
    assert sum(s.values()) == len(report.results) == 19 * 30
    assert s["findings"] == len(report.findings())
    assert s["fail"] == len(report.failures())


def test_suite_is_deterministic_without_timing():
    a = run_suite("cyclic:2..16", checks="strict").to_json()
    b = run_suite("cyclic:2..16", checks="strict").to_json()
    assert a == b
    payload = json.loads(a)
    assert "millis" not in json.dumps(payload)


def test_timing_opt_in():
    report = run_suite("zmod:Z12", checks="C1", include_timing=True)
    row = json.loads(report.to_json())["results"][0]
    assert "millis" in row and isinstance(row["millis"], (int, float))
    # timing is measured even when not serialized
    silent = run_suite("zmod:Z12", checks="C1")
    assert silent.results[0].millis is not None
    assert "millis" not in silent.results[0].as_dict()


@pytest.mark.parametrize("family,timing", [(DEFAULT_FAMILY, False),
                                           ("cyclic:2..24,product:ab<=16", True)])
def test_report_json_is_json_dumps_of_as_dict(family, timing):
    report = run_suite(family, checks="all", include_timing=timing)
    assert helpers.json_dumps_mismatch(report.to_json(), report.as_dict()) is None


def test_report_json_encodes_each_distinct_string_once(monkeypatch):
    # the check ids, instances and verdicts repeat across results; each
    # distinct one (and the suite and family) is encoded once
    encoded = []
    real = harness.encode_basestring_ascii
    monkeypatch.setattr(harness, "encode_basestring_ascii",
                        lambda text: encoded.append(text) or real(text))
    report = run_suite("cyclic:2..12", checks="all")
    text = report.to_json()
    distinct = {report.suite, report.family}.union(
        *({r.check_id, r.instance, r.verdict} for r in report.results))
    assert sorted(encoded) == sorted(distinct)
    monkeypatch.undo()
    assert text == report.to_json()


def test_report_dict_shape():
    report = run_suite("zmod:Z16", checks="C6,D6")
    d = report.as_dict()
    assert set(d) == {"suite", "family", "results", "summary"}
    assert d["summary"] == {"pass": 0, "fail": 0, "findings": 2,
                            "not_applicable": 0}
    assert d["results"][0]["witness"]["pair"] == ["2M", "4M"]
    assert report.to_json().endswith("\n")


def test_suite_guard_override_threads_through():
    report = run_suite("cyclic:4100..4100", checks="C4", max_order=5000)
    assert report.summary()["pass"] == 1
    with pytest.raises(SizeGuardError):
        run_suite("cyclic:4100..4100", checks="C4")
