"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests

Each test runs real op processes against the sources in src/, so the whole
file takes well under a minute.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# the cheapest op of each workload
SMOKE_OPS = {
    "family-check": "check:default-family",
    "lattice-ladder": "check:Z2xZ2xZ2xZ2/Z2",
    "ring-wide": "graph-ssi:Z2xZ4/Z4096",
}


def smoke_ops(workload):
    return [op for op in run.WORKLOADS[workload] if op.id == SMOKE_OPS[workload]]


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(SMOKE_OPS) == set(run.WORKLOADS)


def test_every_op_has_a_golden():
    goldens = run.load_goldens()
    assert {op.id for ops in run.WORKLOADS.values() for op in ops} == set(goldens)


def test_family_check_golden_is_the_recorded_report():
    assert run.load_goldens()["check:default-family"] == {
        "sha256": "e4e5d4c2c1dc61d4bf499644f6996921d3007c8b29efedeaa6014b36cc452e0e",
        "bytes": 488363,
    }


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_op_smoke_run(workload):
    result = run.measure(workload, 1, 0, False, ops=smoke_ops(workload))
    assert (result["attempted"], result["failed"]) == (1, 0), result["errors"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in result["metrics"].values())


def test_op_times_are_divided_by_the_slowdown():
    outcome = {"wall": 3.0, "setup": 1.0, "cpu": 4.0, "rss_mb": 10.0,
               "slowdown": 2.0, "record": {"rc": 0}}
    assert run.end_to_end_metrics([[outcome]]) == {
        "setup_s": 0.5, "pass_s": 1.0, "cpu_s": 2.0, "peak_rss_mb": 10.0}
    assert run.end_to_end_metrics([[outcome]], scaled=False)["pass_s"] == 2.0


def test_corrupted_golden_counts_as_a_failed_op():
    ops = smoke_ops("lattice-ladder")
    goldens = run.load_goldens()
    goldens[ops[0].id] = dict(goldens[ops[0].id], sha256="0" * 64)
    result = run.measure("lattice-ladder", 1, 0, False, ops=ops, goldens=goldens)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "differs from the golden" in result["errors"][0]


def test_printed_end_to_end_metrics_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family-check",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    out = last_json_line(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert "seed=3" in proc.stdout


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert dict(run.PER_LAYER) == declared
    result = run.measure("ring-wide", 1, 0, True, ops=smoke_ops("ring-wide"))
    assert set(result["metrics"]) == set(declared)


def test_self_times_account_for_the_traced_pass():
    result = run.measure("lattice-ladder", 1, 0, True, ops=smoke_ops("lattice-ladder"))
    assert result["failed"] == 0 and not result["missing_hooks"]
    m = result["metrics"]
    assert sum(m[name] for name in run.SELF_TIME_METRICS) == pytest.approx(
        m["trace.pass_s"], rel=1e-9)
    untraced = run.pass_time(result["plain"][0])
    assert m["trace.pass_s"] - m["trace.overhead_s"] == pytest.approx(untraced, rel=1e-9)
    busy = ("algebra.enumerate_s", "graphs.build_pss_s", "checks.evaluate_s")
    assert all(m[name] > 0 for name in busy)


def test_counts_repeat_exactly():
    ops = smoke_ops("lattice-ladder")
    first, second = (run.measure("lattice-ladder", seed, 0, True, ops=ops)["metrics"]
                     for seed in (1, 2))
    counts = [name for name, unit in run.PER_LAYER if unit in ("count", "ratio", "B")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["checks.evaluated"] == 30 and first["harness.instances"] == 1


PREWARM_PROBE = """
import io, json, sys
from collections import Counter
from contextlib import redirect_stdout
import modgraphs.cli
from tracing import Tracer
tracer = Tracer("probe", prewarm=sys.argv[1] == "1")
dispatch = tracer.install(modgraphs.cli.dispatch)
with redirect_stdout(io.StringIO()):
    dispatch(sys.argv[2:])
print(json.dumps(Counter(f"{span[5]} {span[2]}" for span in tracer.spans)))
"""


def test_prewarm_adds_no_work_to_check_all():
    # Every stage a check run enters is hooked, so equal span counts mean
    # equal work.  classify is not compared this way: its `flags()` computes
    # all six flag families through unhooked calls, which pre-warming only
    # moves into spans of their own.
    argv = ["check", "--family", "cyclic:2..24,product:ab<=16,vector:2^3", "--checks", "all"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(BENCH)]))
    spans = [
        last_json_line(subprocess.run(
            [sys.executable, "-c", PREWARM_PROBE, flag, *argv], env=env,
            capture_output=True, text=True, timeout=120, check=True).stdout)
        for flag in ("0", "1")]
    assert spans[0] == spans[1]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
