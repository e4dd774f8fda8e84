"""The modgraphs benchmark: CLI workloads run in fresh processes, checked byte for byte.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: each op is one `modgraphs.cli.dispatch`
invocation in a fresh Python process (perfbench/op.py), started only after
the previous op has ended, because a fresh process is what a CLI user pays
for.  A pass runs every op of the workload once, in an order drawn from
`--seed`; passes repeat while another one fits in `--seconds` (at least one
runs).  Every op's output must match its sha256 in goldens.json.

`--trace 0` reports the end-to-end metrics, each a median over passes
(set-up: over ops), with every op's times scaled to the reference speed of
a fixed calibration loop run on the op's CPU just before and just after it
(see `calibrate`); the unscaled medians are printed as a comment line.
`--trace 1` runs untraced and traced passes in pairs, reports per-layer
self times, counts and the tracing overhead, and writes the spans to
.perfbench/trace-<workload>-seed<N>.json.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUT_DIR = ROOT / ".perfbench"
OP_TIMEOUT_S = 150
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


class Op(NamedTuple):
    id: str
    module: str  # label for spans outside any check instance
    argv: tuple[str, ...]


GRAPH_KINDS = ("ssi", "pss", "sii", "pis", "ssi_tilde", "pss_tilde")
MODULE_GRAPH_KINDS = ("ssi", "pss", "ssi_tilde", "pss_tilde")

# (family item, instance descriptor); every ring here is the lcm default
LADDER = (
    ("Z16xZ16", "Z16xZ16"),
    ("Z4xZ4xZ4", "Z4xZ4xZ4"),
    ("Z5xZ5xZ5/Z5", "Z5xZ5xZ5"),
    ("Z2xZ4xZ8", "Z2xZ4xZ8"),
    ("Z2xZ2xZ2xZ2/Z2", "Z2xZ2xZ2xZ2"),
)


def _ring_wide_ops() -> list[Op]:
    ops = []
    for module, ring, kinds in (("Z720", None, GRAPH_KINDS),
                                ("Z4096", None, GRAPH_KINDS),
                                ("Z2xZ4", "Z4096", MODULE_GRAPH_KINDS)):
        label = f"{module}/{ring}" if ring else module
        target = ("--module", module) + (("--ring", ring) if ring else ())
        ops.append(Op(f"classify:{label}", label,
                      ("classify", *target, "--format", "json")))
        for kind in kinds:
            ops.append(Op(f"graph-{kind}:{label}", label,
                          ("graph", *target, "--kind", kind, "--format", "json")))
    return ops


WORKLOADS: dict[str, list[Op]] = {
    "family-check": [Op("check:default-family", "default-family",
                        ("check", "--checks", "all"))],
    "lattice-ladder": [Op(f"check:{item}", label,
                          ("check", "--family", f"zmod:{item}", "--checks", "all"))
                       for item, label in LADDER],
    "ring-wide": _ring_wide_ops(),
}

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# span name -> per-layer metric; the self times of all of them, plus
# cli.process_s, add up to the traced pass
SPAN_METRICS = {
    "algebra.enumerate": "algebra.enumerate_s",
    "algebra.second_flags": "algebra.second_flags_s",
    "algebra.prime_flags": "algebra.prime_flags_s",
    "algebra.order_flags": "algebra.order_flags_s",
    "algebra.properties": "algebra.properties_s",
    "algebra.ideals": "algebra.ideals_s",
    "algebra.socle_radical": "algebra.socle_radical_s",
    "graphs.build_ssi": "graphs.build_ssi_s",
    "graphs.build_pss": "graphs.build_pss_s",
    "graphs.build_ideal": "graphs.build_ideal_s",
    "graphs.build_tilde": "graphs.build_tilde_s",
    "graphs.metrics": "graphs.metrics_s",
    "graphs.export": "graphs.export_s",
    "checks.evaluate": "checks.evaluate_s",
    "harness.family": "harness.family_s",
    "harness.report": "harness.report_s",
    "cli.dispatch": "cli.self_s",
}
SELF_TIME_METRICS = (*SPAN_METRICS.values(), "cli.process_s")

PER_LAYER = (
    *((name, "s") for name in SELF_TIME_METRICS),
    ("algebra.lattice_size", "count"),
    ("algebra.join_calls", "count"),
    ("algebra.meet_calls", "count"),
    ("algebra.join_distinct_ratio", "ratio"),
    ("graphs.pairs_tested", "count"),
    ("graphs.edges", "count"),
    ("graphs.edge_yield", "ratio"),
    ("checks.evaluated", "count"),
    ("checks.applicable_ratio", "ratio"),
    ("checks.failures", "count"),
    ("checks.findings", "count"),
    ("harness.instances", "count"),
    ("cli.output_bytes", "B"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------- calibration

# Seconds one `calibrate()` takes on an uncontended core of the 2-core
# Intel Xeon virtual machine the benchmark was written on.  It only fixes
# the scale of the reported times; any constant would do.
CAL_REF_S = 0.24
CAL_ROUNDS = 30


def _calibration_round() -> int:
    """Fixed pure-Python work shaped like the program's: closures of
    frozensets, dict counters keyed by tuples, small-integer arithmetic."""
    table: dict[tuple[int, int], int] = {}
    seen = set()
    frontier = [frozenset([1])]
    acc = 0
    for step in range(3000):
        s = frontier[step % len(frontier)]
        t = frozenset((x * 5 + step) % 97 for x in s) | s
        if t not in seen:
            seen.add(t)
            if len(frontier) < 64:
                frontier.append(t)
        key = (len(t), step % 31)
        table[key] = table.get(key, 0) + len(t)
        acc += sum(1 for x in t if x & 1)
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now, on the CPU this process is on.

    Neighbours on a shared host slow a core to half its speed or less for
    seconds to minutes at a time, the program and this loop alike.  An
    op's times divided by the mean of the loop's times just before and just
    after it (and multiplied by CAL_REF_S) are its times at the reference
    speed.
    """
    start = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        _calibration_round()
    return time.perf_counter() - start


# ---------------------------------------------------------------- one op

def run_op(op: Op, trace: bool, golden: dict | None) -> dict:
    """Run one op in a fresh process; `golden` None skips the digest check."""
    cmd = [sys.executable, str(HERE / "op.py"), "1" if trace else "0",
           op.module, "--", *op.argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    error = None
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        error = f"timed out after {OP_TIMEOUT_S} s"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)

    record = None
    if error is None and proc.returncode != 0:
        error = f"op process exited {proc.returncode}: {err.strip()[-400:]}"
    if error is None:
        try:
            record = json.loads(out.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = f"op process wrote no record: {err.strip()[-400:]}"
    if record is not None:
        if record["error"]:
            error = record["error"].strip().splitlines()[-1]
        elif record["rc"] != 0:
            error = f"dispatch returned {record['rc']}: {err.strip()[-400:]}"
        elif golden is not None and (record["sha256"], record["bytes"]) != (
                golden["sha256"], golden["bytes"]):
            error = (f"output digest {record['sha256']} ({record['bytes']} B) "
                     f"differs from the golden {golden['sha256']} ({golden['bytes']} B)")
    return {
        "op": op.id,
        "module": op.module,
        "wall": wall,
        "setup": record["setup_s"] if record else 0.0,
        "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "rss_mb": record["maxrss_kb"] / 1024 if record else 0.0,
        "error": error,
        "record": record,
    }


def run_pass(order: list[Op], trace: bool, goldens: dict, cpu: int) -> list[dict]:
    """Run the ops of one pass on `cpu`, with a calibration before, between
    and after them; the op process inherits this process's affinity."""
    os.sched_setaffinity(0, {cpu})
    outcomes = []
    cal = calibrate()
    for op in order:
        outcome = run_op(op, trace, goldens[op.id])
        after = calibrate()
        outcome["slowdown"] = (cal + after) / 2 / CAL_REF_S
        cal = after
        outcomes.append(outcome)
    return outcomes


def pass_time(outcomes: list[dict]) -> float:
    """Wall time of a pass without the ops' set-up (import) time."""
    return sum(o["wall"] - o["setup"] for o in outcomes)


# ---------------------------------------------------------------- a run

def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            ops: list[Op] | None = None, goldens: dict | None = None) -> dict:
    """Run passes of the workload and return outcomes and metrics."""
    ops = list(WORKLOADS[workload] if ops is None else ops)
    goldens = load_goldens() if goldens is None else goldens
    rng = random.Random(seed)
    # Neighbours on a shared host slow each core in spells of seconds to
    # minutes, independently; taking the cores in turn makes every run
    # sample all of them instead of whichever one the scheduler kept.
    allowed = os.sched_getaffinity(0)
    cpus = itertools.cycle(sorted(allowed))
    orders, plain, traced = [], [], []
    start = time.perf_counter()
    try:
        while True:
            order = rng.sample(ops, len(ops))
            orders.append([op.id for op in order])
            plain.append(run_pass(order, False, goldens, next(cpus)))
            if trace:
                traced.append(run_pass(order, True, goldens, next(cpus)))
            elapsed = time.perf_counter() - start
            if elapsed / len(orders) * (len(orders) + 1) > seconds:
                break
    finally:
        os.sched_setaffinity(0, allowed)

    everything = [o for p in plain + traced for o in p]
    result = {
        "workload": workload,
        "seed": seed,
        "orders": orders,
        "attempted": len(everything),
        "failed": sum(o["error"] is not None for o in everything),
        "errors": sorted({f"{o['op']}: {o['error']}" for o in everything if o["error"]}),
        "plain": plain,
    }
    if trace:
        metrics, per_module, missing = layer_metrics(plain, traced)
        result.update(metrics=metrics, per_module=per_module,
                      missing_hooks=missing, traced=traced)
    else:
        result["metrics"] = end_to_end_metrics(plain)
        result["unscaled"] = end_to_end_metrics(plain, scaled=False)
    return result


def end_to_end_metrics(passes: list[list[dict]], scaled: bool = True) -> dict:
    """Medians over passes (set-up: over ops); with `scaled`, every op's
    times are first divided by its slowdown, giving reference-speed times."""
    def scale(o):
        return o["slowdown"] if scaled else 1.0

    setups = [o["setup"] / scale(o) for p in passes for o in p if o["record"]] or [0.0]
    med = statistics.median
    return {
        "setup_s": med(setups),
        "pass_s": med(sum((o["wall"] - o["setup"]) / scale(o) for o in p) for p in passes),
        "cpu_s": med(sum(o["cpu"] / scale(o) for o in p) for p in passes),
        "peak_rss_mb": med(max(o["rss_mb"] for o in p) for p in passes),
    }


def span_self_times(spans) -> tuple[dict, float]:
    """Self time per (module, span name), and the summed root durations."""
    covered = defaultdict(float)
    for _sid, parent, _name, start, end, _module in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    roots = 0.0
    for sid, parent, name, start, end, module in spans:
        out[(module, name)] += (end - start) - covered[sid]
        if parent < 0:
            roots += end - start
    return out, roots


def layer_metrics(plain, traced) -> tuple[dict, dict, list]:
    """Per-layer metrics as means over the traced passes, so that they add up."""
    k = len(traced)
    totals = Counter()
    per_module = defaultdict(Counter)
    missing = set()
    for outcomes in traced:
        for o in outcomes:
            rec = o["record"]
            if rec is None:
                continue
            missing.update(rec["missing_hooks"])
            self_times, dispatch = span_self_times(rec["spans"])
            for (module, name), t in self_times.items():
                metric = SPAN_METRICS[name]
                totals[metric] += t / k
                per_module[module][metric] += t / k
            process = (o["wall"] - o["setup"] - dispatch) / k
            totals["cli.process_s"] += process
            per_module[o["module"]]["cli.process_s"] += process

    counts = Counter()
    output_bytes = 0
    for o in traced[0]:
        if o["record"]:
            counts.update(o["record"]["counts"])
            output_bytes += o["record"]["bytes"]

    def ratio(num, den):
        return num / den if den else 0.0

    traced_pass = statistics.fmean(pass_time(p) for p in traced)
    plain_pass = statistics.fmean(pass_time(p) for p in plain)
    metrics = {name: totals[name] for name in SELF_TIME_METRICS}
    metrics.update({
        "algebra.lattice_size": counts["lattice_size"],
        "algebra.join_calls": counts["join_calls"],
        "algebra.meet_calls": counts["meet_calls"],
        "algebra.join_distinct_ratio": ratio(counts["join_distinct"], counts["join_calls"]),
        "graphs.pairs_tested": counts["pairs_tested"],
        "graphs.edges": counts["edges"],
        "graphs.edge_yield": ratio(counts["edges"], counts["pairs_tested"]),
        "checks.evaluated": counts["evaluated"],
        "checks.applicable_ratio": ratio(counts["applicable"], counts["evaluated"]),
        "checks.failures": counts["failures"],
        "checks.findings": counts["findings"],
        "harness.instances": counts["instances"],
        "cli.output_bytes": output_bytes,
        "trace.pass_s": traced_pass,
        "trace.overhead_s": traced_pass - plain_pass,
    })
    modules = {m: dict(c.most_common()) for m, c in per_module.items()}
    return metrics, modules, sorted(missing)


# ---------------------------------------------------------------- entry point

def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def preflight(workload: str) -> str | None:
    """Why this checkout cannot be benchmarked, or None when it can."""
    if not (SRC / "modgraphs" / "cli.py").is_file():
        return f"no modgraphs sources under {SRC}"
    goldens = load_goldens()
    lacking = [op.id for op in WORKLOADS[workload] if op.id not in goldens]
    if lacking:
        return f"no golden output for {', '.join(lacking)}"
    probe = subprocess.run(
        [sys.executable, "-c", "import modgraphs.cli; print(modgraphs.cli.__file__)"],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        return f"cannot import modgraphs.cli: {probe.stderr.strip()[-400:]}"
    if Path(probe.stdout.strip()).resolve().parent.parent != SRC.resolve():
        return f"modgraphs imported from {probe.stdout.strip()}, not from {SRC}"
    return None


def write_trace(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{result['workload']}-seed{result['seed']}.json"
    payload = {
        "workload": result["workload"],
        "seed": result["seed"],
        "orders": result["orders"],
        "metrics": result["metrics"],
        "per_module": result["per_module"],
        "missing_hooks": result["missing_hooks"],
        "span_fields": ["id", "parent", "name", "start", "end", "module"],
        "ops": [{"pass": k, "op": o["op"], "wall": o["wall"], "setup": o["setup"],
                 "spans": o["record"]["spans"] if o["record"] else []}
                for k, outcomes in enumerate(result["traced"]) for o in outcomes],
    }
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = preflight(args.workload)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    units = dict(PER_LAYER if trace else END_TO_END)
    error_rate = result["failed"] / result["attempted"]

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['orders'])} first_order={result['orders'][0]}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    if not trace:
        slowdowns = [o["slowdown"] for p in result["plain"] for o in p]
        print("# unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in result["unscaled"].items())
              + f"; median slowdown {statistics.median(slowdowns):.4g}")
    print(f"error_rate {error_rate:.6g} ratio ({result['failed']}/{result['attempted']} ops)")
    for line in result["errors"]:
        print(f"error: {line}", file=sys.stderr)
    if trace:
        path = write_trace(result)
        print(f"# spans written to {path.relative_to(ROOT)}")
        if result["missing_hooks"]:
            print(f"# hooks not installed: {', '.join(result['missing_hooks'])}")
        heaviest = sorted(result["per_module"].items(), key=lambda kv: -sum(kv[1].values()))
        for module, times in heaviest[:10]:
            top = list(times.items())[:3]
            print(f"# self time {module}: " + ", ".join(f"{m} {t:.3f}" for m, t in top))

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
