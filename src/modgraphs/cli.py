"""Command line front end.

Exit codes: 0 success, 1 failed strict checks (with --strict) or findings
(with --fail-on-findings), 2 descriptor/usage errors or an unwritable --out
file, 3 size-guard stops.
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    MAX_MODULE_ORDER,
    DescriptorError,
    SizeGuardError,
    enumerate_submodules,
    module_lattice,
    parse_descriptor,
)
from .graphs import TILDE_KINDS, GraphKind, _element_set_text, build_graph, export_graph
from .harness import DEFAULT_FAMILY, Instance, run_suite


def _build_parser() -> argparse.ArgumentParser:
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
    pk.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args) -> int:
    _ring, module = parse_descriptor(args.module, args.ring)
    lattice = enumerate_submodules(module, max_order=args.max_order)
    if args.format == "json":
        payload = {
            "ring": module.ring.descriptor,
            "module": module.descriptor,
            "submodules": [
                {
                    "label": s.label(),
                    "order": s.order,
                    "generators": [list(x) for x in s.generators],
                    "elements": [list(x) for x in sorted(s.elements)],
                }
                for s in lattice.all
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"module {module.descriptor} over {module.ring.descriptor}: "
             f"{len(lattice)} submodules"]
    for s in lattice.all:
        lines.append(f"{s.label()} order={s.order} elements={_element_set_text(s)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_FLAG_NAMES = ("minimal", "maximal", "second", "prime", "large", "small")


def _cmd_classify(args) -> int:
    _ring, module = parse_descriptor(args.module, args.ring)
    inst = Instance(module, max_order=args.max_order)
    lat = inst.lattice
    prop_items = inst.props._asdict().items()
    rows = []
    for s in lat.all:
        flags = lat.flags(s)
        rows.append({"label": s.label(), "order": s.order,
                     **{name: getattr(flags, f"is_{name}") for name in _FLAG_NAMES},
                     "annihilator": inst.ann_ideal(s).label("R"),
                     "colon": inst.colon_of(s).label("R")})
    if args.format == "json":
        payload = {
            "ring": module.ring.descriptor,
            "module": module.descriptor,
            "properties": dict(prop_items),
            "second_socle": inst.sec_socle.label(),
            "prime_radical": inst.radical.label(),
            "submodules": rows,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"module {module.descriptor} over {module.ring.descriptor}"]
    lines.append("properties: " + " ".join(f"{k}={v}" for k, v in prop_items))
    lines.append(f"second_socle={inst.sec_socle.label()} "
                 f"prime_radical={inst.radical.label()}")
    for row in rows:
        flag_text = " ".join(f"{name}={row[name]}" for name in _FLAG_NAMES)
        lines.append(f"{row['label']}: order={row['order']} {flag_text} "
                     f"annihilator={row['annihilator']} colon={row['colon']}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_graph(args) -> int:
    ring, module = parse_descriptor(args.module, args.ring)
    lattice = module_lattice(module, max_order=args.max_order)
    kind = GraphKind(args.kind)
    ring_lattice = ring.lattice(max_order=args.max_order) if kind in TILDE_KINDS else None
    g = build_graph(kind, module, lattice, ring_lattice=ring_lattice)
    _emit(export_graph(g, args.format), args.out)
    return 0


def _cmd_check(args) -> int:
    report = run_suite(args.family, args.checks,
                       include_timing=args.timing,
                       max_order=args.max_order)
    _emit(report.to_json(), args.out)
    if args.strict and report.failures():
        return 1
    if args.fail_on_findings and report.findings():
        return 1
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "graph": _cmd_graph,
    "check": _cmd_check,
}


def dispatch(argv) -> int:
    """Parse and run; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (DescriptorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
