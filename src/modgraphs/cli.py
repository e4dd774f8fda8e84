"""Command line front end: `_parse` reads argv against one table,
`_COMMANDS`, by argparse's rules, without loading argparse or gettext.

Exit codes: 0 success (or help), 1 failed strict checks (with --strict) or
findings (with --fail-on-findings), 2 descriptor/usage errors or an
unwritable --out file, 3 size-guard stops.  `check` writes its report one
result at a time, once every guard has passed on the whole family.
"""
from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .algebra import (
    DEFAULT_FAMILY,
    MAX_LATTICE_SIZE,
    MAX_MODULE_ORDER,
    DescriptorError,
    SizeGuardError,
    enumerate_submodules,
    parse_descriptor,
)
from .graphs import GraphKind, Instance, _element_set_text, export_graph


def _emit(pieces, out: str | None) -> int:
    """Write the text pieces as each is made, to out or stdout; out is
    opened only once the first piece is made, past every guard."""
    pieces = iter(pieces)
    first = next(pieces)
    fh = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        fh.write(first)
        fh.writelines(pieces)
    finally:
        if out:
            fh.close()
    return 0


def _cmd_enumerate(args) -> int:
    _ring, module = parse_descriptor(args.module, args.ring)
    lattice = enumerate_submodules(module, max_order=args.max_order,
                                   max_lattice=args.max_lattice)
    if args.format == "json":
        return _emit((json.dumps({
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
        }, indent=2) + "\n",), args.out)
    lines = [f"module {module.descriptor} over {module.ring.descriptor}: "
             f"{len(lattice)} submodules"]
    lines += (f"{s.label()} order={s.order} elements={_element_set_text(s)}" for s in lattice.all)
    return _emit(("\n".join(lines) + "\n",), args.out)


_FLAG_NAMES = ("minimal", "maximal", "second", "prime", "large", "small")


def _cmd_classify(args) -> int:
    _ring, module = parse_descriptor(args.module, args.ring)
    inst = Instance(module, max_order=args.max_order, max_lattice=args.max_lattice)
    lat = inst.lattice
    prop_items = inst.props._asdict().items()
    rows = []
    for s in lat.all:
        rows.append({"label": s.label(), "order": s.order,
                     **{name: getattr(lat, f"is_{name}")(s) for name in _FLAG_NAMES},
                     "annihilator": inst.ann_ideal(s).label("R"),
                     "colon": inst.colon_of(s).label("R")})
    if args.format == "json":
        return _emit((json.dumps({
            "ring": module.ring.descriptor,
            "module": module.descriptor,
            "properties": dict(prop_items),
            "second_socle": inst.sec_socle.label(),
            "prime_radical": inst.radical.label(),
            "submodules": rows,
        }, indent=2) + "\n",), args.out)
    lines = [f"module {module.descriptor} over {module.ring.descriptor}",
             "properties: " + " ".join(f"{k}={v}" for k, v in prop_items),
             f"second_socle={inst.sec_socle.label()} prime_radical={inst.radical.label()}"]
    for row in rows:
        flag_text = " ".join(f"{name}={row[name]}" for name in _FLAG_NAMES)
        lines.append(f"{row['label']}: order={row['order']} {flag_text} "
                     f"annihilator={row['annihilator']} colon={row['colon']}")
    return _emit(("\n".join(lines) + "\n",), args.out)


def _cmd_graph(args) -> int:
    _ring, module = parse_descriptor(args.module, args.ring)
    g = Instance(module, max_order=args.max_order, max_lattice=args.max_lattice).graph(args.kind)
    return _emit((export_graph(g, args.format),), args.out)


def _cmd_check(args) -> int:
    from .harness import check_results, report_pieces
    results = check_results(args.family, args.checks, max_order=args.max_order,
                            max_lattice=args.max_lattice)
    counts = {}  # the summary, filled as the pieces are written
    _emit(report_pieces(args.checks, args.family, results, counts, args.timing), args.out)
    failed = args.strict and counts["fail"] or args.fail_on_findings and counts["findings"]
    return 1 if failed else 0


# an option is (name, default, kind, help) for --name, dashes for underscores;
# default ... marks it required, kind is str, int, a tuple of choices or None (a flag)
_MAX_LATTICE = ("max_lattice", MAX_LATTICE_SIZE, int,
                "size guard on the number of submodules, and of the ring's ideals")
_MODULE_OPTIONS = (
    ("module", ..., str, "module descriptor, e.g. Z12 or Z2xZ4"),
    ("ring", None, str, "ring descriptor Z<n>; defaults to the lcm of the module's factors"),
    ("max_order", MAX_MODULE_ORDER, int, "size guard on the module order, and on the ring's"),
    _MAX_LATTICE,
    ("out", None, str, "write output to this file instead of stdout"),
)
_TEXT_OR_JSON = (("format", "text", ("text", "json"), "output format"),)

# command -> (handler, help line, options)
_COMMANDS = {
    "enumerate": (_cmd_enumerate, "list every submodule", _MODULE_OPTIONS + _TEXT_OR_JSON),
    "classify": (_cmd_classify, "flags for each submodule plus module properties",
                 _MODULE_OPTIONS + _TEXT_OR_JSON),
    "graph": (_cmd_graph, "export one of the six graphs", _MODULE_OPTIONS + (
        ("kind", ..., tuple(k.value for k in GraphKind), "which graph"),
        ("format", "dot", ("dot", "json"), "output format"))),
    "check": (_cmd_check, "run the checks over a module family", (
        ("family", DEFAULT_FAMILY, str, "family description"),
        ("checks", "strict", str, "'strict', 'all', or a comma list of ids like C1,D6"),
        ("strict", False, None, "exit 1 when any strict check fails"),
        ("fail_on_findings", False, None, "exit 1 when any report check records a finding"),
        ("timing", False, None, "include per-result millis; the output is not byte-stable"),
        ("max_order", MAX_MODULE_ORDER, int, "size guard on each module's order and its ring's"),
        _MAX_LATTICE,
        ("out", None, str, "write output to this file instead of stdout"))),
}
_HELP = ("help", False, None, "show this help and exit")


def _option(token: str, names):
    """How argparse reads `token` against the option `names`: None for a
    positional, (name, the text after '=' or None) for an option, ("", None)
    for an unknown one; an ambiguous prefix is a usage error."""
    head, eq, value = token.partition("=")
    hits = [head] if head in names else [n for n in names if len(head) > 2 and n.startswith(head)]
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    if token.startswith("-") and token != "-" and not token[1:].isdecimal() and " " not in token:
        return "", None
    return None


def _usage(command) -> str:
    return f"usage: modgraphs {command or '{%s}' % ','.join(_COMMANDS)} [-h] ..."


def _help(command) -> int:
    if command is None:
        about = "submodule lattices of finite Z_n-modules, their graphs and checks; commands:"
        rows = [f"  {name:<10} {spec[1]}" for name, spec in _COMMANDS.items()]
    else:
        _, about, options = _COMMANDS[command]
        rows = []
        for name, default, kind, text in (_HELP, *options):
            value = ("" if kind is None else " {%s}" % ",".join(kind)
                     if isinstance(kind, tuple) else " " + name.upper())
            note = " (required)" if default is ... else f" (default {default})" if default else ""
            rows.append(f"  --{name.replace('_', '-')}{value}\n      {text}{note}")
    sys.stdout.write("\n".join([_usage(command), "", about, *rows]) + "\n")
    return 0


def _parse(argv):
    """The options of argv's command, or the exit code after help (0) or a
    usage error (2).  As in argparse: `--opt value` or `--opt=value`, a
    unique prefix for an option, the last of a repeated option wins."""
    command, table, values, stray, j = None, {"-h": _HELP, "--help": _HELP}, {}, [], 0
    try:
        hits = [_option(token, table) for token in argv]
        while j < len(argv):
            hit, token, j = hits[j], argv[j], j + 1
            if hit is None and command is None:
                if token not in _COMMANDS:
                    raise ValueError(f"argument command: invalid choice: {token!r}")
                command, options = token, _COMMANDS[token][2]
                table.update(("--" + option[0].replace("_", "-"), option) for option in options)
                values = {option[0]: option[1] for option in options}
                hits[j:] = [_option(rest, table) for rest in argv[j:]]
            elif not (hit and hit[0]):
                stray.append(token)
            else:
                (name, _, kind, _), value = table[hit[0]], hit[1]
                if kind is None:  # -h/--help or a flag, which take no value
                    if value is not None:
                        raise ValueError(f"argument {hit[0]}: ignored value {value!r}")
                    if name == "help":
                        return _help(command)
                    value = True
                elif value is None:
                    if j == len(argv) or hits[j] is not None:
                        raise ValueError(f"argument {hit[0]}: expected one argument")
                    value, j = argv[j], j + 1
                if isinstance(kind, tuple) and value not in kind:
                    raise ValueError(f"argument {hit[0]}: invalid choice: {value!r}")
                try:
                    values[name] = int(value) if kind is int else value
                except ValueError:
                    raise ValueError(f"argument {hit[0]}: invalid int value: {value!r}") from None
        missing = ", ".join(f"--{name.replace('_', '-')}" for name, value in values.items()
                            if value is ...) if command else "command"
        if missing or stray:
            raise ValueError(f"the following arguments are required: {missing}" if missing
                             else f"unrecognized arguments: {' '.join(stray)}")
    except ValueError as exc:
        sys.stderr.write(f"{_usage(command)}\nmodgraphs: error: {exc}\n")
        return 2
    return SimpleNamespace(command=command, **values)


def dispatch(argv) -> int:
    """Parse and run; returns the process exit code instead of raising."""
    args = _parse(list(argv))
    if isinstance(args, int):
        return args
    try:
        return _COMMANDS[args.command][0](args)
    except (DescriptorError, OSError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeGuardError) else 2


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
