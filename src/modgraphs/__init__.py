"""Submodule lattices of finite Z_n-modules and the graphs they carry.

The library enumerates every submodule of a finite module over Z_n,
classifies each one (second, prime, minimal, maximal, large, small),
builds six graphs over the lattice, computes their invariants, and runs
a registry of machine checks relating lattice structure to graph shape
across whole families of modules.

The check registry (`modgraphs.checks`) and the suite runner with the
graph invariants (`modgraphs.harness`) are imported on first use of one
of their names, so commands that run no check compile neither.
"""

from .algebra import (
    DEFAULT_FAMILY,
    MAX_LATTICE_SIZE,
    MAX_MODULE_ORDER,
    DescriptorError,
    FiniteModule,
    ModuleProperties,
    Ring,
    SizeGuardError,
    Submodule,
    SubmoduleLattice,
    divisors,
    enumerate_submodules,
    lattice_size,
    parse_descriptor,
    prime_radical,
    second_socle,
    span,
)
from .cli import dispatch, main
from .graphs import GraphKind, Instance, SimpleGraph, build_graph, export_graph

__version__ = "1.0.0"

# name -> the submodule that defines it, imported when the name is first read
_LAZY = {
    **dict.fromkeys(("CHECKS", "CHECKS_BY_ID", "Check", "CheckResult", "evaluate_check"),
                    "checks"),
    **dict.fromkeys(("CheckReport", "GraphMetrics", "check_results", "domination_number",
                     "generate_family", "graph_metrics", "report_pieces", "run_suite",
                     "select_checks"), "harness"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = [
    "CHECKS",
    "CHECKS_BY_ID",
    "Check",
    "CheckReport",
    "CheckResult",
    "DEFAULT_FAMILY",
    "DescriptorError",
    "FiniteModule",
    "GraphKind",
    "GraphMetrics",
    "Instance",
    "MAX_LATTICE_SIZE",
    "MAX_MODULE_ORDER",
    "ModuleProperties",
    "Ring",
    "SimpleGraph",
    "SizeGuardError",
    "Submodule",
    "SubmoduleLattice",
    "build_graph",
    "check_results",
    "dispatch",
    "divisors",
    "domination_number",
    "enumerate_submodules",
    "evaluate_check",
    "export_graph",
    "generate_family",
    "graph_metrics",
    "lattice_size",
    "main",
    "parse_descriptor",
    "prime_radical",
    "report_pieces",
    "run_suite",
    "second_socle",
    "select_checks",
    "span",
]
