"""Submodule lattices of finite Z_n-modules and the graphs they carry.

The library enumerates every submodule of a finite module over Z_n,
classifies each one (second, prime, minimal, maximal, large, small),
builds six graphs over the lattice, computes their invariants, and runs
a registry of machine checks relating lattice structure to graph shape
across whole families of modules.

The check registry (`modgraphs.checks`) is imported on first use of one
of its names, so commands that run no check never compile it.
"""

from .algebra import (
    MAX_LATTICE_SIZE,
    MAX_MODULE_ORDER,
    DescriptorError,
    FiniteModule,
    ModuleProperties,
    Ring,
    SizeGuardError,
    Submodule,
    SubmoduleFlags,
    SubmoduleLattice,
    divisors,
    enumerate_submodules,
    parse_descriptor,
    prime_radical,
    second_socle,
    span,
)
from .cli import dispatch, main
from .graphs import (
    GraphKind,
    GraphMetrics,
    SimpleGraph,
    build_graph,
    domination_number,
    export_graph,
    graph_metrics,
)
from .harness import (
    DEFAULT_FAMILY,
    CheckReport,
    Instance,
    generate_family,
    run_suite,
    select_checks,
)

__version__ = "1.0.0"

_CHECK_NAMES = frozenset({"CHECKS", "CHECKS_BY_ID", "Check", "CheckResult", "evaluate_check"})


def __getattr__(name):
    if name not in _CHECK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks
    value = globals()[name] = getattr(checks, name)
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
    "SubmoduleFlags",
    "SubmoduleLattice",
    "build_graph",
    "dispatch",
    "divisors",
    "domination_number",
    "enumerate_submodules",
    "evaluate_check",
    "export_graph",
    "generate_family",
    "graph_metrics",
    "main",
    "parse_descriptor",
    "prime_radical",
    "run_suite",
    "second_socle",
    "select_checks",
    "span",
]
