"""Submodule lattices of finite Z_n-modules and the graphs they carry.

The library enumerates every submodule of a finite module over Z_n,
classifies each one (second, prime, minimal, maximal, large, small),
builds six graphs over the lattice, computes their invariants, and runs
a registry of machine checks relating lattice structure to graph shape
across whole families of modules.
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
from .checks import CHECKS, CHECKS_BY_ID, Check, CheckResult, evaluate_check
from .cli import dispatch, main
from .graphs import (
    GraphKind,
    GraphMetrics,
    GraphVertex,
    SimpleGraph,
    build_graph,
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
    "GraphVertex",
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
