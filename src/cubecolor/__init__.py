"""Exact tools for colorings of the cubical grid: monochromatic
components, rectilinear chain filling, and end-to-end certification of
the component-size volume bookkeeping."""

from .bounds import BoundsTable, bound_table, g_constant
from .chains import (
    INTEGER,
    MOD2,
    BoxCell,
    RectChain,
    boundary,
    fill,
    fundamental_chain,
    is_relative_cycle,
    lattice_cells,
    modulo_boundary,
    random_relative_cycle,
    sweep_slabs,
)
from .gridcolor import (
    ComponentReport,
    GridColoring,
    components,
    parse_coloring,
    spanning_report,
)
from .nervecontract import (
    AuditReport,
    Nerve,
    Part,
    ShiftedPartition,
    assemble_and_audit,
    build_shifted_partition,
    certify_coloring,
    contraction,
    mono_parts,
    nerve,
)
from .search import (
    SearchConfig,
    anneal,
    exhaustive_min,
    random_coloring,
    stripe_construction,
)

__all__ = [
    "AuditReport",
    "BoundsTable",
    "BoxCell",
    "ComponentReport",
    "GridColoring",
    "INTEGER",
    "MOD2",
    "Nerve",
    "Part",
    "RectChain",
    "SearchConfig",
    "ShiftedPartition",
    "anneal",
    "assemble_and_audit",
    "bound_table",
    "boundary",
    "build_shifted_partition",
    "certify_coloring",
    "components",
    "contraction",
    "exhaustive_min",
    "fill",
    "fundamental_chain",
    "g_constant",
    "is_relative_cycle",
    "lattice_cells",
    "modulo_boundary",
    "mono_parts",
    "nerve",
    "parse_coloring",
    "random_coloring",
    "random_relative_cycle",
    "spanning_report",
    "stripe_construction",
    "sweep_slabs",
]
