"""Technology mapping: shared engine, K-LUT, ASIC standard cells, graph mapping."""

from .engine import (
    CostModel,
    LibraryCostModel,
    MappingCover,
    MappingSession,
    NpnCostModel,
    UnitCostModel,
    library_cost_model,
    run_cover,
)
from .lut_mapper import lut_map
from .graph_mapper import graph_map
from .library import Cell, Library, parse_genlib, write_genlib
from .asap7 import asap7_library
from .matcher import Match, MatchTable
from .asic_mapper import AsicMapper, asic_map
from .timing import LinearLoadModel, critical_path, sta

__all__ = [
    "MappingSession",
    "MappingCover",
    "CostModel",
    "UnitCostModel",
    "NpnCostModel",
    "LibraryCostModel",
    "library_cost_model",
    "run_cover",
    "lut_map",
    "graph_map",
    "Cell",
    "Library",
    "parse_genlib",
    "write_genlib",
    "asap7_library",
    "Match",
    "MatchTable",
    "AsicMapper",
    "asic_map",
    "LinearLoadModel",
    "critical_path",
    "sta",
]
