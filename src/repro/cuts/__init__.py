"""k-feasible cut enumeration with cut functions."""

from .cut import Cut
from .database import CutDatabase
from .enumeration import enumerate_cuts, expand_cache_stats, expand_tt

__all__ = [
    "Cut",
    "CutDatabase",
    "enumerate_cuts",
    "expand_tt",
    "expand_cache_stats",
]
