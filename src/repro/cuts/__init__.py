"""k-feasible cut enumeration with cut functions."""

from .cut import Cut
from .database import CutDatabase
from .enumeration import expand_cache_stats, expand_tt

__all__ = [
    "Cut",
    "CutDatabase",
    "expand_tt",
    "expand_cache_stats",
]
