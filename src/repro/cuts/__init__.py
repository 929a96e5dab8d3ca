"""k-feasible cut enumeration with cut functions."""

from .database import CutDatabase
from .enumeration import expand_cache_stats, expand_tt

__all__ = [
    "CutDatabase",
    "expand_tt",
    "expand_cache_stats",
]
