"""k-feasible cut enumeration with cut functions."""

from .cut import Cut
from .database import CutDatabase
from .enumeration import (
    clear_expand_cache,
    enumerate_cuts,
    expand_cache_stats,
    expand_tt,
    set_expand_cache_limit,
)

__all__ = [
    "Cut",
    "CutDatabase",
    "enumerate_cuts",
    "expand_tt",
    "expand_cache_stats",
    "set_expand_cache_limit",
    "clear_expand_cache",
]
