"""k-feasible cut enumeration with cut functions."""

from .database import CutDatabase
from .enumeration import expand_cache_stats

__all__ = [
    "CutDatabase",
    "expand_cache_stats",
]
