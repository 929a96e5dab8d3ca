"""Synthesis strategies: structure builders, NPN cost DB, strategy library."""

from .factoring import (
    SYNTHESIS_METHODS,
    build_from_cubes,
    build_from_dsd,
    build_shannon,
    synthesize_tt,
)
from .npn_db import NpnCostCache
from .strategies import (
    AREA_STRATEGY,
    LEVEL_STRATEGY,
    StrategyLibrary,
    SynthesisStrategy,
    synthesize_candidates,
)

__all__ = [
    "SYNTHESIS_METHODS",
    "build_from_cubes",
    "build_from_dsd",
    "build_shannon",
    "synthesize_tt",
    "NpnCostCache",
    "SynthesisStrategy",
    "StrategyLibrary",
    "LEVEL_STRATEGY",
    "AREA_STRATEGY",
    "synthesize_candidates",
]
