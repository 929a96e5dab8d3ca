"""Bit-parallel simulation: pattern pools and the shared simulation engine."""

from .engine import (PatternPool, SimEngine, reset_sim_stats, sim_stats,
                     simulate_words)

__all__ = ["PatternPool", "SimEngine", "simulate_words", "sim_stats",
           "reset_sim_stats"]
