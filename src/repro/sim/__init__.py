"""Bit-parallel simulation: pattern pools and the shared simulation engine."""

from .engine import PatternPool, SimEngine, simulate_words

__all__ = ["PatternPool", "SimEngine", "simulate_words"]
