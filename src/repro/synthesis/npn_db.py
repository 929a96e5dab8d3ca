"""NPN-class structure database with cost caching.

For a given target representation, :class:`NpnCostCache` answers "how many
gates / levels does it take to synthesize this function with method X?" by
probing the function's NPN canonical representative once in a scratch network
and caching the result.  NPN invariance holds because all representations use
free complemented edges, so input/output negations and permutations do not
change structure cost.

This powers the cut-cost model and the per-cut method selection of graph
mapping (``gm``) — the Python analogue of the precomputed 4-input NPN
structure libraries used by rewriting engines (Huang et al., FPT'13).  The
MCH strategy library does not consult it: Algorithm 2 builds a candidate
with every method of the strategy.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..networks.base import LogicNetwork
from ..truth.npn import canonicalize, semi_canonicalize
from ..truth.truth_table import TruthTable
from .factoring import SYNTHESIS_METHODS, synthesize_tt

__all__ = ["NpnCostCache"]


class NpnCostCache:
    """Per-representation synthesis cost oracle keyed by NPN class."""

    def __init__(self, rep_cls: Type[LogicNetwork]):
        self.rep_cls = rep_cls
        self._cost: Dict[Tuple[int, int, str], Tuple[int, int]] = {}
        self._best: Dict[Tuple[int, int, str], Tuple[str, int, int]] = {}

    def _canon_bits(self, tt: TruthTable) -> Tuple[int, int]:
        if tt.num_vars <= 4:
            canon, _ = canonicalize(tt)
        else:
            canon, _ = semi_canonicalize(tt)
        return tt.num_vars, canon.bits

    def cost(self, tt: TruthTable, method: str) -> Tuple[int, int]:
        """(gate count, depth) of synthesizing ``tt`` with ``method``."""
        nv, bits = self._canon_bits(tt)
        key = (nv, bits, method)
        cached = self._cost.get(key)
        if cached is not None:
            return cached
        probe = self.rep_cls()
        leaves = [probe.create_pi() for _ in range(nv)]
        out = synthesize_tt(probe, TruthTable(nv, bits), leaves, method=method)
        result = (probe.num_gates(), probe.level(out >> 1))
        self._cost[key] = result
        return result

    def best_method(self, tt: TruthTable, objective: str,
                    methods: Tuple[str, ...] = None) -> Tuple[str, int, int]:
        """Best synthesis method for ``tt``: returns (method, gates, depth).

        ``objective`` is ``'area'`` (lexicographic gates-then-depth) or
        ``'level'`` (depth-then-gates).
        """
        if objective not in ("area", "level"):
            raise ValueError("objective must be 'area' or 'level'")
        methods = methods or SYNTHESIS_METHODS
        nv, bits = self._canon_bits(tt)
        key = (nv, bits, objective) if methods == SYNTHESIS_METHODS else None
        if key is not None:
            cached = self._best.get(key)
            if cached is not None:
                return cached
        best = None
        for method in methods:
            gates, depth = self.cost(tt, method)
            rank = (gates, depth) if objective == "area" else (depth, gates)
            if best is None or rank < best[0]:
                best = (rank, method, gates, depth)
        result = (best[1], best[2], best[3])
        if key is not None:
            self._best[key] = result
        return result
