"""Critical-path node classification (Algorithm 1, line 2).

The paper collects "PO nodes with logic depths greater than or equal to the
network logic depth * r, along with all nodes on paths from these POs to the
PIs".  We implement this with the usual slack formulation: a node is critical
when some PO-to-PI path through it has length at least ``r * depth``; i.e.
``level(n) + height(n) >= r * depth`` where ``height`` is the longest path
from ``n`` to any PO.  ``r = 1`` selects exactly the zero-slack (critical
path) nodes; smaller ``r`` widens the set, which is how MCH's delay-oriented
mode expands the range of level-optimized candidates; ``r > 1`` empties the
set (area-oriented mode).
"""

from __future__ import annotations

import math
from typing import List, Set

from ..networks.base import LogicNetwork

__all__ = ["critical_nodes", "node_heights"]


def node_heights(ntk: LogicNetwork) -> List[int]:
    """Longest path (in gate levels) from each node to any PO driver."""
    n = ntk.num_nodes()
    height = [-1] * n  # -1: not in any PO cone
    for p in ntk.pos:
        height[p >> 1] = max(height[p >> 1], 0)
    for m in range(n - 1, -1, -1):
        h = height[m]
        if h < 0 or not ntk.is_gate(m):
            continue
        for f in ntk.fanins(m):
            leaf = f >> 1
            if height[leaf] < h + 1:
                height[leaf] = h + 1
    return height


def critical_nodes(ntk: LogicNetwork, ratio: float) -> Set[int]:
    """Gate nodes lying on a PO-to-PI path of length >= ``ratio * depth``.

    Raises :class:`ValueError` for a ``ratio`` that is not finite: a NaN
    threshold would mark no node critical without complaint.
    """
    if not math.isfinite(ratio):
        raise ValueError(f"critical-path ratio must be finite, got {ratio!r}")
    depth = ntk.depth()
    if depth == 0:
        return set()
    threshold = ratio * depth
    levels = ntk.levels()
    height = node_heights(ntk)
    out = set()
    for m in ntk.gates():
        if height[m] >= 0 and levels[m] + height[m] >= threshold:
            out.add(m)
    return out
