"""Priority-cut enumeration (Mishchenko et al., ICCAD'07).

For every node of a network this computes up to ``cut_limit`` k-feasible cuts
by merging the fanin cut sets, filtering dominated cuts, and attaching the
exact cut function as a truth table.  Cut functions are what both the
K-LUT mapper (LUT content) and the ASIC mapper (Boolean matching against
library cells) consume, and what MCH's multi-strategy resynthesis
(Algorithm 2) rewrites.

The actual enumeration engine lives in :mod:`repro.cuts.database` — a flat
:class:`~repro.cuts.database.CutDatabase` that merges cuts on local leaf
masks, shared by all mapper passes.  :func:`enumerate_cuts` is the stable list-of-``Cut`` view of
that database.

This module also owns the truth-table *expansion* machinery (re-expressing a
cut function over a merged leaf set).  Expansion index maps are memoized in a
bounded LRU cache; :func:`expand_cache_stats` exposes hit/miss/eviction
counters so long-running services can monitor it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

from ..truth.truth_table import TruthTable
from .cut import Cut

__all__ = [
    "enumerate_cuts",
    "expand_tt",
    "expand_cache_stats",
    "set_expand_cache_limit",
    "clear_expand_cache",
]

# LRU cache: (positions, num_vars) -> per-source-minterm destination masks.
# Entry ``masks[s]`` is the OR of ``1 << m`` over all destination minterms
# ``m`` that read source minterm ``s``, so applying an expansion is one mask
# OR per *set* source bit instead of one Python iteration per destination
# minterm.
_EXPAND_CACHE: "OrderedDict[Tuple[Tuple[int, ...], int], Tuple[int, ...]]" = OrderedDict()
_EXPAND_CACHE_LIMIT = 8192
_EXPAND_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _expand_masks(key: Tuple[Tuple[int, ...], int]) -> Tuple[int, ...]:
    """Destination masks for one (positions, num_vars) expansion, LRU-cached."""
    cache = _EXPAND_CACHE
    masks = cache.get(key)
    if masks is not None:
        _EXPAND_STATS["hits"] += 1
        cache.move_to_end(key)
        return masks
    _EXPAND_STATS["misses"] += 1
    positions, num_vars = key
    out = [0] * (1 << len(positions))
    for m in range(1 << num_vars):
        src = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << i
        out[src] |= 1 << m
    masks = tuple(out)
    cache[key] = masks
    while len(cache) > _EXPAND_CACHE_LIMIT:
        cache.popitem(last=False)
        _EXPAND_STATS["evictions"] += 1
    return masks


def _expand_bits(src_bits: int, positions: Tuple[int, ...], num_vars: int) -> int:
    """Raw-int core of :func:`expand_tt`; ``positions`` must be a tuple."""
    masks = _expand_masks((positions, num_vars))
    bits = 0
    while src_bits:
        low = src_bits & -src_bits
        bits |= masks[low.bit_length() - 1]
        src_bits ^= low
    return bits


def expand_tt(tt: TruthTable, positions: Sequence[int], num_vars: int) -> int:
    """Re-express ``tt`` over a larger variable set.

    ``positions[i]`` gives the new index of old variable ``i``.  Returns raw
    bits over ``num_vars`` variables.
    """
    return _expand_bits(tt.bits, tuple(positions), num_vars)


def expand_cache_stats() -> Dict[str, int]:
    """Counters of the expansion-mask LRU cache (the cache-stats hook)."""
    return {
        "hits": _EXPAND_STATS["hits"],
        "misses": _EXPAND_STATS["misses"],
        "evictions": _EXPAND_STATS["evictions"],
        "size": len(_EXPAND_CACHE),
        "limit": _EXPAND_CACHE_LIMIT,
    }


def set_expand_cache_limit(limit: int) -> None:
    """Re-bound the expansion cache; evicts LRU entries beyond ``limit``."""
    global _EXPAND_CACHE_LIMIT
    if limit < 1:
        raise ValueError("cache limit must be positive")
    _EXPAND_CACHE_LIMIT = limit
    while len(_EXPAND_CACHE) > _EXPAND_CACHE_LIMIT:
        _EXPAND_CACHE.popitem(last=False)
        _EXPAND_STATS["evictions"] += 1


def clear_expand_cache() -> None:
    """Drop all cached expansion masks and reset the counters."""
    _EXPAND_CACHE.clear()
    _EXPAND_STATS.update(hits=0, misses=0, evictions=0)


def _merge_leaves(a: Tuple[int, ...], b: Tuple[int, ...], k: int):
    """Sorted union of two leaf tuples, or None if it exceeds ``k``."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if len(out) > k:
            return None
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    if len(out) > k:
        return None
    return tuple(out)


def enumerate_cuts(ntk, k: int = 6, cut_limit: int = 8,
                   nodes: Sequence[int] = None, order: Sequence[int] = None,
                   choices: "Dict[int, List[Tuple[int, bool]]]" = None) -> List[List[Cut]]:
    """Compute priority cuts for every node.

    Returns ``cuts[node]`` — a list of at most ``cut_limit`` priority cuts
    followed by the trivial cut ``{node}``, which for gate nodes is **always
    the last element** of the list (kept last so the mapper can always fall
    back on it without it ever displacing a real cut from the budget).  Cut
    truth tables are exact.

    ``nodes`` optionally restricts computation to a node subset (plus their
    transitive fanin), used when only part of the network needs cuts.

    ``choices`` maps representative nodes to ``(choice_node, phase)`` pairs;
    when given (together with a compatible ``order``, normally
    :meth:`ChoiceNetwork.processing_order`), the cut set of each
    representative absorbs the cut sets of its choice nodes — the cut-merging
    step of the paper's Algorithm 3.  Merged cut truth tables are normalized
    to the representative's polarity, so downstream consumers never see the
    choice phase.
    """
    from .database import CutDatabase

    db = CutDatabase(ntk, k=k, cut_limit=cut_limit, nodes=nodes, order=order,
                     choices=choices)
    return db.cut_lists()
