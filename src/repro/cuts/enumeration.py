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
cut function over a merged leaf set).  Expansion masks are memoized in one
bounded :func:`functools.lru_cache`; :func:`expand_cache_stats` reports its
``cache_info()``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..truth.truth_table import TruthTable
from .cut import Cut

__all__ = [
    "enumerate_cuts",
    "expand_tt",
    "expand_cache_stats",
]


@lru_cache(maxsize=8192)
def _expand_masks(positions: Tuple[int, ...], num_vars: int) -> Tuple[int, ...]:
    """Per-source-minterm destination masks of one expansion.

    Entry ``masks[s]`` is the OR of ``1 << m`` over all destination minterms
    ``m`` that read source minterm ``s``, so applying an expansion is one
    mask OR per *set* source bit instead of one Python iteration per
    destination minterm.
    """
    out = [0] * (1 << len(positions))
    for m in range(1 << num_vars):
        src = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << i
        out[src] |= 1 << m
    return tuple(out)


def _expand_bits(src_bits: int, positions: Tuple[int, ...], num_vars: int) -> int:
    """Raw-int core of :func:`expand_tt`; ``positions`` must be a tuple."""
    masks = _expand_masks(positions, num_vars)
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
    """``cache_info()`` of the expansion-mask memo: hits/misses/maxsize/currsize."""
    return _expand_masks.cache_info()._asdict()


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
