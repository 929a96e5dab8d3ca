"""Truth-table expansion for cut functions.

A cut's function is built from its fanin cuts' functions, each re-expressed
over the merged cut's larger leaf set.  Those functions are what both the
K-LUT mapper (LUT content) and the ASIC mapper (Boolean matching against
library cells) consume, and what MCH's multi-strategy resynthesis
(Algorithm 2) rewrites.

Priority-cut enumeration itself (Mishchenko et al., ICCAD'07) lives in
:mod:`repro.cuts.database`: one flat
:class:`~repro.cuts.database.CutDatabase` that merges cuts on local leaf
masks and evaluates their functions on demand, shared by all mapper passes.
It calls :func:`_expand_bits`, this module's one expansion routine, which
works on raw truth-table bits.

Expansion masks are memoized in one bounded :func:`functools.lru_cache`;
:func:`expand_cache_stats` reports its ``cache_info()``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

__all__ = ["expand_cache_stats"]


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
    """Re-express the function ``src_bits`` over a larger variable set.

    ``positions[i]`` (a tuple) gives the new index of old variable ``i``.
    Returns raw bits over ``num_vars`` variables.
    """
    masks = _expand_masks(positions, num_vars)
    bits = 0
    while src_bits:
        low = src_bits & -src_bits
        bits |= masks[low.bit_length() - 1]
        src_bits ^= low
    return bits


def expand_cache_stats() -> Dict[str, int]:
    """``cache_info()`` of the expansion-mask memo: hits/misses/maxsize/currsize."""
    return _expand_masks.cache_info()._asdict()
