"""Flat priority-cut database with local-mask merging.

One :class:`CutDatabase` holds every cut of a network in parallel flat
arrays — interned leaf tuples and truth tables as raw ints — computed once
and shared by all mapper passes and consumers (LUT mapper, ASIC Boolean
matcher, graph mapper, MCH candidate generation).

Compared to the original per-mapper enumeration this builder is lazy and
mask-driven:

* merged leaf sets are deduplicated and dominance-filtered **before** any
  truth table is computed, so cut functions are evaluated only for the at
  most ``cut_limit - 1`` cuts that survive per node;
* each node's merge runs on *local* leaf masks: the leaves of all its fanin
  cuts (at most ``fanins * cut_limit * k`` nodes) get dense bit positions
  in ascending node order, so union, k-bound, dedupe and the exact subset
  test are single int ops on masks only as wide as that merge needs,
  however large the network is;
* leaf tuples are interned, so equal leaf sets across nodes share one object
  and the database's memory stays proportional to the number of *distinct*
  leaf sets.

The legacy ``enumerate_cuts`` API is a thin list-of-:class:`Cut` view over
this database (see :func:`repro.cuts.enumeration.enumerate_cuts`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..networks.base import GateType
from ..truth.truth_table import TruthTable
from .cut import Cut
from .enumeration import _expand_bits

__all__ = ["CutDatabase"]

_VAR1_BITS = 2  # TruthTable.var(1, 0).bits — the single-variable projection


def _mask_leaves(mask: int, universe: List[int]) -> Tuple[int, ...]:
    """The leaf tuple of a local mask; ascending since ``universe`` is sorted."""
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


# gate kinds as plain ints (comparing ints keeps IntEnum overhead out of
# the enumeration loop)
_CONST = int(GateType.CONST)
_PI = int(GateType.PI)


class CutDatabase:
    """All priority cuts of one network in flat parallel arrays.

    ``spans[node] == (start, end)`` indexes the node's cut records inside the
    flat arrays; the trivial cut of a gate node is always the last record of
    its span.  :meth:`cuts` materializes (and memoizes) the node's records as
    :class:`Cut` objects for consumers that want the object view.
    """

    __slots__ = (
        "ntk", "k", "cut_limit", "network_version",
        "leaves", "tt_bits", "tt_vars", "root", "phase",
        "spans", "stats", "_materialized", "_intern",
    )

    def __init__(self, ntk, k: int = 6, cut_limit: int = 8,
                 nodes: Optional[Sequence[int]] = None,
                 order: Optional[Sequence[int]] = None,
                 choices: Optional[Dict[int, List[Tuple[int, bool]]]] = None):
        self.ntk = ntk
        self.k = k
        self.cut_limit = cut_limit
        self.network_version = getattr(ntk, "version", 0)

        n_total = ntk.num_nodes()
        # flat per-cut arrays
        self.leaves: List[Tuple[int, ...]] = []
        self.tt_bits: List[int] = []
        self.tt_vars: List[int] = []
        self.root: List[int] = []
        self.phase: List[bool] = []
        # per-node (start, end) spans into the flat arrays
        self.spans: List[Tuple[int, int]] = [(0, 0)] * n_total
        self._materialized: List[Optional[List[Cut]]] = [None] * n_total
        self._intern: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # subset_checks counts pairwise dominance comparisons, each one exact
        # subset test on the merge's local leaf masks
        self.stats: Dict[str, int] = {
            "nodes": 0, "cuts": 0, "candidates": 0, "dominated": 0,
            "subset_checks": 0,
        }
        self._build(nodes, order, choices)
        self.stats["cuts"] = len(self.leaves)
        self.stats["distinct_leaf_sets"] = len(self._intern)

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    def _build(self, nodes, order, choices) -> None:
        ntk = self.ntk
        k = self.k

        # the builder lists read directly: gate kinds as plain ints and the
        # fanin-literal tuples, so the enumeration loop below never calls a
        # network method
        kinds = list(map(int, ntk._types))
        fanins = ntk._fanins

        todo = None
        if nodes is not None:
            if choices is not None:
                raise ValueError("node restriction cannot be combined with choices")
            todo = set()
            stack = list(nodes)
            while stack:
                m = stack.pop()
                if m in todo:
                    continue
                todo.add(m)
                stack.extend(f >> 1 for f in ntk.fanins(m))

        # local aliases for the hot loop
        flat_leaves = self.leaves
        flat_bits = self.tt_bits
        flat_vars = self.tt_vars
        flat_root = self.root
        flat_phase = self.phase
        spans = self.spans
        intern = self._intern
        stats = self.stats
        limit = max(self.cut_limit - 1, 0)

        if order is None:
            order = ntk.topological_order()

        for node in order:
            if todo is not None and node not in todo:
                continue
            stats["nodes"] += 1
            start = len(flat_leaves)
            t = kinds[node]
            if t == _CONST:
                empty = intern.setdefault((), ())
                flat_leaves.append(empty)
                flat_bits.append(0)
                flat_vars.append(0)
                flat_root.append(node)
                flat_phase.append(False)
                spans[node] = (start, len(flat_leaves))
                continue
            if t == _PI:
                self._append_trivial(node)
                spans[node] = (start, len(flat_leaves))
                continue

            fis = fanins[node]
            fanin_phases = [f & 1 for f in fis]
            fanin_ranges = [spans[f >> 1] for f in fis]

            # -- candidate merge on local leaf masks --
            # the leaves of all fanin cuts get dense bit positions in
            # ascending node order, so a cut's leaf set is one small int:
            # the union is one ``|``, the k-bound one popcount and duplicate
            # detection one set probe, on masks as wide as this merge needs
            fanin_cuts = [flat_leaves[s:e] for s, e in fanin_ranges]
            universe = sorted({x for cls in fanin_cuts for cl in cls for x in cl})
            bit_of = {leaf: 1 << j for j, leaf in enumerate(universe)}.__getitem__
            local = [[sum(map(bit_of, cl)) for cl in cls] for cls in fanin_cuts]
            seen = set()
            cand: List[Tuple[int, Tuple[int, ...]]] = []
            if len(fis) == 2:
                (s0, _), (s1, _) = fanin_ranges
                masks0, masks1 = local
                for j0, m0 in enumerate(masks0):
                    for j1, m1 in enumerate(masks1):
                        merged = m0 | m1
                        if merged.bit_count() > k or merged in seen:
                            continue
                        seen.add(merged)
                        cand.append((merged, (s0 + j0, s1 + j1)))
            else:
                (s0, _), (s1, _), (s2, _) = fanin_ranges
                masks0, masks1, masks2 = local
                for j0, m0 in enumerate(masks0):
                    for j1, m1 in enumerate(masks1):
                        m01 = m0 | m1
                        if m01.bit_count() > k:
                            continue
                        for j2, m2 in enumerate(masks2):
                            merged = m01 | m2
                            if merged.bit_count() > k or merged in seen:
                                continue
                            seen.add(merged)
                            cand.append((merged, (s0 + j0, s1 + j1, s2 + j2)))
            stats["candidates"] += len(cand)

            # -- exact dominance on the masks, smallest cuts first --
            cand.sort(key=lambda c: c[0].bit_count())
            kept: List[Tuple[int, Tuple[int, ...]]] = []
            subset_checks = 0
            for mask, ids in cand:
                if len(kept) >= limit:
                    break
                not_mask = ~mask
                dominated = False
                for kmask, _ in kept:
                    subset_checks += 1
                    if not kmask & not_mask:   # kept leaves ⊆ candidate leaves
                        dominated = True
                        break
                if dominated:
                    stats["dominated"] += 1
                    continue
                kept.append((mask, ids))
            stats["subset_checks"] += subset_checks

            # -- truth tables, only for the survivors --
            for lmask, ids in kept:
                leaves = _mask_leaves(lmask, universe)
                nv = len(leaves)
                full = (1 << (1 << nv)) - 1
                pos_of = {leaf: i for i, leaf in enumerate(leaves)}
                vals = []
                for i, ph in zip(ids, fanin_phases):
                    cl = flat_leaves[i]
                    positions = tuple(pos_of[x] for x in cl)
                    bits = _expand_bits(flat_bits[i], positions, nv)
                    if ph:
                        bits ^= full
                    vals.append(bits)
                out = self._apply_gate(t, vals) & full
                flat_leaves.append(intern.setdefault(leaves, leaves))
                flat_bits.append(out)
                flat_vars.append(nv)
                flat_root.append(node)
                flat_phase.append(False)

            # -- Algorithm 3 (lines 2-8): absorb choice-node cuts into the
            # representative's cut set, normalized to the representative's
            # polarity.  The representative keeps its own cut budget; choice
            # cuts get an equal extra budget so good structural cuts are never
            # evicted by candidate cuts (and vice versa).
            if choices is not None and node in choices:
                seen_leafsets = {flat_leaves[i] for i in range(start, len(flat_leaves))}
                merged_ids: List[Tuple[int, bool]] = []
                for ch_node, ch_phase in choices[node]:
                    cs, ce = spans[ch_node]
                    for i in range(cs, ce):
                        cl = flat_leaves[i]
                        if len(cl) == 1 and cl[0] == node:
                            continue
                        if cl in seen_leafsets:
                            continue
                        seen_leafsets.add(cl)
                        merged_ids.append((i, ch_phase))
                merged_ids.sort(key=lambda e: len(flat_leaves[e[0]]), reverse=True)
                for i, ch_phase in merged_ids[: self.cut_limit]:
                    bits = flat_bits[i]
                    if ch_phase:
                        bits ^= (1 << (1 << flat_vars[i])) - 1
                    flat_leaves.append(flat_leaves[i])
                    flat_bits.append(bits)
                    flat_vars.append(flat_vars[i])
                    flat_root.append(flat_root[i])
                    flat_phase.append(ch_phase)

            self._append_trivial(node)
            spans[node] = (start, len(flat_leaves))

    def _append_trivial(self, node: int) -> None:
        leaves = self._intern.setdefault((node,), (node,))
        self.leaves.append(leaves)
        self.tt_bits.append(_VAR1_BITS)
        self.tt_vars.append(1)
        self.root.append(node)
        self.phase.append(False)

    @staticmethod
    def _apply_gate(gate: GateType, vals: List[int]) -> int:
        if gate == GateType.AND:
            return vals[0] & vals[1]
        if gate == GateType.XOR:
            return vals[0] ^ vals[1]
        if gate == GateType.MAJ:
            a, b, c = vals
            return (a & b) | (a & c) | (b & c)
        if gate == GateType.XOR3:
            return vals[0] ^ vals[1] ^ vals[2]
        raise ValueError(f"unsupported gate {gate}")

    # ------------------------------------------------------------------ #
    # views                                                               #
    # ------------------------------------------------------------------ #

    def num_cuts(self) -> int:
        return len(self.leaves)

    def cuts(self, node: int) -> List[Cut]:
        """The node's cut records as :class:`Cut` objects (memoized).

        The returned list (and its cuts) is shared between all consumers of
        the database — treat it as read-only.
        """
        got = self._materialized[node]
        if got is None:
            start, end = self.spans[node]
            got = [
                Cut(self.leaves[i],
                    TruthTable(self.tt_vars[i], self.tt_bits[i]),
                    self.root[i], self.phase[i])
                for i in range(start, end)
            ]
            self._materialized[node] = got
        return got

    def cut_lists(self) -> List[List[Cut]]:
        """Per-node cut lists for all nodes (the ``enumerate_cuts`` view)."""
        return [self.cuts(n) for n in range(len(self.spans))]

    def __repr__(self) -> str:
        return (f"<CutDatabase nodes={self.stats['nodes']} cuts={self.num_cuts()} "
                f"k={self.k} limit={self.cut_limit}>")
