"""Flat priority-cut database with local-mask merging.

One :class:`CutDatabase` holds every cut of a network in parallel flat
arrays — interned leaf tuples and truth tables as raw ints — built once
and shared by all mapper passes and consumers (LUT mapper, ASIC Boolean
matcher, graph mapper, MCH candidate generation).

Compared to the original per-mapper enumeration this builder is lazy and
mask-driven:

* merged leaf sets are deduplicated and dominance-filtered on masks alone,
  and the build computes no cut function: it records each survivor's
  derivation in one ``array('q')`` column (the positions of its fanin cuts
  in their fanins' spans, or the id of the choice cut it absorbed), and a
  function is evaluated the first time something reads it.
  LUT covering ranks cuts by their leaves alone, so it evaluates only the
  functions of the cuts it selects and of the cuts they derive from;
* each node's merge runs on *local* leaf masks: the leaves of all its fanin
  cuts (at most ``fanins * cut_limit * k`` nodes) get dense bit positions
  in ascending node order, so union, k-bound, dedupe and the exact subset
  test are single int ops on masks only as wide as that merge needs,
  however large the network is;
* leaf tuples are interned, so equal leaf sets across nodes share one object
  and the database's memory stays proportional to the number of *distinct*
  leaf sets.

A cut is an index into these arrays, and every consumer reads the columns
by index: ``leaves[i]``, ``tt_vars[i]``, ``function(i)``, ``root[i]`` and
``phase[i]``.  :meth:`CutDatabase.cuts` gives one node's index range.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..networks.base import GateType
from .enumeration import _expand_bits

__all__ = ["CutDatabase"]

_VAR1_BITS = 2  # TruthTable.var(1, 0).bits — the single-variable projection

# A merged cut's derivation is one int: the position of each fanin cut
# inside its fanin's span, _POS_BITS bits per fanin, fanin 0 lowest.  An
# absorbed choice cut stores ~source (negative).  A span holds at most
# 2 * cut_limit records, which bounds cut_limit.
_POS_BITS = 21
_POS_MASK = (1 << _POS_BITS) - 1
_MAX_CUT_LIMIT = 1 << (_POS_BITS - 1)


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
    its span.  A cut is its index ``i``: ``leaves[i]`` is the sorted leaf
    tuple, ``function(i)`` the raw bits of the root's function over those
    leaves (leaf ``leaves[i][v]`` is variable ``v`` of a ``tt_vars[i]``-input
    truth table), ``root[i]`` the node the cut belongs to and ``phase[i]``
    whether that root is the complement of the span's node (an absorbed
    choice cut, Algorithm 3).

    Cut functions are computed on demand: :meth:`function` evaluates one
    cut (and whatever it derives from), :attr:`tt_bits` all of them.
    ``stats["functions"]`` counts the functions evaluated so far.
    """

    __slots__ = (
        "ntk", "k", "cut_limit", "network_version",
        "leaves", "tt_vars", "root", "phase",
        "spans", "stats", "_intern",
        "_bits", "_deriv", "_pending", "_kinds", "_fanins",
    )

    def __init__(self, ntk, k: int = 6, cut_limit: int = 8,
                 order: Optional[Sequence[int]] = None,
                 choices: Optional[Dict[int, List[Tuple[int, bool]]]] = None):
        # below 2, a gate keeps only its trivial cut and no mapper can cover it
        if k < 2:
            raise ValueError(f"k must be at least 2, got {k}")
        if not 2 <= cut_limit <= _MAX_CUT_LIMIT:
            raise ValueError(f"cut_limit must be in [2, {_MAX_CUT_LIMIT}], got {cut_limit}")
        self.ntk = ntk
        self.k = k
        self.cut_limit = cut_limit
        self.network_version = getattr(ntk, "version", 0)

        n_total = ntk.num_nodes()
        # flat per-cut arrays; ``_bits[i]`` is None until cut i is evaluated
        self.leaves: List[Tuple[int, ...]] = []
        self._bits: List[Optional[int]] = []
        self.tt_vars: List[int] = []
        self.root: List[int] = []
        self.phase: List[bool] = []
        # per-node (start, end) spans into the flat arrays
        self.spans: List[Tuple[int, int]] = [(0, 0)] * n_total
        self._intern: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # one derivation per cut (see _POS_BITS); every cut it names has a
        # lower index.  Constant and trivial cuts store 0: their functions
        # are stored at build time.
        self._deriv = array("q")
        # subset_checks counts pairwise dominance comparisons, each one exact
        # subset test on the merge's local leaf masks
        self.stats: Dict[str, int] = {
            "nodes": 0, "cuts": 0, "candidates": 0, "dominated": 0,
            "subset_checks": 0, "functions": 0,
        }
        self._build(order, choices)
        self._pending = self._bits.count(None)
        self.stats["cuts"] = len(self.leaves)
        self.stats["distinct_leaf_sets"] = len(self._intern)

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    def _build(self, order, choices) -> None:
        ntk = self.ntk
        k = self.k

        # the builder lists read directly: gate kinds as plain ints and the
        # fanin-literal tuples, so the enumeration loop below never calls a
        # network method
        kinds = list(map(int, ntk._types))
        fanins = ntk._fanins
        # snapshots for evaluation: callers such as ``mch`` append nodes to
        # the network between building the database and reading it
        self._kinds = kinds
        self._fanins = list(fanins)

        # local aliases for the hot loop
        flat_leaves = self.leaves
        flat_bits = self._bits
        flat_vars = self.tt_vars
        flat_root = self.root
        flat_phase = self.phase
        deriv_append = self._deriv.append
        spans = self.spans
        intern = self._intern
        stats = self.stats
        limit = self.cut_limit - 1

        if order is None:
            order = ntk.topological_order()

        for node in order:
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
                deriv_append(0)
                spans[node] = (start, len(flat_leaves))
                continue
            if t == _PI:
                self._append_trivial(node)
                spans[node] = (start, len(flat_leaves))
                continue

            fis = fanins[node]
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
            cand: List[Tuple[int, int]] = []
            if len(fis) == 2:
                masks0, masks1 = local
                for j0, m0 in enumerate(masks0):
                    for j1, m1 in enumerate(masks1):
                        merged = m0 | m1
                        if merged.bit_count() > k or merged in seen:
                            continue
                        seen.add(merged)
                        cand.append((merged, j0 | (j1 << _POS_BITS)))
            else:
                masks0, masks1, masks2 = local
                for j0, m0 in enumerate(masks0):
                    for j1, m1 in enumerate(masks1):
                        m01 = m0 | m1
                        if m01.bit_count() > k:
                            continue
                        code01 = j0 | (j1 << _POS_BITS)
                        for j2, m2 in enumerate(masks2):
                            merged = m01 | m2
                            if merged.bit_count() > k or merged in seen:
                                continue
                            seen.add(merged)
                            cand.append((merged, code01 | (j2 << 2 * _POS_BITS)))
            stats["candidates"] += len(cand)

            # -- exact dominance on the masks, smallest cuts first --
            cand.sort(key=lambda c: c[0].bit_count())
            kept: List[Tuple[int, int]] = []
            subset_checks = 0
            for mask, code in cand:
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
                kept.append((mask, code))
            stats["subset_checks"] += subset_checks

            # -- the survivors, with their derivations --
            for lmask, code in kept:
                leaves = _mask_leaves(lmask, universe)
                flat_leaves.append(intern.setdefault(leaves, leaves))
                flat_bits.append(None)
                flat_vars.append(len(leaves))
                flat_root.append(node)
                flat_phase.append(False)
                deriv_append(code)

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
                    flat_leaves.append(flat_leaves[i])
                    flat_bits.append(None)
                    flat_vars.append(flat_vars[i])
                    flat_root.append(flat_root[i])
                    flat_phase.append(ch_phase)
                    deriv_append(~i)

            self._append_trivial(node)
            spans[node] = (start, len(flat_leaves))

    def _append_trivial(self, node: int) -> None:
        leaves = self._intern.setdefault((node,), (node,))
        self.leaves.append(leaves)
        self._bits.append(_VAR1_BITS)
        self.tt_vars.append(1)
        self.root.append(node)
        self.phase.append(False)
        self._deriv.append(0)

    # ------------------------------------------------------------------ #
    # cut functions, on demand                                            #
    # ------------------------------------------------------------------ #

    def _sources(self, i: int) -> List[int]:
        """The ids of the cuts that cut ``i`` is derived from."""
        code = self._deriv[i]
        if code < 0:
            return [~code]
        spans = self.spans
        out = []
        for f in self._fanins[self.root[i]]:
            out.append(spans[f >> 1][0] + (code & _POS_MASK))
            code >>= _POS_BITS
        return out

    def _evaluate(self, ids: Iterable[int]) -> None:
        """Compute the functions of the unevaluated cuts ``ids``, ascending.

        Every derivation source of a cut must already be evaluated or come
        earlier in ``ids``.
        """
        bits_of = self._bits
        leaves_of = self.leaves
        deriv = self._deriv
        spans = self.spans
        root = self.root
        phase = self.phase
        kinds = self._kinds
        fanins = self._fanins
        apply_gate = self._apply_gate
        count = 0
        for i in ids:
            code = deriv[i]
            leaves = leaves_of[i]
            nv = len(leaves)
            full = (1 << (1 << nv)) - 1
            if code < 0:               # absorbed choice cut
                out = bits_of[~code]
                if phase[i]:
                    out ^= full
            else:
                node = root[i]
                pos_of = {leaf: p for p, leaf in enumerate(leaves)}
                vals = []
                for f in fanins[node]:     # _sources, inlined for the sweep
                    c = spans[f >> 1][0] + (code & _POS_MASK)
                    code >>= _POS_BITS
                    bits = _expand_bits(bits_of[c],
                                        tuple(pos_of[x] for x in leaves_of[c]), nv)
                    if f & 1:
                        bits ^= full
                    vals.append(bits)
                out = apply_gate(kinds[node], vals) & full
            bits_of[i] = out
            count += 1
        self.stats["functions"] += count
        self._pending -= count
        if not self._pending:
            # every function is known: the derivations are no longer needed
            self._deriv = self._kinds = self._fanins = None

    def function(self, i: int) -> int:
        """The raw truth-table bits of cut ``i``, evaluated on first read.

        The cuts it derives from are collected with an explicit stack and
        evaluated in index order, so no read recurses, however deep the
        network.
        """
        bits_of = self._bits
        got = bits_of[i]
        if got is None:
            need = set()
            stack = [i]
            while stack:
                c = stack.pop()
                if c in need or bits_of[c] is not None:
                    continue
                need.add(c)
                stack.extend(self._sources(c))
            self._evaluate(sorted(need))
            got = bits_of[i]
        return got

    @property
    def tt_bits(self) -> List[int]:
        """Every cut's raw truth-table bits; evaluates all pending ones in
        one forward sweep."""
        if self._pending:
            self._evaluate(i for i, b in enumerate(self._bits) if b is None)
        return self._bits

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

    def cuts(self, node: int) -> range:
        """The indices of the node's cuts, in span order."""
        return range(*self.spans[node])

    def __repr__(self) -> str:
        return (f"<CutDatabase nodes={self.stats['nodes']} cuts={self.num_cuts()} "
                f"k={self.k} limit={self.cut_limit}>")
