"""Bit-parallel simulation engine with shared pattern pools.

One service replaces the private signature/simulation code that ``cec``,
``functional_classes``, ``resub`` and ``dch`` each used to carry:

* :class:`PatternPool` — a shared stimulus set, one packed word per PI.
  Pools start from seeded random patterns and *grow*: every SAT
  counterexample found by an :class:`~repro.sat.session.EquivalenceSession`
  is folded back in, so later simulation filtering gets sharper (the
  FRAIG-style sim/SAT refinement loop).
* :class:`SimEngine` — per-network simulation state over a pool.  The
  network is compiled once into a small *program*: gate operations batched
  by level and gate type, complements applied only where a fanin is
  actually inverted, so the hot loop is plain tuple unpacking and integer
  ops over arbitrarily wide words.  Refreshes are incremental: new patterns re-simulate only the
  appended columns, new nodes (networks are append-only DAGs) re-simulate
  only the dirty suffix.
* :func:`simulate_words` — the one-shot front used by
  :meth:`repro.networks.base.LogicNetwork.simulate_patterns`; compiled
  programs are cached per network so repeated one-shot simulations stay
  cheap.
"""

from __future__ import annotations

import bisect
import random
import weakref
from typing import Dict, List, Optional, Sequence

from ..networks.base import GateType

__all__ = ["PatternPool", "SimEngine", "simulate_words", "sim_stats",
           "reset_sim_stats"]

#: flat gate kinds are plain ints ordered (CONST, PI, AND, XOR, MAJ, XOR3),
#: so a program opcode is just ``kind - _GATE_MIN``
_GATE_MIN = int(GateType.AND)
_XOR = int(GateType.XOR)

_STAT_KEYS = (
    "programs_built", "program_nodes", "full_sims", "pattern_incr_sims",
    "node_incr_sims", "oneshot_sims", "patterns_added",
    "cex_recycled",
)

_GLOBAL_STATS: Dict[str, int] = {k: 0 for k in _STAT_KEYS}


def sim_stats() -> Dict[str, int]:
    """Aggregate simulation counters (surfaced by the CLI's ``--engine-stats``)."""
    return dict(_GLOBAL_STATS)


def reset_sim_stats() -> None:
    for k in _GLOBAL_STATS:
        _GLOBAL_STATS[k] = 0


class PatternPool:
    """Shared PI stimulus for bit-parallel simulation.

    Pattern ``j`` is bit ``j`` of every PI word; ``mask`` selects the valid
    bits.  The pool only ever grows, so signatures computed over it can be
    refreshed incrementally and never invalidate earlier distinctions.
    """

    def __init__(self, n_pis: int, n_patterns: int = 256, seed: int = 1):
        rng = random.Random(seed)
        self.n_pis = n_pis
        self.n_patterns = n_patterns
        #: one packed stimulus word per PI (bit j = pattern j)
        self.words: List[int] = [rng.getrandbits(n_patterns) for _ in range(n_pis)]

    @property
    def mask(self) -> int:
        return (1 << self.n_patterns) - 1

    def pattern(self, j: int) -> List[bool]:
        """The ``j``-th stimulus as a PI assignment."""
        return [bool((w >> j) & 1) for w in self.words]

    def add_pattern(self, assignment: Sequence[bool]) -> None:
        """Append one stimulus column (e.g. a SAT counterexample)."""
        if len(assignment) != self.n_pis:
            raise ValueError("assignment length must equal PI count")
        bit = 1 << self.n_patterns
        words = self.words
        for i, b in enumerate(assignment):
            if b:
                words[i] |= bit
        self.n_patterns += 1
        _GLOBAL_STATS["patterns_added"] += 1

    def add_counterexample(self, assignment: Sequence[bool]) -> None:
        """Fold a SAT counterexample into the pool (recycled as stimulus)."""
        self.add_pattern(assignment)
        _GLOBAL_STATS["cex_recycled"] += 1


class _Program:
    """A network compiled for simulation: per-level, per-gate-type op lists.

    Entry formats (complement flags are 0/1, applied by a flag-guarded XOR
    with the mask):  AND/XOR: ``(node, a, ac, b, bc)``;
    MAJ/XOR3: ``(node, a, ac, b, bc, c, cc)``.
    ``flat`` holds ``(opcode, entry)`` in node order for dirty-suffix
    re-simulation.
    """

    __slots__ = ("levels", "flat", "flat_nodes", "built_nodes")

    def __init__(self):
        self.levels: List[tuple] = []
        self.flat: List[tuple] = []
        #: node id per flat entry (ascending) — for dirty-suffix lookups
        self.flat_nodes: List[int] = []
        self.built_nodes = 0

    def extend(self, ntk) -> None:
        """Append program entries for nodes created since the last build.

        From-scratch builds iterate the network's flat snapshot — plain-int
        gate kinds and a contiguous fanin-literal array, so the opcode is
        ``kind - 2`` and no node objects are touched.  Incremental extends
        walk only the appended suffix of the builder lists, which keeps
        re-simulation O(delta) instead of re-snapshotting the network.
        """
        levels = self.levels
        flat = self.flat
        start = self.built_nodes
        end = ntk.num_nodes()
        if start == 0:
            snap = ntk.flat
            kinds = snap.kind
            fan = snap.fanin
            node_levels = snap.level
            for n in range(end):
                t = kinds[n]
                if t < _GATE_MIN:
                    continue  # PI / constant
                base = 3 * n
                a = fan[base]
                b = fan[base + 1]
                if t <= _XOR:
                    entry = (n, a >> 1, a & 1, b >> 1, b & 1)
                else:
                    c = fan[base + 2]
                    entry = (n, a >> 1, a & 1, b >> 1, b & 1, c >> 1, c & 1)
                op = t - _GATE_MIN
                lv = node_levels[n]
                while len(levels) <= lv:
                    levels.append(([], [], [], []))
                levels[lv][op].append(entry)
                flat.append((op, entry))
                self.flat_nodes.append(n)
        else:
            types = ntk._types
            fanins = ntk._fanins
            node_levels = ntk._levels
            for n in range(start, end):
                t = types[n]
                if t == GateType.AND or t == GateType.XOR:
                    a, b = fanins[n]
                    entry = (n, a >> 1, a & 1, b >> 1, b & 1)
                    op = 0 if t == GateType.AND else 1
                elif t == GateType.MAJ or t == GateType.XOR3:
                    a, b, c = fanins[n]
                    entry = (n, a >> 1, a & 1, b >> 1, b & 1, c >> 1, c & 1)
                    op = 2 if t == GateType.MAJ else 3
                else:
                    continue  # PI / constant
                lv = node_levels[n]
                while len(levels) <= lv:
                    levels.append(([], [], [], []))
                levels[lv][op].append(entry)
                flat.append((op, entry))
                self.flat_nodes.append(n)
        _GLOBAL_STATS["program_nodes"] += end - start
        self.built_nodes = end

    def run(self, vals: List[int], mask: int) -> None:
        """Evaluate all gates into ``vals`` (PIs/constants already set).

        Complements branch on the 0/1 flag instead of XOR-ing a zero mask:
        at wide pool widths every full-width big-int op costs a word-sized
        copy, so skipping the no-op XORs beats branchless arithmetic.
        """
        for ands, xors, majs, xor3s in self.levels:
            for n, a, ac, b, bc in ands:
                x = vals[a]
                if ac:
                    x = x ^ mask
                y = vals[b]
                if bc:
                    y = y ^ mask
                vals[n] = x & y
            for n, a, ac, b, bc in xors:
                if ac ^ bc:
                    vals[n] = vals[a] ^ vals[b] ^ mask
                else:
                    vals[n] = vals[a] ^ vals[b]
            for n, a, ac, b, bc, c, cc in majs:
                x = vals[a]
                if ac:
                    x = x ^ mask
                y = vals[b]
                if bc:
                    y = y ^ mask
                z = vals[c]
                if cc:
                    z = z ^ mask
                vals[n] = (x & y) | (x & z) | (y & z)
            for n, a, ac, b, bc, c, cc in xor3s:
                if ac ^ bc ^ cc:
                    vals[n] = vals[a] ^ vals[b] ^ vals[c] ^ mask
                else:
                    vals[n] = vals[a] ^ vals[b] ^ vals[c]

    def run_suffix(self, vals: List[int], mask: int, start_index: int) -> None:
        """Evaluate only the gates at flat positions >= ``start_index``.

        Node ids are topological (fanins first), so a suffix of the flat
        program is exactly the dirty cone of the appended nodes.
        """
        for op, entry in self.flat[start_index:]:
            if op == 0:
                n, a, ac, b, bc = entry
                x = vals[a]
                if ac:
                    x = x ^ mask
                y = vals[b]
                if bc:
                    y = y ^ mask
                vals[n] = x & y
            elif op == 1:
                n, a, ac, b, bc = entry
                if ac ^ bc:
                    vals[n] = vals[a] ^ vals[b] ^ mask
                else:
                    vals[n] = vals[a] ^ vals[b]
            elif op == 2:
                n, a, ac, b, bc, c, cc = entry
                x = vals[a]
                if ac:
                    x = x ^ mask
                y = vals[b]
                if bc:
                    y = y ^ mask
                z = vals[c]
                if cc:
                    z = z ^ mask
                vals[n] = (x & y) | (x & z) | (y & z)
            else:
                n, a, ac, b, bc, c, cc = entry
                if ac ^ bc ^ cc:
                    vals[n] = vals[a] ^ vals[b] ^ vals[c] ^ mask
                else:
                    vals[n] = vals[a] ^ vals[b] ^ vals[c]


#: one-shot program cache: network -> (_Program, flat gate count list not needed)
_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _program_for(ntk) -> _Program:
    prog = _PROGRAMS.get(ntk)
    if prog is None or prog.built_nodes > ntk.num_nodes():
        prog = _Program()
        _PROGRAMS[ntk] = prog
        _GLOBAL_STATS["programs_built"] += 1
    if prog.built_nodes < ntk.num_nodes():
        prog.extend(ntk)
    return prog


def simulate_words(ntk, pi_patterns: Sequence[int], mask: int) -> List[int]:
    """One-shot bit-parallel simulation; returns one packed word per node.

    This is the engine behind
    :meth:`repro.networks.base.LogicNetwork.simulate_patterns`; the compiled
    program is cached per network, so repeated one-shot calls only pay for
    the word-parallel gate ops.
    """
    pis = ntk._pis
    if len(pi_patterns) != len(pis):
        raise ValueError("pattern count must equal PI count")
    prog = _program_for(ntk)
    _GLOBAL_STATS["oneshot_sims"] += 1
    vals = [0] * ntk.num_nodes()
    for i, n in enumerate(pis):
        vals[n] = pi_patterns[i] & mask
    prog.run(vals, mask)
    return vals


class SimEngine:
    """Incremental bit-parallel simulation of one network over a pattern pool.

    :meth:`signatures` returns the per-node value words over every pattern
    currently in the pool, recomputing only what changed since the last
    refresh: appended patterns are simulated as a narrow delta and OR-merged,
    appended nodes are simulated via the flat program suffix.  The returned
    list is the engine's working buffer — treat it as read-only.
    """

    def __init__(self, ntk, pool: Optional[PatternPool] = None, *,
                 n_patterns: int = 256, seed: int = 1):
        self.ntk = ntk
        self.pool = pool if pool is not None else PatternPool(
            ntk.num_pis(), n_patterns, seed)
        if self.pool.n_pis != ntk.num_pis():
            raise ValueError("pool PI count must match the network")
        self._prog = _program_for(ntk)  # shared with one-shot simulation
        self._vals: Optional[List[int]] = None
        self._simmed_nodes = 0
        self._simmed_patterns = 0

    @property
    def mask(self) -> int:
        """Valid-bits mask matching the *current* pool width."""
        return self.pool.mask

    def signatures(self) -> List[int]:
        """Per-node signature words over the whole pool (refreshed lazily)."""
        self.refresh()
        return self._vals

    def node_signature(self, node: int) -> int:
        self.refresh()
        return self._vals[node]

    def literal_signature(self, literal: int) -> int:
        """Signature of a network literal (complement applied)."""
        self.refresh()
        x = self._vals[literal >> 1]
        return x ^ self.pool.mask if literal & 1 else x

    def refresh(self) -> None:
        ntk = self.ntk
        pool = self.pool
        nn = ntk.num_nodes()
        np_ = pool.n_patterns
        if self._vals is not None and self._simmed_nodes == nn \
                and self._simmed_patterns == np_:
            return
        prog = self._prog
        if prog.built_nodes < nn:
            prog.extend(ntk)
        mask = pool.mask
        pis = ntk._pis

        if self._vals is None or (nn > self._simmed_nodes
                                  and np_ > self._simmed_patterns):
            # first run, or both dimensions grew: full simulation
            vals = [0] * nn
            for i, n in enumerate(pis):
                vals[n] = pool.words[i] & mask
            prog.run(vals, mask)
            self._vals = vals
            _GLOBAL_STATS["full_sims"] += 1
        elif np_ > self._simmed_patterns:
            # pattern-incremental: simulate only the appended columns
            shift = self._simmed_patterns
            delta_mask = (1 << (np_ - shift)) - 1
            delta = [0] * nn
            for i, n in enumerate(pis):
                delta[n] = (pool.words[i] >> shift) & delta_mask
            prog.run(delta, delta_mask)
            vals = self._vals
            for n in range(nn):
                vals[n] |= delta[n] << shift
            _GLOBAL_STATS["pattern_incr_sims"] += 1
        elif nn > self._simmed_nodes:
            # node-incremental: networks are append-only, so only the new
            # suffix (the dirty cone of freshly created nodes) is dirty
            vals = self._vals
            vals.extend([0] * (nn - len(vals)))
            for i, n in enumerate(pis):
                vals[n] = pool.words[i] & mask
            dirty_from = bisect.bisect_left(prog.flat_nodes, self._simmed_nodes)
            prog.run_suffix(vals, mask, dirty_from)
            _GLOBAL_STATS["node_incr_sims"] += 1
        self._simmed_nodes = nn
        self._simmed_patterns = np_
