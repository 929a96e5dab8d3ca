"""Bit-parallel simulation engine with shared pattern pools.

One service replaces the private signature/simulation code that ``cec``,
``functional_classes``, ``resub`` and ``dch`` each used to carry:

* :class:`PatternPool` — a shared stimulus set, one packed word per PI.
  Pools start from seeded random patterns and *grow*: every SAT
  counterexample found by an :class:`~repro.sat.session.EquivalenceSession`
  is folded back in, so later simulation filtering gets sharper (the
  FRAIG-style sim/SAT refinement loop).
* :class:`SimEngine` — per-network simulation state over a pool.  The
  network is compiled once into a small *program*: one entry per gate in
  node (topological) order, complements applied only where a fanin is
  actually inverted, so the hot loop is plain tuple unpacking and integer
  ops over arbitrarily wide words.  The same node-order loop serves full
  and incremental runs: new patterns re-simulate only the appended
  columns, new nodes (networks are append-only DAGs) re-simulate only the
  dirty suffix of the program.
* :func:`simulate_words` — the one-shot front used by
  :meth:`repro.networks.base.LogicNetwork.simulate_patterns`; compiled
  programs are cached per network so repeated one-shot simulations stay
  cheap.
"""

from __future__ import annotations

import bisect
import random
import weakref
from typing import List, Optional, Sequence

from ..networks.base import GateType

__all__ = ["PatternPool", "SimEngine", "simulate_words"]

#: gate kinds as plain ints are ordered (CONST, PI, AND, XOR, MAJ, XOR3),
#: so a program opcode is just ``kind - _GATE_MIN``
_GATE_MIN = int(GateType.AND)
_XOR = int(GateType.XOR)


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


class _Program:
    """A network compiled for simulation: one op per gate, in node order.

    ``ops`` holds ``(opcode, entry)`` pairs; entry formats (complement
    flags are 0/1, applied by a flag-guarded XOR with the mask):
    AND/XOR: ``(node, a, ac, b, bc)``; MAJ/XOR3: ``(node, a, ac, b, bc, c, cc)``.
    """

    __slots__ = ("ops", "op_nodes", "built_nodes")

    def __init__(self):
        self.ops: List[tuple] = []
        #: node id per ``ops`` entry (ascending) — for dirty-suffix lookups
        self.op_nodes: List[int] = []
        self.built_nodes = 0

    def extend(self, ntk) -> None:
        """Append program entries for nodes created since the last build.

        One walk over the builder lists from ``built_nodes`` to the end
        serves both the from-scratch build and the dirty-suffix extend, so
        re-simulation after appends stays O(delta).  Gate kinds are read as
        plain ints, so the opcode is ``kind - 2``.
        """
        ops = self.ops
        op_nodes = self.op_nodes
        start = self.built_nodes
        end = ntk.num_nodes()
        fanins = ntk._fanins
        for n, t in enumerate(map(int, ntk._types[start:end]), start):
            if t < _GATE_MIN:
                continue  # PI / constant
            fis = fanins[n]
            a = fis[0]
            b = fis[1]
            if t <= _XOR:
                entry = (n, a >> 1, a & 1, b >> 1, b & 1)
            else:
                c = fis[2]
                entry = (n, a >> 1, a & 1, b >> 1, b & 1, c >> 1, c & 1)
            ops.append((t - _GATE_MIN, entry))
            op_nodes.append(n)
        self.built_nodes = end

    def run(self, vals: List[int], mask: int, start_index: int = 0) -> None:
        """Evaluate the gates at ``ops`` positions >= ``start_index`` into
        ``vals`` (PIs/constants already set).

        Node ids are topological (fanins first), so the whole program is a
        full simulation and a suffix of it is exactly the dirty cone of the
        appended nodes.  Complements branch on the 0/1 flag instead of
        XOR-ing a zero mask: at wide pool widths every full-width big-int op
        costs a word-sized copy, so skipping the no-op XORs beats branchless
        arithmetic.
        """
        ops = self.ops[start_index:] if start_index else self.ops
        for op, entry in ops:
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


#: one-shot program cache: network -> its compiled :class:`_Program`
_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _program_for(ntk) -> _Program:
    prog = _PROGRAMS.get(ntk)
    if prog is None or prog.built_nodes > ntk.num_nodes():
        prog = _Program()
        _PROGRAMS[ntk] = prog
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
    appended nodes are simulated via a suffix of the program.  The returned
    list is the engine's working buffer — treat it as read-only.  Later
    refreshes update that buffer in place, so a caller that needs a stable
    view across pool growth must copy the words it uses.
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
        elif nn > self._simmed_nodes:
            # node-incremental: networks are append-only, so only the new
            # suffix (the dirty cone of freshly created nodes) is dirty
            vals = self._vals
            vals.extend([0] * (nn - len(vals)))
            for i, n in enumerate(pis):
                vals[n] = pool.words[i] & mask
            dirty_from = bisect.bisect_left(prog.op_nodes, self._simmed_nodes)
            prog.run(vals, mask, dirty_from)
        self._simmed_nodes = nn
        self._simmed_patterns = np_
