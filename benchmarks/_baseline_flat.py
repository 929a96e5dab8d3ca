"""Frozen object-walking hot paths, for benchmark comparison only.

Verbatim copies of the three object-walking consumers that the current
readers (the flat cut database, the compiled simulation program and the
builder-list Tseitin encoder) replaced, re-frozen from the revisions that
preceded them:

* :func:`baseline_enumerate_cuts` — the seed priority-cut enumerator
  (per-cut ``Cut`` objects, tuple-merge leaf unions, an eager truth table
  for *every* candidate cut before dominance filtering);
* :func:`baseline_simulate_words` — the seed bit-parallel simulator
  (per-node ``node_type`` / ``fanins`` method dispatch, a closure call per
  fanin literal);
* :class:`BaselineCnfBuilder` — the earlier Tseitin encoder (dict-based
  node→var map, per-gate method calls).

``bench_cuts.py`` and ``bench_flat.py`` time these against the current
paths and assert bit-identical outputs.  Do not use outside benchmarks.
"""

from typing import Dict, List, Sequence, Tuple

from repro.networks.base import GateType, LogicNetwork
from repro.truth.truth_table import TruthTable

__all__ = [
    "baseline_enumerate_cuts",
    "baseline_simulate_words",
    "BaselineCnfBuilder",
]


# --------------------------------------------------------------------- #
# seed cut enumeration (object cuts, eager truth tables)                 #
# --------------------------------------------------------------------- #

class Cut:
    """The seed's cut object: a leaf tuple, the root's function over the
    leaves, the root node and its phase."""

    __slots__ = ("leaves", "tt", "root", "phase")

    def __init__(self, leaves: Tuple[int, ...], tt: TruthTable, root: int,
                 phase: bool = False):
        self.leaves = leaves
        self.tt = tt
        self.root = root
        self.phase = phase

    def dominates(self, other: "Cut") -> bool:
        """True if this cut's leaves are a subset of the other's."""
        return set(self.leaves) <= set(other.leaves)


# cache: (positions, num_vars) -> minterm index map
_INDEX_MAPS: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}


def _expand_tt(tt: TruthTable, positions: Sequence[int], num_vars: int) -> int:
    """Re-express ``tt`` over a larger variable set (seed implementation)."""
    key = (tuple(positions), num_vars)
    idx = _INDEX_MAPS.get(key)
    if idx is None:
        idx = []
        for m in range(1 << num_vars):
            src = 0
            for i, p in enumerate(key[0]):
                if (m >> p) & 1:
                    src |= 1 << i
            idx.append(src)
        idx = tuple(idx)
        _INDEX_MAPS[key] = idx
    bits = 0
    src_bits = tt.bits
    for m, s in enumerate(idx):
        if (src_bits >> s) & 1:
            bits |= 1 << m
    return bits


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


def _apply_gate(gate: GateType, vals: List[int], mask: int) -> int:
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


def baseline_enumerate_cuts(ntk: LogicNetwork, k: int = 6,
                            cut_limit: int = 8) -> List[List[Cut]]:
    """The seed priority-cut enumeration (no choice support needed here)."""
    n_total = ntk.num_nodes()
    cuts: List[List[Cut]] = [[] for _ in range(n_total)]

    for node in range(n_total):
        t = ntk.node_type(node)
        if t == GateType.CONST:
            cuts[node] = [Cut((), TruthTable(0, 0), node)]
            continue
        if t == GateType.PI:
            cuts[node] = [Cut((node,), TruthTable.var(1, 0), node)]
            continue

        fis = ntk.fanins(node)
        fanin_cut_sets = [cuts[f >> 1] for f in fis]
        fanin_phases = [f & 1 for f in fis]
        new_cuts: List[Cut] = []
        seen = set()

        def consider(leaf_combo: List[Cut]):
            leaves: Tuple[int, ...] = ()
            for c in leaf_combo:
                merged = _merge_leaves(leaves, c.leaves, k)
                if merged is None:
                    return
                leaves = merged
            if leaves in seen:
                return
            seen.add(leaves)
            nv = len(leaves)
            pos_of = {leaf: i for i, leaf in enumerate(leaves)}
            mask = (1 << (1 << nv)) - 1
            vals = []
            for c, ph in zip(leaf_combo, fanin_phases):
                positions = [pos_of[leaf] for leaf in c.leaves]
                bits = _expand_tt(c.tt, positions, nv)
                if ph:
                    bits ^= mask
                vals.append(bits)
            out = _apply_gate(t, vals, mask) & mask
            new_cuts.append(Cut(leaves, TruthTable(nv, out), node))

        # cartesian merge of fanin cut sets
        if len(fis) == 2:
            for c0 in fanin_cut_sets[0]:
                for c1 in fanin_cut_sets[1]:
                    consider([c0, c1])
        else:
            for c0 in fanin_cut_sets[0]:
                for c1 in fanin_cut_sets[1]:
                    for c2 in fanin_cut_sets[2]:
                        consider([c0, c1, c2])

        # drop dominated cuts (a cut is useless if another cut's leaves are a
        # strict subset)
        filtered: List[Cut] = []
        new_cuts.sort(key=lambda c: len(c.leaves))
        for c in new_cuts:
            if any(f.dominates(c) for f in filtered):
                continue
            filtered.append(c)

        filtered = filtered[: cut_limit - 1]
        filtered.append(Cut((node,), TruthTable.var(1, 0), node))  # trivial
        cuts[node] = filtered

    return cuts


# --------------------------------------------------------------------- #
# seed bit-parallel simulation (per-node method dispatch)                #
# --------------------------------------------------------------------- #

def baseline_simulate_words(ntk: LogicNetwork, pi_patterns: Sequence[int],
                            mask: int) -> List[int]:
    """The seed simulator: one type dispatch and fanin walk per node."""
    if len(pi_patterns) != ntk.num_pis():
        raise ValueError("pattern count must equal PI count")
    vals = [0] * ntk.num_nodes()
    for i, n in enumerate(ntk.pis):
        vals[n] = pi_patterns[i] & mask

    def v(literal: int) -> int:
        x = vals[literal >> 1]
        return x ^ mask if literal & 1 else x

    for n in range(ntk.num_nodes()):
        t = ntk.node_type(n)
        if t == GateType.AND:
            a, b = ntk.fanins(n)
            vals[n] = v(a) & v(b)
        elif t == GateType.XOR:
            a, b = ntk.fanins(n)
            vals[n] = v(a) ^ v(b)
        elif t == GateType.MAJ:
            a, b, c = (v(f) for f in ntk.fanins(n))
            vals[n] = (a & b) | (a & c) | (b & c)
        elif t == GateType.XOR3:
            a, b, c = (v(f) for f in ntk.fanins(n))
            vals[n] = a ^ b ^ c
    return vals


# --------------------------------------------------------------------- #
# pre-flat Tseitin encoding (dict node->var map, per-gate method calls)  #
# --------------------------------------------------------------------- #

class BaselineCnfBuilder:
    """The pre-flat CNF builder, frozen for benchmark comparison."""

    def __init__(self):
        self.clauses: List[List[int]] = []
        self.num_vars = 0

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: List[int]) -> None:
        self.clauses.append(list(lits))

    def encode(self, ntk: LogicNetwork,
               pi_vars: Dict[int, int] = None) -> Tuple[Dict[int, int], List[int]]:
        """Encode a network; returns (node→var map, PO signed literals)."""
        var_of: Dict[int, int] = {}
        const_var = self.new_var()
        self.add_clause([-const_var])  # node 0 is constant false
        var_of[0] = const_var
        for i, n in enumerate(ntk.pis):
            if pi_vars is not None and i in pi_vars:
                var_of[n] = pi_vars[i]
            else:
                var_of[n] = self.new_var()

        def sl(literal: int) -> int:
            v = var_of[literal >> 1]
            return -v if literal & 1 else v

        for n in ntk.gates():
            out = self.new_var()
            var_of[n] = out
            fis = [sl(f) for f in ntk.fanins(n)]
            t = ntk.node_type(n)
            if t == GateType.AND:
                a, b = fis
                self.add_clause([-out, a])
                self.add_clause([-out, b])
                self.add_clause([out, -a, -b])
            elif t == GateType.XOR:
                a, b = fis
                self.add_clause([-out, a, b])
                self.add_clause([-out, -a, -b])
                self.add_clause([out, -a, b])
                self.add_clause([out, a, -b])
            elif t == GateType.MAJ:
                a, b, c = fis
                self.add_clause([-out, a, b])
                self.add_clause([-out, a, c])
                self.add_clause([-out, b, c])
                self.add_clause([out, -a, -b])
                self.add_clause([out, -a, -c])
                self.add_clause([out, -b, -c])
            elif t == GateType.XOR3:
                a, b, c = fis
                # out = a ^ b ^ c: forbid all even-parity mismatches
                self.add_clause([-out, a, b, c])
                self.add_clause([-out, -a, -b, c])
                self.add_clause([-out, -a, b, -c])
                self.add_clause([-out, a, -b, -c])
                self.add_clause([out, -a, b, c])
                self.add_clause([out, a, -b, c])
                self.add_clause([out, a, b, -c])
                self.add_clause([out, -a, -b, -c])
            else:
                raise ValueError(f"cannot encode gate type {t}")

        po_lits = [sl(p) for p in ntk.pos]
        return var_of, po_lits
