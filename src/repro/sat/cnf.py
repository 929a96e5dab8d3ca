"""Tseitin CNF encoding of logic networks.

Consumers normally do not use this directly any more: an
:class:`~repro.sat.session.EquivalenceSession` owns one builder, encodes each
network once and answers every subsequent query incrementally.

The encoder walks the network's own builder lists (``_pis``, ``_types``,
``_fanins``, ``_pos``) once, so clause emission makes no per-node method
calls.  Variable numbering and clause order are exactly those of the
original object-walking encoder — one variable for the constant node, one per
PI in creation order, then one per gate in topological order, with the gate
clauses in fixed per-kind order — so encodings (and therefore solver
behaviour) are bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..networks.base import GateType, LogicNetwork

__all__ = ["CnfBuilder"]

_AND = int(GateType.AND)
_XOR = int(GateType.XOR)
_MAJ = int(GateType.MAJ)
_XOR3 = int(GateType.XOR3)


class CnfBuilder:
    """Incrementally encodes one or more networks into a shared CNF.

    PIs can be unified between networks (for miters) by passing an explicit
    PI-variable map to :meth:`encode`.
    """

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
        clauses = self.clauses
        nv = self.num_vars
        var_of: Dict[int, int] = {}
        nv += 1
        clauses.append([-nv])  # node 0 is constant false
        var_of[0] = nv
        for i, n in enumerate(ntk._pis):
            if pi_vars is not None and i in pi_vars:
                var_of[n] = pi_vars[i]
            else:
                nv += 1
                var_of[n] = nv
        fanins = ntk._fanins
        for n, t in enumerate(map(int, ntk._types)):
            if t < _AND:
                continue  # PI / constant
            nv += 1
            out = nv
            var_of[n] = out
            fis = fanins[n]
            f = fis[0]
            v = var_of[f >> 1]
            a = -v if f & 1 else v
            f = fis[1]
            v = var_of[f >> 1]
            b = -v if f & 1 else v
            if t == _AND:
                clauses.append([-out, a])
                clauses.append([-out, b])
                clauses.append([out, -a, -b])
            elif t == _XOR:
                clauses.append([-out, a, b])
                clauses.append([-out, -a, -b])
                clauses.append([out, -a, b])
                clauses.append([out, a, -b])
            elif t == _MAJ:
                f = fis[2]
                v = var_of[f >> 1]
                c = -v if f & 1 else v
                clauses.append([-out, a, b])
                clauses.append([-out, a, c])
                clauses.append([-out, b, c])
                clauses.append([out, -a, -b])
                clauses.append([out, -a, -c])
                clauses.append([out, -b, -c])
            elif t == _XOR3:
                f = fis[2]
                v = var_of[f >> 1]
                c = -v if f & 1 else v
                # out = a ^ b ^ c: forbid all even-parity mismatches
                clauses.append([-out, a, b, c])
                clauses.append([-out, -a, -b, c])
                clauses.append([-out, -a, b, -c])
                clauses.append([-out, a, -b, -c])
                clauses.append([out, -a, b, c])
                clauses.append([out, a, -b, c])
                clauses.append([out, a, b, -c])
                clauses.append([out, -a, -b, -c])
            else:
                raise ValueError(f"cannot encode gate type {GateType(t)}")
        self.num_vars = nv
        po_lits = []
        for p in ntk._pos:
            v = var_of[p >> 1]
            po_lits.append(-v if p & 1 else v)
        return var_of, po_lits
