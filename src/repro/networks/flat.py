"""Flat struct-of-arrays network core.

A :class:`FlatNetwork` is an immutable snapshot of a
:class:`~repro.networks.base.LogicNetwork` stored as contiguous parallel
buffers (stdlib :mod:`array`):

* ``kind``  — one byte per node (:class:`~repro.networks.base.GateType`);
* ``fanin`` — three literals per node, zero-padded (arity is implied by the
  gate kind), so consumers iterate fanin slots without touching node objects;
* ``level`` — the memoized logic level of every node;
* ``pis`` / ``pos`` — CI node indices and PO literals;
* ``ros`` / ``ris`` / ``rinit`` — register outputs (node indices, a subset of
  ``pis``), the paired next-state literals and the 0/1 initial values, so
  sequential networks survive snapshotting and hashing unchanged.

The flat core is what the hot consumers iterate: cut enumeration reads the
kind/fanin arrays directly, Tseitin encoding emits clauses straight from
them, and the simulation engine batches gates from the same data.  The
snapshot is an in-process read path only: networks cross process
boundaries as plain pickles.

Snapshots are exact: :meth:`to_network` restores a structurally identical
``LogicNetwork`` (same node numbering, levels, names, strash table), so
``FlatNetwork.from_network(n).to_network()`` round-trips to fingerprint
equality.  :meth:`structural_hash` is a cheap content hash over the raw
buffers, used as the snapshot key for cached equivalence sessions.

Mutation stays on ``LogicNetwork`` (its append-friendly builder lists);
``LogicNetwork.flat`` memoizes the snapshot per structural version, so
consumers of an unchanged network share one flat core.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Optional, Tuple

from .base import GateType, LogicNetwork

__all__ = ["FlatNetwork"]

#: fanin count per gate kind (CONST, PI, AND, XOR, MAJ, XOR3)
_ARITY = (0, 0, 2, 2, 3, 3)

_GATE_MIN = int(GateType.AND)  # kinds >= this are gates


def _rep_class(name: str) -> type:
    """Resolve a representation name recorded by :meth:`from_network`."""
    from . import Aig, MixedNetwork, Mig, Xag, Xmg

    return {
        "Aig": Aig, "Xag": Xag, "Mig": Mig, "Xmg": Xmg,
        "MixedNetwork": MixedNetwork, "LogicNetwork": LogicNetwork,
    }.get(name, MixedNetwork)


class FlatNetwork:
    """One logic network as flat parallel buffers (see module docstring)."""

    __slots__ = ("rep", "kind", "level", "fanin", "pis", "pos",
                 "ros", "ris", "rinit", "pi_names", "po_names", "_hash")

    def __init__(self, rep: str, kind: array, level: array, fanin: array,
                 pis: array, pos: array, pi_names: Tuple[str, ...],
                 po_names: Tuple[str, ...], ros: Optional[array] = None,
                 ris: Optional[array] = None, rinit: Optional[array] = None):
        self.rep = rep
        self.kind = kind            # array('B'), one GateType byte per node
        self.level = level          # array('q'), per-node logic level
        self.fanin = fanin          # array('q'), 3 literals per node, 0-padded
        self.pis = pis              # array('q'), CI node indices
        self.pos = pos              # array('q'), PO literals
        self.ros = ros if ros is not None else array("q")   # RO node indices
        self.ris = ris if ris is not None else array("q")   # RI literals
        self.rinit = rinit if rinit is not None else array("B")  # init values
        self.pi_names = pi_names
        self.po_names = po_names
        self._hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_network(cls, ntk: LogicNetwork) -> "FlatNetwork":
        """Snapshot a logic network into flat buffers (exact, name-preserving)."""
        flat_fanin = []
        for fis in ntk._fanins:
            k = len(fis)
            if k == 2:
                flat_fanin += (fis[0], fis[1], 0)
            elif k == 3:
                flat_fanin += fis
            else:
                flat_fanin += (0, 0, 0)
        return cls(
            rep=type(ntk).__name__,
            kind=array("B", bytes(map(int, ntk._types))),
            level=array("q", ntk._levels),
            fanin=array("q", flat_fanin),
            pis=array("q", ntk._pis),
            pos=array("q", ntk._pos),
            pi_names=tuple(ntk._pi_names),
            po_names=tuple(ntk._po_names),
            ros=array("q", ntk._ro_nodes),
            ris=array("q", ntk._ri_lits),
            rinit=array("B", ntk._ro_init),
        )

    def to_network(self, cls: Optional[type] = None) -> LogicNetwork:
        """Rebuild the exact :class:`LogicNetwork` this snapshot came from.

        The arrays came from a structurally-hashed network, so the rebuild
        bypasses the normalization rules and restores nodes verbatim —
        types, fanins, levels, names and the strash table all match the
        source, which makes the round trip fingerprint-identical.
        """
        if cls is None:
            cls = _rep_class(self.rep)
        ntk = cls()
        kinds = self.kind
        fan = self.fanin
        types = [GateType(k) for k in kinds]
        fanins = []
        strash = {}
        for node, k in enumerate(kinds):
            arity = _ARITY[k]
            base = 3 * node
            if arity == 2:
                fis = (fan[base], fan[base + 1])
            elif arity == 3:
                fis = (fan[base], fan[base + 1], fan[base + 2])
            else:
                fis = ()
            fanins.append(fis)
            if k >= _GATE_MIN:
                strash[(types[node], fis)] = node
        ntk._types = types
        ntk._fanins = fanins
        ntk._levels = list(self.level)
        ntk._pis = list(self.pis)
        ntk._pi_names = list(self.pi_names)
        ntk._pos = list(self.pos)
        ntk._po_names = list(self.po_names)
        ntk._ro_nodes = list(self.ros)
        ntk._ri_lits = list(self.ris)
        ntk._ro_init = list(self.rinit)
        ntk._strash = strash
        ntk._touch()
        return ntk

    # ------------------------------------------------------------------ #
    # shape                                                               #
    # ------------------------------------------------------------------ #

    def num_nodes(self) -> int:
        return len(self.kind)

    def num_pis(self) -> int:
        return len(self.pis)

    def num_pos(self) -> int:
        return len(self.pos)

    def num_registers(self) -> int:
        return len(self.ros)

    def num_gates(self) -> int:
        gate_min = _GATE_MIN
        return sum(1 for k in self.kind if k >= gate_min)

    def fanin_slots(self, node: int) -> Tuple[int, ...]:
        """The node's fanin literals (arity implied by its kind)."""
        base = 3 * node
        return tuple(self.fanin[base:base + _ARITY[self.kind[node]]])

    # ------------------------------------------------------------------ #
    # hashing                                                             #
    # ------------------------------------------------------------------ #

    def structural_hash(self) -> str:
        """Content hash of the structure (16 hex chars), cached.

        Covers representation, gate kinds, fanin literals, CI order, PO
        literals and the register arrays (RO/RI pairing and init values) — everything that determines the DAG — but not names or
        the derived levels.  Two networks with equal hashes have identical
        node numbering, so solver/simulation state computed against one is
        valid for the other.  (Byte order is the platform's: hashes are
        stable within one machine, which is all the snapshot caches need.)
        """
        h = self._hash
        if h is None:
            m = hashlib.sha256()
            m.update(self.rep.encode())
            m.update(b"|%d|%d|%d|%d|" % (len(self.kind), len(self.pis),
                                          len(self.pos), len(self.ros)))
            m.update(self.kind.tobytes())
            m.update(self.fanin.tobytes())
            m.update(self.pis.tobytes())
            m.update(self.pos.tobytes())
            m.update(self.ros.tobytes())
            m.update(self.ris.tobytes())
            m.update(self.rinit.tobytes())
            h = self._hash = m.hexdigest()[:16]
        return h

    # ------------------------------------------------------------------ #

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlatNetwork):
            return NotImplemented
        return (self.rep == other.rep and self.kind == other.kind
                and self.fanin == other.fanin and self.pis == other.pis
                and self.pos == other.pos and self.level == other.level
                and self.ros == other.ros and self.ris == other.ris
                and self.rinit == other.rinit
                and self.pi_names == other.pi_names
                and self.po_names == other.po_names)

    def __repr__(self) -> str:
        regs = f" regs={len(self.ros)}" if len(self.ros) else ""
        return (f"<FlatNetwork {self.rep} nodes={len(self.kind)} "
                f"pis={len(self.pis)} pos={len(self.pos)}{regs} "
                f"hash={self.structural_hash()}>")
