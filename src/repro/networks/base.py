"""Literal-encoded logic-network DAGs with structural hashing.

This module implements the common machinery behind all logic representations
used by the paper — AIG, XAG, MIG, XMG and the *mixed* network that MCH choice
networks live in.  The design follows ABC / mockturtle conventions:

* Nodes are integers; node 0 is the constant-0 node, then PIs, then gates in
  topological order (fanins always precede a gate).
* Signals are *literals* ``2 * node + phase`` so complemented edges are free.
  Literal ``0`` is constant 0, literal ``1`` is constant 1.
* Every gate creation goes through normalization rules (constant folding,
  duplicate/complement collapsing, fanin sorting, complement-bubbling for the
  self-dual MAJ and the XOR family) followed by structural hashing, so
  structurally identical gates are never duplicated.

Subclasses restrict the allowed native gate set; generic constructors such as
:meth:`LogicNetwork.create_and` automatically lower onto the native gates of
the representation (e.g. ``AND`` becomes ``MAJ(a, b, 0)`` in an MIG), which
implements the paper's one-to-one mapping between representations.
"""

from __future__ import annotations

import hashlib
from array import array
from enum import IntEnum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..truth.truth_table import TruthTable, var_mask

__all__ = ["GateType", "LogicNetwork", "lit", "lit_node", "lit_phase", "lit_not",
           "rep_view", "require_combinational"]


class GateType(IntEnum):
    CONST = 0
    PI = 1
    AND = 2
    XOR = 3
    MAJ = 4
    XOR3 = 5


_GATE_KINDS = frozenset({GateType.AND, GateType.XOR, GateType.MAJ, GateType.XOR3})


def lit(node: int, phase: bool = False) -> int:
    """Build a literal from a node index and a complement flag."""
    return (node << 1) | int(phase)


def lit_node(literal: int) -> int:
    return literal >> 1


def lit_phase(literal: int) -> bool:
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    return literal ^ 1


def require_combinational(ntk: "LogicNetwork", where: str) -> None:
    """Raise if ``ntk`` carries registers and ``where`` is comb-only.

    One shared guard for every engine that only understands the
    combinational skeleton (cut enumeration, LUT/ASIC mapping, plain CEC,
    choice-network construction, ...).  The error names the offending
    network and its register count so a failing flow points straight at
    the circuit instead of dying deep inside an engine — and so latches
    are never silently dropped.
    """
    n = ntk.num_registers()
    if n:
        raise ValueError(
            f"{where} is combinational-only but {ntk!r} has {n} register"
            f"{'s' if n != 1 else ''}; unroll the network or use a seq-* pass")


class LogicNetwork:
    """A Boolean network as a literal-encoded DAG, optionally sequential.

    Sequential networks model registers (latches in AIGER terms) as
    *register outputs* — ordinary PI nodes flagged in ``_ro_nodes`` — paired
    in creation order with *register inputs* (next-state literals in
    ``_ri_lits``) and initial values (``_ro_init``).  Every combinational
    engine therefore sees the comb skeleton unchanged: CIs = real PIs + ROs,
    COs = POs + RIs.  Comb-only engines must call
    :func:`require_combinational` instead of ignoring the pairing.
    """

    #: Native gate types this representation may contain.
    ALLOWED: frozenset = _GATE_KINDS
    #: Human-readable representation name.
    rep_name: str = "mixed"

    def __init__(self):
        self._types: List[GateType] = [GateType.CONST]
        self._fanins: List[Tuple[int, ...]] = [()]
        self._levels: List[int] = [0]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []
        #: register bookkeeping: RO node indices (subset of ``_pis``), the
        #: paired next-state literals (same order), and 0/1 initial values
        self._ro_nodes: List[int] = []
        self._ri_lits: List[int] = []
        self._ro_init: List[int] = []
        self._strash: Dict[Tuple[GateType, Tuple[int, ...]], int] = {}
        #: bumped on every structural mutation; mapping sessions key off it
        self._version: int = 0

    # ------------------------------------------------------------------ #
    # versioning, hashing, pickling                                       #
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Monotonic structural version; changes whenever the DAG mutates."""
        return self._version

    def _touch(self) -> None:
        self._version += 1

    def structural_hash(self) -> str:
        """Content hash of the DAG (16 hex chars), computed on each call.

        Covers representation, gate kinds, fanin literals (three per node,
        zero-padded), CI order, PO literals and the register lists (RO/RI
        pairing and init values) — everything that determines the DAG —
        but not names or the derived levels.  Networks with equal hashes
        are structurally identical — same node numbering, gates and POs —
        which is how tests and fingerprints pin a flow's result.  Integers
        are hashed as native 8-byte words, so digests are stable within one
        byte order.
        """
        fanin3 = []
        for fis in self._fanins:
            k = len(fis)
            if k == 2:
                fanin3 += (fis[0], fis[1], 0)
            elif k == 3:
                fanin3 += fis
            else:
                fanin3 += (0, 0, 0)
        m = hashlib.sha256()
        m.update(type(self).__name__.encode())
        m.update(b"|%d|%d|%d|%d|" % (len(self._types), len(self._pis),
                                      len(self._pos), len(self._ro_nodes)))
        m.update(bytes(map(int, self._types)))
        m.update(array("q", fanin3).tobytes())
        m.update(array("q", self._pis).tobytes())
        m.update(array("q", self._pos).tobytes())
        m.update(array("q", self._ro_nodes).tobytes())
        m.update(array("q", self._ri_lits).tobytes())
        m.update(bytes(self._ro_init))
        return m.hexdigest()[:16]

    def __getstate__(self) -> dict:
        """Pickle without the attached mapping session (and its cut databases)."""
        state = self.__dict__.copy()
        state.pop("_mapping_session", None)
        return state

    # ------------------------------------------------------------------ #
    # basic structure                                                     #
    # ------------------------------------------------------------------ #

    @property
    def const0(self) -> int:
        """Literal for constant 0."""
        return 0

    @property
    def const1(self) -> int:
        return 1

    def num_nodes(self) -> int:
        return len(self._types)

    def num_pis(self) -> int:
        return len(self._pis)

    def num_pos(self) -> int:
        return len(self._pos)

    def num_gates(self) -> int:
        return sum(1 for t in self._types if t in _GATE_KINDS)

    @property
    def pis(self) -> List[int]:
        """PI node indices in creation order."""
        return list(self._pis)

    @property
    def pi_names(self) -> List[str]:
        return list(self._pi_names)

    @property
    def pos(self) -> List[int]:
        """PO literals in creation order."""
        return list(self._pos)

    @property
    def po_names(self) -> List[str]:
        return list(self._po_names)

    def node_type(self, node: int) -> GateType:
        return self._types[node]

    def fanins(self, node: int) -> Tuple[int, ...]:
        """Fanin literals of a node."""
        return self._fanins[node]

    def is_pi(self, node: int) -> bool:
        return self._types[node] == GateType.PI

    def is_const(self, node: int) -> bool:
        return self._types[node] == GateType.CONST

    def is_gate(self, node: int) -> bool:
        return self._types[node] in _GATE_KINDS

    def gates(self) -> Iterator[int]:
        """Iterate gate node indices in topological order."""
        for n, t in enumerate(self._types):
            if t in _GATE_KINDS:
                yield n

    def nodes(self) -> Iterator[int]:
        return iter(range(len(self._types)))

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    def create_pi(self, name: Optional[str] = None) -> int:
        node = len(self._types)
        self._types.append(GateType.PI)
        self._fanins.append(())
        self._levels.append(0)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        self._touch()
        return lit(node)

    def create_po(self, literal: int, name: Optional[str] = None) -> int:
        if lit_node(literal) >= len(self._types):
            raise ValueError("PO literal refers to unknown node")
        self._pos.append(literal)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        self._touch()
        return len(self._pos) - 1

    # -- registers (sequential networks) ----------------------------------

    def create_ro(self, name: Optional[str] = None, init: int = 0) -> int:
        """Create a register output (the current-state side of a latch).

        The RO is an ordinary PI node as far as the combinational skeleton
        is concerned; it is additionally recorded as a register with the
        given initial value (0 or 1).  Pair it with a next-state function
        later via :meth:`create_ri` — registers are matched in creation
        order, exactly like AIGER latch lines.
        """
        if init not in (0, 1):
            raise ValueError(f"register init value must be 0 or 1, got {init!r}")
        if name is None:
            name = f"r{len(self._ro_nodes)}"
        literal = self.create_pi(name)
        self._ro_nodes.append(lit_node(literal))
        self._ro_init.append(int(init))
        return literal

    def create_ri(self, literal: int) -> int:
        """Attach the next-state literal of the next unconnected register.

        Returns the register index.  ROs and RIs pair up in creation order;
        engines refuse networks with unconnected registers.
        """
        if lit_node(literal) >= len(self._types):
            raise ValueError("RI literal refers to unknown node")
        if len(self._ri_lits) >= len(self._ro_nodes):
            raise ValueError("more register inputs than register outputs")
        self._ri_lits.append(literal)
        self._touch()
        return len(self._ri_lits) - 1

    def num_registers(self) -> int:
        """Number of registers (AIGER latches)."""
        return len(self._ro_nodes)

    def has_registers(self) -> bool:
        return bool(self._ro_nodes)

    @property
    def registers(self) -> List[Tuple[int, int, int]]:
        """``(ro_node, ri_literal, init)`` per register, in creation order.

        Raises if any register is missing its next-state function, so
        engines never silently treat a half-built latch as a free input.
        """
        if len(self._ri_lits) != len(self._ro_nodes):
            raise ValueError(
                f"{len(self._ro_nodes) - len(self._ri_lits)} register(s) have no "
                "next-state literal; call create_ri for every create_ro")
        return list(zip(self._ro_nodes, self._ri_lits, self._ro_init))

    def is_ro(self, node: int) -> bool:
        """True if ``node`` is a register output (still ``is_pi``-true)."""
        return node in self._ro_set()

    def _ro_set(self) -> frozenset:
        return frozenset(self._ro_nodes)

    @property
    def real_pis(self) -> List[int]:
        """Non-register PI node indices (the free inputs), creation order."""
        ros = self._ro_set()
        return [n for n in self._pis if n not in ros]

    def num_real_pis(self) -> int:
        return len(self._pis) - len(self._ro_nodes)

    def _new_node(self, gate: GateType, fanins: Tuple[int, ...]) -> int:
        key = (gate, fanins)
        found = self._strash.get(key)
        if found is not None:
            return lit(found)
        node = len(self._types)
        self._types.append(gate)
        self._fanins.append(fanins)
        self._levels.append(1 + max(self._levels[f >> 1] for f in fanins))
        self._strash[key] = node
        self._touch()
        return lit(node)

    # -- native gates with normalization ----------------------------------

    def _and2(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == 0:
            return 0
        if a == 1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return 0
        return self._new_node(GateType.AND, (a, b))

    def _xor2(self, a: int, b: int) -> int:
        phase = (a & 1) ^ (b & 1)
        a &= ~1
        b &= ~1
        if a > b:
            a, b = b, a
        if a == b:
            return phase
        if a == 0:  # constant-0 input
            return b ^ phase
        return self._new_node(GateType.XOR, (a, b)) ^ phase

    def _maj3(self, a: int, b: int, c: int) -> int:
        a, b, c = sorted((a, b, c))
        # duplicate / complementary collapses
        if a == b:
            return a
        if b == c:
            return b
        if a == lit_not(b):
            return c
        if b == lit_not(c):
            return a
        # self-duality: keep at most one complemented fanin
        ncompl = (a & 1) + (b & 1) + (c & 1)
        out = 0
        if ncompl >= 2:
            a, b, c = lit_not(a), lit_not(b), lit_not(c)
            out = 1
            a, b, c = sorted((a, b, c))
        return self._new_node(GateType.MAJ, (a, b, c)) ^ out

    def _xor3(self, a: int, b: int, c: int) -> int:
        phase = (a & 1) ^ (b & 1) ^ (c & 1)
        a &= ~1
        b &= ~1
        c &= ~1
        a, b, c = sorted((a, b, c))
        if a == b:
            return c ^ phase
        if b == c:
            return a ^ phase
        if a == 0:
            # binary XOR as a degenerate XOR3 stays native in XMG; in a
            # network that also has XOR2, prefer the smaller gate.
            if GateType.XOR in self.ALLOWED:
                return self._xor2(b, c) ^ phase
            return self._new_node(GateType.XOR3, (a, b, c)) ^ phase
        return self._new_node(GateType.XOR3, (a, b, c)) ^ phase

    # -- generic constructors (lower onto the native gate set) ------------

    def create_and(self, a: int, b: int) -> int:
        if GateType.AND in self.ALLOWED:
            return self._and2(a, b)
        if GateType.MAJ in self.ALLOWED:
            return self._maj3(a, b, 0)
        raise TypeError(f"{self.rep_name} cannot express AND")

    def create_or(self, a: int, b: int) -> int:
        if GateType.MAJ in self.ALLOWED and GateType.AND not in self.ALLOWED:
            return self._maj3(a, b, 1)
        return lit_not(self.create_and(lit_not(a), lit_not(b)))

    def create_xor(self, a: int, b: int) -> int:
        if GateType.XOR in self.ALLOWED:
            return self._xor2(a, b)
        if GateType.XOR3 in self.ALLOWED:
            return self._xor3(a, b, 0)
        # AND-only decomposition: a ^ b = !( !(a !b) !( !a b) )
        t1 = self.create_and(a, lit_not(b))
        t2 = self.create_and(lit_not(a), b)
        return self.create_or(t1, t2)

    def create_xnor(self, a: int, b: int) -> int:
        return lit_not(self.create_xor(a, b))

    def create_maj(self, a: int, b: int, c: int) -> int:
        if GateType.MAJ in self.ALLOWED:
            return self._maj3(a, b, c)
        ab = self.create_and(a, b)
        ac = self.create_and(a, c)
        bc = self.create_and(b, c)
        return self.create_or(ab, self.create_or(ac, bc))

    def create_xor3(self, a: int, b: int, c: int) -> int:
        if GateType.XOR3 in self.ALLOWED:
            return self._xor3(a, b, c)
        return self.create_xor(self.create_xor(a, b), c)

    def create_mux(self, sel: int, hi: int, lo: int) -> int:
        """``sel ? hi : lo``."""
        t = self.create_and(sel, hi)
        e = self.create_and(lit_not(sel), lo)
        return self.create_or(t, e)

    def create_nary_and(self, literals: Sequence[int], balanced: bool = True) -> int:
        return self._nary(self.create_and, literals, self.const1, balanced)

    def create_nary_or(self, literals: Sequence[int], balanced: bool = True) -> int:
        return self._nary(self.create_or, literals, self.const0, balanced)

    def create_nary_xor(self, literals: Sequence[int], balanced: bool = True) -> int:
        return self._nary(self.create_xor, literals, self.const0, balanced)

    @staticmethod
    def _nary(op, literals: Sequence[int], unit: int, balanced: bool) -> int:
        lits = list(literals)
        if not lits:
            return unit
        if balanced:
            while len(lits) > 1:
                nxt = [op(lits[i], lits[i + 1]) for i in range(0, len(lits) - 1, 2)]
                if len(lits) % 2:
                    nxt.append(lits[-1])
                lits = nxt
            return lits[0]
        acc = lits[0]
        for l in lits[1:]:
            acc = op(acc, l)
        return acc

    def create_gate(self, gate: GateType, fanins: Sequence[int]) -> int:
        """Create a gate by type, applying the usual normalizations."""
        if gate == GateType.AND:
            return self.create_and(*fanins)
        if gate == GateType.XOR:
            return self.create_xor(*fanins)
        if gate == GateType.MAJ:
            return self.create_maj(*fanins)
        if gate == GateType.XOR3:
            return self.create_xor3(*fanins)
        raise ValueError(f"cannot create node of type {gate}")

    # ------------------------------------------------------------------ #
    # analysis                                                            #
    # ------------------------------------------------------------------ #

    def levels(self) -> List[int]:
        """Level of every node (PIs and constants are level 0)."""
        return list(self._levels)

    def level(self, node: int) -> int:
        return self._levels[node]

    def depth(self) -> int:
        if not self._pos:
            return 0
        return max((self._levels[p >> 1] for p in self._pos), default=0)

    def fanout_counts(self) -> List[int]:
        """Per-node consumer counts (gate fanins + PO references), a fresh list."""
        cnt = [0] * len(self._types)
        for n in range(len(self._types)):
            for f in self._fanins[n]:
                cnt[f >> 1] += 1
        for p in self._pos:
            cnt[p >> 1] += 1
        return cnt

    def fanouts(self) -> List[List[int]]:
        """Fanout adjacency (gate consumers only, not POs), a fresh list."""
        out: List[List[int]] = [[] for _ in self._types]
        for n in range(len(self._types)):
            for f in self._fanins[n]:
                out[f >> 1].append(n)
        return out

    def topological_order(self) -> List[int]:
        """All node indices in topological order.

        Nodes are created fanins-first, so this is simply ``0..num_nodes-1``.
        """
        return list(range(len(self._types)))

    def tfi(self, node: int) -> set:
        """Transitive fanin cone of a node, including the node itself."""
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            for f in self._fanins[n]:
                stack.append(f >> 1)
        return seen

    def tfo(self, node: int) -> set:
        """Transitive fanout cone of a node, including the node itself."""
        fo = self.fanouts()
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(fo[n])
        return seen

    def mffc(self, node: int, fanout_counts: Optional[List[int]] = None) -> set:
        """Maximum fanout-free cone of ``node`` (gate nodes only)."""
        if not self.is_gate(node):
            return set()
        # copy a caller's counts: they are reused across calls
        cnt = (list(fanout_counts) if fanout_counts is not None
               else self.fanout_counts())
        cone = {node}
        stack = [node]
        while stack:
            n = stack.pop()
            for f in self._fanins[n]:
                m = f >> 1
                cnt[m] -= 1
                if cnt[m] == 0 and self.is_gate(m):
                    cone.add(m)
                    stack.append(m)
        return cone

    def mffc_leaves(self, cone: set) -> List[int]:
        """Boundary nodes feeding a cone from outside (PIs of the cone)."""
        leaves = set()
        for n in cone:
            for f in self._fanins[n]:
                m = f >> 1
                if m not in cone and not self.is_const(m):
                    leaves.add(m)
        return sorted(leaves)

    def local_function(self, root: int, leaves: Sequence[int]) -> TruthTable:
        """Function of ``root`` expressed over the given leaf nodes.

        Every path from ``root`` towards the PIs must hit a leaf (or a
        constant); otherwise a ValueError is raised.  Evaluation is
        iterative, so deep cones are safe.
        """
        leaf_pos = {leaf: i for i, leaf in enumerate(leaves)}
        nv = len(leaves)
        mask = (1 << (1 << nv)) - 1
        memo: Dict[int, int] = {0: 0}
        for leaf, i in leaf_pos.items():
            memo[leaf] = var_mask(nv, i) if nv else 0
        stack = [root]
        while stack:
            n = stack.pop()
            if n in memo:
                continue
            if not self.is_gate(n):
                raise ValueError(f"cone of {root} escapes the leaf set at node {n}")
            pending = [f >> 1 for f in self._fanins[n] if (f >> 1) not in memo]
            if pending:
                stack.append(n)
                stack.extend(pending)
                continue
            vals = [memo[f >> 1] ^ (mask if f & 1 else 0) for f in self._fanins[n]]
            t = self._types[n]
            if t == GateType.AND:
                memo[n] = vals[0] & vals[1]
            elif t == GateType.XOR:
                memo[n] = vals[0] ^ vals[1]
            elif t == GateType.MAJ:
                memo[n] = (vals[0] & vals[1]) | (vals[0] & vals[2]) | (vals[1] & vals[2])
            else:
                memo[n] = vals[0] ^ vals[1] ^ vals[2]
        return TruthTable(nv, memo[root])

    # ------------------------------------------------------------------ #
    # simulation                                                          #
    # ------------------------------------------------------------------ #

    def simulate_patterns(self, pi_patterns: Sequence[int], mask: int) -> List[int]:
        """Bit-parallel simulation; returns one packed word per node.

        ``pi_patterns[i]`` is the stimulus of PI ``i``; ``mask`` selects the
        valid bits (complementation is XOR with ``mask``).  This is a thin
        front over :func:`repro.sim.engine.simulate_words`, which compiles
        the network into gate-type-batched integer ops and caches the
        compiled program per network.
        """
        from ..sim.engine import simulate_words

        return simulate_words(self, pi_patterns, mask)

    def simulate(self, assignment: Sequence[bool]) -> List[bool]:
        """Evaluate the POs under a single PI assignment."""
        patterns = [1 if b else 0 for b in assignment]
        vals = self.simulate_patterns(patterns, 1)
        return [bool((vals[p >> 1] ^ (p & 1)) & 1) for p in self._pos]

    def simulate_truth_tables(self) -> List[TruthTable]:
        """Exact truth tables of all POs (practical for ≤ ~16 PIs)."""
        n = len(self._pis)
        if n > 20:
            raise ValueError("too many PIs for exhaustive simulation")
        mask = (1 << (1 << n)) - 1 if n else 1
        patterns = [var_mask(n, i) for i in range(n)] if n else []
        vals = self.simulate_patterns(patterns, mask)
        out = []
        for p in self._pos:
            bits = vals[p >> 1] ^ (mask if p & 1 else 0)
            out.append(TruthTable(n, bits))
        return out

    # ------------------------------------------------------------------ #
    # copying / cleanup                                                   #
    # ------------------------------------------------------------------ #

    def cleanup(self) -> "LogicNetwork":
        """Structurally-hashed copy containing only CO-reachable logic.

        Registers unreachable from any PO (through register feedback) are
        dropped together with their next-state cones; real PIs are always
        preserved so the input interface is stable.
        """
        dst = type(self)()
        return self.copy_into(dst)

    def copy_into(self, dst: "LogicNetwork") -> "LogicNetwork":
        """Copy reachable logic into ``dst`` (may change representation)."""
        self.copy_into_with_map(dst)
        return dst

    def copy_into_with_map(self, dst: "LogicNetwork", include_pos: bool = True,
                           pi_map: Optional[Dict[int, int]] = None) -> Dict[int, int]:
        """Copy PO-reachable logic into ``dst``; returns old-node -> new-literal map.

        ``include_pos=False`` copies the logic without registering POs (used
        when superimposing several snapshots into one choice network).
        ``pi_map`` reuses existing PI literals of ``dst`` (old PI node ->
        dst literal) instead of creating fresh PIs.  Both modes are
        combinational-only; the plain copy carries registers across (live
        ones keep their init values and next-state cones).
        """
        mapping: Dict[int, int] = {0: 0}
        if pi_map is not None or not include_pos:
            require_combinational(self, "copy_into_with_map(pi_map/include_pos)")
        # reachability fixpoint: reaching a register output pulls in its
        # next-state cone (registers feed themselves through time)
        ro_index = {ro: i for i, ro in enumerate(self._ro_nodes)}
        if ro_index:
            regs = self.registers  # validates RO/RI pairing up front
        reach = set()
        stack = [p >> 1 for p in self._pos]
        while stack:
            n = stack.pop()
            if n in reach:
                continue
            reach.add(n)
            stack.extend(f >> 1 for f in self._fanins[n])
            i = ro_index.get(n)
            if i is not None:
                stack.append(self._ri_lits[i] >> 1)
        kept_regs: List[int] = []
        if pi_map is not None:
            if set(pi_map) != set(self._pis):
                raise ValueError("pi_map must cover exactly the source PIs")
            mapping.update(pi_map)
        else:
            for name, n in zip(self._pi_names, self._pis):
                i = ro_index.get(n)
                if i is None:
                    mapping[n] = dst.create_pi(name)
                elif n in reach:
                    mapping[n] = dst.create_ro(name, self._ro_init[i])
                    kept_regs.append(i)
        for n in range(len(self._types)):
            if n not in reach or not self.is_gate(n):
                continue
            fis = tuple(mapping[f >> 1] ^ (f & 1) for f in self._fanins[n])
            mapping[n] = dst.create_gate(self._types[n], fis)
        if include_pos:
            for p, name in zip(self._pos, self._po_names):
                dst.create_po(mapping[p >> 1] ^ (p & 1), name)
        for i in kept_regs:
            ri = self._ri_lits[i]
            dst.create_ri(mapping[ri >> 1] ^ (ri & 1))
        return mapping

    def __repr__(self) -> str:
        regs = f" regs={self.num_registers()}" if self._ro_nodes else ""
        return (
            f"<{type(self).__name__} pis={self.num_real_pis()} pos={self.num_pos()}"
            f"{regs} gates={self.num_gates()} depth={self.depth()}>"
        )


def rep_view(ntk: LogicNetwork, rep_cls: type) -> LogicNetwork:
    """A *builder view* of ``ntk`` that lowers gates like ``rep_cls`` would.

    The returned object shares all storage with ``ntk`` (same node arrays,
    same strash table) but carries ``rep_cls``'s ``ALLOWED`` gate set, so its
    generic constructors lower onto that representation's native gates.  MCH
    uses this to synthesize, e.g., *MIG-flavoured* candidate structures
    directly inside a mixed choice network: ``rep_view(mixed, Mig).create_and(
    a, b)`` creates ``MAJ(a, b, 0)`` in the mixed network.

    Only creation/analysis methods should be called through a view; the view
    is not a separate network.
    """
    if not issubclass(rep_cls, LogicNetwork):
        raise TypeError("rep_cls must be a LogicNetwork subclass")
    view = object.__new__(rep_cls)
    view.__dict__ = ntk.__dict__
    return view
