"""Shared incremental equivalence sessions.

Before this module existed, every verification consumer (``cec``,
``functional_classes``, ``resub``, choice verification, ``dch``) rebuilt a
``CnfBuilder``/``Solver`` pair from scratch and rolled its own random
patterns.  An :class:`EquivalenceSession` Tseitin-encodes a network (or a
miter of several networks over shared PIs) *once* and answers many
(in)equivalence queries through assumption selector literals on one
persistent solver, so learned clauses accumulate across queries.

Counterexample recycling closes the FRAIG loop: every SAT model found by a
query is folded back into the session's shared
:class:`~repro.sim.engine.PatternPool`, so subsequent simulation filtering
(through the session's per-network :class:`~repro.sim.engine.SimEngine`\\ s)
distinguishes candidates that the SAT solver already refuted — often
avoiding the next SAT call entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import PatternPool, SimEngine
from .cnf import CnfBuilder
from .solver import UNSAT, Solver

__all__ = ["EquivalenceSession"]


class EquivalenceSession:
    """One Tseitin encoding, many incremental (in)equivalence queries.

    ``prove_equal`` and friends return ``True`` (proven), ``False``
    (counterexample found — and recycled into the pattern pool) or ``None``
    (conflict budget exhausted).  Additional networks can be encoded over the
    same PI variables with :meth:`add_network`, which is how miters are
    built.
    """

    def __init__(self, ntk=None, pool: Optional[PatternPool] = None, *,
                 n_patterns: int = 256, seed: int = 1, n_pis: Optional[int] = None):
        """``ntk=None`` opens a *bare* session (``n_pis`` wide, default 0).

        Bare sessions skip the up-front network encoding; the sequential
        engines use them as an incremental solver onto which time frames are
        Tseitin-encoded one at a time via :meth:`encode_frame`.
        """
        if n_pis is None:
            n_pis = ntk.num_pis() if ntk is not None else 0
        self.pool = pool if pool is not None else PatternPool(
            n_pis, n_patterns, seed)
        self._solver = Solver()
        self._builder = CnfBuilder()
        self.pi_vars: Dict[int, int] = {
            i: self._builder.new_var() for i in range(n_pis)
        }
        self.networks: List = []
        self.engines: List[SimEngine] = []
        self._var_of: List[Dict[int, int]] = []
        self._po_lits: List[List[int]] = []
        self._cex: Optional[List[bool]] = None
        self._const_var: Optional[int] = None
        if ntk is not None:
            self.add_network(ntk)

    # -- encoding ------------------------------------------------------------

    def add_network(self, ntk) -> int:
        """Encode another network over the shared PI variables; returns its index."""
        if ntk.num_pis() != len(self.pi_vars):
            raise ValueError("all session networks must share the PI interface")
        builder = self._builder
        mark = len(builder.clauses)
        var_of, po_lits = builder.encode(ntk, self.pi_vars)
        solver = self._solver
        for _ in range(builder.num_vars - solver.num_vars):
            solver.new_var()
        for cl in builder.clauses[mark:]:
            solver.add_clause(cl)
        self.networks.append(ntk)
        self.engines.append(SimEngine(ntk, self.pool))
        self._var_of.append(var_of)
        self._po_lits.append(po_lits)
        return len(self.networks) - 1

    def encode_frame(self, ntk, ci_lits: List[int]):
        """Tseitin-encode one copy of ``ntk``'s combinational skeleton.

        Unlike :meth:`add_network`, the combinational inputs are bound to
        the given *signed solver literals* (one per CI, in ``ntk.pis``
        order) instead of the session's shared PI variables.  This is the
        primitive behind time-frame unrolling: frame ``t+1`` passes the
        frame-``t`` next-state literals as the CI literals of the register
        outputs.  Returns ``(var_of, po_lits)`` — the node→literal map (use
        it to look up register-input literals) and the signed PO literals.
        """
        if len(ci_lits) != ntk.num_pis():
            raise ValueError(
                f"expected {ntk.num_pis()} CI literals, got {len(ci_lits)}")
        builder = self._builder
        mark = len(builder.clauses)
        var_of, po_lits = builder.encode(ntk, dict(enumerate(ci_lits)))
        solver = self._solver
        for _ in range(builder.num_vars - solver.num_vars):
            solver.new_var()
        for cl in builder.clauses[mark:]:
            solver.add_clause(cl)
        return var_of, po_lits

    def new_input_vars(self, n: int) -> List[int]:
        """``n`` fresh unconstrained variables (e.g. one frame's PIs)."""
        return [self._new_var() for _ in range(n)]

    def const_literal(self, value: int) -> int:
        """A solver literal fixed to the given truth value (0/1).

        The underlying unit-clause variable is created lazily once per
        session and shared by every call (frame-0 register init values).
        """
        v = self._const_var
        if v is None:
            v = self._const_var = self._new_var()
            self._solver.add_clause([-v])   # the shared variable is false
        return -v if value else v

    def literal_value(self, sl: int) -> bool:
        """Value of a signed solver literal in the last SAT model."""
        v = self._solver.model_value(abs(sl))
        return (not v) if sl < 0 else v

    def _new_var(self) -> int:
        """Fresh variable, kept in lockstep between builder and solver so a
        later :meth:`add_network` cannot collide with selector variables."""
        v = self._builder.new_var()
        solver = self._solver
        while solver.num_vars < v:
            solver.new_var()
        return v

    def engine(self, index: int = 0) -> SimEngine:
        """The simulation engine of network ``index`` (shared pattern pool)."""
        return self.engines[index]

    def node_literal(self, node: int, index: int = 0) -> int:
        """Signed solver literal of a network node's output."""
        return self._var_of[index][node]

    def network_literal(self, literal: int, index: int = 0) -> int:
        """Signed solver literal of a network *literal* (complement applied)."""
        v = self._var_of[index][literal >> 1]
        return -v if literal & 1 else v

    def output_literals(self, index: int = 0) -> List[int]:
        """Signed solver literals of the network's POs, in order."""
        return list(self._po_lits[index])

    def make_and(self, sl_a: int, sl_b: int) -> int:
        """A fresh solver literal constrained to ``sl_a & sl_b``.

        Lets consumers (e.g. ``resub``) pose queries about small auxiliary
        functions without ever touching a ``CnfBuilder``/``Solver`` directly.
        """
        solver = self._solver
        s = self._new_var()
        solver.add_clause([-s, sl_a])
        solver.add_clause([-s, sl_b])
        solver.add_clause([s, -sl_a, -sl_b])
        return s

    # -- queries -------------------------------------------------------------

    def assume_equal(self, sl_a: int, sl_b: int) -> int:
        """A selector literal that, while assumed, forces ``sl_a == sl_b``.

        The constraint is inert until the selector is passed in the
        ``assumptions`` of a query; k-induction uses this to hypothesize
        output equality on frames ``0..k-1`` while testing frame ``k``.
        """
        solver = self._solver
        s = self._new_var()
        solver.add_clause([-s, -sl_a, sl_b])
        solver.add_clause([-s, sl_a, -sl_b])
        return s

    def prove_equal(self, sl_a: int, sl_b: int,
                    conflict_limit: Optional[int] = None,
                    assumptions: List[int] = ()) -> Optional[bool]:
        """Prove two solver literals equal under the given assumptions.

        Returns True if proven, False with a recycled counterexample if they
        differ, None if the conflict budget ran out.  Each query burns one
        selector variable; the miter clauses are permanently disabled
        afterwards, while clauses the solver learned remain valid for later
        queries.
        """
        solver = self._solver
        s = self._new_var()
        # under s: sl_a != sl_b
        solver.add_clause([-s, sl_a, sl_b])
        solver.add_clause([-s, -sl_a, -sl_b])
        res = solver.solve(assumptions=[s, *assumptions],
                           conflict_limit=conflict_limit)
        solver.add_clause([-s])  # retire the selector
        if res is None:
            return None
        if res == UNSAT:
            return True
        if self.pi_vars:
            cex = [solver.model_value(self.pi_vars[i])
                   for i in range(len(self.pi_vars))]
            self._cex = cex
            self.pool.add_pattern(cex)
        return False

    def prove_node_equal(self, node_a: int, node_b: int, compl: bool = False,
                         conflict_limit: Optional[int] = None,
                         index_a: int = 0, index_b: int = 0) -> Optional[bool]:
        """Prove ``node_a == node_b ^ compl`` (nodes of session networks)."""
        sa = self._var_of[index_a][node_a]
        sb = self._var_of[index_b][node_b]
        return self.prove_equal(sa, -sb if compl else sb, conflict_limit)

    @property
    def last_counterexample(self) -> Optional[List[bool]]:
        """PI assignment of the most recent refuted query."""
        return self._cex
