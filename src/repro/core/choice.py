"""Structural choice networks: representatives and equivalence classes.

A choice network is a plain logic network plus an equivalence structure: some
nodes (*representatives*) carry a list of *choice nodes* — roots of
alternative subnetworks computing the same function (possibly complemented).
The network containing both original and candidate structures is typically a
:class:`~repro.networks.mixed.MixedNetwork`, which is what makes the choices
"mixed": candidates may use MAJ/XOR gates while the original is an AIG.

The class enforces the invariants the mapper relies on:

* a choice root is never in the transitive fanin of its representative's
  fanout cone (no combinational cycles through equivalence links);
* each node belongs to at most one equivalence class;
* a topological :meth:`processing_order` exists that visits every choice
  root before its representative, so merged cut sets (Algorithm 3) are
  complete when fanouts of the representative are processed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..networks.base import LogicNetwork

__all__ = ["ChoiceNetwork"]


class ChoiceNetwork:
    """A logic network annotated with structural-choice classes."""

    def __init__(self, ntk: LogicNetwork):
        self.ntk = ntk
        #: representative -> list of (choice node, phase); phase True means
        #: the choice computes the complement of the representative.
        self.choices_of: Dict[int, List[Tuple[int, bool]]] = {}
        #: choice node -> (representative, phase)
        self.repr_of: Dict[int, Tuple[int, bool]] = {}

    def __getstate__(self) -> dict:
        """Pickle without the attached mapping session (and its cut databases)."""
        state = self.__dict__.copy()
        state.pop("_mapping_session", None)
        return state

    # ------------------------------------------------------------------ #

    def add_choice(self, representative: int, choice_literal: int) -> bool:
        """Register ``choice_literal`` as an equivalent of ``representative``.

        The literal's node computes ``f(representative) ^ phase`` where
        ``phase`` is the literal's complement bit.  Returns False (and adds
        nothing) if the pairing would be degenerate or cyclic.
        """
        node = choice_literal >> 1
        phase = bool(choice_literal & 1)
        if node == representative:
            return False
        if not self.ntk.is_gate(node) or not self.ntk.is_gate(representative):
            return False
        if node in self.repr_of or node in self.choices_of:
            return False
        if representative in self.repr_of:
            return False
        # Reject equivalence links that would create a cycle: the candidate
        # cone must not contain the representative.  Node ids are
        # topological, so the walk can prune at ids below the representative.
        stack = [node]
        seen = set()
        while stack:
            m = stack.pop()
            if m == representative:
                return False
            if m < representative or m in seen:
                continue
            seen.add(m)
            stack.extend(f >> 1 for f in self.ntk.fanins(m))
        self.choices_of.setdefault(representative, []).append((node, phase))
        self.repr_of[node] = (representative, phase)
        return True

    def num_choices(self) -> int:
        return sum(len(v) for v in self.choices_of.values())

    def num_classes(self) -> int:
        return len(self.choices_of)

    def choices(self, representative: int) -> List[Tuple[int, bool]]:
        return list(self.choices_of.get(representative, []))

    def is_repr(self, node: int) -> bool:
        return node in self.choices_of

    # ------------------------------------------------------------------ #

    def processing_order(self) -> List[int]:
        """Topological node order where choice roots precede representatives.

        Standard Kahn's algorithm over structural fanin edges plus one extra
        edge per equivalence link (choice root -> representative).  Each call
        recomputes it; :meth:`MappingSession.order
        <repro.mapping.engine.MappingSession.order>` keeps one per snapshot.
        """
        ntk = self.ntk
        n = ntk.num_nodes()
        indeg = [0] * n
        extra: List[List[int]] = [[] for _ in range(n)]
        for node in range(n):
            indeg[node] += len(set(f >> 1 for f in ntk.fanins(node)))
        for rep, lst in self.choices_of.items():
            for ch, _ in lst:
                extra[ch].append(rep)
                indeg[rep] += 1
        fanouts = ntk.fanouts()
        order: List[int] = []
        stack = [i for i in range(n) if indeg[i] == 0]
        while stack:
            m = stack.pop()
            order.append(m)
            seen_children = set()
            for child in fanouts[m]:
                if child in seen_children:
                    continue
                seen_children.add(child)
                indeg[child] -= 1
                if indeg[child] == 0:
                    stack.append(child)
            for child in extra[m]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    stack.append(child)
        if len(order) != n:
            raise RuntimeError("choice network has a cycle through equivalence links")
        return order

    def verify(self, samples: int = 64, seed: int = 7) -> bool:
        """Random-simulation check that every choice matches its representative."""
        from ..sim.engine import PatternPool, SimEngine

        pool = PatternPool(self.ntk.num_pis(), n_patterns=samples, seed=seed)
        vals = SimEngine(self.ntk, pool).signatures()
        mask = pool.mask
        for rep, lst in self.choices_of.items():
            for node, phase in lst:
                expect = vals[rep] ^ (mask if phase else 0)
                if vals[node] != expect:
                    return False
        return True

    def verify_sat(self, conflict_limit: int = 20000) -> bool:
        """Prove every equivalence link with SAT (slower, exact).

        One :class:`~repro.sat.session.EquivalenceSession` encodes the
        network once; each link is an incremental assumption query, exactly
        like ABC's choice verification.  Returns False on any disproved (or
        timed-out) link.
        """
        from ..sat.session import EquivalenceSession

        session = EquivalenceSession(self.ntk)
        for rep, members in self.choices_of.items():
            for node, phase in members:
                res = session.prove_node_equal(rep, node, phase,
                                               conflict_limit=conflict_limit)
                if res is not True:
                    return False
        return True

    def stats(self) -> dict:
        """Summary counters for reporting."""
        sizes = [len(v) for v in self.choices_of.values()]
        return {
            "gates": self.ntk.num_gates(),
            "classes": self.num_classes(),
            "choices": self.num_choices(),
            "max_class_size": max(sizes, default=0),
            "complement_links": sum(
                1 for v in self.choices_of.values() for _, ph in v if ph
            ),
        }

    def __repr__(self) -> str:
        return (
            f"<ChoiceNetwork gates={self.ntk.num_gates()} "
            f"classes={self.num_classes()} choices={self.num_choices()}>"
        )
