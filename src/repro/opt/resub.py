"""Simulation-guided resubstitution with SAT validation (ABC's ``resub``).

For every AND node the pass looks for a pair of existing *divisor* nodes
whose AND (in some polarity) reproduces the node's function — a classic
1-resubstitution.  Candidates are discovered with bit-parallel signatures
from the shared simulation engine and confirmed through one
:class:`~repro.sat.session.EquivalenceSession` (the network is encoded once;
each check is an incremental assumption query against an auxiliary AND), so
accepted rewrites are provably correct.

Simulation answers everything it can before the solver is asked:

* divisors are classified by unateness first (Mishchenko & Brayton, IWLS
  2006): ``AND(a, b) == t`` needs both literals to cover ``t``, so pairs are
  only formed among the covering literals of the target or its complement;
* counterexamples from failed checks are recycled into the pattern pool
  (the FRAIG loop) and screen the rest of the current node's candidates
  before each SAT call, as well as sharpening the signatures of later
  nodes.

Replacing a node whose MFFC has ``k`` gates by a single fresh AND saves
``k - 1`` gates.

Divisors are restricted to nodes with smaller topological index, which
guarantees acyclicity and lets the network be rebuilt in one sweep.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..networks.base import GateType, LogicNetwork, require_combinational
from ..sat.session import EquivalenceSession
from ..sim.engine import PatternPool

__all__ = ["resub"]

#: a divisor literal: (network literal, value word, covers target, covers ~target)
_Literal = Tuple[int, int, bool, bool]


def _covering_literals(divisors: List[int], sigs: List[int], target: int,
                       mask: int) -> List[List[_Literal]]:
    """Per divisor (in window order), its literals that cover the target or
    its complement; divisors with neither are dropped.

    ``on = target & s`` is the part of the target where the divisor is 1, and
    ``s ^ on`` the part of ``~target``: the positive literal covers the
    target iff ``on == target``, the negative one iff ``on == 0`` (likewise
    for ``~target``).
    """
    ntarget = target ^ mask
    groups: List[List[_Literal]] = []
    for d in divisors:
        s = sigs[d]
        on = target & s
        off = s ^ on
        lits: List[_Literal] = []
        if on == target or off == ntarget:
            lits.append((d << 1, s, on == target, off == ntarget))
        if not on or not off:
            lits.append((d << 1 | 1, s ^ mask, not on, not off))
        if lits:
            groups.append(lits)
    return groups


def _candidates(groups: List[List[_Literal]], target: int,
                mask: int) -> Iterator[Tuple[int, int, bool]]:
    """``(lit_a, lit_b, compl)`` with ``AND(a, b) == target ^ compl`` on the
    snapshot words, in divisor-pair then polarity order; the uncomplemented
    match is tried first."""
    ntarget = target ^ mask
    for i, lits1 in enumerate(groups):
        for lits2 in groups[i + 1:]:
            for la, v1, t1, n1 in lits1:
                for lb, v2, t2, n2 in lits2:
                    both = v1 & v2
                    if t1 and t2 and both == target:
                        yield la, lb, False
                    elif n1 and n2 and both == ntarget:
                        yield la, lb, True


def resub(ntk: LogicNetwork, width: int = 256, seed: int = 17,
          max_divisors: int = 150, conflict_limit: int = 1000,
          max_checks: int = 2000,
          pool: Optional[PatternPool] = None) -> LogicNetwork:
    """One pass of SAT-validated 1-resubstitution; returns a rebuilt network.

    Only AND-family nodes are targeted (the pass is a no-op on pure
    MIG networks).  ``max_divisors`` bounds the candidate window per node,
    ``max_checks`` bounds the total number of candidate checks: every
    candidate that passes a node's initial signature filter counts, whether
    a recycled counterexample or the SAT solver refutes it.  A
    caller-supplied ``pool`` (e.g. the shared pool of a
    :class:`~repro.flow.context.FlowContext`) replaces the fresh
    ``width``-pattern one: its patterns — including counterexamples
    recycled by earlier passes — drive the signature filtering here, and
    this pass's counterexamples are recycled into it.
    """
    require_combinational(ntk, "resub")
    if pool is None:
        pool = PatternPool(ntk.num_pis(), n_patterns=width, seed=seed)
    session = EquivalenceSession(ntk, pool=pool)
    engine = session.engine(0)
    levels = ntk.levels()
    fanout = ntk.fanout_counts()

    def refuted_by_pool(target: int, lit_a: int, lit_b: int, compl: bool) -> bool:
        """Does a pattern in the (refreshed) pool tell target and AND(a, b)
        ^ compl apart?"""
        sigs = engine.signatures()
        mask = pool.mask
        a = sigs[lit_a >> 1] ^ (mask if lit_a & 1 else 0)
        b = sigs[lit_b >> 1] ^ (mask if lit_b & 1 else 0)
        return a & b != sigs[target] ^ (mask if compl else 0)

    def sat_equal(target: int, lit_a: int, lit_b: int, compl: bool) -> bool:
        """Prove node target == AND(a, b) ^ compl by SAT (False on timeout)."""
        t = session.node_literal(target)
        s = session.make_and(session.network_literal(lit_a),
                             session.network_literal(lit_b))
        res = session.prove_equal(-t if compl else t, s,
                                  conflict_limit=conflict_limit)
        return res is True

    replacements: Dict[int, Tuple[int, int, bool]] = {}  # node -> (lit_a, lit_b, out_compl)
    checks = 0

    for node in ntk.gates():
        if checks >= max_checks:
            break
        if ntk.node_type(node) != GateType.AND:
            continue
        cone = ntk.mffc(node, fanout)
        if len(cone) < 2:
            continue  # nothing to gain: replacement costs one new AND
        # recycled counterexamples may have widened the pool since last node.
        # The engine refreshes its signature buffer in place, so the words
        # that fix this node's candidate order are read out of it now.
        sigs = engine.signatures()
        mask = pool.mask
        node_patterns = pool.n_patterns
        target = sigs[node]
        # divisor window: earlier nodes at or below this level, nearest first
        divisors: List[int] = []
        for d in range(node - 1, 0, -1):
            if len(divisors) >= max_divisors:
                break
            if (ntk.is_gate(d) or ntk.is_pi(d)) and d not in cone and levels[d] <= levels[node]:
                divisors.append(d)
        groups = _covering_literals(divisors, sigs, target, mask)
        for la, lb, compl in _candidates(groups, target, mask):
            if checks >= max_checks:
                break
            checks += 1
            if pool.n_patterns > node_patterns and refuted_by_pool(node, la, lb, compl):
                continue
            if sat_equal(node, la, lb, compl):
                replacements[node] = (la, lb, compl)
                break

    if not replacements:
        return ntk

    # rebuild with replacements (divisors precede their targets, so a single
    # topological sweep suffices)
    dst = type(ntk)()
    mapping: Dict[int, int] = {0: 0}
    for name, n in zip(ntk.pi_names, ntk.pis):
        mapping[n] = dst.create_pi(name)

    for n in ntk.gates():
        if n in replacements:
            la, lb, compl = replacements[n]
            a = mapping[la >> 1] ^ (la & 1)
            b = mapping[lb >> 1] ^ (lb & 1)
            mapping[n] = dst.create_and(a, b) ^ int(compl)
        else:
            fis = tuple(mapping[f >> 1] ^ (f & 1) for f in ntk.fanins(n))
            mapping[n] = dst.create_gate(ntk.node_type(n), fis)
    for p, name in zip(ntk.pos, ntk.po_names):
        dst.create_po(mapping[p >> 1] ^ (p & 1), name)
    return dst.cleanup()
