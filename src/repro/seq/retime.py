"""Conservative forward retiming.

Moves registers forward through gates fed *only* by registers: a gate
``g = OP(r1^p1, ..., rk^pk)`` whose fanin registers have no other consumer
(no other gate, PO or next-state reference) is replaced by a single fresh
register whose init value is ``OP`` applied to the fanin init values and
whose next-state function is ``OP`` applied to the fanin next-state
literals.  Each move trades ``k`` registers for one and shortens the
combinational paths through ``g`` by a level, and is exact: the new
register's value at every cycle (including the initial one) equals the old
gate output, so the transform is sequentially equivalent by construction —
which the ``seq-retime`` flow pass verifies via :func:`repro.seq.seq_cec`
when the flow runs with verification enabled.
"""

from __future__ import annotations

from typing import List, Tuple

from ..networks.base import GateType, LogicNetwork

__all__ = ["retime_forward"]


def _eval_gate(gate: GateType, bits: List[int]) -> int:
    if gate == GateType.AND:
        return int(all(bits))
    if gate == GateType.XOR or gate == GateType.XOR3:
        return sum(bits) & 1
    if gate == GateType.MAJ:
        return int(sum(bits) >= 2)
    raise ValueError(f"cannot evaluate gate type {gate}")


def retime_forward(ntk: LogicNetwork) -> Tuple[LogicNetwork, int]:
    """Forward-retime all eligible gates at once; returns ``(ntk, moves)``.

    Eligible: every fanin is a register output whose *only* consumer is
    this gate (counting gate fanins, POs and next-state references), so a
    move never duplicates a register.  Returns the input unchanged (same
    object) when nothing is eligible.
    """
    regs = ntk.registers
    if not regs:
        return ntk, 0
    ro_of = {n: i for i, (n, _, _) in enumerate(regs)}
    # consumer counts including next-state references (fanout_counts only
    # covers gate fanins and POs)
    counts = ntk.fanout_counts()
    for _, ri, _ in regs:
        counts[ri >> 1] += 1
    moved: List[int] = []
    consumed = set()
    for g in ntk.gates():
        fis = ntk.fanins(g)
        regs_in = [ro_of.get(f >> 1) for f in fis]
        if any(i is None for i in regs_in):
            continue
        if any(counts[f >> 1] != 1 for f in fis):
            continue
        moved.append(g)
        consumed.update(regs_in)
    if not moved:
        return ntk, 0
    moved_set = set(moved)

    dst = type(ntk)()
    mapping = {0: 0}
    names = ntk.pi_names
    kept: List[int] = []
    for j, n in enumerate(ntk.pis):
        i = ro_of.get(n)
        if i is None:
            mapping[n] = dst.create_pi(names[j])
        elif i not in consumed:
            mapping[n] = dst.create_ro(names[j], regs[i][2])
            kept.append(i)
    for idx, g in enumerate(moved):
        bits = [regs[ro_of[f >> 1]][2] ^ (f & 1) for f in ntk.fanins(g)]
        init = _eval_gate(ntk.node_type(g), bits)
        mapping[g] = dst.create_ro(f"rt{idx}", init)
    for n in ntk.gates():
        if n in moved_set:
            continue
        fis = tuple(mapping[f >> 1] ^ (f & 1) for f in ntk.fanins(n))
        mapping[n] = dst.create_gate(ntk.node_type(n), fis)
    for p, name in zip(ntk.pos, ntk.po_names):
        dst.create_po(mapping[p >> 1] ^ (p & 1), name)
    for i in kept:
        ri = regs[i][1]
        dst.create_ri(mapping[ri >> 1] ^ (ri & 1))
    for g in moved:
        nexts = []
        for f in ntk.fanins(g):
            ri = regs[ro_of[f >> 1]][1]
            nexts.append(mapping[ri >> 1] ^ (ri & 1) ^ (f & 1))
        dst.create_ri(dst.create_gate(ntk.node_type(g), tuple(nexts)))
    return dst, len(moved)
