"""Disjoint-support decomposition (DSD) of truth tables.

Decomposes a function top-down into AND / OR / XOR / MAJ / MUX nodes with
complemented-edge support, falling back to Shannon expansion (a MUX on the
selected variable) when no simple top decomposition exists.  The result is a
small expression tree that representation-specific builders turn into AIG,
XAG, MIG or XMG subnetworks — this is the "DSD" entry of the MCH strategy
library and the backbone of cut resynthesis.

The decomposition is *semantic* (works on the truth table), so XOR and MAJ
structure hidden inside an AND-heavy AIG is recovered here, which is exactly
what gives the heterogeneous candidates their edge on arithmetic circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .truth_table import TruthTable

__all__ = ["DsdNode", "decompose", "dsd_num_gates", "dsd_depth"]


@dataclass(slots=True)
class DsdNode:
    """A node of the DSD tree.

    ``kind`` is one of ``const``, ``var``, ``and``, ``or``, ``xor``, ``maj``,
    ``mux``.  ``children`` holds ``(node, complemented)`` edges.  For ``var``,
    ``var_index`` identifies the input; for ``const``, ``value`` is the
    constant.  For ``mux`` the children are ``(sel, hi, lo)`` meaning
    ``sel ? hi : lo``.

    Trees are read-only once :func:`decompose` returns them: synthesis
    memoizes the trees of small functions and shares them between calls.
    """

    kind: str
    children: List[Tuple["DsdNode", bool]] = field(default_factory=list)
    var_index: int = -1
    value: bool = False

    def __repr__(self) -> str:  # compact s-expression, handy in test failures
        if self.kind == "const":
            return "1" if self.value else "0"
        if self.kind == "var":
            return f"x{self.var_index}"
        inner = ", ".join(("!" if c else "") + repr(n) for n, c in self.children)
        return f"{self.kind}({inner})"


def _mk_var(v: int) -> DsdNode:
    return DsdNode("var", var_index=v)


def _maj3_check(tt: TruthTable, sup: List[int]) -> Optional[DsdNode]:
    """Detect MAJ of three literals over exactly three support variables."""
    if len(sup) != 3:
        return None
    a, b, c = sup
    base = (
        (TruthTable.var(tt.num_vars, a) & TruthTable.var(tt.num_vars, b))
        | (TruthTable.var(tt.num_vars, a) & TruthTable.var(tt.num_vars, c))
        | (TruthTable.var(tt.num_vars, b) & TruthTable.var(tt.num_vars, c))
    )
    for pa in (False, True):
        for pb in (False, True):
            for pc in (False, True):
                t = base
                if pa:
                    t = t.flip(a)
                if pb:
                    t = t.flip(b)
                if pc:
                    t = t.flip(c)
                if t == tt:
                    return DsdNode(
                        "maj",
                        children=[(_mk_var(a), pa), (_mk_var(b), pb), (_mk_var(c), pc)],
                    )
    return None


def decompose(tt: TruthTable) -> Tuple[DsdNode, bool]:
    """Decompose ``tt`` into a DSD tree.

    Returns ``(root, complemented)``; the function equals the tree output
    XOR ``complemented``.
    """
    n = tt.num_vars
    if tt.is_const0():
        return DsdNode("const", value=False), False
    if tt.is_const1():
        return DsdNode("const", value=False), True

    sup = tt.support()
    if len(sup) == 1:
        v = sup[0]
        if tt == TruthTable.var(n, v):
            return _mk_var(v), False
        return _mk_var(v), True

    # Top-level MAJ of literals (gives MIG/XMG-native nodes).
    maj = _maj3_check(tt, sup)
    if maj is not None:
        return maj, False
    inv = _maj3_check(~tt, sup)
    if inv is not None:
        return inv, True

    # Try simple top decompositions on each support variable.
    for v in sup:
        f0 = tt.cofactor(v, False)
        f1 = tt.cofactor(v, True)
        if f0.is_const0():  # f = v AND f1
            sub, c = decompose(f1)
            return DsdNode("and", children=[(_mk_var(v), False), (sub, c)]), False
        if f1.is_const0():  # f = !v AND f0
            sub, c = decompose(f0)
            return DsdNode("and", children=[(_mk_var(v), True), (sub, c)]), False
        if f0.is_const1():  # f = !v OR f1
            sub, c = decompose(f1)
            return DsdNode("or", children=[(_mk_var(v), True), (sub, c)]), False
        if f1.is_const1():  # f = v OR f0
            sub, c = decompose(f0)
            return DsdNode("or", children=[(_mk_var(v), False), (sub, c)]), False
        if f0 == ~f1:  # f = v XOR f0
            sub, c = decompose(f0)
            return DsdNode("xor", children=[(_mk_var(v), False), (sub, c)]), False

    # Prime function: Shannon expansion on the most binate variable.
    def binateness(v: int) -> int:
        f0 = tt.cofactor(v, False)
        f1 = tt.cofactor(v, True)
        return -(f0 ^ f1).count_ones()

    v = min(sup, key=binateness)
    f0 = tt.cofactor(v, False)
    f1 = tt.cofactor(v, True)
    hi, chi = decompose(f1)
    lo, clo = decompose(f0)
    node = DsdNode("mux", children=[(_mk_var(v), False), (hi, chi), (lo, clo)])
    return node, False


def dsd_num_gates(node: DsdNode) -> int:
    """Rough gate-count cost of a DSD tree (MUX counts as 3)."""
    if node.kind in ("const", "var"):
        return 0
    cost = {"and": 1, "or": 1, "xor": 1, "maj": 1, "mux": 3}[node.kind]
    return cost + sum(dsd_num_gates(ch) for ch, _ in node.children)


def dsd_depth(node: DsdNode) -> int:
    """Depth of a DSD tree in gate levels."""
    if node.kind in ("const", "var"):
        return 0
    extra = 2 if node.kind == "mux" else 1
    return extra + max(dsd_depth(ch) for ch, _ in node.children)
