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

:func:`decompose` is a thin :class:`TruthTable` front; the recursion runs on
the raw ``bits`` through the integer primitives of
:mod:`repro.truth.truth_table`, so it allocates no table per cofactor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .truth_table import TruthTable, _cofactors, _support, _var_masks

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


def _maj3_check(bits: int, sup: List[int], masks: tuple, full: int) -> Optional[DsdNode]:
    """Detect MAJ of three literals over the three support variables ``sup``."""
    a, b, c = sup
    for pa in (False, True):
        la = masks[a] ^ full if pa else masks[a]
        for pb in (False, True):
            lb = masks[b] ^ full if pb else masks[b]
            for pc in (False, True):
                lc = masks[c] ^ full if pc else masks[c]
                if (la & lb) | (la & lc) | (lb & lc) == bits:
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
    return _decompose(tt.bits, _var_masks(tt.num_vars), tt.mask)


def _decompose(bits: int, masks: tuple, full: int, among=None) -> Tuple[DsdNode, bool]:
    """:func:`decompose` on raw ``bits``; ``masks`` is ``_var_masks(n)`` and
    ``among`` the variables the support can hold (``None``: all)."""
    if not bits:
        return DsdNode("const", value=False), False
    if bits == full:
        return DsdNode("const", value=False), True

    sup = _support(bits, masks, among)
    if len(sup) == 1:
        v = sup[0]
        return _mk_var(v), bits != masks[v]

    # Top-level MAJ of literals (gives MIG/XMG-native nodes).  A MAJ of three
    # literals holds on exactly half of the minterms, as does its complement.
    if len(sup) == 3 and bits.bit_count() << 1 == full.bit_length():
        maj = _maj3_check(bits, sup, masks, full)
        if maj is not None:
            return maj, False
        inv = _maj3_check(bits ^ full, sup, masks, full)
        if inv is not None:
            return inv, True

    # Try simple top decompositions on each support variable.
    v = most = -1
    for u in sup:
        f0, f1 = _cofactors(bits, u, masks[u])
        if not f0:  # f = u AND f1
            kind, neg, sub = "and", False, f1
        elif not f1:  # f = !u AND f0
            kind, neg, sub = "and", True, f0
        elif f0 == full:  # f = !u OR f1
            kind, neg, sub = "or", True, f1
        elif f1 == full:  # f = u OR f0
            kind, neg, sub = "or", False, f0
        elif f0 ^ f1 == full:  # f = u XOR f0
            kind, neg, sub = "xor", False, f0
        else:
            # remember the most binate variable (the first one on ties)
            binate = (f0 ^ f1).bit_count()
            if binate > most:
                v, most, lo_bits, hi_bits = u, binate, f0, f1
            continue
        node, c = _decompose(sub, masks, full, [x for x in sup if x != u])
        return DsdNode(kind, children=[(_mk_var(u), neg), (node, c)]), False

    # Prime function: Shannon expansion on the most binate variable.
    rest = [x for x in sup if x != v]
    hi, chi = _decompose(hi_bits, masks, full, rest)
    lo, clo = _decompose(lo_bits, masks, full, rest)
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
