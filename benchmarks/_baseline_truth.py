"""Frozen object-based truth-table planners, for benchmark comparison only.

Verbatim copies of the four planners that the raw-int kernels of
``repro.truth`` and ``repro.synthesis.factoring`` replaced.  Every cofactor,
support test and complement here allocates a :class:`TruthTable`:

* :func:`baseline_isop` — the Minato-Morreale recursion on table objects;
* :func:`baseline_decompose` — DSD with the flip-based MAJ3 check;
* :func:`baseline_shannon_plan` — the Shannon split tree;
* :func:`baseline_canon` — exact NPN over per-transform minterm maps (the
  body of the old ``_canon_cached``, without its memo).

``bench_truth.py`` times these against the current kernels and asserts
identical outputs.  Do not use outside benchmarks.
"""

import itertools
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.truth.dsd import DsdNode
from repro.truth.isop import Cube
from repro.truth.truth_table import TruthTable

__all__ = [
    "baseline_isop",
    "baseline_decompose",
    "baseline_shannon_plan",
    "baseline_canon",
]


# --------------------------------------------------------------------- #
# ISOP                                                                   #
# --------------------------------------------------------------------- #

def _isop_rec(lower: TruthTable, upper: TruthTable, var: int) -> Tuple[List[Cube], TruthTable]:
    """Recursive core: returns (cubes, exact truth table of the cover)."""
    n = lower.num_vars
    if lower.is_const0():
        return [], TruthTable.const(n, False)
    if upper.is_const1():
        return [(0, 0)], TruthTable.const(n, True)

    # Find the topmost variable either bound depends on.
    v = var
    while v >= 0 and not (lower.has_var(v) or upper.has_var(v)):
        v -= 1
    if v < 0:  # no support left; lower != 0 and upper != 1 cannot happen here
        raise AssertionError("inconsistent ISOP interval")

    l0, l1 = lower.cofactor(v, False), lower.cofactor(v, True)
    u0, u1 = upper.cofactor(v, False), upper.cofactor(v, True)

    cubes0, cov0 = _isop_rec(l0 & ~u1, u0, v - 1)
    cubes1, cov1 = _isop_rec(l1 & ~u0, u1, v - 1)
    l_new = (l0 & ~cov0) | (l1 & ~cov1)
    cubes_star, cov_star = _isop_rec(l_new, u0 & u1, v - 1)

    bit = 1 << v
    cubes = [(p, q | bit) for (p, q) in cubes0]
    cubes += [(p | bit, q) for (p, q) in cubes1]
    cubes += cubes_star
    vtt = TruthTable.var(n, v)
    cover = (cov0 & ~vtt) | (cov1 & vtt) | cov_star
    return cubes, cover


def baseline_isop(tt: TruthTable, dont_cares: TruthTable = None) -> List[Cube]:
    lower = tt
    upper = tt if dont_cares is None else (tt | dont_cares)
    cubes, cover = _isop_rec(lower, upper, tt.num_vars - 1)
    # Sanity of the interval invariant (cheap; covers are small).
    assert (lower.bits & ~cover.bits) == 0 and (cover.bits & ~upper.bits) == 0
    return cubes


# --------------------------------------------------------------------- #
# DSD                                                                    #
# --------------------------------------------------------------------- #

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


def baseline_decompose(tt: TruthTable) -> Tuple[DsdNode, bool]:
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
            sub, c = baseline_decompose(f1)
            return DsdNode("and", children=[(_mk_var(v), False), (sub, c)]), False
        if f1.is_const0():  # f = !v AND f0
            sub, c = baseline_decompose(f0)
            return DsdNode("and", children=[(_mk_var(v), True), (sub, c)]), False
        if f0.is_const1():  # f = !v OR f1
            sub, c = baseline_decompose(f1)
            return DsdNode("or", children=[(_mk_var(v), True), (sub, c)]), False
        if f1.is_const1():  # f = v OR f0
            sub, c = baseline_decompose(f0)
            return DsdNode("or", children=[(_mk_var(v), False), (sub, c)]), False
        if f0 == ~f1:  # f = v XOR f0
            sub, c = baseline_decompose(f0)
            return DsdNode("xor", children=[(_mk_var(v), False), (sub, c)]), False

    # Prime function: Shannon expansion on the most binate variable.
    def binateness(v: int) -> int:
        f0 = tt.cofactor(v, False)
        f1 = tt.cofactor(v, True)
        return -(f0 ^ f1).count_ones()

    v = min(sup, key=binateness)
    f0 = tt.cofactor(v, False)
    f1 = tt.cofactor(v, True)
    hi, chi = baseline_decompose(f1)
    lo, clo = baseline_decompose(f0)
    node = DsdNode("mux", children=[(_mk_var(v), False), (hi, chi), (lo, clo)])
    return node, False


# --------------------------------------------------------------------- #
# Shannon plans                                                          #
# --------------------------------------------------------------------- #

def baseline_shannon_plan(tt: TruthTable) -> tuple:
    sup = tt.support()
    if not sup:
        return ("const", tt.is_const1())
    if len(sup) == 1:
        v = sup[0]
        return ("lit", v, int(tt != TruthTable.var(tt.num_vars, v)))
    # split on the most binate variable to keep both halves small
    v = max(sup, key=lambda x: (tt.cofactor(x, False) ^ tt.cofactor(x, True)).count_ones())
    return ("mux", v, baseline_shannon_plan(tt.cofactor(v, True)),
            baseline_shannon_plan(tt.cofactor(v, False)))


# --------------------------------------------------------------------- #
# exact NPN                                                              #
# --------------------------------------------------------------------- #

def _sigma(n: int, perm: Tuple[int, ...], phases: Tuple[bool, ...]) -> Tuple[int, ...]:
    out = []
    for x in range(1 << n):
        y = 0
        for i in range(n):
            bit = ((x >> i) & 1) ^ int(phases[i])
            if bit:
                y |= 1 << perm[i]
        out.append(y)
    return tuple(out)


@lru_cache(maxsize=None)
def _maps_for(n: int):
    """Every input transform of ``n`` variables as ``(perm, phases, sigma)``,
    where ``sigma`` maps destination minterm -> source minterm."""
    maps = []
    for perm in itertools.permutations(range(n)):
        for ph in range(1 << n):
            phases = tuple(bool((ph >> i) & 1) for i in range(n))
            maps.append((perm, phases, _sigma(n, perm, phases)))
    return maps


def baseline_canon(n: int, bits: int):
    best_bits = -1
    best = None
    mask = (1 << (1 << n)) - 1
    for perm, phases, sigma in _maps_for(n):
        val = 0
        for x in range(1 << n):
            if (bits >> sigma[x]) & 1:
                val |= 1 << x
        if val > best_bits:
            best_bits, best = val, (perm, phases, False)
        inv = val ^ mask
        if inv > best_bits:
            best_bits, best = inv, (perm, phases, True)
    return best_bits, best
