"""Irredundant sum-of-products computation (Minato-Morreale ISOP).

The ISOP algorithm recursively computes, from an interval ``[lower, upper]``
of Boolean functions, a cube cover ``C`` with ``lower <= C <= upper`` that is
irredundant by construction.  It is the basis of the *area-oriented* SOP
resynthesis strategy in the MCH multi-strategy library (Algorithm 2 of the
paper) and of refactoring.

Cubes are ``(pos, neg)`` bit-mask pairs: variable ``v`` appears positively if
bit ``v`` of ``pos`` is set, negatively if bit ``v`` of ``neg`` is set.  The
empty cube ``(0, 0)`` is the tautology.

:func:`isop` is a thin :class:`TruthTable` front; the recursion runs on the
raw ``bits`` of the interval bounds through the integer primitives of
:mod:`repro.truth.truth_table`, so it allocates no table per cofactor.
"""

from __future__ import annotations

from typing import List, Tuple

from .truth_table import TruthTable, _cofactors, _depends, _var_masks

__all__ = ["Cube", "isop", "cube_truth_table", "cover_truth_table", "cube_literals"]

Cube = Tuple[int, int]  # (positive literal mask, negative literal mask)


def cube_truth_table(cube: Cube, num_vars: int) -> TruthTable:
    """Truth table of a single cube over ``num_vars`` variables."""
    pos, neg = cube
    tt = TruthTable.const(num_vars, True)
    for v in range(num_vars):
        if (pos >> v) & 1:
            tt = tt & TruthTable.var(num_vars, v)
        if (neg >> v) & 1:
            tt = tt & ~TruthTable.var(num_vars, v)
    return tt


def cover_truth_table(cubes: List[Cube], num_vars: int) -> TruthTable:
    """Truth table of the OR of all cubes."""
    tt = TruthTable.const(num_vars, False)
    for cube in cubes:
        tt = tt | cube_truth_table(cube, num_vars)
    return tt


def cube_literals(cube: Cube) -> List[Tuple[int, bool]]:
    """List of ``(var, complemented)`` literals of a cube."""
    pos, neg = cube
    lits = []
    v = 0
    while (pos >> v) or (neg >> v):
        if (pos >> v) & 1:
            lits.append((v, False))
        if (neg >> v) & 1:
            lits.append((v, True))
        v += 1
    return lits


def _isop_rec(lower: int, upper: int, var: int, masks: tuple,
              full: int) -> Tuple[List[Cube], int]:
    """Recursive core on raw bits: returns (cubes, exact bits of the cover)."""
    if not lower:
        return [], 0
    if upper == full:
        return [(0, 0)], full

    # Find the topmost variable either bound depends on.
    v = var
    while v >= 0 and not (_depends(lower, v, masks[v]) or _depends(upper, v, masks[v])):
        v -= 1
    if v < 0:  # no support left; lower != 0 and upper != 1 cannot happen here
        raise AssertionError("inconsistent ISOP interval")

    vm = masks[v]
    l0, l1 = _cofactors(lower, v, vm)
    u0, u1 = _cofactors(upper, v, vm)

    cubes0, cov0 = _isop_rec(l0 & (u1 ^ full), u0, v - 1, masks, full)
    cubes1, cov1 = _isop_rec(l1 & (u0 ^ full), u1, v - 1, masks, full)
    l_new = (l0 & (cov0 ^ full)) | (l1 & (cov1 ^ full))
    cubes_star, cov_star = _isop_rec(l_new, u0 & u1, v - 1, masks, full)

    bit = 1 << v
    cubes = [(p, q | bit) for (p, q) in cubes0]
    cubes += [(p | bit, q) for (p, q) in cubes1]
    cubes += cubes_star
    cover = (cov0 & (vm ^ full)) | (cov1 & vm) | cov_star
    return cubes, cover


def isop(tt: TruthTable, dont_cares: TruthTable = None) -> List[Cube]:
    """Irredundant SOP cover of ``tt`` (optionally exploiting don't-cares).

    The returned cover ``C`` satisfies ``tt <= C <= tt | dont_cares`` and is
    irredundant (no cube or literal can be dropped).  ``dont_cares`` must
    have the variable count of ``tt`` (``ValueError`` otherwise).
    """
    lower = tt.bits
    upper = lower if dont_cares is None else (tt | dont_cares).bits
    n = tt.num_vars
    cubes, cover = _isop_rec(lower, upper, n - 1, _var_masks(n), tt.mask)
    # Sanity of the interval invariant (cheap; covers are small).
    assert (lower & ~cover) == 0 and (cover & ~upper) == 0
    return cubes


def num_literals(cubes: List[Cube]) -> int:
    """Total literal count of a cover (classic area proxy)."""
    return sum(bin(p).count("1") + bin(q).count("1") for p, q in cubes)
