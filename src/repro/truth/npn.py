"""NPN canonization of truth tables.

Two functions are NPN-equivalent when one can be obtained from the other by
Negating inputs, Permuting inputs and/or Negating the output.  Canonizing cut
functions into NPN classes is the standard trick that lets a rewriting
database or a Boolean matcher store one structure per class instead of one
per function (Huang et al., FPT'13, used by the paper as the level-oriented
"4-input NPN library" strategy).

For up to 4 variables we do exhaustive canonization over all
``4! * 2^4 * 2 = 768`` transforms on the raw ``bits``, memoized by an LRU
cache.  Each input permutation is applied once, through nibble-wide gather
tables; the ``2^n`` input phases of that permutation are then visited in
Gray-code order, so each one costs a single input flip
(:func:`~repro.truth.truth_table._flip`), and the output phase is whichever
of ``f`` and ``~f`` is larger.  Among the transforms that reach the maximum
the first in ``(permutation, phase, output)`` order is returned, permutations
in :func:`itertools.permutations` order and phases as integers (bit ``i`` =
input ``i``).  For 5-6 variables :func:`semi_canonicalize` provides a
deterministic (but not canonical) signature-based normal form, which is all
the heuristic hash consumers need.

Transform semantics
-------------------
A transform ``t = (perm, phases, out_phase)`` acts on ``f`` as::

    apply(t, f)(x) = f(y) ^ out_phase,   where  y[perm[i]] = x[i] ^ phase[i]

:func:`canonicalize` returns ``(canon, perm, phases, out_phase)`` with
``canon == apply(t, f)``.  To rebuild ``f`` from a structure computing
``canon``: feed canonical input ``i`` with the literal ``x[perm[i]] ^
phases[i]`` and complement the output iff ``out_phase``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Tuple

from .truth_table import TruthTable, _flip, _var_masks

__all__ = ["canonicalize", "apply_transform", "semi_canonicalize", "NPNTransform"]

NPNTransform = Tuple[Tuple[int, ...], Tuple[bool, ...], bool]


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
def _perm_gathers(n: int) -> tuple:
    """Every input permutation of ``n`` variables, in
    :func:`itertools.permutations` order, as ``(perm, tables)``: OR-ing
    ``tables[k][(bits >> 4 * k) & 15]`` over ``k`` applies ``perm`` (all
    phases positive) to ``bits``."""
    rows = 1 << n
    width = min(4, rows)
    gathers = []
    for perm in itertools.permutations(range(n)):
        dest = [0] * rows  # source minterm -> destination minterm
        for x, y in enumerate(_sigma(n, perm, (False,) * n)):
            dest[y] = x
        tables = []
        for base in range(0, rows, width):
            table = []
            for nib in range(1 << width):
                val = 0
                for j in range(width):
                    if (nib >> j) & 1:
                        val |= 1 << dest[base + j]
                table.append(val)
            tables.append(tuple(table))
        gathers.append((perm, tuple(tables)))
    return tuple(gathers)


@lru_cache(maxsize=None)
def _phase_walk(n: int) -> tuple:
    """``(walk, phases)`` for ``n`` inputs.  ``walk`` lists the ``2^n`` input
    phases in Gray-code order as ``(phase, var, vm)``: flipping input ``var``
    (mask ``vm``) steps to the next phase; the step after the last phase is
    never taken.  ``phases[phase]`` is the shared transform tuple of a
    phase, so memoized transforms do not each hold a copy."""
    masks = _var_masks(n) or (0,)
    walk = []
    for k in range(1 << n):
        nxt = k + 1
        var = (nxt & -nxt).bit_length() - 1 if nxt < (1 << n) else 0
        walk.append((k ^ (k >> 1), var, masks[var]))
    phases = tuple(tuple(bool((ph >> i) & 1) for i in range(n)) for ph in range(1 << n))
    return tuple(walk), phases


def apply_transform(tt: TruthTable, transform: NPNTransform) -> TruthTable:
    """Apply an NPN transform: ``result(x) = tt(y) ^ out``, see module doc."""
    perm, phases, out_phase = transform
    n = tt.num_vars
    if len(perm) != n:
        raise ValueError("transform arity mismatch")
    sigma = _sigma(n, tuple(perm), tuple(phases))
    bits = 0
    src = tt.bits
    for x in range(1 << n):
        if (src >> sigma[x]) & 1:
            bits |= 1 << x
    if out_phase:
        bits ^= tt.mask
    return TruthTable(n, bits)


@lru_cache(maxsize=1 << 16)
def _canon_cached(n: int, bits: int):
    mask = (1 << (1 << n)) - 1
    top = 1 << ((1 << n) - 1)  # the larger of f and ~f has the top minterm
    walk, phases = _phase_walk(n)
    gathers = _perm_gathers(n)
    best_bits = best_index = best_phase = -1
    best_out = False
    for index, (_, tables) in enumerate(gathers):
        val = 0
        rest = bits
        for table in tables:
            val |= table[rest & 15]
            rest >>= 4
        for phase, var, vm in walk:
            cand = val if val & top else val ^ mask
            # ties keep the earlier permutation, then the lower phase
            if cand > best_bits or (cand == best_bits and index == best_index
                                    and phase < best_phase):
                best_bits, best_index, best_phase = cand, index, phase
                best_out = cand != val
            val = _flip(val, var, vm)
    return best_bits, (gathers[best_index][0], phases[best_phase], best_out)


def canonicalize(tt: TruthTable) -> Tuple[TruthTable, NPNTransform]:
    """Exact NPN canonical form for up to 4 variables.

    Returns ``(canon, transform)`` with ``apply_transform(tt, transform) ==
    canon``; the canonical representative is the NPN-variant with the largest
    truth-table integer.
    """
    if tt.num_vars > 4:
        raise ValueError("exact NPN canonization supported for <= 4 variables")
    bits, transform = _canon_cached(tt.num_vars, tt.bits)
    return TruthTable(tt.num_vars, bits), transform


def inverse_transform(transform: NPNTransform) -> NPNTransform:
    """Inverse transform: ``apply(inv, apply(t, f)) == f``."""
    perm, phases, out_phase = transform
    n = len(perm)
    inv_perm = [0] * n
    inv_phases = [False] * n
    for i in range(n):
        inv_perm[perm[i]] = i
        inv_phases[perm[i]] = phases[i]
    return tuple(inv_perm), tuple(inv_phases), out_phase


def semi_canonicalize(tt: TruthTable) -> Tuple[TruthTable, NPNTransform]:
    """Deterministic signature-based normal form for any variable count.

    Not a true canonical form (NPN-equivalent functions may normalize to
    different representatives) but stable and cheap; adequate for hashing.
    Returns the same ``(result, transform)`` contract as :func:`canonicalize`.
    """
    n = tt.num_vars
    work = tt
    phases = [False] * n
    # Normalize each input polarity: prefer the phase with the heavier
    # positive cofactor.
    for v in range(n):
        c1 = work.cofactor(v, True).count_ones()
        c0 = work.cofactor(v, False).count_ones()
        if c1 < c0:
            work = work.flip(v)
            phases[v] = True
    # Normalize output polarity.
    out_phase = False
    if work.count_ones() * 2 < work.num_bits:
        work = ~work
        out_phase = True
    # Sort variables by (cofactor weight, influence) signature.
    def sig(v: int):
        c1 = work.cofactor(v, True)
        c0 = work.cofactor(v, False)
        return (c1.count_ones(), (c1 ^ c0).count_ones(), v)

    order = sorted(range(n), key=sig)
    # order[i] = old var placed at new position i  ->  perm for permute()
    work = work.permute(order)
    # Express as a single transform (perm, phases, out) in apply() semantics:
    # apply first flips input i by phase[i], then routes new input i to old
    # input perm[i].  Our steps: flip old var v by phases[v], then new i :=
    # old order[i].  So perm[i] = position where new var i lands... permute()
    # with `order` makes new variable i behave as old variable order[i];
    # apply_transform with perm p makes y[p[i]] = x[i], i.e. new input i
    # drives old input p[i].  These coincide when p[i] = order[i].
    t_perm = tuple(order)
    t_phases = tuple(phases[order[i]] for i in range(n))
    return work, (t_perm, t_phases, out_phase)
