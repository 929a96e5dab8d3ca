"""Structure builders: truth table -> plan -> subnetwork.

These are the primitives behind every synthesis strategy of the MCH
strategy library (Algorithm 2), graph mapping, refactoring and the
netlist-to-network conversions.  Each builder takes a target network, the
function to realize, and the literals that drive the function's inputs, and
returns the output literal of a freshly constructed (strashed, hence
maximally shared) subnetwork.

Every method is split into a *plan* and a *replay*:

* the plan is a pure function of the truth table — the DSD tree of
  :func:`~repro.truth.dsd.decompose`, the literal-factored form of an ISOP
  cover, or the Shannon split tree;
* the replay walks the plan through the target's ``create_*`` calls, in the
  order a direct derivation would make them.  The level-aware merges read
  ``ntk.level`` of the actual operands during the replay, so a replayed plan
  builds exactly what deriving it afresh would.

Plans of functions of at most :data:`PLAN_MEMO_VARS` variables are memoized
process-wide in one bounded LRU cache (:func:`plan_memo_stats`): MCH
candidate generation resynthesizes the same few hundred cut functions
thousands of times, with every method in every representation, so each
decomposition is derived once — the idea of the precomputed 4-input
structures of DAG-aware AIG rewriting (Mishchenko et al., DAC'06).  Wider
functions rarely repeat, so their plans are derived on every call.

Available methods:

* ``build_from_dsd`` — disjoint-support decomposition tree, recursing into
  native AND/OR/XOR/MAJ/MUX constructors; good all-rounder and the source of
  heterogeneous (MAJ/XOR-rich) candidates.
* ``build_from_cubes`` — literal factoring of an ISOP cover (weak-division
  on the most frequent literal), the classic area-oriented resynthesis.
* ``build_shannon`` — Shannon cofactoring tree, a robust level-oriented
  fallback for prime functions.
* ``synthesize_tt`` — method dispatcher.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import List, Sequence

from ..networks.base import LogicNetwork, lit_not
from ..truth.dsd import DsdNode, decompose
from ..truth.isop import Cube, cube_literals, isop
from ..truth.truth_table import TruthTable, _cofactors, _support, _var_masks

__all__ = [
    "build_from_dsd",
    "build_from_cubes",
    "build_shannon",
    "synthesize_tt",
    "plan_memo_stats",
    "PLAN_MEMO_VARS",
    "SYNTHESIS_METHODS",
]

#: Functions of at most this many variables have their plans memoized.
PLAN_MEMO_VARS = 4


def _combine_level_aware(ntk: LogicNetwork, op, lits: Sequence[int], unit: int) -> int:
    """Huffman-style combination: merge the two shallowest operands first.

    Minimizes the depth of the resulting tree for unequal arrival levels.
    """
    if not lits:
        return unit
    heap = [(ntk.level(l >> 1), i, l) for i, l in enumerate(lits)]
    heapq.heapify(heap)
    counter = len(lits)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        c = op(a, b)
        counter += 1
        heapq.heappush(heap, (ntk.level(c >> 1), counter, c))
    return heap[0][2]


def build_from_dsd(ntk: LogicNetwork, root: DsdNode, complemented: bool,
                   leaf_lits: Sequence[int], balanced: bool = True) -> int:
    """Materialize a DSD tree; returns the output literal."""
    return _replay_dsd(ntk, root, leaf_lits, balanced) ^ int(complemented)


def _replay_dsd(ntk: LogicNetwork, node: DsdNode, leaf_lits: Sequence[int],
                balanced: bool) -> int:
    if node.kind == "const":
        return ntk.const1 if node.value else ntk.const0
    if node.kind == "var":
        return leaf_lits[node.var_index]
    child_lits = [_replay_dsd(ntk, ch, leaf_lits, balanced) ^ int(c)
                  for ch, c in node.children]
    if node.kind == "and":
        if balanced:
            return _combine_level_aware(ntk, ntk.create_and, child_lits, ntk.const1)
        return ntk.create_nary_and(child_lits, balanced=False)
    if node.kind == "or":
        if balanced:
            return _combine_level_aware(ntk, ntk.create_or, child_lits, ntk.const0)
        return ntk.create_nary_or(child_lits, balanced=False)
    if node.kind == "xor":
        if balanced:
            return _combine_level_aware(ntk, ntk.create_xor, child_lits, ntk.const0)
        return ntk.create_nary_xor(child_lits, balanced=False)
    if node.kind == "maj":
        return ntk.create_maj(*child_lits)
    if node.kind == "mux":
        return ntk.create_mux(*child_lits)
    raise ValueError(f"unknown DSD node kind {node.kind}")


# ---------------------------------------------------------------------- #
# factored ISOP covers                                                    #
# ---------------------------------------------------------------------- #
# A factored plan is a nested tuple; literals are ``(var, complemented)``
# pairs with the complement as 0/1:
#   ("zero",)                       the empty cover
#   ("and", lits)                   one cube: the AND of its literals
#   ("or", (lits, ...))             OR of cubes, no literal in two of them
#   ("div", var, neg, quot, rem)    (x_var ^ neg) & quot | rem  (rem may be None)

def _factor(cubes: List[Cube]) -> tuple:
    """Literal factoring of a cube cover: weak division on the most
    frequent literal, recursively."""
    if not cubes:
        return ("zero",)
    if len(cubes) == 1:
        return ("and", _cube_lits(cubes[0]))
    # most frequent literal across cubes (first in cube order on ties)
    counts = {}
    for pos, neg in cubes:
        m = pos
        v = 0
        while m:
            if m & 1:
                counts[(v, False)] = counts.get((v, False), 0) + 1
            m >>= 1
            v += 1
        m = neg
        v = 0
        while m:
            if m & 1:
                counts[(v, True)] = counts.get((v, True), 0) + 1
            m >>= 1
            v += 1
    (var, negated), best = max(counts.items(), key=lambda kv: kv[1])
    if best < 2:
        return ("or", tuple(_cube_lits(c) for c in cubes))
    bit = 1 << var
    if negated:
        quot = [(p, q & ~bit) for p, q in cubes if q & bit]
        rem = [(p, q) for p, q in cubes if not (q & bit)]
    else:
        quot = [(p & ~bit, q) for p, q in cubes if p & bit]
        rem = [(p, q) for p, q in cubes if not (p & bit)]
    return ("div", var, int(negated), _factor(quot), _factor(rem) if rem else None)


def _cube_lits(cube: Cube) -> tuple:
    return tuple((v, int(neg)) for v, neg in cube_literals(cube))


def _replay_factored(ntk: LogicNetwork, node: tuple, leaf_lits: Sequence[int],
                     balanced: bool) -> int:
    kind = node[0]
    if kind == "div":
        _, var, neg, quot, rem = node
        factored = ntk.create_and(leaf_lits[var] ^ neg,
                                  _replay_factored(ntk, quot, leaf_lits, balanced))
        if rem is None:
            return factored
        return ntk.create_or(factored, _replay_factored(ntk, rem, leaf_lits, balanced))
    if kind == "and":
        return _cube_and(ntk, node[1], leaf_lits, balanced)
    if kind == "or":
        terms = [_cube_and(ntk, c, leaf_lits, balanced) for c in node[1]]
        if balanced:
            return _combine_level_aware(ntk, ntk.create_or, terms, ntk.const0)
        return ntk.create_nary_or(terms, balanced=True)
    return ntk.const0


def _cube_and(ntk: LogicNetwork, cube: tuple, leaf_lits: Sequence[int],
              balanced: bool) -> int:
    lits = [leaf_lits[v] ^ neg for v, neg in cube]
    if not lits:
        return ntk.const1
    if balanced:
        return _combine_level_aware(ntk, ntk.create_and, lits, ntk.const1)
    return ntk.create_nary_and(lits, balanced=True)


def build_from_cubes(ntk: LogicNetwork, cubes: List[Cube], leaf_lits: Sequence[int],
                     balanced: bool = False) -> int:
    """Literal-factored realization of a cube cover."""
    return _replay_factored(ntk, _factor(cubes), leaf_lits, balanced)


# ---------------------------------------------------------------------- #
# Shannon trees                                                           #
# ---------------------------------------------------------------------- #
# A Shannon plan is a nested tuple:
#   ("const", value)        a constant
#   ("lit", var, neg)       x_var ^ neg
#   ("mux", var, hi, lo)    x_var ? hi : lo

def _shannon_plan(tt: TruthTable) -> tuple:
    return _shannon_rec(tt.bits, _var_masks(tt.num_vars), tt.mask)


def _shannon_rec(bits: int, masks: tuple, full: int, among=None) -> tuple:
    """Shannon plan of raw ``bits``; ``masks`` is ``_var_masks(n)`` and
    ``among`` the variables the support can hold (``None``: all)."""
    if not bits or bits == full:
        return ("const", bits == full)
    sup = _support(bits, masks, among)
    if len(sup) == 1:
        v = sup[0]
        return ("lit", v, int(bits != masks[v]))
    # split on the most binate variable (the first one on ties) to keep both
    # halves small
    v = most = -1
    for x in sup:
        f0, f1 = _cofactors(bits, x, masks[x])
        binate = (f0 ^ f1).bit_count()
        if binate > most:
            v, most, lo, hi = x, binate, f0, f1
    rest = [x for x in sup if x != v]
    return ("mux", v, _shannon_rec(hi, masks, full, rest), _shannon_rec(lo, masks, full, rest))


def _replay_shannon(ntk: LogicNetwork, plan: tuple, leaf_lits: Sequence[int]) -> int:
    kind = plan[0]
    if kind == "mux":
        _, v, hi, lo = plan
        hi_lit = _replay_shannon(ntk, hi, leaf_lits)
        lo_lit = _replay_shannon(ntk, lo, leaf_lits)
        return ntk.create_mux(leaf_lits[v], hi_lit, lo_lit)
    if kind == "lit":
        return leaf_lits[plan[1]] ^ plan[2]
    return ntk.const1 if plan[1] else ntk.const0


def build_shannon(ntk: LogicNetwork, tt: TruthTable, leaf_lits: Sequence[int]) -> int:
    """Shannon cofactoring tree over the function's support."""
    return _replay_shannon(ntk, _shannon_plan(tt), leaf_lits)


# ---------------------------------------------------------------------- #
# plans and the dispatcher                                                #
# ---------------------------------------------------------------------- #

#: analysis -> planner; ``dsd`` plans are ``(root, complemented)``
_PLANNERS = {
    "dsd": decompose,
    "sop": lambda tt: _factor(isop(tt)),
    "shannon": _shannon_plan,
}


@lru_cache(maxsize=1 << 12)
def _cached_plan(analysis: str, num_vars: int, bits: int):
    return _PLANNERS[analysis](TruthTable(num_vars, bits))


def _plan(analysis: str, tt: TruthTable):
    """The ``analysis`` plan of ``tt``; shared, so never mutate it."""
    if tt.num_vars <= PLAN_MEMO_VARS:
        return _cached_plan(analysis, tt.num_vars, tt.bits)
    return _PLANNERS[analysis](tt)


def plan_memo_stats() -> dict:
    """Counters of the process-wide plan memo."""
    info = _cached_plan.cache_info()
    return {"hits": info.hits, "misses": info.misses,
            "currsize": info.currsize, "maxsize": info.maxsize}


def synthesize_tt(ntk: LogicNetwork, tt: TruthTable, leaf_lits: Sequence[int],
                  method: str = "dsd") -> int:
    """Synthesize ``tt`` into ``ntk`` with the given method; returns literal.

    Methods: ``dsd`` (balanced DSD), ``dsd_chain`` (area-leaning DSD),
    ``sop`` (factored ISOP), ``sop_balanced`` (level-aware factored ISOP),
    ``shannon`` (cofactor tree), ``nsop`` (factored ISOP of the complement,
    complemented back — catches functions whose off-set is simpler).

    The method's plan (DSD tree, factored ISOP or Shannon tree) is replayed
    into ``ntk``; ``dsd``/``dsd_chain`` share one plan, as do
    ``sop``/``sop_balanced``, and ``nsop`` replays the factored plan of the
    complement.  Plans of functions of at most :data:`PLAN_MEMO_VARS`
    variables come from the process-wide memo.
    """
    if len(leaf_lits) != tt.num_vars:
        raise ValueError("leaf literal count must match variable count")
    if method in ("dsd", "dsd_chain"):
        root, compl = _plan("dsd", tt)
        return build_from_dsd(ntk, root, compl, leaf_lits, balanced=(method == "dsd"))
    if method in ("sop", "sop_balanced"):
        return _replay_factored(ntk, _plan("sop", tt), leaf_lits,
                                balanced=(method == "sop_balanced"))
    if method == "nsop":
        return lit_not(_replay_factored(ntk, _plan("sop", ~tt), leaf_lits, balanced=False))
    if method == "shannon":
        return _replay_shannon(ntk, _plan("shannon", tt), leaf_lits)
    raise ValueError(f"unknown synthesis method {method!r}")


#: All methods understood by :func:`synthesize_tt`.
SYNTHESIS_METHODS = ("dsd", "dsd_chain", "sop", "sop_balanced", "nsop", "shannon")
