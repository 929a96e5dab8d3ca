"""Mixed Structural Choices — the paper's core contribution (Algorithms 1-2).

:func:`build_mch` takes an input network and produces a
:class:`~repro.core.choice.ChoiceNetwork` over a mixed-representation
network:

1. the input structure is retained one-to-one inside a mixed network (the
   "more expressive logic representation" of Algorithm 1, line 1);
2. critical-path nodes are collected with ratio ``r`` (line 2);
3. cuts are enumerated with size ``k`` and limit ``l`` (line 3);
4. the multi-strategy structural choice algorithm (Algorithm 2) synthesizes,
   for every node, functionally equivalent candidate structures: critical
   nodes get *level-oriented* resyntheses of their cuts, non-critical nodes
   get *area-oriented* resyntheses of their cuts and of their MFFC
   (bounded by ``K`` leaf inputs);
5. candidates are registered as choice nodes of their representative — the
   original network is never modified, only extended.

The candidates are expressed in the gate vocabulary of the requested
heterogeneous representations (e.g. AIG + XMG), which is what lets the
choice-aware mapper (Algorithm 3) pick per region whichever representation
maps best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Type

from ..cuts.database import CutDatabase
from ..networks.base import GateType, LogicNetwork, require_combinational
from ..networks.mixed import MixedNetwork
from ..synthesis.strategies import StrategyLibrary, synthesize_candidates
from ..truth.truth_table import TruthTable
from .choice import ChoiceNetwork
from .critical import critical_nodes

__all__ = ["MchParams", "build_mch"]


@dataclass
class MchParams:
    """Parameters of MCH construction (names follow Algorithm 1).

    ``representations`` selects the heterogeneous candidate vocabularies; the
    default pairs the original structure with XMG-flavoured candidates, the
    combination the paper uses for its FPGA record runs.
    """

    cut_size: int = 4            # k
    cut_limit: int = 8           # l
    mffc_max_pis: int = 8        # K
    ratio: float = 1.0           # r — critical-path threshold
    representations: Tuple[Type[LogicNetwork], ...] = ()
    strategies: StrategyLibrary = field(default_factory=StrategyLibrary)
    max_cuts_per_node: int = 3   # candidate-generation budget per node
    min_cut_size: int = 2        # skip trivial/buffer cuts during generation


def _default_representations() -> Tuple[Type[LogicNetwork], ...]:
    from ..networks.xmg import Xmg

    return (Xmg,)


def build_mch(ntk: LogicNetwork, params: Optional[MchParams] = None) -> ChoiceNetwork:
    """Build a mixed choice network from ``ntk`` (Algorithm 1).

    The input network is copied one-to-one into a :class:`MixedNetwork`; all
    candidate structures are added alongside as choice nodes.  The result is
    ready for choice-aware technology mapping.
    """
    require_combinational(ntk, "build_mch")
    params = params or MchParams()
    reps = params.representations or _default_representations()

    # line 1: host the input structure, unchanged, in the expressive network
    mixed = MixedNetwork()
    ntk.copy_into(mixed)
    choice_net = ChoiceNetwork(mixed)

    # line 2: critical-path node collection
    critical = critical_nodes(mixed, params.ratio)

    # line 3: cut enumeration on the original structure (shared flat database)
    cuts = CutDatabase(mixed, k=params.cut_size, cut_limit=params.cut_limit)

    # Algorithm 2: multi-strategy structural choices.
    # Snapshot the original gate list — candidates appended during the loop
    # must not be re-expanded.
    original_gates = list(mixed.gates())
    fanout_counts = mixed.fanout_counts()

    for node in original_gates:
        if node in critical:
            strategy = params.strategies.for_objective("level")
            sources = _node_cut_functions(mixed, cuts, node, params)
        else:
            strategy = params.strategies.for_objective("area")
            sources = _node_cut_functions(mixed, cuts, node, params)
            mffc_source = _mffc_function(mixed, node, fanout_counts, params)
            if mffc_source is not None:
                sources.append(mffc_source)
        for tt, leaf_lits in sources:
            candidates = synthesize_candidates(mixed, tt, leaf_lits, strategy, reps)
            for cand in candidates:
                choice_net.add_choice(node, cand)

    return choice_net


def _node_cut_functions(mixed: MixedNetwork, cuts: CutDatabase, node: int, params: MchParams):
    """(tt, leaf literals) pairs for the node's most useful cuts.

    Only the cuts taken here have their functions evaluated.
    """
    out = []
    for i in cuts.cuts(node):
        if len(out) >= params.max_cuts_per_node:
            break
        leaves = cuts.leaves[i]
        if len(leaves) < params.min_cut_size:
            continue
        tt = TruthTable(cuts.tt_vars[i], cuts.function(i))
        out.append((tt, [leaf << 1 for leaf in leaves]))
    return out


def _mffc_function(mixed: MixedNetwork, node: int, fanout_counts, params: MchParams):
    """The node's MFFC as a (tt, leaf literals) synthesis source, if small."""
    cone = mixed.mffc(node, fanout_counts)
    if len(cone) < 2:
        return None
    leaves = mixed.mffc_leaves(cone)
    if not leaves or len(leaves) > params.mffc_max_pis:
        return None
    tt = mixed.local_function(node, leaves)
    return tt, [leaf << 1 for leaf in leaves]
