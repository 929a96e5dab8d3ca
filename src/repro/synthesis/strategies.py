"""The multi-strategy synthesis library of MCH (Algorithm 2's ``lib``).

A :class:`StrategyLibrary` bundles, per optimization objective, the synthesis
methods to apply to cut / MFFC functions and the representations the
candidates should be expressed in.  MCH construction walks the network, picks
the level- or area-oriented strategy per node (critical-path classification),
and materializes one candidate per (method, representation) pair as a choice
node.

The defaults mirror the paper's examples: level-oriented synthesis uses the
4-input-NPN-style balanced decompositions, area-oriented synthesis uses
SOP factoring and DSD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Type

from ..networks.base import LogicNetwork, rep_view
from ..truth.truth_table import TruthTable
from .factoring import synthesize_tt

__all__ = ["SynthesisStrategy", "StrategyLibrary", "synthesize_candidates"]


@dataclass(frozen=True)
class SynthesisStrategy:
    """A named bundle of synthesis methods serving one objective."""

    name: str
    methods: Tuple[str, ...]
    objective: str  # "level" or "area"

    def __post_init__(self):
        if self.objective not in ("level", "area"):
            raise ValueError("objective must be 'level' or 'area'")


#: Level-oriented: balanced DSD (NPN-library style), level-aware factored
#: SOP, Shannon cofactoring.
LEVEL_STRATEGY = SynthesisStrategy("npn-level", ("dsd", "sop_balanced", "shannon"), "level")
#: Area-oriented: factored SOP of on-set and off-set, chain DSD.
AREA_STRATEGY = SynthesisStrategy("sop-area", ("sop", "nsop", "dsd_chain"), "area")


@dataclass
class StrategyLibrary:
    """The level- and area-oriented strategies Algorithm 2 draws candidates
    from (the candidate representations live in ``MchParams``)."""

    level: SynthesisStrategy = LEVEL_STRATEGY
    area: SynthesisStrategy = AREA_STRATEGY

    def for_objective(self, objective: str) -> SynthesisStrategy:
        return self.level if objective == "level" else self.area


def synthesize_candidates(ntk: LogicNetwork, tt: TruthTable, leaf_lits: Sequence[int],
                          strategy: SynthesisStrategy,
                          representations: Sequence[Type[LogicNetwork]]) -> List[int]:
    """Build one candidate per (method, representation); returns unique literals.

    Candidates are constructed *into* ``ntk`` (normally a mixed network)
    through representation builder views, so an MIG-flavoured candidate
    consists of MAJ gates even though the hosting network is mixed.
    """
    out: List[int] = []
    seen = set()
    for rep_cls in representations:
        view = rep_view(ntk, rep_cls)
        for method in strategy.methods:
            cand = synthesize_tt(view, tt, leaf_lits, method=method)
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out
