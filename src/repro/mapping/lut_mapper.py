"""Cut-based structural mapper (K-LUT / graph-mapping front-end).

The covering machinery — priority cuts, depth pass, required times,
area-flow and exact-area recovery — lives in :mod:`repro.mapping.engine`;
this module is the thin K-LUT front-end over it.  The mapper is
*choice-aware*: handed a :class:`~repro.core.choice.ChoiceNetwork`, the
engine enumerates cuts in choice processing order and merges choice cut sets
into their representatives (Algorithm 3 of the paper), so candidates from
heterogeneous representations compete on equal terms inside the dynamic
program.

The covering pipeline, :func:`~repro.mapping.engine.run_cover`, drives these
consumers:

* :func:`lut_map` — FPGA K-LUT mapping (:class:`~repro.mapping.engine.UnitCostModel`);
* :mod:`repro.mapping.graph_mapper` — mapping-based logic optimization,
  where the cut cost is the estimated gate count of resynthesizing the cut
  in the target representation.

Standard-cell mapping (:mod:`repro.mapping.asic_mapper`) shares the cut
database but not this pipeline: it runs its own phase-aware cover.
"""

from __future__ import annotations

from typing import Dict, Union

from ..core.choice import ChoiceNetwork
from ..networks.base import LogicNetwork
from ..networks.lut_network import LutNetwork
from ..truth.truth_table import TruthTable
from .engine import (
    MappingCover,
    MappingSession,
    UnitCostModel,
    run_cover,
)

__all__ = ["MappingCover", "lut_map"]

Subject = Union[LogicNetwork, ChoiceNetwork, MappingSession]


def lut_map(subject: Subject, k: int = 6,
            cut_limit: int = 8, objective: str = "area",
            flow_iterations: int = 1, exact_iterations: int = 2) -> LutNetwork:
    """Map a (choice) network into a K-LUT network.

    ``objective='delay'`` minimizes LUT depth first then recovers area under
    required times; ``objective='area'`` minimizes LUT count directly.
    Passing a :class:`MappingSession` reuses its shared cut database.
    """
    cover = run_cover(
        MappingSession.of(subject), UnitCostModel(), k=k, cut_limit=cut_limit,
        objective=objective, flow_iterations=flow_iterations,
        exact_iterations=exact_iterations,
    )

    ntk, db = cover.ntk, cover.db
    lut = LutNetwork(k)
    mapping: Dict[int, int] = {0: 0}
    for name, n in zip(ntk.pi_names, ntk.pis):
        mapping[n] = lut.create_pi(name)
    for m in cover.order:
        i = cover.selection[m]
        fis = [mapping[l] for l in db.leaves[i]]
        mapping[m] = lut.create_lut(fis, TruthTable(db.tt_vars[i], db.function(i)))
    for p, name in zip(ntk.pos, ntk.po_names):
        lut.create_po(mapping[p >> 1], bool(p & 1), name)
    return lut
