"""Graph mapping: mapping-based logic optimization / representation conversion.

Implements the versatile-mapping idea (Calvino et al., ASP-DAC'22) the paper
uses both as its "Graph Map" baseline and as the host of the MCH extension
(Section III-C): the subject network (optionally a mixed choice network) is
covered with cuts exactly like in LUT mapping — through the shared
:mod:`repro.mapping.engine` pipeline — but each selected cut is
*resynthesized* into a target representation, with the cut cost model
(:class:`~repro.mapping.engine.NpnCostModel`) taken from the target
representation's NPN structure database.  The output is a new
AIG/XAG/MIG/XMG rather than a LUT netlist.

Iterating graph mapping to a fixpoint (the flow script
``gm -r xmg; converge7( gm -r xmg )``) is a logic optimization loop; handing
it an MCH choice network lets it jump out of the single-representation local
optima, which is the paper's Fig. 6 experiment.
"""

from __future__ import annotations

from typing import Dict, Optional, Type, Union

from ..core.choice import ChoiceNetwork
from ..networks.base import LogicNetwork
from ..synthesis.npn_db import NpnCostCache
from ..synthesis.factoring import synthesize_tt
from ..truth.truth_table import TruthTable
from .engine import MappingSession, NpnCostModel, run_cover

__all__ = ["graph_map"]


def graph_map(subject: Union[LogicNetwork, ChoiceNetwork, MappingSession],
              target_cls: Type[LogicNetwork],
              objective: str = "area", k: int = 4, cut_limit: int = 8,
              flow_iterations: int = 1, exact_iterations: int = 1,
              cache: Optional[NpnCostCache] = None) -> LogicNetwork:
    """Remap ``subject`` into a fresh network of class ``target_cls``.

    ``objective='area'`` minimizes the estimated target gate count;
    ``objective='delay'`` minimizes the estimated target depth and recovers
    gates under required times.
    """
    session = MappingSession.of(subject)
    cost_model = NpnCostModel(target_cls, objective, cache=cache)
    cover = run_cover(
        session, cost_model, k=k, cut_limit=cut_limit, objective=objective,
        flow_iterations=flow_iterations, exact_iterations=exact_iterations,
    )

    ntk, db = cover.ntk, cover.db
    target = target_cls()
    mapping: Dict[int, int] = {0: target.const0}
    for name, n in zip(ntk.pi_names, ntk.pis):
        mapping[n] = target.create_pi(name)
    for m in cover.order:
        i = cover.selection[m]
        leaf_lits = [mapping[l] for l in db.leaves[i]]
        num_vars, bits = db.tt_vars[i], db.function(i)
        method = cost_model.best(num_vars, bits)[0]
        mapping[m] = synthesize_tt(target, TruthTable(num_vars, bits), leaf_lits,
                                   method=method)
    for p, name in zip(ntk.pos, ntk.po_names):
        target.create_po(mapping[p >> 1] ^ (p & 1), name)
    return target

