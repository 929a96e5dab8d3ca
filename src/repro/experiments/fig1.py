"""Experiment E1 — Fig. 1: one circuit, four representations, four mappings.

The paper's motivating figure converts the EPFL ``max`` circuit into AIG,
XAG, MIG and XMG and maps each both delay- and area-oriented with the ASAP7
library, showing that no single representation wins everywhere.  We
reproduce it with graph mapping as the conversion engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Type

from ..circuits import build
from ..mapping import MappingSession, asic_map, graph_map
from ..networks import Aig, LogicNetwork, Mig, Xag, Xmg
from ..flow import optimize
from .common import batch_map, format_table

__all__ = ["REPRESENTATIONS", "run_fig1", "format_fig1"]

REPRESENTATIONS: Dict[str, Type[LogicNetwork]] = {
    "AIG": Aig,
    "XAG": Xag,
    "MIG": Mig,
    "XMG": Xmg,
}


@dataclass
class Fig1Row:
    rep: str
    gates: int
    depth: int
    delay_area: float
    delay_delay: float
    area_area: float
    area_delay: float


def _rep_task(task, ctx):
    """Convert-and-map one representation (sharded by ``run_fig1``)."""
    rep_name, ntk = task
    converted = graph_map(ntk, REPRESENTATIONS[rep_name], objective="area")
    session = MappingSession.of(converted)  # both objectives share its cuts
    nl_d = asic_map(session, objective="delay")
    nl_a = asic_map(session, objective="area")
    return rep_name, Fig1Row(
        rep=rep_name,
        gates=converted.num_gates(),
        depth=converted.depth(),
        delay_area=nl_d.area(),
        delay_delay=nl_d.delay(),
        area_area=nl_a.area(),
        area_delay=nl_a.delay(),
    )


def run_fig1(circuit: str = "max", scale: str = "small",
             reps: Optional[Sequence[str]] = None,
             jobs: int = 1) -> Dict[str, Fig1Row]:
    """Map one circuit from each representation; returns rep -> row.

    The shared pre-optimized network is computed once; ``jobs>1`` fans the
    per-representation conversions and mappings across worker processes.
    """
    ntk = optimize(build(circuit, scale), "compress2rs", rounds=2)
    tasks = [(rep_name, ntk) for rep_name in (reps or REPRESENTATIONS)]
    return dict(batch_map(tasks, _rep_task, jobs=jobs))


def format_fig1(rows: Dict[str, Fig1Row], circuit: str = "max") -> str:
    return format_table(
        ["rep", "gates", "depth", "delayMap.area", "delayMap.delay",
         "areaMap.area", "areaMap.delay"],
        [[r.rep, r.gates, r.depth, r.delay_area, r.delay_delay, r.area_area, r.area_delay]
         for r in rows.values()],
        title=f"Fig. 1 — '{circuit}' mapped from each representation",
    )
