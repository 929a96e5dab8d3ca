"""Experiment E5 — Fig. 6: MCH-based graph-mapping logic optimization.

Protocol (Section IV-B): iterate XMG graph mapping until it stops improving
(the *Baseline* local optimum); then build mixed choice networks (MIG + XMG
candidates) and keep graph-mapping through the choices until convergence
(*MCH for Graph Map*).  Both results are then 6-LUT-mapped (*MCH for LUT
Map*).  Reported numbers are percent improvements of MCH over the baseline
in node count and level, per circuit, plus geometric means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..circuits import ALL_BENCHMARKS, build
from ..flow import FlowRunner
from .common import format_table, geomean, improvement

__all__ = ["run_fig6", "format_fig6", "summarize_fig6"]

#: *Baseline*: iterate XMG graph mapping to a local optimum (≤ 8 rounds).
BASELINE_SCRIPT = "gm -r xmg; converge7( gm -r xmg )"
#: *MCH for Graph Map*: keep graph-mapping through MIG + XMG choices.
MCH_SCRIPT = "converge6( mch -p mig,xmg -r 1.0; gm -r xmg )"


@dataclass
class Fig6Row:
    base_nodes: int
    base_levels: int
    mch_nodes: int
    mch_levels: int
    base_luts: int
    base_lut_levels: int
    mch_luts: int
    mch_lut_levels: int

    @property
    def node_gain(self) -> float:
        return improvement(self.base_nodes, self.mch_nodes)

    @property
    def level_gain(self) -> float:
        return improvement(self.base_levels, self.mch_levels)

    @property
    def lut_gain(self) -> float:
        return improvement(self.base_luts, self.mch_luts)

    @property
    def lut_level_gain(self) -> float:
        return improvement(self.base_lut_levels, self.mch_lut_levels)


def run_fig6(names: Optional[Sequence[str]] = None, scale: str = "small",
             k: int = 6) -> Dict[str, Fig6Row]:
    runner = FlowRunner()
    lut_script = f"if -k {k}"
    out: Dict[str, Fig6Row] = {}
    for name in names or ALL_BENCHMARKS:
        baseline = runner.run(build(name, scale), BASELINE_SCRIPT).network
        improved = runner.run(baseline, MCH_SCRIPT).network
        base_lut = runner.run(baseline, lut_script).network
        mch_lut = runner.run(improved, lut_script).network
        out[name] = Fig6Row(
            base_nodes=baseline.num_gates(), base_levels=baseline.depth(),
            mch_nodes=improved.num_gates(), mch_levels=improved.depth(),
            base_luts=base_lut.num_luts(), base_lut_levels=base_lut.depth(),
            mch_luts=mch_lut.num_luts(), mch_lut_levels=mch_lut.depth(),
        )
    return out


def summarize_fig6(rows: Dict[str, Fig6Row]) -> Dict[str, float]:
    """Geomean improvements, matching the paper's star markers."""
    def gm(ratios):
        vals = [max(r, 1e-9) for r in ratios]
        return (1.0 - geomean(vals)) * 100.0

    return {
        "graph_node_gain_%": gm(r.mch_nodes / max(r.base_nodes, 1) for r in rows.values()),
        "graph_level_gain_%": gm(r.mch_levels / max(r.base_levels, 1) for r in rows.values()),
        "lut_node_gain_%": gm(r.mch_luts / max(r.base_luts, 1) for r in rows.values()),
        "lut_level_gain_%": gm(r.mch_lut_levels / max(r.base_lut_levels, 1) for r in rows.values()),
    }


def format_fig6(rows: Dict[str, Fig6Row]) -> str:
    table = format_table(
        ["circuit", "base.xmg", "base.lev", "mch.xmg", "mch.lev",
         "node.gain%", "lev.gain%", "lut.gain%", "lutlev.gain%"],
        [[name, r.base_nodes, r.base_levels, r.mch_nodes, r.mch_levels,
          r.node_gain, r.level_gain, r.lut_gain, r.lut_level_gain]
         for name, r in rows.items()],
        title="Fig. 6 — MCH-based graph-map optimization",
    )
    s = summarize_fig6(rows)
    extra = ("\nGeomean gains: graph map nodes {graph_node_gain_%:.2f}% / levels "
             "{graph_level_gain_%:.2f}%; LUT map nodes {lut_node_gain_%:.2f}% / "
             "levels {lut_level_gain_%:.2f}%").format(**s)
    return table + extra
