"""Experiment E2 — Fig. 2: the motivating demo circuit.

The paper's Verilog demo::

    module demo(input [1:0] a, input [1:0] b, output res);
      assign res = (a + b) > 2'b00;
    endmodule

Technology-independent optimization *shrinks* the AIG but *worsens* the
mapped netlist; traditional DCH choices cannot recover, while the
MCH-based flow does.  We rebuild the circuit, run the three flows and
report the same (nodes, levels, choices, area, delay) tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuits.wordlevel import add_words
from ..core import MchParams, build_dch, build_mch
from ..mapping import asic_map
from ..networks import Aig, Mig, Xmg
from ..flow import optimize
from .common import batch_map, format_table

__all__ = ["demo_circuit", "run_fig2", "format_fig2"]

FLOW_ORDER = ["original", "optimized", "dch", "mch"]


@dataclass
class Fig2Row:
    flow: str
    nodes: int
    choices: int
    area: float
    delay: float


def demo_circuit() -> Aig:
    """(a + b) > 0 for two 2-bit inputs — the paper's Fig. 2 module."""
    ntk = Aig()
    a = [ntk.create_pi(f"a{i}") for i in range(2)]
    b = [ntk.create_pi(f"b{i}") for i in range(2)]
    total = add_words(ntk, a, b)
    ntk.create_po(ntk.create_nary_or(total), "res")
    return ntk


def _flow_task(task, ctx):
    """One of the four demo flows (sharded by ``run_fig2``)."""
    label, ntk, opt = task
    if label == "original":
        nl = asic_map(ntk, objective="delay")
        return label, Fig2Row("original", ntk.num_gates(), 0, nl.area(), nl.delay())
    if label == "optimized":
        nl = asic_map(opt, objective="delay")
        return label, Fig2Row("optimized (traditional)", opt.num_gates(), 0,
                              nl.area(), nl.delay())
    if label == "dch":
        dch = build_dch([opt, ntk])
        nl = asic_map(dch, objective="delay")
        return label, Fig2Row("DCH for map", dch.ntk.num_gates(),
                              dch.num_choices(), nl.area(), nl.delay())
    mch = build_mch(opt, MchParams(representations=(Mig, Xmg), ratio=0.8))
    nl = asic_map(mch, objective="delay")
    return label, Fig2Row("MCH for map", mch.ntk.num_gates(),
                          mch.num_choices(), nl.area(), nl.delay())


def run_fig2(jobs: int = 1) -> Dict[str, Fig2Row]:
    """Run the four demo flows; returns flow label -> row (in figure order).

    The demo circuit and its pre-optimization are computed once and shared
    by all four tasks.
    """
    ntk = demo_circuit()
    opt = optimize(ntk, "compress2rs", rounds=2)
    tasks = [(label, ntk, opt) for label in FLOW_ORDER]
    return dict(batch_map(tasks, _flow_task, jobs=jobs))


def format_fig2(rows: Dict[str, Fig2Row]) -> str:
    return format_table(
        ["flow", "nodes", "choices", "area", "delay"],
        [[r.flow, r.nodes, r.choices, r.area, r.delay] for r in rows.values()],
        title="Fig. 2 — demo circuit through the flows",
    )
