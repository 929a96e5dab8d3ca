"""Experiment E3 — Table I: ASIC technology mapping on the EPFL suite.

Reproduces the paper's six-column comparison:

1. ``baseline``      — delay-oriented mapping of the optimized AIG (ABC's
   ``&nf`` analogue);
2. ``dch``           — traditional structural choices, delay mapping
   (``&dch -m; &nf``);
3. ``dch_area``      — traditional structural choices, area mapping
   (``dch; map -a``);
4. ``mch_balanced``  — MCH from the input AIG alone (path-classified
   level/area candidate strategies), delay mapping;
5. ``mch_delay``     — MCH after XAG conversion (XAG + AIG choices, widened
   critical region r=0.6), delay mapping;
6. ``mch_area``      — MCH with XMG + AIG choices, no critical region,
   area mapping.

Every circuit is first pushed through the ``compress2rs`` analogue, exactly
like the paper "simulates the logic optimization process" before mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits import ALL_BENCHMARKS, build
from ..core import build_dch
from ..flow import FlowContext, FlowRunner, optimize
from ..networks import Aig
from .common import Timer, batch_map, format_table, geomean, improvement

__all__ = ["CONFIG_ORDER", "run_circuit", "run_table1", "summarize", "format_results"]

#: Each configuration as a flow script.  ``dch``/``dch_area`` map the DCH
#: choice network built from optimization snapshots; every other config
#: runs on the pre-optimized network.
CONFIG_SCRIPTS: Dict[str, str] = {
    "baseline": "am -o delay",
    "dch": "am -o delay",
    "dch_area": "am -o area",
    "mch_balanced": "mch -p aig -r 1.0; am -o delay",
    "mch_delay": "gm -r xag -o delay; mch -p xag,aig -r 0.6; am -o delay",
    "mch_area": "mch -p xmg,aig -r 1.5; am -o area",
}

CONFIG_ORDER = list(CONFIG_SCRIPTS)


@dataclass
class MappingResultRow:
    area: float
    delay: float
    seconds: float


def run_circuit(ntk: Aig, configs: Optional[Sequence[str]] = None,
                opt_rounds: int = 2, context=None) -> Dict[str, MappingResultRow]:
    """Run the Table-I configurations on one circuit; returns config -> row.

    ``context`` threads one shared :class:`~repro.flow.context.FlowContext`
    (engines, caches) through the pre-optimization, the choice builds and
    every configuration's script.
    """
    configs = list(configs or CONFIG_ORDER)
    ctx = context if context is not None else FlowContext()
    runner = FlowRunner(ctx)
    opt = optimize(ntk, "compress2rs", rounds=opt_rounds, context=ctx)

    dch, build_seconds = None, 0.0
    if "dch" in configs or "dch_area" in configs:
        with Timer() as t_build:
            snapshots = [opt, optimize(opt, "compress2rs", rounds=2, context=ctx), ntk]
            dch = build_dch(snapshots, sat_verify=True)
            # One session: the delay- and area-oriented runs share the cut
            # database.  Prebuild it here (k=4 matches the ASIC mapper's pin
            # bound) so both configs' mapping times stay comparable — the
            # shared enumeration is charged to the shared build time.
            ctx.mapping_session(dch).cut_database(4, 8)
        build_seconds = t_build.seconds

    out: Dict[str, MappingResultRow] = {}
    for cfg in CONFIG_ORDER:
        if cfg not in configs:
            continue
        uses_dch = cfg.startswith("dch")
        result = runner.run(dch if uses_dch else opt, CONFIG_SCRIPTS[cfg])
        nl = result.network
        out[cfg] = MappingResultRow(
            nl.area(), nl.delay(),
            result.seconds + (build_seconds if uses_dch else 0.0))
    return out


def _circuit_task(task, ctx):
    """One Table-I circuit as a batch task (sharded by ``run_table1``)."""
    name, scale, configs, opt_rounds = task
    return name, run_circuit(build(name, scale), configs=configs,
                             opt_rounds=opt_rounds, context=ctx)


def run_table1(names: Optional[Sequence[str]] = None, scale: str = "small",
               configs: Optional[Sequence[str]] = None,
               opt_rounds: int = 2, jobs: int = 1) -> Dict[str, Dict[str, MappingResultRow]]:
    """Run Table I over the suite; returns circuit -> config -> row.

    ``jobs=1`` threads one engine context across the whole table (the
    historical behavior); ``jobs>1`` shards circuits across worker
    processes, each with its own warm context.
    """
    names = list(names or ALL_BENCHMARKS)
    tasks = [(name, scale, tuple(configs) if configs else None, opt_rounds)
             for name in names]
    pairs = batch_map(tasks, _circuit_task, jobs=jobs, context=FlowContext())
    return dict(pairs)


def summarize(results: Dict[str, Dict[str, MappingResultRow]]) -> Dict[str, Dict[str, float]]:
    """Geomean per config plus improvement over the baseline config."""
    configs = [c for c in CONFIG_ORDER if any(c in r for r in results.values())]
    summary: Dict[str, Dict[str, float]] = {}
    for cfg in configs:
        rows = [r[cfg] for r in results.values() if cfg in r]
        summary[cfg] = {
            "area": geomean(r.area for r in rows),
            "delay": geomean(r.delay for r in rows),
            "time": geomean(max(r.seconds, 1e-3) for r in rows),
        }
    if "baseline" in summary:
        base = summary["baseline"]
        for cfg in configs:
            summary[cfg]["area_gain_%"] = improvement(base["area"], summary[cfg]["area"])
            summary[cfg]["delay_gain_%"] = improvement(base["delay"], summary[cfg]["delay"])
    return summary


def format_results(results: Dict[str, Dict[str, MappingResultRow]]) -> str:
    """Render the full Table-I text block (per-circuit rows + summary)."""
    configs = [c for c in CONFIG_ORDER if any(c in r for r in results.values())]
    headers = ["circuit"]
    for cfg in configs:
        headers += [f"{cfg}.area", f"{cfg}.delay", f"{cfg}.t(s)"]
    rows = []
    for name, per_cfg in results.items():
        row: List = [name]
        for cfg in configs:
            r = per_cfg.get(cfg)
            row += [r.area, r.delay, r.seconds] if r else ["-", "-", "-"]
        rows.append(row)
    summary = summarize(results)
    geo_row: List = ["GEOMEAN"]
    gain_row: List = ["GAIN vs &nf %"]
    for cfg in configs:
        geo_row += [summary[cfg]["area"], summary[cfg]["delay"], summary[cfg]["time"]]
        gain_row += [summary[cfg].get("area_gain_%", 0.0),
                     summary[cfg].get("delay_gain_%", 0.0), ""]
    rows.append(geo_row)
    rows.append(gain_row)
    return format_table(headers, rows, title="Table I — ASIC technology mapping")
