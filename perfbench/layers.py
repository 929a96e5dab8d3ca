"""What the traced run wraps, and the per-layer metrics it derives.

:data:`TARGETS` lists the program's public entry points, grouped into the
layers of ``src/repro`` by the first component of the span name.
:data:`LAYER_METRICS` defines every per-layer metric: its unit, which way is
better, the workloads on which it should move, the end-to-end metric it
should move there, and how its value is computed from a :class:`TraceRun`.

A metric whose layer records no call reads as zero on a workload where the
layer is not expected to run (the prediction "no change" is then exactly
zero), and is reported *missing* on a workload where the layer is expected,
because there the zero means an entry point was renamed or deleted and the
benchmark no longer sees it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .spans import Target, Tracer

ASIC, LUT, SAT, BATCH = "asic_mch", "lut_mch", "sat_opt", "batch_tiny"
IN_PROCESS = (ASIC, LUT, SAT)
ALL = IN_PROCESS + (BATCH,)

#: the passes of every workload's flows (see workloads.py)
PASSES = {
    ASIC: ("b", "gm", "mch", "am", "cec"),
    LUT: ("b", "gm", "mch", "if"),
    SAT: ("b", "rf", "rs", "sw", "cec"),
    BATCH: ("b", "rf", "gm"),
}
PASS_NAMES = ("b", "gm", "mch", "am", "if", "rf", "rs", "sw", "cec")

#: a value that cannot be measured on this program (a stats source is gone)
UNAVAILABLE = object()


# ---------------------------------------------------------------------- #
# bookkeeping hooks of the traced entry points                             #
# ---------------------------------------------------------------------- #

def rss_mb(_tracer=None) -> Optional[float]:
    """Current resident set size of this process in MiB (None off Linux)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _cut_database_built(tracer: Tracer, rss_before, args, kwargs, result) -> None:
    database = args[0]
    tracer.add("cuts.count", database.num_cuts())
    rss_after = rss_mb()
    if rss_before is not None and rss_after is not None:
        tracer.peak("cuts.rss_growth_mb", rss_after - rss_before)


def _candidates_synthesized(tracer: Tracer, _token, args, kwargs, result) -> None:
    tt = args[1] if len(args) > 1 else kwargs["tt"]
    tracer.see("synthesis.tt", (tt.num_vars, tt.bits))


def _query_answered(tracer: Tracer, _token, args, kwargs, result) -> None:
    if result is True:
        tracer.add("sat.prove.proved")


TARGETS: Tuple[Target, ...] = (
    Target("repro.flow.runner:FlowRunner.run", "flow.run"),
    Target("repro.batch.runner:BatchRunner.run", "batch.run"),
    Target("repro.networks.convert:convert", "networks.convert"),
    Target("repro.networks.base:LogicNetwork.copy_into_with_map", "networks.copy"),
    Target("repro.networks.flat:FlatNetwork.from_network", "networks.flat"),
    Target("repro.networks.lut_network:LutNetwork.to_logic_network",
           "networks.to_logic"),
    Target("repro.networks.netlist:CellNetlist.to_logic_network",
           "networks.to_logic"),
    Target("repro.cuts.database:CutDatabase.__init__", "cuts.enum",
           before=rss_mb, after=_cut_database_built),
    Target("repro.cuts.enumeration:enumerate_cuts", "cuts.enum"),
    Target("repro.cuts.database:CutDatabase.cuts", "cuts.tt"),
    Target("repro.synthesis.strategies:synthesize_candidates",
           "synthesis.candidates", after=_candidates_synthesized),
    Target("repro.synthesis.npn_db:NpnCostCache.best_method", "synthesis.npn"),
    Target("repro.synthesis.npn_db:NpnCostCache.cost", "synthesis.npn"),
    Target("repro.core.mch:build_mch", "core.mch"),
    Target("repro.core.dch:build_dch", "core.dch"),
    Target("repro.mapping.lut_mapper:lut_map", "mapping.entry"),
    Target("repro.mapping.graph_mapper:graph_map", "mapping.entry"),
    Target("repro.mapping.asic_mapper:asic_map", "mapping.entry"),
    Target("repro.mapping.asic_mapper:AsicMapper.run", "mapping.asic"),
    Target("repro.mapping.engine:run_cover", "mapping.cover"),
    Target("repro.mapping.engine:LibraryCostModel.__init__", "mapping.match"),
    Target("repro.mapping.engine:LibraryCostModel.min_base", "mapping.match"),
    Target("repro.mapping.engine:LibraryCostModel.matches", "mapping.match"),
    Target("repro.opt.balancing:balance", "opt.balance"),
    Target("repro.opt.refactoring:refactor", "opt.refactor"),
    Target("repro.opt.resub:resub", "opt.resub"),
    Target("repro.opt.sweep:sweep", "opt.sweep"),
    Target("repro.opt.mig_rewriting:mig_depth_rewrite", "opt.mig_rewrite"),
    Target("repro.sat.cec:cec", "sat.cec"),
    Target("repro.sat.session:EquivalenceSession.add_network", "sat.session"),
    Target("repro.sat.session:EquivalenceSession.prove_equal", "sat.prove",
           after=_query_answered),
    Target("repro.sat.cnf:CnfBuilder.encode", "sat.encode"),
    Target("repro.sat.solver:Solver.solve", "sat.solve"),
    Target("repro.sim.engine:simulate_words", "sim.words"),
    Target("repro.sim.engine:simulate_blocks", "sim.words"),
    Target("repro.sim.engine:SimEngine.refresh", "sim.refresh"),
    Target("repro.sim.engine:PatternPool.add_pattern", "sim.pool"),
)

#: process-global counters read around the traced pass, when they exist
STATS_SOURCES = {
    "solver": "repro.sat.solver:solver_stats",
    "sim": "repro.sim.engine:sim_stats",
    "expand_cache": "repro.cuts.enumeration:expand_cache_stats",
}


# ---------------------------------------------------------------------- #
# the metrics                                                              #
# ---------------------------------------------------------------------- #

@dataclass
class TraceRun:
    """Everything one traced pass produced."""

    tracer: Tracer
    stats: Dict[str, dict]               # stats source -> counter deltas
    flow_s: float                        # traced pass wall time
    untraced_flow_s: float               # the same pass untraced
    passes: Dict[str, float] = field(default_factory=dict)  # pass -> seconds
    batch: Optional[dict] = None         # busy_s, wall_s, jobs, first_result_s

    def calls(self, key: str) -> int:
        if "." in key:
            return self.tracer.calls.get(key, 0)
        return self.tracer.layer_calls(key)

    def flow_self_s(self) -> float:
        """Traced time in no named layer: the flow spans' own self time
        plus the pass time outside every span."""
        named = sum(t for layer, t in self.tracer.layer_self().items()
                    if layer != "flow")
        return self.flow_s - named


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]           # where the metric should move
    moves: str                           # what it should move there
    value: Callable[[TraceRun], object]  # None = the layer made no call


def _total(key):
    return lambda r: r.tracer.total.get(key, 0.0) if r.calls(key) else None


def _self(key):
    return lambda r: r.tracer.self_time.get(key, 0.0) if r.calls(key) else None


def _calls(key):
    return lambda r: r.calls(key) or None


def _counter(key, fired_by):
    return lambda r: r.tracer.counters.get(key, 0) if r.calls(fired_by) else None


def _stat(source, key, fired_by):
    def value(r: TraceRun):
        if not r.calls(fired_by):
            return None
        if source not in r.stats:
            return UNAVAILABLE
        return r.stats[source].get(key, UNAVAILABLE)
    return value


def _rss_growth(r: TraceRun):
    if not r.calls("cuts.enum"):
        return None
    return r.tracer.maxima.get("cuts.rss_growth_mb", UNAVAILABLE)


def _distinct_ratio(r: TraceRun):
    n = r.calls("synthesis.candidates")
    return len(r.tracer.distinct.get("synthesis.tt", ())) / n if n else None


def _equal_ratio(r: TraceRun):
    n = r.calls("sat.prove")
    return r.tracer.counters.get("sat.prove.proved", 0) / n if n else None


def _sim_calls(r: TraceRun):
    return (r.calls("sim.words") + r.calls("sim.refresh")) or None


def _batch(key):
    return lambda r: r.batch[key] if r.batch is not None else None


def _pass(name):
    return lambda r: r.passes.get(name)


_FLOW = [
    LayerMetric(f"flow.pass.{p}.s", "s", "lower",
                tuple(w for w in ALL if p in PASSES[w]), "flow_s",
                _pass(p))
    for p in PASS_NAMES
]

LAYER_METRICS: Tuple[LayerMetric, ...] = tuple(_FLOW) + (
    LayerMetric("flow.self_s", "s", "lower", ALL, "flow_s",
                lambda r: r.flow_self_s()),
    LayerMetric("networks.self_s", "s", "lower", IN_PROCESS, "flow_s",
                lambda r: r.tracer.layer_self().get("networks")),
    LayerMetric("networks.calls", "count", "lower", IN_PROCESS, "flow_s",
                _calls("networks")),
    LayerMetric("cuts.enum.s", "s", "lower", (LUT, ASIC),
                "flow_s on lut_mch (less on asic_mch, none on sat_opt)",
                _total("cuts.enum")),
    LayerMetric("cuts.enum.calls", "count", "lower", (LUT, ASIC),
                "flow_s on lut_mch", _calls("cuts.enum")),
    LayerMetric("cuts.count", "count", "lower", (LUT, ASIC),
                "peak_rss_mb and flow_s on lut_mch",
                _counter("cuts.count", "cuts.enum")),
    LayerMetric("cuts.tt.s", "s", "lower", (LUT, ASIC),
                "flow_s on lut_mch", _total("cuts.tt")),
    LayerMetric("cuts.rss_growth_mb", "MiB", "lower", (LUT, ASIC),
                "peak_rss_mb on lut_mch (less on asic_mch)", _rss_growth),
    LayerMetric("synthesis.candidates.s", "s", "lower", (ASIC, LUT),
                "flow_s on asic_mch and lut_mch (none on sat_opt)",
                _total("synthesis.candidates")),
    LayerMetric("synthesis.candidates.calls", "count", "lower", (ASIC, LUT),
                "flow_s on asic_mch and lut_mch",
                _calls("synthesis.candidates")),
    LayerMetric("synthesis.distinct_ratio", "ratio", "higher", (ASIC, LUT),
                "flow_s on asic_mch and lut_mch (distinct truth tables per "
                "call: the rest is repeated work)", _distinct_ratio),
    LayerMetric("synthesis.npn.s", "s", "lower", (ASIC, LUT),
                "flow_s on asic_mch and lut_mch", _total("synthesis.npn")),
    LayerMetric("core.mch.self_s", "s", "lower", (ASIC, LUT),
                "flow_s on asic_mch and lut_mch", _self("core.mch")),
    LayerMetric("mapping.cover.s", "s", "lower", (LUT, ASIC),
                "flow_s on lut_mch", _total("mapping.cover")),
    LayerMetric("mapping.asic.s", "s", "lower", (ASIC,),
                "flow_s on asic_mch (none on lut_mch)",
                _total("mapping.asic")),
    LayerMetric("mapping.match.s", "s", "lower", (ASIC,),
                "flow_s on asic_mch (none on lut_mch)",
                _total("mapping.match")),
    LayerMetric("opt.balance.s", "s", "lower", IN_PROCESS, "flow_s on sat_opt",
                _total("opt.balance")),
    LayerMetric("opt.refactor.s", "s", "lower", (SAT,), "flow_s on sat_opt",
                _total("opt.refactor")),
    LayerMetric("opt.resub.self_s", "s", "lower", (SAT,), "flow_s on sat_opt",
                _self("opt.resub")),
    LayerMetric("opt.sweep.self_s", "s", "lower", (SAT,), "flow_s on sat_opt",
                _self("opt.sweep")),
    LayerMetric("sat.solve.s", "s", "lower", (SAT, ASIC),
                "flow_s on sat_opt, and on asic_mch through cec",
                _total("sat.solve")),
    LayerMetric("sat.solve.calls", "count", "lower", (SAT, ASIC),
                "flow_s on sat_opt", _calls("sat.solve")),
    LayerMetric("sat.conflicts", "count", "lower", (SAT, ASIC),
                "flow_s on sat_opt",
                _stat("solver", "conflicts", "sat.solve")),
    LayerMetric("sat.propagations", "count", "lower", (SAT, ASIC),
                "flow_s on sat_opt",
                _stat("solver", "propagations", "sat.solve")),
    LayerMetric("sat.prove.calls", "count", "lower", (SAT, ASIC),
                "flow_s on sat_opt", _calls("sat.prove")),
    LayerMetric("sat.prove.equal_ratio", "ratio", "higher", (SAT, ASIC),
                "flow_s on sat_opt (queries proved equal per query)",
                _equal_ratio),
    LayerMetric("sat.encode.s", "s", "lower", (SAT, ASIC),
                "flow_s on sat_opt and asic_mch", _total("sat.encode")),
    LayerMetric("sat.cec.s", "s", "lower", (SAT, ASIC),
                "flow_s on sat_opt and asic_mch", _total("sat.cec")),
    LayerMetric("sim.s", "s", "lower", (SAT, ASIC), "flow_s on sat_opt",
                _total("sim")),
    LayerMetric("sim.calls", "count", "lower", (SAT, ASIC), "flow_s on sat_opt",
                _sim_calls),
    LayerMetric("sim.patterns_added", "count", "lower", (SAT,),
                "flow_s on sat_opt (SAT counterexamples recycled as stimulus)",
                lambda r: r.calls("sim.pool") if r.calls("sim") else None),
    LayerMetric("batch.busy_s", "s", "lower", (BATCH,), "flow_s on batch_tiny",
                _batch("busy_s")),
    LayerMetric("batch.overhead_s", "s", "lower", (BATCH,),
                "flow_s on batch_tiny (jobs x wall - busy)",
                _batch("overhead_s")),
    LayerMetric("batch.utilization", "ratio", "higher", (BATCH,),
                "flow_s on batch_tiny (busy / (jobs x wall))",
                _batch("utilization")),
    LayerMetric("batch.first_result_s", "s", "lower", (BATCH,),
                "flow_s on batch_tiny", _batch("first_result_s")),
    LayerMetric("trace.overhead", "ratio", "lower", ALL,
                "none: traced flow_s / untraced flow_s of the same run",
                lambda r: r.flow_s / r.untraced_flow_s),
)


def layer_values(run: TraceRun, workload: str):
    """``(metrics, missing, unavailable)``: every computable per-layer
    metric as ``name -> {"value", "unit"}``; the metrics whose expected
    layer made no call; and those whose stats source no longer exists."""
    metrics, missing, unavailable = {}, [], []
    for m in LAYER_METRICS:
        value = m.value(run)
        if value is UNAVAILABLE:
            unavailable.append(m.name)
        elif value is None and workload in m.workloads:
            missing.append(m.name)
        else:
            metrics[m.name] = {"value": float(value or 0.0), "unit": m.unit}
    return metrics, missing, unavailable
