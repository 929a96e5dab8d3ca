"""The four workloads: inputs, one pass of their flows, and QoR.

Every flow is the paper's protocol driven through the public API: the
circuits come from ``repro.circuits.build`` (or the seeded generator), each
in-process flow runs under a fresh ``FlowContext`` exactly as ``repro run``
does, and ``batch_tiny`` goes through ``BatchRunner``.  Nothing here
imports ``repro`` at module level, so the set-up timer sees the import.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .gen import GenParams, describe, generate
from .layers import ASIC, BATCH, LUT, SAT

#: hard limit on one flow; a flow past it counts as failed
FLOW_TIMEOUT_S = 60
SCALE = "small"
PRE = "converge4( b; gm; b )"
ASIC_FLOWS = (f"{PRE}; mch -p xmg,xag -r 0.6; am -o delay; cec",
              f"{PRE}; mch -p xmg -r 1.5; am -o area; cec")
LUT_FLOW = f"{PRE}; mch -p xmg; if -k 6"
GEN_FLOW = "if -k 6"
SAT_FLOW = "b; rf; rs; sw; cec"
BATCH_FLOW = "b; rf; gm; b"
BATCH_JOBS = 2
CONTROL5 = ("cavlc", "i2c", "priority", "router", "int2float")
LUT4 = ("hyp", "sin", "square", "voter")
GENERATED = "generated"


@dataclass
class Item:
    """One flow run as the benchmark sees it."""

    circuit: str
    flow: str
    state: Any = None                # the flow's final state
    seconds: float = 0.0
    passes: List[Tuple[str, float]] = field(default_factory=list)
    error: str = ""
    fingerprint: str = ""
    cost: Tuple[float, float] = ()   # (size, depth) once checked


@dataclass
class Pass:
    """One pass over all of a workload's flows."""

    wall: float
    items: List[Item]
    batch: Optional[dict] = None     # batch_tiny: busy/overhead/utilization


@dataclass
class Inputs:
    jobs: List[Tuple[str, Any, str]]            # (circuit, network, flow)
    record: Dict[str, Any] = field(default_factory=dict)


class _FlowTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _FlowTimeout(f"flow exceeded {FLOW_TIMEOUT_S}s")


def run_in_process(inputs: Inputs, scope) -> Pass:
    """Run every flow once, each under a fresh context and on its own
    freshly built network, so no cache an earlier pass attached to a
    network object survives into this one.  ``scope`` (a context manager)
    is entered around the timed part only."""
    from repro import FlowContext, FlowRunner

    items = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with scope:
            t0 = time.perf_counter()
            for circuit, ntk, flow in inputs.jobs:
                item = Item(circuit, flow)
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, FLOW_TIMEOUT_S)
                try:
                    result = FlowRunner(FlowContext()).run(ntk, flow,
                                                           name=circuit)
                except Exception as exc:      # the flow failed: count it
                    item.error = f"{type(exc).__name__}: {exc}"
                else:
                    item.state = result.network
                    item.passes = [(m.name, m.seconds) for m in result.metrics]
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                item.seconds = time.perf_counter() - start
                items.append(item)
            wall = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Pass(wall, items)


def run_batch(circuits, scale: str, scope) -> Pass:
    """One closed-loop batch of the circuits over a 2-worker pool; the
    workers build the circuits."""
    from repro import BatchRunner, Suite

    suite = Suite.of_circuits("perfbench", circuits, scale=scale)
    first: List[float] = []

    def progress(done, total, outcome):
        if not first:
            first.append(time.perf_counter())

    runner = BatchRunner(jobs=BATCH_JOBS, timeout=FLOW_TIMEOUT_S,
                         progress=progress)
    with scope:
        t0 = time.perf_counter()
        result = runner.run(suite, BATCH_FLOW, scale=scale)
        wall = time.perf_counter() - t0
    items = [Item(o.name, BATCH_FLOW, o.network, o.seconds,
                  [(row[0], row[2]) for row in o.metric_rows],
                  "" if o.ok else f"{o.status}: {o.error}", o.fingerprint)
             for o in result.outcomes]
    busy = sum(o.seconds for o in result.outcomes)
    batch = {"busy_s": busy, "wall_s": wall, "jobs": BATCH_JOBS,
             "overhead_s": BATCH_JOBS * wall - busy,
             "utilization": busy / (BATCH_JOBS * wall),
             "first_result_s": first[0] - t0 if first else wall}
    return Pass(wall, items, batch)


def _circuits(names, flows, scale):
    from repro.circuits import build

    return [(name, build(name, scale), flow) for name in names for flow in flows]


@dataclass(frozen=True)
class Workload:
    name: str
    qor_names: Tuple[str, str]       # what qor.size / qor.depth measure here
    circuits: Tuple[str, ...]
    scale: str = SCALE

    def inputs(self, seed: int) -> Inputs:
        """Freshly built input networks, one per flow."""
        raise NotImplementedError

    def run_pass(self, seed: int, scope=contextlib.nullcontext()) -> Pass:
        return run_in_process(self.inputs(seed), scope)

    def in_qor(self, item: Item) -> bool:
        return True


class AsicMch(Workload):
    def inputs(self, seed):
        return Inputs(_circuits(self.circuits, ASIC_FLOWS, self.scale))


@dataclass(frozen=True)
class LutMch(Workload):
    gen: GenParams = GenParams()

    def inputs(self, seed):
        from repro import Aig

        jobs = _circuits(self.circuits, (LUT_FLOW,), self.scale)
        ntk = generate(Aig, seed, self.gen)
        jobs.append((GENERATED, ntk, GEN_FLOW))
        return Inputs(jobs, {"generated": describe(ntk, seed, self.gen)})

    def in_qor(self, item):
        # the generated network changes with the seed; QoR must not
        return item.circuit != GENERATED


class SatOpt(Workload):
    def inputs(self, seed):
        return Inputs(_circuits(self.circuits, (SAT_FLOW,), self.scale))


class BatchTiny(Workload):
    def inputs(self, seed):
        return Inputs(_circuits(self.circuits, (BATCH_FLOW,), self.scale))

    def run_pass(self, seed, scope=contextlib.nullcontext()):
        return run_batch(self.circuits, self.scale, scope)


#: the 20-circuit combinational suite (``repro.circuits.ALL_BENCHMARKS``)
EPFL20 = ("adder", "bar", "div", "hyp", "log2", "max", "multiplier", "sin",
          "sqrt", "square", "arbiter", "cavlc", "ctrl", "dec", "i2c",
          "int2float", "mem_ctrl", "priority", "router", "voter")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    AsicMch(ASIC, ("area_um2", "delay_ps"), CONTROL5),
    LutMch(LUT, ("luts", "lut_levels"), LUT4),
    SatOpt(SAT, ("gates", "levels"), CONTROL5),
    BatchTiny(BATCH, ("gates", "levels"), EPFL20, scale="tiny"),
)}


def qor(items: List[Item], workload: Workload) -> Tuple[float, float]:
    """Geomeans of checked (size, depth) over the workload's QoR circuits."""
    costs = [i.cost for i in items if workload.in_qor(i) and not i.error]
    if not costs:
        raise ValueError(f"{workload.name}: no successful flow to score")
    return tuple(math.exp(sum(math.log(c[k]) for c in costs) / len(costs))
                 for k in (0, 1))
