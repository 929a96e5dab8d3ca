"""FlowRunner — execute flows over one network or a batch of circuits.

The runner is the interpreter of the script AST: it applies each pass
through the registry (validating state kinds and network-class
capabilities), times it, records :class:`~repro.flow.context.PassMetrics`
on the shared :class:`~repro.flow.context.FlowContext`, executes ``N*(…)``
repetition groups and runs ``converge(…)`` groups as keep-best fixpoint
loops: a round whose ``(size, depth)`` cost is not strictly better than the
best seen so far is discarded and the loop stops.  ``_run_converge`` is the
library's only keep-best loop — iterated ``compress2rs`` and iterated graph
mapping (``gm; converge( gm )``) are both scripts over it.

``run_many`` threads *one* context through a whole batch, which is where
the shared-engine payoff compounds: the library match table, NPN cost
caches and solver/simulation statistics are built once for the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from .context import FlowContext, PassMetrics, state_cost, state_kind, state_summary
from .registry import FlowError, get_pass
from .script import Converge, Flow, PassStep, Repeat
from .specs import resolve_flow

__all__ = ["FlowRunner", "FlowResult", "run_flow", "optimize"]


@dataclass
class FlowResult:
    """Outcome of one flow run on one circuit."""

    network: Any                       # final pipeline state
    input: Any                         # the original input network
    flow: Flow
    metrics: List[PassMetrics] = field(default_factory=list)
    seconds: float = 0.0
    name: str = ""
    verified: Optional[bool] = None    # set when the runner CEC'd the result
    context: Optional[FlowContext] = None   # the context the flow ran under

    @property
    def cost(self):
        return state_cost(self.network)

    def summary(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{state_summary(self.network)}"

    def __repr__(self) -> str:
        return f"<FlowResult {self.summary()} after {len(self.metrics)} passes>"


def _state_registers(state, kind: str) -> int:
    """Register count of a pipeline state (0 for LUT/netlist states)."""
    ntk = state.ntk if kind == "choice" else state
    return ntk.num_registers() if hasattr(ntk, "num_registers") else 0


class FlowRunner:
    """Execute :class:`Flow` objects against a shared :class:`FlowContext`."""

    def __init__(self, context: Optional[FlowContext] = None, *,
                 verify: bool = False, checkpoint: bool = False):
        self.ctx = context if context is not None else FlowContext()
        self.verify = verify
        self.checkpoint = checkpoint

    # -- entry points --------------------------------------------------------

    def run(self, ntk, flow: Union[Flow, str], name: str = "") -> FlowResult:
        """Run ``flow`` (a :class:`Flow`, named spec or script text) on one
        network."""
        flow = resolve_flow(flow)
        flow.validate(state_kind(ntk))   # reject kind-incompatible scripts early
        # nested runs (a pass driving a sub-flow, e.g. dch snapshots) must
        # not clobber the outer flow's verification reference
        outer_original = self.ctx.original
        self.ctx.original = ntk
        first_metric = len(self.ctx.metrics)
        t0 = time.perf_counter()
        try:
            state = self._run_steps(flow.steps, ntk)
        finally:
            if outer_original is not None:
                self.ctx.original = outer_original
        seconds = time.perf_counter() - t0
        result = FlowResult(network=state, input=ntk, flow=flow,
                            metrics=self.ctx.metrics[first_metric:],
                            seconds=seconds, name=name, context=self.ctx)
        if self.verify:
            result.verified = bool(self.ctx.cec(ntk, state))
            if not result.verified:
                raise FlowError(f"flow output not equivalent to input ({name or ntk!r})")
        return result

    def run_many(self, circuits: Iterable, flow: Union[Flow, str],
                 scale: str = "small", *, jobs: int = 1, store=None,
                 progress=None) -> Dict[str, FlowResult]:
        """Run one flow (resolved like :meth:`run`) over many circuits;
        returns ``name -> FlowResult``.

        ``circuits`` mixes benchmark names, ``.aag`` paths and network
        objects.  The execution is delegated to the batch layer: with
        ``jobs=1`` every circuit runs in-process against this runner's
        shared context (the historical semantics); ``jobs>1`` shards the
        batch across a process pool with one warm context per worker (the
        returned results then carry rebuilt metrics and no context).
        ``store`` optionally records the run into a
        :class:`~repro.batch.store.ResultStore` (or a path); any circuit
        failure raises — use :class:`~repro.batch.runner.BatchRunner`
        directly for isolated per-circuit failure reporting.
        """
        from ..batch import BatchRunner

        runner = BatchRunner(jobs=jobs, context=self.ctx, progress=progress,
                             verify=self.verify, checkpoint=self.checkpoint,
                             return_networks=True)
        batch = runner.run(circuits, flow, scale=scale, store=store)
        return runner.flow_results(batch)

    # -- interpreter ---------------------------------------------------------

    def _run_steps(self, steps, state):
        for step in steps:
            state = self._run_step(step, state)
        return state

    def _run_step(self, step, state):
        if isinstance(step, PassStep):
            return self._run_pass(step, state)
        if isinstance(step, Repeat):
            for _ in range(step.count):
                state = self._run_steps(step.body, state)
            return state
        if isinstance(step, Converge):
            return self._run_converge(step, state)
        raise FlowError(f"unknown step {step!r}")

    def _run_converge(self, step: Converge, state):
        best = state
        best_cost = state_cost(state)
        for _ in range(step.max_rounds):
            candidate = self._run_steps(step.body, best)
            cost = state_cost(candidate)
            if cost >= best_cost:
                break
            best, best_cost = candidate, cost
        return best

    def _run_pass(self, step: PassStep, state):
        info = get_pass(step.name)
        kind = state_kind(state)
        if kind not in info.inputs:
            raise FlowError(
                f"pass {info.name!r} cannot run on a {kind} state "
                f"(accepts: {', '.join(info.inputs)})")
        if not info.sequential:
            nregs = _state_registers(state, kind)
            if nregs:
                raise FlowError(
                    f"pass {info.name!r} is combinational-only but the "
                    f"network has {nregs} register{'s' if nregs != 1 else ''}; "
                    f"use seq-* passes on sequential circuits")
        if info.network_classes is not None and not isinstance(
                state.ntk if kind == "choice" else state, info.network_classes):
            names = ", ".join(c.__name__ for c in info.network_classes)
            raise FlowError(
                f"pass {info.name!r} needs one of [{names}], "
                f"got {type(state).__name__}")
        kwargs = info.validate_args(step.kwargs())
        before = state_cost(state)
        t0 = time.perf_counter()
        out = info.fn(state, self.ctx, **kwargs)
        seconds = time.perf_counter() - t0
        self.ctx.record(PassMetrics(
            name=info.name, script=step.to_script(), seconds=seconds,
            before=before, after=state_cost(out),
            kind_before=kind, kind_after=state_kind(out)))
        if self.checkpoint:
            self.ctx.checkpoint(f"{len(self.ctx.metrics)}:{info.name}", out)
        return out


# ---------------------------------------------------------------------- #
# convenience front doors                                                 #
# ---------------------------------------------------------------------- #

def run_flow(ntk, flow: Union[Flow, str], *, context: Optional[FlowContext] = None,
             verify: bool = False) -> FlowResult:
    """Run a flow (script text, named spec, or :class:`Flow`) on a network.

    Named specs (``"compress2rs"``, ``"resyn2rs"``) are listed in
    :mod:`repro.flow.specs`.
    """
    return FlowRunner(context, verify=verify).run(ntk, flow)


def optimize(ntk, flow: Union[Flow, str] = "compress2rs", *,
             context: Optional[FlowContext] = None, verify: bool = False,
             **spec_kwargs):
    """Optimize a network with a flow and return the resulting network.

    ``flow`` is a script string, a :class:`Flow`, or the name of a canonical
    spec (extra ``spec_kwargs`` — e.g. ``rounds=2`` — parameterize named
    specs).
    """
    return FlowRunner(context, verify=verify).run(
        ntk, resolve_flow(flow, **spec_kwargs)).network
