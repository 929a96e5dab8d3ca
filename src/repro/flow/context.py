"""FlowContext — one bundle of shared engines threaded through a whole flow.

A context owns every expensive, reusable piece of machinery the passes
need, created once and shared end-to-end:

* :class:`~repro.mapping.engine.MappingSession`\\ s (and through them the
  flat cut databases) for every subject the flow maps;
* one :class:`~repro.sim.engine.PatternPool` per PI width, so SAT
  counterexamples recycled by one pass sharpen the simulation filtering of
  every later pass;
* per-target-representation :class:`~repro.synthesis.npn_db.NpnCostCache`\\ s
  for graph mapping;
* the standard-cell library (lazily ASAP7).

It also records per-pass :class:`PassMetrics` (wall time plus gate / depth /
area deltas), optional named checkpoints, and aggregates engine statistics
for ``--engine-stats`` style reporting.  Pass wrappers must obtain their
engines from the context: mapping passes draw their ``MappingSession``
from it, and every SAT pass is handed the shared pool (``pool=``) so the
equivalence session it builds recycles counterexamples into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sat.cec import EXHAUSTIVE_PIS

__all__ = ["FlowContext", "PassMetrics", "state_kind", "state_cost", "state_summary"]


# ---------------------------------------------------------------------- #
# pipeline-state helpers                                                  #
# ---------------------------------------------------------------------- #

def state_kind(state) -> str:
    """Kind of a pipeline state: 'logic', 'choice', 'lut' or 'netlist'."""
    from ..core.choice import ChoiceNetwork
    from ..networks.lut_network import LutNetwork
    from ..networks.netlist import CellNetlist

    if isinstance(state, ChoiceNetwork):
        return "choice"
    if isinstance(state, LutNetwork):
        return "lut"
    if isinstance(state, CellNetlist):
        return "netlist"
    return "logic"


def state_cost(state) -> Tuple[float, float]:
    """Comparable (size, depth) cost of any pipeline state.

    Logic networks score ``(gates, depth)`` — the tuple ``converge``'s
    keep-best loop compares — LUT networks ``(LUTs, depth)``, cell
    netlists ``(area, delay)``; choice networks score their underlying
    network.
    """
    kind = state_kind(state)
    if kind == "choice":
        return state_cost(state.ntk)
    if kind == "lut":
        return (state.num_luts(), state.depth())
    if kind == "netlist":
        return (state.area(), state.delay())
    return (state.num_gates(), state.depth())


def state_summary(state) -> str:
    """One-line human description of a pipeline state."""
    kind = state_kind(state)
    if kind == "choice":
        return (f"{type(state.ntk).__name__} + {state.num_choices()} choices, "
                f"{state.ntk.num_gates()} gates, depth {state.ntk.depth()}")
    if kind == "lut":
        return f"{state.num_luts()} LUTs, depth {state.depth()}"
    if kind == "netlist":
        return (f"{state.num_cells()} cells, area {state.area():.2f} µm², "
                f"delay {state.delay():.2f} ps")
    regs = f", {state.num_registers()} regs" if getattr(
        state, "has_registers", lambda: False)() else ""
    return (f"{type(state).__name__}: {state.num_gates()} gates, "
            f"depth {state.depth()}{regs}")


# ---------------------------------------------------------------------- #
# metrics                                                                 #
# ---------------------------------------------------------------------- #

@dataclass
class PassMetrics:
    """Timing and cost delta of one executed pass."""

    name: str
    script: str                 # canonical invocation, e.g. "gm -k 4"
    seconds: float
    before: Tuple[float, float]
    after: Tuple[float, float]
    kind_before: str = "logic"
    kind_after: str = "logic"

    def row(self) -> List:
        """Table row: pass, seconds, size before/after, depth before/after."""
        fmt = lambda v: int(v) if float(v).is_integer() else round(v, 2)
        return [self.script, round(self.seconds, 3),
                fmt(self.before[0]), fmt(self.after[0]),
                fmt(self.before[1]), fmt(self.after[1])]


METRICS_HEADERS = ["pass", "seconds", "size.in", "size.out", "depth.in", "depth.out"]


# ---------------------------------------------------------------------- #
# the context                                                             #
# ---------------------------------------------------------------------- #

class FlowContext:
    """Shared engine state for one flow run (or many, in batch mode)."""

    def __init__(self, *, library=None, n_patterns: int = 256, seed: int = 1):
        self._library = library
        self.n_patterns = n_patterns
        self.seed = seed
        self.original = None                  # set by the runner per circuit
        self.metrics: List[PassMetrics] = []
        self.checkpoints: Dict[str, Any] = {}
        self._pools: Dict[int, Any] = {}      # n_pis -> PatternPool
        self._npn_caches: Dict[type, Any] = {}
        self._mapping_subjects: List[Any] = []   # subjects seen (for stats)

    # -- shared engines ------------------------------------------------------

    @property
    def library(self):
        """The standard-cell library (lazily the bundled ASAP7 analogue)."""
        if self._library is None:
            from ..mapping.asap7 import asap7_library

            self._library = asap7_library()
        return self._library

    def pool_for(self, ntk):
        """The shared :class:`PatternPool` matching ``ntk``'s PI count."""
        from ..sim.engine import PatternPool

        n_pis = ntk.num_pis()
        pool = self._pools.get(n_pis)
        if pool is None:
            pool = PatternPool(n_pis, n_patterns=self.n_patterns, seed=self.seed)
            self._pools[n_pis] = pool
        return pool

    def mapping_session(self, subject):
        """The :class:`MappingSession` of ``subject``; the context holds the
        last 16, so later passes on the same subject share them."""
        from ..mapping.engine import MappingSession

        session = MappingSession.of(subject)
        if not any(s is session for s in self._mapping_subjects):
            self._mapping_subjects.append(session)
            if len(self._mapping_subjects) > 16:
                del self._mapping_subjects[0]
        return session

    def npn_cache(self, target_cls: type):
        """The per-representation synthesis cost oracle for graph mapping."""
        from ..synthesis.npn_db import NpnCostCache

        cache = self._npn_caches.get(target_cls)
        if cache is None:
            cache = NpnCostCache(target_cls)
            self._npn_caches[target_cls] = cache
        return cache

    def cec(self, a, b, sim_limit: int = EXHAUSTIVE_PIS):
        """Equivalence-check two states over the shared pattern pool.

        Sequential states go through :func:`repro.seq.seq_cec`; combinational
        ones through :func:`repro.sat.cec`, which recycles any SAT
        counterexample into the pool of ``a``'s PI width.
        """
        from ..sat.cec import cec as run_cec

        na, nb = self.as_logic(a), self.as_logic(b)
        if na.has_registers() or nb.has_registers():
            # sequential states verify sequentially: k-induction with a
            # bounded-BMC fallback (see repro.seq.seq_cec)
            from ..seq import seq_cec

            return seq_cec(na, nb)
        if na.num_pis() != nb.num_pis():
            return run_cec(na, nb)
        return run_cec(na, nb, sim_limit=sim_limit, pool=self.pool_for(na))

    @staticmethod
    def as_logic(state):
        """View any pipeline state as a plain logic network (for CEC)."""
        from ..networks.aig import Aig

        kind = state_kind(state)
        if kind == "choice":
            return state.ntk
        if kind in ("lut", "netlist"):
            return state.to_logic_network(Aig)
        return state

    # -- bookkeeping ---------------------------------------------------------

    def record(self, metrics: PassMetrics) -> None:
        self.metrics.append(metrics)

    def checkpoint(self, name: str, state) -> None:
        self.checkpoints[name] = state

    def total_seconds(self) -> float:
        return sum(m.seconds for m in self.metrics)

    def metrics_table(self, metrics: Optional[List[PassMetrics]] = None,
                      title: str = "per-pass metrics") -> str:
        """Aligned per-pass timing / delta table (for ``--timing``)."""
        from ..experiments.common import format_table

        rows = [m.row() for m in (metrics if metrics is not None else self.metrics)]
        return format_table(METRICS_HEADERS, rows, title=title)

    def stats(self) -> dict:
        """Aggregate engine statistics across everything this context ran."""
        from ..cuts.enumeration import expand_cache_stats
        from ..mapping.engine import library_cost_model
        from ..sat import solver_stats
        from ..synthesis.factoring import plan_memo_stats

        out: dict = {
            "passes": len(self.metrics),
            "seconds": round(self.total_seconds(), 6),
            "pools": {n: p.n_patterns for n, p in self._pools.items()},
            "mapping_sessions": [s.stats() for s in self._mapping_subjects],
            "library_models": ([library_cost_model(self._library).stats()]
                               if self._library is not None else []),
            "expand_cache": expand_cache_stats(),
            "synthesis_plans": plan_memo_stats(),
            "solver": solver_stats(),
        }
        return out

    def __repr__(self) -> str:
        return (f"<FlowContext passes={len(self.metrics)} "
                f"pools={list(self._pools)}>")
