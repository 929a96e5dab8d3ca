"""Shared mapping engine: sessions, cut databases, cost models, pass pipeline.

This module is the common substrate of all three cut-based mappers:

* :class:`MappingSession` owns the expensive per-network state — the
  processing order, the PO-reachable node set, initial fanout reference
  estimates and one flat :class:`~repro.cuts.database.CutDatabase` per
  ``(k, cut_limit)`` — computed once and shared by every mapper pass and
  consumer.  Sessions are cached (weakly) on the subject network and
  invalidated automatically when the network (or its choice structure)
  mutates.
* The :class:`CostModel` protocol is the unified cost layer: the K-LUT
  mapper uses :class:`UnitCostModel` (one LUT per cut), graph mapping uses
  :class:`NpnCostModel` (estimated target-representation gate count), and
  the ASIC mapper's Boolean matching runs through :class:`LibraryCostModel`
  (library match rows memoized per cut function).
* :func:`run_cover` is the covering pipeline of the K-LUT and graph
  mappers — depth-oriented pass, global required times, area-flow recovery
  and exact-area recovery with reference counting — run on flat cut
  indices, with each usable cut's cost and delay read once per cover.
  The phase-aware ASIC mapper (:mod:`repro.mapping.asic_mapper`) shares
  the session and the library cost model but runs its own cover, because
  it covers both phases of every node and breaks ties differently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from ..core.choice import ChoiceNetwork
from ..cuts.database import CutDatabase
from ..networks.base import LogicNetwork, require_combinational
from ..synthesis.npn_db import NpnCostCache
from ..truth.truth_table import TruthTable

__all__ = [
    "MappingSession",
    "MappingCover",
    "CostModel",
    "UnitCostModel",
    "NpnCostModel",
    "LibraryCostModel",
    "library_cost_model",
    "run_cover",
]

INF = float("inf")

Subject = Union[LogicNetwork, ChoiceNetwork, "MappingSession"]


# ---------------------------------------------------------------------- #
# session                                                                 #
# ---------------------------------------------------------------------- #

class MappingSession:
    """Shared mapping state for one subject network (plain or choice).

    All derived structures are computed lazily, memoized, and shared by
    reference — treat everything a session hands out as read-only.
    """

    def __init__(self, subject: Union[LogicNetwork, ChoiceNetwork]):
        if isinstance(subject, MappingSession):
            raise TypeError("subject is already a MappingSession; use MappingSession.of")
        if isinstance(subject, ChoiceNetwork):
            self.subject = subject
            self.ntk: LogicNetwork = subject.ntk
            require_combinational(self.ntk, "MappingSession")
            self.choices: Optional[Dict[int, List[Tuple[int, bool]]]] = subject.choices_of
        else:
            require_combinational(subject, "MappingSession")
            self.subject = subject
            self.ntk = subject
            self.choices = None
        self._network_version = self.ntk.version
        self._num_choices = self._count_choices()
        self._order: Optional[List[int]] = None
        self._gate_nodes: Optional[List[int]] = None
        self._reachable: Optional[set] = None
        self._initial_refs: Optional[List[int]] = None
        self._databases: Dict[Tuple[int, int], CutDatabase] = {}

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def of(cls, subject: Subject) -> "MappingSession":
        """The session of ``subject``, reusing a cached one when still valid.

        Sessions attach themselves to the subject object, so mapping the
        same network (or choice network) repeatedly — e.g. a delay- and an
        area-oriented run in one experiment — shares one cut database while
        a caller or a :class:`~repro.flow.context.FlowContext` holds the
        session.  The subject refers to its session weakly: the session
        refers to the subject, and a strong reference back would form a
        cycle that keeps the cut databases of every mapped intermediate
        network alive until the cyclic garbage collector runs.
        """
        if isinstance(subject, MappingSession):
            return subject
        ref = getattr(subject, "_mapping_session", None)
        cached = ref() if ref is not None else None
        if cached is not None and cached.is_current():
            return cached
        session = cls(subject)
        try:
            subject._mapping_session = weakref.ref(session)
        except AttributeError:
            pass  # subjects with __slots__ simply don't cache
        return session

    def _count_choices(self) -> int:
        return self.subject.num_choices() if self.choices is not None else 0

    def is_current(self) -> bool:
        """True while the subject has not structurally changed."""
        return (self.ntk.version == self._network_version
                and self._count_choices() == self._num_choices)

    # -- shared derived state ---------------------------------------------

    def order(self) -> List[int]:
        """Node processing order (choice roots before representatives)."""
        if self._order is None:
            if isinstance(self.subject, ChoiceNetwork):
                self._order = self.subject.processing_order()
            else:
                self._order = self.ntk.topological_order()
        return self._order

    def gate_nodes(self) -> List[int]:
        """Gate nodes in processing order."""
        if self._gate_nodes is None:
            ntk = self.ntk
            self._gate_nodes = [m for m in self.order() if ntk.is_gate(m)]
        return self._gate_nodes

    def reachable(self) -> set:
        """Nodes inside the PO-reachable structure (choice cones excluded)."""
        if self._reachable is None:
            ntk = self.ntk
            reach = set()
            stack = [p >> 1 for p in ntk.pos]
            while stack:
                x = stack.pop()
                if x in reach:
                    continue
                reach.add(x)
                stack.extend(f >> 1 for f in ntk.fanins(x))
            self._reachable = reach
        return self._reachable

    def initial_refs(self) -> List[int]:
        """Structural fanout counts over the PO-reachable structure only.

        This is the initial sharing estimate of the area-flow passes; choice
        candidate cones are excluded so they do not inflate fanout counts.
        Callers must copy before mutating.
        """
        if self._initial_refs is None:
            ntk = self.ntk
            refs = [0] * ntk.num_nodes()
            for x in self.reachable():
                for f in ntk.fanins(x):
                    refs[f >> 1] += 1
            self._initial_refs = refs
        return self._initial_refs

    def cut_database(self, k: int, cut_limit: int) -> CutDatabase:
        """The flat cut database for ``(k, cut_limit)``, built once."""
        key = (k, cut_limit)
        db = self._databases.get(key)
        if db is None:
            db = CutDatabase(self.ntk, k=k, cut_limit=cut_limit,
                             order=self.order(), choices=self.choices)
            self._databases[key] = db
        return db

    def stats(self) -> dict:
        """This session's statistics (network size and cut databases)."""
        return {
            "network_nodes": self.ntk.num_nodes(),
            "choices": self._num_choices,
            "databases": {
                f"k={k},limit={l}": db.stats for (k, l), db in self._databases.items()
            },
        }

    def __repr__(self) -> str:
        dbs = ",".join(f"({k},{l})" for k, l in self._databases)
        return (f"<MappingSession nodes={self.ntk.num_nodes()} "
                f"choices={self._num_choices} dbs=[{dbs}]>")


# ---------------------------------------------------------------------- #
# cost models                                                             #
# ---------------------------------------------------------------------- #

class CostModel:
    """Protocol of the unified cut cost layer.

    :meth:`costs` answers, for cut ``i`` of a :class:`CutDatabase`, the area
    charged for selecting the cut and the delay through it; :func:`run_cover`
    reads it once per usable cut.  A model that needs no cut function must
    not read one there, so the database never evaluates it.
    Implementations may memoize on the cut function.
    """

    def costs(self, db: CutDatabase, i: int) -> Tuple[float, float]:
        """``(area, delay)`` of cut ``i`` of ``db``."""
        raise NotImplementedError


class UnitCostModel(CostModel):
    """K-LUT costs: every cut is one LUT, one level."""

    def costs(self, db: CutDatabase, i: int) -> Tuple[float, float]:
        return 1.0, 1


class NpnCostModel(CostModel):
    """Graph-mapping costs: estimated gate count / depth of resynthesizing
    the cut function in the target representation.

    Results are memoized per raw cut function, so the NPN canonicalization
    inside :class:`NpnCostCache` runs once per distinct function instead of
    once per (cut, pass) pair.
    """

    def __init__(self, target_cls: type, objective: str,
                 cache: Optional[NpnCostCache] = None):
        self.cache = cache if cache is not None and cache.rep_cls is target_cls \
            else NpnCostCache(target_cls)
        self.synth_objective = "area" if objective == "area" else "level"
        self._memo: Dict[Tuple[int, int], Tuple[str, int, int, bool]] = {}

    def best(self, num_vars: int, bits: int) -> Tuple[str, int, int, bool]:
        """(method, gates, depth, has_support) for the cut function
        ``TruthTable(num_vars, bits)``."""
        key = (num_vars, bits)
        got = self._memo.get(key)
        if got is None:
            tt = TruthTable(num_vars, bits)
            method, gates, depth = self.cache.best_method(tt, self.synth_objective)
            got = (method, gates, depth, 0 < bits < tt.mask)
            self._memo[key] = got
        return got

    def costs(self, db: CutDatabase, i: int) -> Tuple[float, float]:
        if len(db.leaves[i]) <= 1:
            return 0.0, 0
        _, gates, depth, has_support = self.best(db.tt_vars[i], db.function(i))
        return float(gates), (max(depth, 1) if has_support else 0)


class LibraryCostModel:
    """Boolean-matching cost layer for standard-cell mapping.

    Owns the pre-expanded :class:`~repro.mapping.matcher.MatchTable` of a
    library and memoizes, per distinct cut function, the phase-resolved
    match rows the phase-aware mapper selects from (:meth:`rows`): the
    min-base reduction and library lookup of both polarities run once per
    function.  The memo is
    bounded by the number of distinct functions of at most ``max_pins``
    (``min(4, library.max_pins)``) inputs, not by network size.
    """

    def __init__(self, library):
        from .matcher import MatchTable  # local import: avoid cycle at module load

        self.library = library
        self.max_pins = min(4, library.max_pins)
        self.table = MatchTable(library, max_pins=self.max_pins)
        self.inverter = library.inverter
        self._rows: Dict[Tuple[int, int], Tuple[tuple, tuple]] = {}

    def rows(self, num_vars: int, bits: int) -> Tuple[tuple, tuple]:
        """Match rows of the cut function ``tt = TruthTable(num_vars, bits)``
        in phase 0 (``tt``) and 1 (``~tt``).

        Each phase is a tuple of ``(cell, pins)`` rows in :meth:`matches`
        order, where ``pins`` holds one ``(variable, leaf phase, pin delay)``
        row per cell input and ``variable`` indexes ``tt``'s own variables
        (the support reduction is already undone).  A phase that is
        constant is the single row ``(None, value)``.  The raw key lets the
        mapper look rows up straight from a :class:`CutDatabase`'s columns.
        """
        key = (num_vars, bits)
        got = self._rows.get(key)
        if got is None:
            tt = TruthTable(num_vars, bits)
            got = (self._phase_rows(tt), self._phase_rows(~tt))
            self._rows[key] = got
        return got

    def _phase_rows(self, f: TruthTable) -> tuple:
        small, sup = self.min_base(f)
        if small.num_vars == 0:
            return ((None, small.is_const1()),)
        return tuple((match.cell, tuple((sup[v], lp, d) for v, lp, d in match.pins))
                     for match in self.matches(small))

    # A named method: perfbench's mapping.match layer times it and TestMatchRowsMemo counts it.
    def min_base(self, tt: TruthTable) -> Tuple[TruthTable, Tuple[int, ...]]:
        """``tt.min_base()`` — (support-reduced tt, support vars)."""
        small, sup = tt.min_base()
        return small, tuple(sup)

    # A named method: perfbench's mapping.match layer times it and TestMatchRowsMemo counts it.
    def matches(self, small: TruthTable):
        """Library matches realizing exactly ``small`` (same polarity)."""
        return self.table.lookup(small)

    def stats(self) -> dict:
        return {
            "library": self.library.name,
            "table_entries": self.table.num_entries(),
            "rows_memo": len(self._rows),
        }


@lru_cache(maxsize=8)
def library_cost_model(library) -> LibraryCostModel:
    """Shared :class:`LibraryCostModel` of a library.

    The match-table expansion is expensive and libraries are immutable in
    practice, so one model per library object is memoized (``Library``
    hashes by identity).  The bound keeps sweeps over many parsed
    libraries from leaking match tables.
    """
    return LibraryCostModel(library)


# ---------------------------------------------------------------------- #
# the covering pipeline                                                   #
# ---------------------------------------------------------------------- #

@dataclass
class MappingCover:
    """Result of the covering phase: which cut realizes which node.

    ``selection`` maps each covered node to the index of its cut in ``db``;
    the cut's leaves and function are read from the database's columns.
    """

    ntk: LogicNetwork
    db: CutDatabase
    selection: Dict[int, int]          # covered node -> selected cut index
    order: List[int]                   # covered nodes in topological order
    area: float


def run_cover(session: MappingSession, cost_model: CostModel, *,
              k: int = 6, cut_limit: int = 8, objective: str = "delay",
              flow_iterations: int = 1, exact_iterations: int = 2) -> MappingCover:
    """Cover the session's network with cuts under a cost model.

    The classic priority-cuts pipeline (Mishchenko et al., ICCAD'07 /
    FPGA'06): a depth-oriented pass, global required-time computation,
    area-flow recovery passes and exact-area recovery passes with reference
    counting.  :func:`~repro.mapping.lut_mapper.lut_map` and
    :func:`~repro.mapping.graph_mapper.graph_map` consume it; the
    phase-aware :class:`~repro.mapping.asic_mapper.AsicMapper` does not.
    """
    if objective not in ("delay", "area"):
        raise ValueError("objective must be 'delay' or 'area'")
    return _CoverPipeline(session, cost_model, k, cut_limit, objective,
                          flow_iterations, exact_iterations).run()


class _CoverPipeline:
    """The cover on flat cut indices: ``best[m]`` is the index of node
    ``m``'s selected cut in the session's :class:`CutDatabase`, and every
    pass reads leaves from ``db.leaves`` and costs from the per-cut columns
    filled once by the cost model.  The cover it returns selects by the same
    indices."""

    def __init__(self, session, cost_model, k, cut_limit, objective,
                 flow_iterations, exact_iterations):
        self.session = session
        self.ntk = session.ntk
        self.order = session.order()
        self.objective = objective
        self.flow_iterations = flow_iterations
        self.exact_iterations = exact_iterations
        self.cost_model = cost_model
        self.db = session.cut_database(k, cut_limit)
        self.leaves = self.db.leaves
        # per-cut cost and delay columns, filled by run() for usable cuts
        self.area: List[float] = []
        self.delay: List[float] = []

    def run(self) -> MappingCover:
        ntk = self.ntk
        n = ntk.num_nodes()
        db = self.db
        gate_nodes = self.session.gate_nodes()
        leaves_of = self.leaves

        # Cuts a node may be implemented by: every cut except its own
        # trivial cut (single-leaf cuts of *other* nodes — absorbed choice
        # buffers — stay usable).  Their costs are read once, here, and
        # reused by every pass.
        usable: List[Optional[List[int]]] = [None] * n
        cut_area = self.area = [0.0] * db.num_cuts()
        cut_delay = self.delay = [0] * db.num_cuts()
        costs = self.cost_model.costs
        for m in gate_nodes:
            start, end = db.spans[m]
            ids = []
            for i in range(start, end):
                cl = leaves_of[i]
                if len(cl) > 1 or (len(cl) == 1 and cl[0] != m):
                    ids.append(i)
                    cut_area[i], cut_delay[i] = costs(db, i)
            usable[m] = ids

        arrival = [0.0] * n
        flow = [0.0] * n
        best: List[int] = [-1] * n
        refs = [max(1, r) for r in self.session.initial_refs()]

        # ---- pass 1: depth-oriented ----
        delay_first = self.objective == "delay"
        for m in gate_nodes:
            best_key = None
            for i in usable[m]:
                cl = leaves_of[i]
                arr = cut_delay[i] + max((arrival[l] for l in cl), default=0)
                fl = cut_area[i] + sum(flow[l] / refs[l] for l in cl)
                key = (arr, fl) if delay_first else (fl, arr)
                if best_key is None or key < best_key:
                    best_key = key
                    best[m] = i
                    arrival[m] = arr
                    flow[m] = fl
            if best[m] < 0:
                raise RuntimeError(f"node {m} has no usable cut")

        required = self._compute_required(arrival, best)

        # ---- pass 2+: area flow under required-time constraint ----
        for _ in range(self.flow_iterations):
            refs = [max(1, r) for r in self._cover_refs(best)]
            for m in gate_nodes:
                best_key = None
                for i in usable[m]:
                    cl = leaves_of[i]
                    arr = cut_delay[i] + max((arrival[l] for l in cl), default=0)
                    if arr > required[m]:
                        continue
                    fl = cut_area[i] + sum(flow[l] / refs[l] for l in cl)
                    key = (fl, arr)
                    if best_key is None or key < best_key:
                        best_key = key
                        best[m] = i
                        arrival[m] = arr
                        flow[m] = fl
            required = self._compute_required(arrival, best)

        # ---- pass 3+: exact local area ----
        for _ in range(self.exact_iterations):
            map_refs = self._cover_refs(best)
            for m in gate_nodes:
                if map_refs[m] == 0:
                    continue
                old_cut = best[m]
                self._cut_walk(old_cut, map_refs, best, -1)
                best_key = None
                best_cut = old_cut
                for i in usable[m]:
                    arr = cut_delay[i] + max((arrival[l] for l in leaves_of[i]), default=0)
                    if arr > required[m]:
                        continue
                    area = self._cut_walk(i, map_refs, best, 1)
                    self._cut_walk(i, map_refs, best, -1)
                    key = (area, arr)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_cut = i
                        arrival[m] = arr
                best[m] = best_cut
                self._cut_walk(best_cut, map_refs, best, 1)
            required = self._compute_required(arrival, best)

        return self._derive_cover(best)

    # -- helpers -------------------------------------------------------------

    def _compute_required(self, arrival: List[float], best: List[int]) -> List[float]:
        ntk = self.ntk
        n = ntk.num_nodes()
        required = [INF] * n
        po_gate_nodes = [p >> 1 for p in ntk.pos if ntk.is_gate(p >> 1)]
        if self.objective == "delay":
            leaves_of = self.leaves
            cut_delay = self.delay
            target = max((arrival[m] for m in po_gate_nodes), default=0)
            for m in po_gate_nodes:
                required[m] = target
            # reverse topological propagation through selected cuts
            for m in reversed(self.order):
                if not ntk.is_gate(m) or required[m] == INF or best[m] < 0:
                    continue
                slack = required[m] - cut_delay[best[m]]
                for l in leaves_of[best[m]]:
                    if slack < required[l]:
                        required[l] = slack
        return required

    def _cover_refs(self, best: List[int]) -> List[int]:
        """Reference counts of the cover induced by the current best cuts."""
        ntk = self.ntk
        leaves_of = self.leaves
        refs = [0] * ntk.num_nodes()
        stack = [p >> 1 for p in ntk.pos if ntk.is_gate(p >> 1)]
        for m in stack:
            refs[m] += 1
        seen = set(stack)
        work = list(seen)
        while work:
            m = work.pop()
            for l in leaves_of[best[m]]:
                refs[l] += 1
                if ntk.is_gate(l) and l not in seen:
                    seen.add(l)
                    work.append(l)
        return refs

    def _cut_walk(self, cut: int, refs: List[int], best: List[int],
                  delta: int) -> float:
        """Reference (``delta=1``) or dereference (``delta=-1``) the MFFC
        of cut index ``cut`` and return its area.

        An explicit-stack depth-first walk, so deep networks cannot overflow
        the interpreter stack: a leaf gate whose count reaches 1 (ref) or
        0 (deref) is descended into through its best cut.  Leaves are
        visited in order and each child's area is added into its parent's
        frame, so the float sums associate as a recursive walk would.
        """
        cut_area = self.area
        leaves_of = self.leaves
        is_gate = self.ntk.is_gate
        hit = 1 if delta > 0 else 0
        leaves, i, area = leaves_of[cut], 0, cut_area[cut]
        stack = []
        while True:
            if i < len(leaves):
                l = leaves[i]
                i += 1
                refs[l] += delta
                if refs[l] == hit and is_gate(l):
                    stack.append((leaves, i, area))
                    child = best[l]
                    leaves, i, area = leaves_of[child], 0, cut_area[child]
            elif stack:
                child_area = area
                leaves, i, area = stack.pop()
                area += child_area
            else:
                return area

    def _derive_cover(self, best: List[int]) -> MappingCover:
        ntk = self.ntk
        leaves_of = self.leaves
        chosen: Dict[int, int] = {}
        stack = [p >> 1 for p in ntk.pos if ntk.is_gate(p >> 1)]
        while stack:
            m = stack.pop()
            if m in chosen:
                continue
            chosen[m] = best[m]
            for l in leaves_of[best[m]]:
                if ntk.is_gate(l):
                    stack.append(l)
        order = [m for m in self.order if m in chosen]
        area = sum(self.area[i] for i in chosen.values())
        return MappingCover(ntk=ntk, db=self.db, selection=chosen,
                            order=order, area=area)
