"""Phase-aware standard-cell technology mapping.

The classical cut-based ASIC mapper (Chatterjee et al., TCAD'06; ABC's
``map`` / ``&nf``): every node is mapped in both polarities, cut functions
are Boolean-matched against the library in both phases, inverters connect the
two polarities where profitable, and delay / area-flow passes select the
cover under required times.  Like the rest of the mapping stack it is
choice-aware — handing it a :class:`~repro.core.choice.ChoiceNetwork` built
by MCH turns it into the paper's MCH-based ASIC mapper (Algorithm 3).

Delay model: fixed per-pin cell delays in ps, load-independent (see
``asap7.py``).  Objectives: ``'delay'`` minimizes arrival then recovers area
under required times; ``'area'`` minimizes area flow directly.

Cuts are read by index straight from the flat arrays of the shared
:class:`~repro.mapping.engine.MappingSession` cut database (each node's span
of leaf tuples and raw functions), and Boolean matching runs through
:class:`~repro.mapping.engine.LibraryCostModel`, which memoizes the match rows
of every distinct cut function: each row is a cell plus its pins indexed into
the cut's full leaf tuple, so every covering pass selects straight from the
rows and builds an implementation record only for the winner.  Repeated
mappings of the same subject (or the same library) share all the expensive
precomputation.

The covering loop is this module's own rather than
:func:`~repro.mapping.engine.run_cover`: it covers two phases per node, relaxes
through inverters, checks required times with a 1e-9 slack and per-pin
delays, and its exact-area pass keeps the current implementation unless a
candidate is strictly better.  Every traversal — reference counting, the
exact-area walk and netlist construction — runs on an explicit stack, so a
deep cover needs no interpreter frame per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.choice import ChoiceNetwork
from ..networks.base import LogicNetwork
from ..networks.netlist import CellNetlist
from .library import Cell, Library
from .asap7 import asap7_library
from .engine import MappingSession, library_cost_model

__all__ = ["AsicMapper", "asic_map"]

INF = float("inf")


@dataclass
class _Impl:
    """Chosen implementation of one (node, phase).

    Input ``i`` of the cell is ``leaves[pins[i][0]]`` in phase ``pins[i][1]``,
    reached with pin delay ``pins[i][2]``.
    """

    kind: str                                    # "match", "inv" or "const"
    cell: Optional[Cell] = None                  # None for kind == "const"
    leaves: Sequence[int] = ()                   # the cut's full leaf tuple
    pins: Sequence[Tuple[int, int, float]] = ()  # (variable, leaf phase, delay)
    value: bool = False                          # for kind == "const"


class AsicMapper:
    """Cut-based Boolean-matching mapper onto a standard-cell library."""

    def __init__(self, subject: Union[LogicNetwork, ChoiceNetwork, MappingSession],
                 library: Optional[Library] = None, objective: str = "delay",
                 cut_limit: int = 8, flow_iterations: int = 2,
                 exact_iterations: int = 2):
        self.session = MappingSession.of(subject)
        self.ntk = self.session.ntk
        self.order = self.session.order()
        if objective not in ("delay", "area"):
            raise ValueError("objective must be 'delay' or 'area'")
        self.lib = library or asap7_library()
        self.objective = objective
        self.costs = library_cost_model(self.lib)
        self.cut_limit = cut_limit
        self.flow_iterations = flow_iterations
        self.exact_iterations = exact_iterations
        self.inv = self.lib.inverter

    # ------------------------------------------------------------------ #

    def run(self) -> CellNetlist:
        ntk = self.ntk
        n = ntk.num_nodes()
        db = self.session.cut_database(self.costs.max_pins, self.cut_limit)
        self.db, self.bits = db, db.tt_bits
        gate_nodes = self.session.gate_nodes()

        arrival = [[INF, INF] for _ in range(n)]
        flow = [[INF, INF] for _ in range(n)]
        impl: List[List[Optional[_Impl]]] = [[None, None] for _ in range(n)]
        inv_d, inv_a = self.inv.max_delay(), self.inv.area

        for pi in ntk.pis:
            arrival[pi][0], flow[pi][0] = 0.0, 0.0
            arrival[pi][1], flow[pi][1] = inv_d, inv_a
            impl[pi][1] = self._inverter(pi, 1)

        # Initial fanout estimate from PO-reachable structure only, so choice
        # candidate cones do not inflate sharing estimates.
        refs = [max(1, r) for r in self.session.initial_refs()]

        def select(m: int, required: Optional[List[List[float]]],
                   delay_first: bool) -> None:
            """(Re)select the best implementation of both phases of node m."""
            for phase in (0, 1):
                best = None
                for cell, leaves, pins in self._rows(m, phase):
                    arr = fl = 0.0
                    if cell is not None:
                        fl = cell.area
                        for var, lp, d in pins:
                            leaf = leaves[var]
                            a = arrival[leaf][lp] + d
                            if a > arr:
                                arr = a
                            fl += flow[leaf][lp] / refs[leaf]
                        if arr == INF or (required is not None
                                          and arr > required[m][phase] + 1e-9):
                            continue
                    key = (arr, fl) if delay_first else (fl, arr)
                    if best is None or key < best_key:
                        best, best_key, best_arr, best_fl = (cell, leaves, pins), key, arr, fl
                if best is not None:
                    cell, leaves, pins = best
                    impl[m][phase] = (_Impl("const", value=pins) if cell is None
                                      else _Impl("match", cell, leaves, pins))
                    arrival[m][phase], flow[m][phase] = best_arr, best_fl
                elif impl[m][phase] is None:
                    arrival[m][phase] = flow[m][phase] = INF
                # else: keep the previous implementation — leaf arrivals may
                # have drifted past the required time during recovery passes,
                # but an already-selected match must never be discarded
            # inverter relaxation: implement the weaker phase off the stronger
            for phase in (0, 1):
                o = 1 - phase
                if arrival[m][o] == INF:
                    continue
                via_arr = arrival[m][o] + inv_d
                via_fl = flow[m][o] + inv_a
                if required is not None and via_arr > required[m][phase] + 1e-9:
                    continue
                cur = (arrival[m][phase], flow[m][phase]) if delay_first \
                    else (flow[m][phase], arrival[m][phase])
                new = (via_arr, via_fl) if delay_first else (via_fl, via_arr)
                if impl[m][phase] is None or new < cur:
                    # never let both phases be inverters of each other
                    if impl[m][o] is not None and impl[m][o].kind == "inv":
                        continue
                    impl[m][phase] = self._inverter(m, phase)
                    arrival[m][phase] = via_arr
                    flow[m][phase] = via_fl

        # ---- pass 1: delay (or plain flow for area objective) ----
        for m in gate_nodes:
            select(m, None, self.objective == "delay")
            if impl[m][0] is None and impl[m][1] is None:
                raise RuntimeError(f"no library match for node {m}; library too weak")

        required = self._compute_required(arrival, impl)

        # ---- area-flow recovery passes: flow-first selection under required ----
        for _ in range(self.flow_iterations):
            refs = [max(1, r0 + r1) for r0, r1 in self._phase_refs(impl)]
            for m in gate_nodes:
                select(m, required, False)
            required = self._compute_required(arrival, impl)

        # ---- exact local area recovery ----
        for _ in range(self.exact_iterations):
            self._exact_area_pass(gate_nodes, arrival, impl, required)
            required = self._compute_required(arrival, impl)

        return self._derive(impl)

    def _rows(self, m: int, phase: int) -> Iterator[tuple]:
        """``(cell, leaves, pins)`` candidates of (m, phase): the cuts of m's
        span in the database in order, skipping its trivial cut, and each
        cut's memoized match rows in order.  ``pins`` index ``leaves``; a
        ``None`` cell marks a phase that is constant (a zero-cost tie) and
        ``pins`` is its value."""
        rows = self.costs.rows
        db, bits = self.db, self.bits
        leaves_of, vars_of = db.leaves, db.tt_vars
        start, end = db.spans[m]
        for i in range(start, end):
            leaves = leaves_of[i]
            if len(leaves) == 1 and leaves[0] == m:
                continue
            for cell, pins in rows(vars_of[i], bits[i])[phase]:
                yield cell, leaves, pins

    def _inverter(self, node: int, phase: int) -> _Impl:
        """(node, phase) as an inverter driven by the opposite phase."""
        return _Impl("inv", self.inv, (node,), ((0, 1 - phase, self.inv.max_delay()),))

    # -- exact-area machinery -------------------------------------------------

    def _phase_refs(self, impl) -> List[List[int]]:
        """Per-(node, phase) reference counts of the current cover."""
        ntk = self.ntk
        refs = [[0, 0] for _ in range(ntk.num_nodes())]
        stack = []
        for node, phase in self._po_requirements():
            refs[node][phase] += 1
            if refs[node][phase] == 1:
                stack.append((node, phase))
        while stack:
            node, phase = stack.pop()
            im = impl[node][phase]
            if not ntk.is_gate(node) or im is None:
                continue
            for var, lp, _ in im.pins:
                leaf = im.leaves[var]
                refs[leaf][lp] += 1
                if refs[leaf][lp] == 1:
                    stack.append((leaf, lp))
        return refs

    def _area_of(self, node: int, phase: int, impl) -> float:
        """Cell area charged when (node, phase) first becomes referenced."""
        im = impl[node][phase]
        if im is None:  # a constant, a PI's true phase or an unmapped gate
            return INF if self.ntk.is_gate(node) else 0.0
        return 0.0 if im.cell is None else im.cell.area

    def _walk(self, node: int, phase: int, refs, impl, delta: int) -> float:
        """Reference (``delta=1``) or dereference (``delta=-1``) the inputs of
        (node, phase)'s implementation; returns the area they materialize
        (ref) or release (deref).

        An explicit-stack depth-first walk, so deep covers need no
        interpreter frame per node: an input whose count reaches 1 (ref) or
        0 (deref) is charged its cell and, if it is a gate, descended into.
        Inputs are visited in pin order and each input's area is added into
        its parent's sum, so the floats associate as a recursive walk would.
        """
        is_gate = self.ntk.is_gate
        hit = 1 if delta > 0 else 0
        im = impl[node][phase]
        leaves, pins, i, own, acc = im.leaves, im.pins, 0, 0.0, 0.0
        stack = []
        while True:
            if i < len(pins):
                var, lp, _ = pins[i]
                leaf = leaves[var]
                i += 1
                refs[leaf][lp] += delta
                if refs[leaf][lp] != hit:
                    continue
                area = self._area_of(leaf, lp, impl)
                if is_gate(leaf):
                    stack.append((leaves, pins, i, own, acc))
                    child = impl[leaf][lp]
                    leaves, pins, i, own, acc = child.leaves, child.pins, 0, area, 0.0
                else:
                    acc += area
            elif stack:
                total = own + acc
                leaves, pins, i, own, acc = stack.pop()
                acc += total
            else:
                return acc

    def _trial_area(self, m: int, phase: int, im: _Impl, refs, impl) -> float:
        """Area ``im`` would materialize at (m, phase): its cell plus the
        inputs it newly references.  Leaves ``im`` installed at (m, phase)."""
        impl[m][phase] = im
        area = im.cell.area + self._walk(m, phase, refs, impl, 1)
        self._walk(m, phase, refs, impl, -1)
        return area

    def _exact_area_pass(self, gate_nodes, arrival, impl, required) -> None:
        """Re-select implementations by exact local area under required times."""
        refs = self._phase_refs(impl)
        for m in gate_nodes:
            for phase in (0, 1):
                old = impl[m][phase]
                if refs[m][phase] == 0 or old is None or old.kind != "match":
                    continue  # inverters re-decide through their base phase
                # release the current implementation's input charges
                self._walk(m, phase, refs, impl, -1)
                best, best_arr = old, arrival[m][phase]
                best_key = (self._trial_area(m, phase, old, refs, impl), best_arr)
                for cell, leaves, pins in self._rows(m, phase):
                    if cell is None:
                        continue
                    arr = 0.0
                    for var, lp, d in pins:
                        a = arrival[leaves[var]][lp] + d
                        if a > arr:
                            arr = a
                    if arr == INF or arr > required[m][phase] + 1e-9:
                        continue
                    im = _Impl("match", cell, leaves, pins)
                    key = (self._trial_area(m, phase, im, refs, impl), arr)
                    if key < best_key:
                        best, best_key, best_arr = im, key, arr
                impl[m][phase] = best
                arrival[m][phase] = best_arr
                self._walk(m, phase, refs, impl, 1)

    # ------------------------------------------------------------------ #

    def _po_requirements(self) -> List[Tuple[int, int]]:
        out = []
        for p in self.ntk.pos:
            node, phase = p >> 1, p & 1
            if self.ntk.is_gate(node) or self.ntk.is_pi(node):
                out.append((node, phase))
        return out

    def _compute_required(self, arrival, impl) -> List[List[float]]:
        ntk = self.ntk
        n = ntk.num_nodes()
        required = [[INF, INF] for _ in range(n)]
        po_req = self._po_requirements()
        if self.objective != "delay":
            return required
        target = 0.0
        for node, phase in po_req:
            if arrival[node][phase] < INF:
                target = max(target, arrival[node][phase])
        for node, phase in po_req:
            required[node][phase] = min(required[node][phase], target)
        for m in reversed(self.order):
            if not ntk.is_gate(m):
                continue
            for phase in (0, 1):
                req = required[m][phase]
                im = impl[m][phase]
                if req == INF or im is None:
                    continue
                for var, lp, d in im.pins:
                    leaf = im.leaves[var]
                    required[leaf][lp] = min(required[leaf][lp], req - d)
        return required

    def _derive(self, impl) -> CellNetlist:
        """Instantiate the cover from the POs, depth first: each (node, phase)
        gets its cell after all of its inputs, in pin order."""
        ntk = self.ntk
        netlist = CellNetlist(self.lib.name)
        net_of: Dict[Tuple[int, int], int] = {(0, 0): netlist.const0, (0, 1): netlist.const1}
        for name, pi in zip(ntk.pi_names, ntk.pis):
            net_of[(pi, 0)] = netlist.create_pi(name)
        for p, name in zip(ntk.pos, ntk.po_names):
            root = (p >> 1, p & 1)
            stack = [root]
            while stack:
                key = stack[-1]
                if key in net_of:
                    stack.pop()
                    continue
                im = impl[key[0]][key[1]]
                if im is None:
                    raise RuntimeError(f"phase {key[1]} of node {key[0]} not implemented")
                if im.kind == "const":
                    net_of[key] = netlist.const1 if im.value else netlist.const0
                    continue
                inputs = [(im.leaves[var], lp) for var, lp, _ in im.pins]
                missing = next((k for k in inputs if k not in net_of), None)
                if missing is not None:
                    stack.append(missing)
                else:
                    net_of[key] = netlist.add_cell(im.cell, tuple(net_of[k] for k in inputs))
            netlist.create_po(net_of[root], name)
        return netlist


def asic_map(subject: Union[LogicNetwork, ChoiceNetwork, MappingSession],
             library: Optional[Library] = None, objective: str = "delay",
             cut_limit: int = 8, flow_iterations: int = 2,
             exact_iterations: int = 2) -> CellNetlist:
    """Map a (choice) network onto a standard-cell library.

    Returns a :class:`CellNetlist`; ``netlist.area()`` and
    ``netlist.delay()`` report the Table-I metrics.  Passing a
    :class:`MappingSession` (or re-mapping the same subject) reuses the
    shared cut database.
    """
    return AsicMapper(subject, library=library, objective=objective,
                      cut_limit=cut_limit, flow_iterations=flow_iterations,
                      exact_iterations=exact_iterations).run()
