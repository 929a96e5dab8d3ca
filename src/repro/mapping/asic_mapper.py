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
the cut's full leaf tuple.  A run reads each usable cut's rows once into a
column indexed by cut, every covering pass selects straight from that column,
and a (node, phase) is implemented by the ``(cell, leaves, pins)`` row it
selected.  Repeated mappings of the same subject (or the same library) share
all the expensive precomputation.

The covering loop is this module's own rather than
:func:`~repro.mapping.engine.run_cover`: it covers two phases per node, relaxes
through inverters, checks required times with a 1e-9 slack and per-pin
delays, and its exact-area pass keeps the current implementation unless a
candidate is strictly better.  Every traversal — reference counting, the
exact-area walk and netlist construction — runs on an explicit stack, so a
deep cover needs no interpreter frame per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.choice import ChoiceNetwork
from ..networks.base import LogicNetwork
from ..networks.netlist import CellNetlist
from .library import Library
from .asap7 import asap7_library
from .engine import MappingSession, library_cost_model

__all__ = ["AsicMapper", "asic_map"]

INF = float("inf")


class AsicMapper:
    """Cut-based Boolean-matching mapper onto a standard-cell library.

    The implementation of a (node, phase) is a ``(cell, leaves, pins)``
    tuple: input ``j`` of ``cell`` is ``leaves[pins[j][0]]`` in phase
    ``pins[j][1]``, reached with pin delay ``pins[j][2]``.  An inverter is
    ``(inv, (node,), ((0, 1 - phase, inv_delay),))``, the only
    implementation whose leaves are the node itself (a node's trivial cut is
    never matched).  A constant phase is ``(None, value, ())``: no cell and
    no pins.
    """

    def __init__(self, subject: Union[LogicNetwork, ChoiceNetwork, MappingSession],
                 library: Optional[Library] = None, objective: str = "delay",
                 cut_limit: int = 8, flow_iterations: int = 2,
                 exact_iterations: int = 2):
        self.lib = library or asap7_library()
        if self.lib.max_pins < 2:
            raise ValueError(f"library {self.lib.name!r} has no cell with two or more "
                             "inputs; am needs one to match cuts")
        self.session = MappingSession.of(subject)
        self.ntk = self.session.ntk
        self.order = self.session.order()
        if objective not in ("delay", "area"):
            raise ValueError("objective must be 'delay' or 'area'")
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
        gate_nodes = self.session.gate_nodes()
        spans, leaves_of = db.spans, db.leaves

        # The match rows of every usable cut, read once and shared by every
        # pass: each cut of a gate's span except the gate's own trivial cut,
        # whose slot keeps no rows in either phase.
        cut_rows: List[tuple] = [((), ())] * db.num_cuts()
        rows, vars_of, bits = self.costs.rows, db.tt_vars, db.tt_bits
        for m in gate_nodes:
            for i in range(*spans[m]):
                leaves = leaves_of[i]
                if len(leaves) != 1 or leaves[0] != m:
                    cut_rows[i] = rows(vars_of[i], bits[i])

        arrival = [[INF, INF] for _ in range(n)]
        flow = [[INF, INF] for _ in range(n)]
        impl: List[List[Optional[tuple]]] = [[None, None] for _ in range(n)]
        inv, inv_d, inv_a = self.inv, self.inv.max_delay(), self.inv.area

        for pi in ntk.pis:
            arrival[pi][0], flow[pi][0] = 0.0, 0.0
            arrival[pi][1], flow[pi][1] = inv_d, inv_a
            impl[pi][1] = (inv, (pi,), ((0, 0, inv_d),))

        # Initial fanout estimate from PO-reachable structure only, so choice
        # candidate cones do not inflate sharing estimates.
        refs = [max(1, r) for r in self.session.initial_refs()]

        def select(m: int, required: Optional[List[List[float]]],
                   delay_first: bool) -> None:
            """(Re)select the best implementation of both phases of node m."""
            for phase in (0, 1):
                best = None
                for i in range(*spans[m]):
                    leaves = leaves_of[i]
                    for cell, pins in cut_rows[i][phase]:
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
                    # a constant row's pins slot holds its value
                    impl[m][phase] = best if best[0] is not None else (None, best[2], ())
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
                    if impl[m][o] is not None and impl[m][o][1] == (m,):
                        continue
                    impl[m][phase] = (inv, (m,), ((0, o, inv_d),))
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
            self._exact_area_pass(gate_nodes, db, cut_rows, arrival, impl, required)
            required = self._compute_required(arrival, impl)

        return self._derive(impl)

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
            _, leaves, pins = im
            for var, lp, _ in pins:
                leaf = leaves[var]
                refs[leaf][lp] += 1
                if refs[leaf][lp] == 1:
                    stack.append((leaf, lp))
        return refs

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
        _, leaves, pins = impl[node][phase]
        i, own, acc = 0, 0.0, 0.0
        stack = []
        while True:
            if i < len(pins):
                var, lp, _ = pins[i]
                leaf = leaves[var]
                i += 1
                refs[leaf][lp] += delta
                if refs[leaf][lp] != hit:
                    continue
                child = impl[leaf][lp]
                if is_gate(leaf):
                    stack.append((leaves, pins, i, own, acc))
                    cell, leaves, pins = child
                    i, own, acc = 0, 0.0 if cell is None else cell.area, 0.0
                else:  # a PI's inverted phase is charged its inverter
                    acc += 0.0 if child is None else child[0].area
            elif stack:
                total = own + acc
                leaves, pins, i, own, acc = stack.pop()
                acc += total
            else:
                return acc

    def _trial_area(self, m: int, phase: int, im: tuple, refs, impl) -> float:
        """Area ``im`` would materialize at (m, phase): its cell plus the
        inputs it newly references.  Leaves ``im`` installed at (m, phase)."""
        impl[m][phase] = im
        area = im[0].area + self._walk(m, phase, refs, impl, 1)
        self._walk(m, phase, refs, impl, -1)
        return area

    def _exact_area_pass(self, gate_nodes, db, cut_rows, arrival, impl, required) -> None:
        """Re-select implementations by exact local area under required times."""
        refs = self._phase_refs(impl)
        spans, leaves_of = db.spans, db.leaves
        for m in gate_nodes:
            for phase in (0, 1):
                old = impl[m][phase]
                if refs[m][phase] == 0 or old is None or old[0] is None or old[1] == (m,):
                    continue  # constants stay; inverters re-decide through their base phase
                # release the current implementation's input charges
                self._walk(m, phase, refs, impl, -1)
                best, best_arr = old, arrival[m][phase]
                best_key = (self._trial_area(m, phase, old, refs, impl), best_arr)
                for i in range(*spans[m]):
                    leaves = leaves_of[i]
                    for cell, pins in cut_rows[i][phase]:
                        if cell is None:
                            continue
                        arr = 0.0
                        for var, lp, d in pins:
                            a = arrival[leaves[var]][lp] + d
                            if a > arr:
                                arr = a
                        if arr == INF or arr > required[m][phase] + 1e-9:
                            continue
                        im = (cell, leaves, pins)
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
                _, leaves, pins = im
                for var, lp, d in pins:
                    leaf = leaves[var]
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
                cell, leaves, pins = im
                if cell is None:  # a constant phase: leaves holds its value
                    net_of[key] = netlist.const1 if leaves else netlist.const0
                    continue
                inputs = [(leaves[var], lp) for var, lp, _ in pins]
                missing = next((k for k in inputs if k not in net_of), None)
                if missing is not None:
                    stack.append(missing)
                else:
                    net_of[key] = netlist.add_cell(cell, tuple(net_of[k] for k in inputs))
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
