"""Combinational equivalence checking (the Python analogue of ABC ``cec``).

Strategy, mirroring practical CEC engines:

1. **Exhaustive simulation** when the PI count is small (≤ ``sim_limit``,
   by default :data:`EXHAUSTIVE_PIS` = 20): all ``2**n`` inputs are
   enumerated in windows of ``2**12`` patterns, so a node's simulation word
   never exceeds 512 bytes.  Exact, and far cheaper than a miter at this
   size: such circuits never build a CNF or a solver.
2. **Random simulation** over a shared :class:`~repro.sim.engine.PatternPool`
   to hunt for cheap counterexamples.
3. **SAT miter**: one :class:`~repro.sat.session.EquivalenceSession` encodes
   both networks over shared PI variables and proves each PO pair equal
   through incremental assumption queries, so clauses learned for one output
   help the next.  Any SAT counterexample is recycled into the same pattern
   pool the simulation phase used — callers chaining several checks (pass a
   ``pool``) get sharper filtering for free.

Every optimization and mapping pass in this library is verified through
:func:`cec` in the test suite, mirroring the paper's statement that "all
results have been formally verified with ABC's cec command".
"""

from __future__ import annotations

from typing import List, Optional

from ..networks.base import LogicNetwork, require_combinational
from ..sim.engine import PatternPool, SimEngine, simulate_words
from ..truth.truth_table import var_mask
from .session import EquivalenceSession

__all__ = ["cec", "CecResult", "find_counterexample", "EXHAUSTIVE_PIS"]

#: PI count up to which :func:`cec` decides by exhaustive simulation; the
#: same ceiling :meth:`LogicNetwork.simulate_truth_tables` enforces
EXHAUSTIVE_PIS = 20
#: PIs enumerated inside one simulation word: a window is 2**12 patterns
_WINDOW_PIS = 12


class CecResult:
    """Outcome of an equivalence check."""

    def __init__(self, equivalent: bool, counterexample: Optional[List[bool]] = None,
                 method: str = ""):
        self.equivalent = equivalent
        self.counterexample = counterexample
        self.method = method

    def __bool__(self) -> bool:
        return self.equivalent

    def __repr__(self) -> str:
        if self.equivalent:
            return f"CecResult(equivalent, via {self.method})"
        return f"CecResult(NOT equivalent, cex={self.counterexample})"


def _interface_check(a: LogicNetwork, b: LogicNetwork) -> None:
    if a.num_pis() != b.num_pis():
        raise ValueError(f"PI count mismatch: {a.num_pis()} vs {b.num_pis()}")
    if a.num_pos() != b.num_pos():
        raise ValueError(f"PO count mismatch: {a.num_pos()} vs {b.num_pos()}")


def _sim_counterexample(ea: SimEngine, eb: SimEngine,
                        pool: PatternPool) -> Optional[List[bool]]:
    """Compare PO signatures over the pool; a distinguishing input or None."""
    a, b = ea.ntk, eb.ntk
    va = ea.signatures()
    vb = eb.signatures()
    mask = pool.mask
    for pa, pb in zip(a.pos, b.pos):
        xa = va[pa >> 1] ^ (mask if pa & 1 else 0)
        xb = vb[pb >> 1] ^ (mask if pb & 1 else 0)
        diff = xa ^ xb
        if diff:
            bit = (diff & -diff).bit_length() - 1
            return pool.pattern(bit)
    return None


def _exhaustive_counterexample(a: LogicNetwork,
                               b: LogicNetwork) -> Optional[List[bool]]:
    """Enumerate every input; the first distinguishing one, or None.

    The low ``w = min(n, 12)`` PIs get the projection masks of one
    ``2**w``-bit word; the remaining PIs are constant words set from the bits
    of the window index, so ``2**(n - w)`` windows cover all inputs.
    """
    n = a.num_pis()
    if n > EXHAUSTIVE_PIS:
        raise ValueError("too many PIs for exhaustive simulation")
    w = min(n, _WINDOW_PIS)
    mask = (1 << (1 << w)) - 1
    low = [var_mask(w, i) for i in range(w)]
    for window in range(1 << (n - w)):
        high = [bool((window >> j) & 1) for j in range(n - w)]
        words = low + [mask if h else 0 for h in high]
        va = simulate_words(a, words, mask)
        vb = simulate_words(b, words, mask)
        for pa, pb in zip(a.pos, b.pos):
            diff = va[pa >> 1] ^ vb[pb >> 1] ^ (mask if (pa ^ pb) & 1 else 0)
            if diff:
                bit = (diff & -diff).bit_length() - 1
                return [bool((bit >> i) & 1) for i in range(w)] + high
    return None


def find_counterexample(a: LogicNetwork, b: LogicNetwork, rounds: int = 64,
                        width: int = 64, seed: int = 1,
                        pool: Optional[PatternPool] = None) -> Optional[List[bool]]:
    """Random simulation: returns a distinguishing input or None.

    ``rounds * width`` random patterns are drawn into one shared pool (or the
    caller's ``pool`` is used as-is — including any recycled SAT
    counterexamples it has accumulated) and both networks are simulated once,
    bit-parallel over the full pool width.
    """
    _interface_check(a, b)
    if pool is None:
        pool = PatternPool(a.num_pis(), n_patterns=rounds * width, seed=seed)
    ea = SimEngine(a, pool)
    eb = SimEngine(b, pool)
    return _sim_counterexample(ea, eb, pool)


def cec(a: LogicNetwork, b: LogicNetwork, sim_limit: int = EXHAUSTIVE_PIS,
        sim_rounds: int = 16, pool: Optional[PatternPool] = None) -> CecResult:
    """Check combinational equivalence of two networks (PO-by-PO, in order).

    Networks of at most ``sim_limit`` PIs (default :data:`EXHAUSTIVE_PIS`)
    are decided by windowed exhaustive simulation; wider ones go through
    random simulation and then the SAT miter.  Enumeration time doubles with
    every PI, so with a ``sim_limit`` above :data:`EXHAUSTIVE_PIS`, networks
    wider than that ceiling still raise ``ValueError``.

    A caller-supplied ``pool`` (e.g. the shared pool of a
    :class:`~repro.flow.context.FlowContext`) drives the random-simulation
    phase, and any SAT counterexample is recycled into it.
    """
    require_combinational(a, "cec")
    require_combinational(b, "cec")
    _interface_check(a, b)

    if a.num_pis() <= sim_limit:
        cex = _exhaustive_counterexample(a, b)
        if cex is not None:
            return CecResult(False, cex, "exhaustive simulation")
        return CecResult(True, method="exhaustive simulation")

    if pool is None:
        pool = PatternPool(a.num_pis(), n_patterns=sim_rounds * 64, seed=1)
    cex = _sim_counterexample(SimEngine(a, pool), SimEngine(b, pool), pool)
    if cex is not None:
        return CecResult(False, cex, "random simulation")

    session = EquivalenceSession(a, pool=pool)
    ib = session.add_network(b)

    # SAT miter over shared PIs, one incremental query per PO pair
    po_a = session.output_literals(0)
    po_b = session.output_literals(ib)
    for la, lb in zip(po_a, po_b):
        res = session.prove_equal(la, lb)
        if res is False:
            return CecResult(False, session.last_counterexample, "sat")
        if res is None:  # no budget is set, so "unknown" must never leak out
            raise RuntimeError("unbudgeted cec SAT query returned unknown")
    return CecResult(True, method="sat")
