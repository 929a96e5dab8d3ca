"""SAT solving and combinational equivalence checking.

The verification stack is layered: the optimized CDCL :class:`Solver` at the
bottom, :class:`EquivalenceSession` (one Tseitin encoding, many incremental
queries, counterexample recycling) above it, and the bit-parallel simulation
engine in :mod:`repro.sim` alongside.  Consumers outside this package go
through :class:`EquivalenceSession` / :func:`cec`; code that needs a bare
solver for custom CNF work (e.g. exact synthesis) uses :func:`new_solver`.
"""

from .solver import SAT, UNSAT, Solver, solver_stats
from .cnf import CnfBuilder
from .session import EquivalenceSession
from .cec import CecResult, cec, find_counterexample

__all__ = [
    "Solver", "SAT", "UNSAT", "CnfBuilder", "EquivalenceSession",
    "CecResult", "cec", "find_counterexample", "new_solver",
    "solver_stats",
]


def new_solver() -> Solver:
    """A fresh CDCL solver for custom CNF work.

    Keeps every ``Solver`` construction site inside :mod:`repro.sat` so the
    process-wide :func:`solver_stats` counters see all SAT activity.
    """
    return Solver()
