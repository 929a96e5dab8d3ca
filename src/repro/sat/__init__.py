"""SAT solving and combinational equivalence checking.

The verification stack is layered: the optimized CDCL :class:`Solver` at the
bottom, :class:`EquivalenceSession` (one Tseitin encoding, many incremental
queries, counterexample recycling) above it, and the bit-parallel simulation
engine in :mod:`repro.sim` alongside.  Consumers outside this package go
through :class:`EquivalenceSession` / :func:`cec`.
"""

from .solver import SAT, UNSAT, Solver, solver_stats
from .cnf import CnfBuilder
from .session import EquivalenceSession
from .cec import CecResult, cec, find_counterexample

__all__ = [
    "Solver", "SAT", "UNSAT", "CnfBuilder", "EquivalenceSession",
    "CecResult", "cec", "find_counterexample", "solver_stats",
]
