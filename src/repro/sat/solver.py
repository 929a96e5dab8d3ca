"""An optimized CDCL SAT solver.

Implements the standard modern architecture — two-watched-literal scheme with
flat list-indexed watch lists and a dedicated binary-clause fast path,
first-UIP conflict clause learning with clause minimization, a learned-clause
database with LBD-based periodic reduction, heap-backed VSIDS decisions,
phase saving, and Luby restarts.  It is the engine underneath
:class:`repro.sat.session.EquivalenceSession`, which is how ``cec``,
``functional_classes``, ``resub``, choice verification and ``dch`` reach it;
the paper's "all results formally verified with cec" makes this the hot path
of the whole verify/optimize loop.

The public interface is unchanged from the original compact solver: literals
are DIMACS-style signed integers (``v`` / ``-v``), variables are 1-based,
:meth:`Solver.solve` accepts assumptions and a conflict budget and the solver
stays usable across calls (learned clauses persist, which is what makes
incremental sessions cheap).  Internally literals are index-encoded
(``2*v`` / ``2*v+1``) so negation is ``^1`` and watch lists are plain
list-of-list lookups instead of per-literal dict probes.

Per-solve counters are aggregated into module-level statistics exposed via
:func:`solver_stats` (surfaced by the CLI's ``--engine-stats``).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["Solver", "SAT", "UNSAT", "solver_stats"]

SAT = True
UNSAT = False

#: Luby restart unit (conflicts).
_RESTART_BASE = 100
#: Learned-DB size before the first reduction, as a fraction of problem clauses.
_LEARNTSIZE_FACTOR = 1 / 3
_LEARNTSIZE_GROWTH = 1.15

_STAT_KEYS = (
    "solves", "conflicts", "propagations", "decisions", "restarts",
    "learned", "deleted", "db_reductions", "minimized_literals",
)

_GLOBAL_STATS: Dict[str, int] = {k: 0 for k in _STAT_KEYS}


def solver_stats() -> Dict[str, int]:
    """Aggregate counters across every :class:`Solver` run in this process."""
    return dict(_GLOBAL_STATS)


def _luby(x: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (0-based index)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


def _ilit(lit: int) -> int:
    """Signed DIMACS literal -> internal index literal (2v / 2v+1)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


class Solver:
    """CDCL SAT solver over clauses of DIMACS-signed integer literals."""

    def __init__(self):
        self.num_vars = 0
        #: clause storage (index-encoded literals); deleted slots become None
        self.clauses: List[Optional[List[int]]] = []
        #: watch lists indexed by index-literal; clause indices of len>=3 clauses
        self.watches: List[List[int]] = [[], []]
        #: binary watch lists: (other index-literal, clause index) pairs
        self.watches_bin: List[List[tuple]] = [[], []]
        #: truth value per index-literal: 0 unassigned, 1 true, -1 false
        self.litval: List[int] = [0, 0]
        self.level: List[int] = [0]
        self.reason: List[Optional[int]] = [None]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        #: preferred phase bit per var (1 = negative literal first, MiniSat-style)
        self.saved_phase: List[int] = [1]
        self.qhead = 0
        self.model: List[int] = [0]
        self._ok = True
        self._order_heap: List[tuple] = []
        #: learned clause indices with len >= 3 (candidates for reduction)
        self._learnts: List[int] = []
        self._lbd: Dict[int, int] = {}
        self._max_learnts: Optional[float] = None
        #: versioned scratch for _analyze: no O(num_vars) allocation per conflict
        self._seen: List[int] = [0]
        self._stamp = 0
        self._stats = {k: 0 for k in _STAT_KEYS}

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self.litval.extend((0, 0))
        self.watches.extend(([], []))
        self.watches_bin.extend(([], []))
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.saved_phase.append(1)
        self._seen.append(0)
        heapq.heappush(self._order_heap, (0.0, v))
        return v

    def _ensure_vars(self, lits: Iterable[int]) -> None:
        m = max((abs(l) for l in lits), default=0)
        while self.num_vars < m:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if it makes the formula unsatisfiable.

        Clauses must be added at decision level 0 (always the case between
        :meth:`solve` calls, which return backtracked to the root).
        """
        if self.trail_lim:
            raise RuntimeError("clauses must be added at decision level 0")
        if not self._ok:
            return False
        self._ensure_vars(lits)
        litval = self.litval
        seen = set()
        out: List[int] = []
        for l in lits:
            if l in seen:
                continue
            if -l in seen:
                return True  # tautology
            seen.add(l)
            il = (l << 1) if l > 0 else ((-l) << 1) | 1
            v = litval[il]
            if v > 0:
                return True  # satisfied at level 0
            if v == 0:
                out.append(il)
            # v < 0: literal already false at level 0, drop it
        n = len(out)
        if n == 0:
            self._ok = False
            return False
        if n == 1:
            if not self._enqueue(out[0], None):
                self._ok = False
                return False
            return True
        ci = len(self.clauses)
        self.clauses.append(out)
        if n == 2:
            a, b = out
            self.watches_bin[a].append((b, ci))
            self.watches_bin[b].append((a, ci))
        else:
            self.watches[out[0]].append(ci)
            self.watches[out[1]].append(ci)
        return True

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> int:
        """Truth value of a signed DIMACS literal (external convenience)."""
        return self.litval[_ilit(lit)]

    def _assign(self, ilit: int, reason: Optional[int]) -> None:
        litval = self.litval
        litval[ilit] = 1
        litval[ilit ^ 1] = -1
        v = ilit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(ilit)

    def _enqueue(self, ilit: int, reason: Optional[int]) -> bool:
        val = self.litval[ilit]
        if val:
            return val > 0
        self._assign(ilit, reason)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        trail = self.trail
        litval = self.litval
        clauses = self.clauses
        watches = self.watches
        watches_bin = self.watches_bin
        level = self.level
        reason = self.reason
        trail_lim = self.trail_lim
        nprops = 0
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            nprops += 1
            neg = p ^ 1
            # binary fast path: the other literal is known without touching
            # the clause, so this is two list lookups per watcher
            for other, ci in watches_bin[neg]:
                ov = litval[other]
                if ov == 0:
                    litval[other] = 1
                    litval[other ^ 1] = -1
                    v = other >> 1
                    level[v] = len(trail_lim)
                    reason[v] = ci
                    trail.append(other)
                elif ov < 0:
                    self._stats["propagations"] += nprops
                    return ci
            wl = watches[neg]
            i = j = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                i += 1
                cl = clauses[ci]
                if cl is None:
                    continue  # deleted by DB reduction: lazily unwatch
                if cl[0] == neg:
                    cl[0] = cl[1]
                    cl[1] = neg
                first = cl[0]
                fv = litval[first]
                if fv > 0:
                    wl[j] = ci
                    j += 1
                    continue
                found = False
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if litval[lk] >= 0:
                        cl[1] = lk
                        cl[k] = neg
                        watches[lk].append(ci)
                        found = True
                        break
                if found:
                    continue
                wl[j] = ci
                j += 1
                if fv < 0:
                    # conflict: keep the unprocessed watchers
                    wl[j:] = wl[i:]
                    self._stats["propagations"] += nprops
                    return ci
                litval[first] = 1
                litval[first ^ 1] = -1
                v = first >> 1
                level[v] = len(trail_lim)
                reason[v] = ci
                trail.append(first)
            del wl[j:]
        self._stats["propagations"] += nprops
        return -1

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, v: int) -> None:
        act = self.activity
        act[v] += self.var_inc
        if act[v] > 1e100:
            inv = 1e-100
            for i in range(1, self.num_vars + 1):
                act[i] *= inv
            self.var_inc *= inv
            self._rebuild_heap()
        else:
            heapq.heappush(self._order_heap, (-act[v], v))

    def _rebuild_heap(self) -> None:
        act = self.activity
        litval = self.litval
        self._order_heap = [
            (-act[v], v) for v in range(1, self.num_vars + 1)
            if litval[v << 1] == 0
        ]
        heapq.heapify(self._order_heap)

    def _analyze(self, confl: int):
        """First-UIP learning; returns (learnt clause, backtrack level, LBD).

        The ``seen`` marks live in a versioned scratch buffer (`self._seen`
        stamped with `self._stamp`), so no per-conflict allocation happens.
        """
        self._stamp += 1
        stamp = self._stamp
        seen = self._seen
        clauses = self.clauses
        level = self.level
        reason = self.reason
        trail = self.trail

        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(self.trail_lim)

        while True:
            cl = clauses[confl]
            pv = p >> 1  # -1 on the first iteration: matches no var
            for q in cl:
                v = q >> 1
                if v == pv:
                    continue  # skip the asserting literal of the reason
                if seen[v] != stamp and level[v] > 0:
                    seen[v] = stamp
                    self._bump(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while seen[trail[index] >> 1] != stamp:
                index -= 1
            p = trail[index]
            v = p >> 1
            seen[v] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
            confl = reason[v]
        learnt[0] = p ^ 1

        # clause minimization: drop literals implied by the rest
        cleaned = [learnt[0]]
        for q in learnt[1:]:
            qv = q >> 1
            r = reason[qv]
            if r is None:
                cleaned.append(q)
                continue
            implied = True
            for x in clauses[r]:
                xv = x >> 1
                if xv != qv and seen[xv] != stamp and level[xv] != 0:
                    implied = False
                    break
            if implied:
                self._stats["minimized_literals"] += 1
                continue
            cleaned.append(q)
        learnt = cleaned

        if len(learnt) == 1:
            return learnt, 0, 1
        # backtrack level = max level among learnt[1:]; keep a literal of that
        # level in the second watch position so the watch invariant holds
        # after deep backtracks
        bt = 0
        bt_idx = 1
        for idx in range(1, len(learnt)):
            lv = level[learnt[idx] >> 1]
            if lv > bt:
                bt = lv
                bt_idx = idx
        learnt[1], learnt[bt_idx] = learnt[bt_idx], learnt[1]
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, bt, lbd

    def _attach_learnt(self, learnt: List[int], lbd: int) -> bool:
        """Store a learnt clause and enqueue its asserting literal."""
        self._stats["learned"] += 1
        if len(learnt) == 1:
            return self._enqueue(learnt[0], None)
        ci = len(self.clauses)
        self.clauses.append(learnt)
        if len(learnt) == 2:
            a, b = learnt
            self.watches_bin[a].append((b, ci))
            self.watches_bin[b].append((a, ci))
        else:
            self.watches[learnt[0]].append(ci)
            self.watches[learnt[1]].append(ci)
            self._learnts.append(ci)
            self._lbd[ci] = lbd
        return self._enqueue(learnt[0], ci)

    def _reduce_db(self) -> None:
        """Delete the worst half of the learned clauses, by LBD then size.

        Binary clauses are never stored here, glue clauses (LBD <= 2) and
        clauses currently acting as a reason are kept.  Deleted slots become
        None; propagation drops stale watchers lazily.
        """
        clauses = self.clauses
        reason = self.reason
        lbd = self._lbd
        ranked = sorted(
            self._learnts,
            key=lambda ci: (lbd[ci], len(clauses[ci])),
        )
        keep_n = len(ranked) // 2
        survivors: List[int] = ranked[:keep_n]
        deleted = 0
        for ci in ranked[keep_n:]:
            cl = clauses[ci]
            if lbd[ci] <= 2 or reason[cl[0] >> 1] == ci:
                survivors.append(ci)
                continue
            clauses[ci] = None
            del lbd[ci]
            deleted += 1
        self._learnts = survivors
        self._stats["deleted"] += deleted
        self._stats["db_reductions"] += 1

    def _cancel_until(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        trail = self.trail
        litval = self.litval
        reason = self.reason
        saved = self.saved_phase
        act = self.activity
        heap = self._order_heap
        pos = trail_lim[lvl]
        for i in range(len(trail) - 1, pos - 1, -1):
            il = trail[i]
            v = il >> 1
            saved[v] = il & 1
            litval[il] = 0
            litval[il ^ 1] = 0
            reason[v] = None
            heapq.heappush(heap, (-act[v], v))
        del trail[pos:]
        del trail_lim[lvl:]
        self.qhead = pos

    def _decide(self) -> int:
        """Highest-activity unassigned variable (lazy heap); -1 if none."""
        heap = self._order_heap
        litval = self.litval
        saved = self.saved_phase
        while heap:
            _, v = heapq.heappop(heap)
            if litval[v << 1] == 0:
                return (v << 1) | saved[v]
        return -1

    # -- main loop -----------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (), conflict_limit: Optional[int] = None):
        """Solve; returns SAT/UNSAT, or None if the conflict limit was hit.

        The solver remains usable afterwards: learned clauses are kept, so
        repeated assumption-based queries (equivalence sessions) get
        incrementally cheaper.
        """
        stats = self._stats
        stats["solves"] += 1
        try:
            return self._solve(assumptions, conflict_limit)
        finally:
            for k, n in stats.items():
                _GLOBAL_STATS[k] += n
                stats[k] = 0

    def _solve(self, assumptions: Sequence[int], conflict_limit: Optional[int]):
        if not self._ok:
            return UNSAT
        if self._max_learnts is None:
            self._max_learnts = max(1000.0, len(self.clauses) * _LEARNTSIZE_FACTOR)
        if self._propagate() >= 0:
            self._ok = False
            return UNSAT

        for a in assumptions:
            self._ensure_vars((a,))
            il = _ilit(a)
            val = self.litval[il]
            if val < 0:
                self._cancel_until(0)
                return UNSAT
            if val == 0:
                self.trail_lim.append(len(self.trail))
                self._assign(il, None)
                if self._propagate() >= 0:
                    self._cancel_until(0)
                    return UNSAT
        base_level = len(self.trail_lim)

        stats = self._stats
        conflicts = 0
        restart_count = 0
        restart_limit = _RESTART_BASE * _luby(0)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl >= 0:
                conflicts += 1
                since_restart += 1
                stats["conflicts"] += 1
                if conflict_limit is not None and conflicts > conflict_limit:
                    self._cancel_until(0)
                    return None
                if len(self.trail_lim) == base_level:
                    self._cancel_until(0)
                    if base_level == 0:
                        self._ok = False
                    return UNSAT
                learnt, bt, lbd = self._analyze(confl)
                self._cancel_until(max(bt, base_level))
                if not self._attach_learnt(learnt, lbd):
                    self._cancel_until(0)
                    if base_level == 0:
                        self._ok = False
                    return UNSAT
                self.var_inc /= self.var_decay
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_count += 1
                    restart_limit = _RESTART_BASE * _luby(restart_count)
                    stats["restarts"] += 1
                    self._cancel_until(base_level)
                    if len(self._learnts) > self._max_learnts:
                        self._reduce_db()
                        self._max_learnts *= _LEARNTSIZE_GROWTH
            else:
                lit = self._decide()
                if lit < 0:
                    litval = self.litval
                    self.model = [0] + [
                        litval[v << 1] or -1 for v in range(1, self.num_vars + 1)
                    ]
                    self._cancel_until(0)
                    return SAT
                stats["decisions"] += 1
                self.trail_lim.append(len(self.trail))
                self._assign(lit, None)

    def model_value(self, var: int) -> bool:
        """Value of a variable in the last SAT model."""
        return self.model[var] > 0
