"""WorkerPool — the one supervised process pool.

Every cross-process execution in the library runs here: ``BatchRunner.run``
(flow jobs over a suite), ``BatchRunner.map`` (generic ``fn(task, ctx)``
fan-out) and the serve daemon's persistent :class:`~repro.serve.ServePool`.
The pool owns process supervision and nothing else — queues, retries,
events and stores stay with its callers, which drive it from their own
loop (or thread) through :meth:`WorkerPool.submit` and
:meth:`WorkerPool.step`.

Supervision model:

* workers spawn lazily, up to ``jobs`` of them, each a daemon process with
  one warm :class:`~repro.flow.context.FlowContext` and one duplex pipe to
  the supervisor;
* a job is *pinned* to the worker executing it, so a worker failure is
  attributed to exactly one job and never cascades;
* pipe EOF mid-job becomes a ``crashed`` outcome; a job past its deadline
  gets its worker SIGKILLed (never joined first) and a ``timeout``
  outcome; with a ``memory_limit``, workers run under ``RLIMIT_AS`` and a
  worker whose RSS exceeds the budget anyway is killed for an ``oom``
  outcome.  A killed worker is dropped; the next submission respawns.

Payloads and outcomes cross the pipe as plain pickles.  Payloads are dicts
carrying at least ``index`` and ``name`` (plus an optional ``attempt``),
which is what supervisor-built failure outcomes are stamped with.

This module is the only place in the package that creates worker
processes, waits on their pipes or reads their RSS.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["WorkerPool"]

#: how often the supervisor samples worker RSS when a memory limit is set
_MEM_POLL = 0.2

_PAGE_SIZE = 4096
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):
    pass


def _rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in bytes via ``/proc`` (None where
    unavailable — the RSS poll degrades to rlimit-only enforcement)."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return None


def _apply_memory_limit(limit_bytes: int) -> bool:
    """Best-effort ``RLIMIT_AS`` inside a worker process; returns whether
    the limit took.  False (no ``resource`` module, an unsupported
    platform, a hard limit below ours) leaves the supervisor's RSS poll
    as the only enforcement — which is exactly why the poll exists.
    """
    try:
        import resource

        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY and hard < limit_bytes:
            limit_bytes = hard
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, hard))
        return True
    except (ImportError, AttributeError, ValueError, OSError):
        return False


def _worker_main(conn, handler: Optional[Callable], n_patterns: int,
                 seed: int, memory_limit: Optional[int]) -> None:
    """Worker loop: receive a payload, run ``handler(payload, ctx)``, send
    the result back.

    The loop ends on a ``None`` payload (orderly shutdown) or a dead pipe
    (the supervisor went away).  Handlers never raise, so the only ways a
    worker dies mid-job are real crashes — which is exactly what the
    supervisor's pipe-EOF detection is for.  ``memory_limit`` (bytes)
    installs ``RLIMIT_AS`` before the first job: an allocation past the
    budget raises ``MemoryError`` inside the job, which the flow handler
    turns into a clean ``oom`` outcome rather than a dead worker.
    """
    from ..flow import FlowContext

    if handler is None:
        from .runner import _execute_flow_job as handler
    if memory_limit is not None:
        _apply_memory_limit(memory_limit)
    ctx = FlowContext(n_patterns=n_patterns, seed=seed)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        try:
            conn.send(handler(payload, ctx))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = ("proc", "conn", "payload", "started", "timeout")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.payload: Optional[dict] = None   # the in-flight job, if any
        self.started = 0.0                    # monotonic dispatch time
        self.timeout: Optional[float] = None  # the in-flight job's limit


class WorkerPool:
    """Up to ``jobs`` supervised worker processes, one job each at a time.

    ``handler`` is a module-level ``callable(payload, ctx)`` executed in the
    workers under their warm :class:`~repro.flow.context.FlowContext`; it
    must never raise, and a result that does not pickle kills its worker
    (a ``crashed`` outcome).  ``None`` runs flow jobs
    (the :class:`~repro.batch.runner.BatchRunner` payload shape, answered
    with a :class:`~repro.batch.runner.CircuitOutcome`).  ``memory_limit``
    is a budget in bytes per worker.

    The pool is driven by its owner: :meth:`submit` while :attr:`ready`,
    then :meth:`step` to collect ``(payload, outcome)`` pairs.  Only the
    owning thread may call those; :attr:`size`, :attr:`busy` and
    :attr:`spawned` are plain counters safe to read from anywhere.
    """

    def __init__(self, jobs: int, *, handler: Optional[Callable] = None,
                 n_patterns: int = 256, seed: int = 1,
                 memory_limit: Optional[int] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.handler = handler
        self.n_patterns = n_patterns
        self.seed = seed
        self.memory_limit = memory_limit
        self.busy = 0                    # jobs in flight
        self.spawned = 0                 # worker processes started, ever
        self._workers: List[_Worker] = []

    @property
    def size(self) -> int:
        """Live worker processes."""
        return len(self._workers)

    @property
    def ready(self) -> bool:
        """Whether :meth:`submit` can dispatch now (an idle worker, or room
        to spawn one)."""
        return self.busy < self.jobs

    def submit(self, payload: dict, *, timeout: Optional[float] = None) -> int:
        """Dispatch ``payload`` to an idle worker, spawning one if none is
        idle; returns the executing pid.  ``timeout`` is the job's hard
        wall-clock limit in seconds.

        An idle worker found dead is replaced silently.  A fresh worker
        that cannot take the payload still owns it, so the failure comes
        back from :meth:`step` as that job's ``crashed`` outcome.
        """
        if not self.ready:
            raise RuntimeError("every worker is busy")
        worker = next((w for w in self._workers if w.payload is None), None)
        if worker is not None:
            try:
                worker.conn.send(payload)
            except (BrokenPipeError, OSError):
                self._kill(worker)           # died while idle: not this job's fault
                worker = None
        if worker is None:
            worker = self._spawn()
            try:
                worker.conn.send(payload)
            except (BrokenPipeError, OSError):
                pass                         # its EOF surfaces in step()
        worker.payload = payload
        worker.started = time.monotonic()
        worker.timeout = timeout
        self.busy += 1
        return worker.proc.pid or 0

    def step(self, wait: Optional[float] = None,
             extra_fds: Sequence = ()) -> List[Tuple[dict, object]]:
        """Block until a job finishes, a deadline or the RSS poll is due,
        one of ``extra_fds`` is readable, or ``wait`` seconds pass (``None``
        = no limit of the caller's own); returns the finished
        ``(payload, outcome)`` pairs — possibly none.

        Returns at once when nothing is in flight and ``extra_fds`` is
        empty and ``wait`` is ``None``: there is nothing to wait for.
        """
        busy = [w for w in self._workers if w.payload is not None]
        now = time.monotonic()
        deadlines = [w.started + w.timeout for w in busy
                     if w.timeout is not None]
        if wait is not None:
            deadlines.append(now + wait)
        tick = max(0.0, min(deadlines) - now) if deadlines else None
        if self.memory_limit is not None and busy:
            # wake often enough for the RSS poll to matter
            tick = _MEM_POLL if tick is None else min(tick, _MEM_POLL)
        fds = [w.conn for w in busy] + list(extra_fds)
        if fds:
            ready = set(_conn_wait(fds, timeout=tick))
        else:
            if tick:
                time.sleep(tick)
            ready = set()
        done = []
        for w in busy:
            if w.conn not in ready:
                continue
            try:
                outcome = w.conn.recv()
            except (EOFError, OSError):
                # the worker died mid-job: exactly this job is the casualty
                done.append(self._fail(
                    w, "crashed", f"worker {w.proc.pid} died mid-circuit"))
                continue
            done.append((w.payload, outcome))
            w.payload = None
            self.busy -= 1
        now = time.monotonic()
        for w in busy:
            if w.payload is None:
                continue
            if w.timeout is not None and now - w.started >= w.timeout:
                done.append(self._fail(
                    w, "timeout", f"killed after exceeding the "
                                  f"{w.timeout}s circuit timeout"))
                continue
            if self.memory_limit is None:
                continue
            # the supervisor-side backstop for workers the rlimit cannot
            # protect (no RLIMIT_AS, or growth the limit does not cover)
            rss = _rss_bytes(w.proc.pid)
            if rss is not None and rss > self.memory_limit:
                mib = 1024 * 1024
                done.append(self._fail(
                    w, "oom", f"killed by the supervisor RSS poll: worker "
                              f"RSS {rss // mib}MiB exceeded the "
                              f"{self.memory_limit // mib}MiB memory budget"))
        return done

    def close(self) -> None:
        """Stop every worker: idle ones get an orderly shutdown, busy ones
        are killed.  The pool stays usable — later submissions respawn."""
        for w in self._workers:
            if w.payload is None:
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for w in list(self._workers):
            if w.payload is None:
                w.proc.join(1.0)
            self._kill(w)
        self.busy = 0

    # -- internals -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(target=_worker_main,
                          args=(child_conn, self.handler, self.n_patterns,
                                self.seed, self.memory_limit),
                          daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers.append(worker)
        self.spawned += 1
        return worker

    def _kill(self, worker: _Worker) -> None:
        """Close the pipe and SIGKILL (never join an alive process first):
        a hung worker cannot be joined."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(5)
        self._workers.remove(worker)

    def _fail(self, worker: _Worker, status: str, error: str):
        """Kill ``worker`` and build the failure outcome of its in-flight
        job — the one place the supervisor makes outcomes."""
        from .runner import CircuitOutcome

        payload = worker.payload
        outcome = CircuitOutcome(
            name=payload["name"], index=payload["index"], status=status,
            seconds=time.monotonic() - worker.started,
            worker=worker.proc.pid or 0,
            attempts=payload.get("attempt", 1), error=error)
        worker.payload = None
        self.busy -= 1
        self._kill(worker)
        return payload, outcome
