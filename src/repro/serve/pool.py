"""ServePool — the daemon's persistent supervised worker pool.

A ``BatchRunner.run`` pool lives exactly as long as one call; a daemon
needs the opposite: workers that stay warm *across* requests, scale **up
on demand and down to zero when idle**, and execute one job at a time with
per-job hard timeouts.  This module adds that life cycle — a job queue, a
supervisor thread, a wake pipe, idle reaping, stats and per-job hooks — on
top of the same :class:`~repro.batch.pool.WorkerPool` the batch runner
drives, so a job runs byte-for-byte the way a batch circuit does: same
payload shape, same warm per-worker
:class:`~repro.flow.context.FlowContext`, same failure isolation, same
SIGKILL path for hung workers.

Life cycle guarantees:

* workers spawn lazily (submission time), up to ``jobs`` of them — an
  idle daemon that has reaped its pool holds **zero** worker processes;
* a job exceeding its hard ``timeout`` gets its worker SIGKILLed (never
  joined first) and a ``timeout`` outcome; the pool shrinks and respawns
  on demand;
* a worker dying mid-job (crash, OOM-kill) costs exactly that job a
  ``crashed`` outcome — queued jobs are unaffected;
* with a ``memory_limit``, workers run under ``RLIMIT_AS`` and the
  supervisor RSS-polls them — a job over budget becomes exactly one
  ``oom`` outcome (a MemoryError in the worker, or a kill from the poll);
* after ``idle_timeout`` seconds with nothing queued or running, every
  worker is reaped (``scale-to-zero``); the next submission respawns;
* completion/progress callbacks are invoked on the supervisor thread and
  may never kill it — exceptions are caught and warned about, exactly
  like batch event sinks.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from ..batch import CircuitOutcome, RunEvent, WorkerPool, parse_memory_limit

__all__ = ["ServePool"]


@dataclass
class _Job:
    """One queued/in-flight pool job: the worker payload plus its hooks."""

    payload: dict
    on_event: Optional[Callable] = None      # called with RunEvent
    on_done: Optional[Callable] = None       # called with CircuitOutcome
    timeout: Optional[float] = None          # hard wall-clock limit


class ServePool:
    """A persistent, scale-to-zero pool executing flow jobs one at a time.

    ``submit`` enqueues a worker payload (the
    :meth:`~repro.batch.runner.BatchRunner` job shape: name/spec/scale/
    flow/…); a supervisor thread dispatches to idle workers, spawning up
    to ``jobs`` of them on demand.  ``timeout`` is the default hard
    per-job limit (overridable per submission); ``idle_timeout`` reaps
    the whole pool after that many idle seconds.  ``events`` is an
    optional global sink additionally receiving every job's
    :class:`~repro.batch.events.RunEvent` transitions.
    """

    def __init__(self, jobs: int = 2, *, n_patterns: int = 256, seed: int = 1,
                 timeout: Optional[float] = None,
                 idle_timeout: Optional[float] = None,
                 events: Optional[Callable] = None,
                 memory_limit=None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if idle_timeout is not None and idle_timeout < 0:
            raise ValueError(f"idle_timeout must be >= 0, got {idle_timeout}")
        self.max_workers = jobs
        self.timeout = timeout
        self.idle_timeout = idle_timeout
        self.events = events
        self.memory_limit = parse_memory_limit(memory_limit)
        self._pool = WorkerPool(jobs, n_patterns=n_patterns, seed=seed,
                                memory_limit=self.memory_limit)
        self._queue: Deque[_Job] = deque()
        self._running: Dict[int, _Job] = {}     # id(payload) -> job
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._stop = False
        self._idle_since = time.monotonic()
        self._stats: Dict[str, int] = {
            "dispatched": 0, "completed": 0, "failed": 0, "crashed": 0,
            "timeouts": 0, "ooms": 0, "reaped": 0,
        }
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._wake_closed = False
        self._thread = threading.Thread(target=self._supervise,
                                        name="serve-pool", daemon=True)
        self._thread.start()

    # -- public API ----------------------------------------------------------

    def submit(self, payload: dict, *, on_event: Optional[Callable] = None,
               on_done: Optional[Callable] = None,
               timeout: Optional[float] = None) -> None:
        """Enqueue one job; hooks fire on the supervisor thread.

        ``on_event`` receives ``started``/``finished``/``timeout``/
        ``crashed`` :class:`RunEvent` transitions for this job;
        ``on_done`` receives the final
        :class:`~repro.batch.runner.CircuitOutcome`.  ``timeout``
        overrides the pool default for this job only.
        """
        job = _Job(payload=payload, on_event=on_event, on_done=on_done,
                   timeout=timeout if timeout is not None else self.timeout)
        with self._lock:
            if self._stop:
                raise RuntimeError("pool is shut down")
            self._queue.append(job)
            self._idle.clear()
        self._wake()

    def stats(self) -> dict:
        """Counters plus live pool state (worker/busy/queue depth)."""
        with self._lock:
            out = dict(self._stats)
            out["spawned"] = self._pool.spawned
            out["workers"] = self._pool.size
            out["busy"] = self._pool.busy
            # jobs waiting for a worker: a job the supervisor thread has
            # not popped yet while a slot is free is not backlog
            out["queue_depth"] = max(
                0, len(self._queue) - (self.max_workers - self._pool.busy))
            out["max_workers"] = self.max_workers
        return out

    @property
    def alive(self) -> bool:
        """Whether the supervisor thread is up and accepting work — the
        ``/readyz`` pool check."""
        return self._thread.is_alive() and not self._stop

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no job is in flight (or
        ``timeout`` seconds elapsed); returns whether the pool drained."""
        return self._idle.wait(timeout)

    def shutdown(self, *, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the pool: optionally drain in-flight work first, then kill
        every worker and join the supervisor.  Idempotent."""
        if drain:
            self.drain(timeout)
        with self._lock:
            self._stop = True
        self._wake()
        self._thread.join(10)

    # -- supervisor internals ------------------------------------------------

    def _wake(self) -> None:
        # check-and-write under the lock: once the supervisor closed the
        # pipe the fd number may belong to an unrelated open file.  The
        # write fd is non-blocking, so holding the lock cannot stall.
        with self._lock:
            if self._wake_closed:
                return
            try:
                os.write(self._wake_w, b"x")
            except OSError:
                pass

    def _emit(self, job: _Job, kind: str, *, worker: int = 0,
              outcome: Optional[CircuitOutcome] = None) -> None:
        """One event to the job's hook and the global sink; never raises."""
        event = RunEvent.of(kind, outcome=outcome, payload=job.payload,
                            worker=worker)
        for sink in (job.on_event, self.events):
            if sink is None:
                continue
            try:
                sink(event)
            except Exception as exc:
                warnings.warn(f"serve pool event hook failed on {kind!r}: {exc}")

    def _finish(self, job: _Job, outcome: CircuitOutcome) -> None:
        status = outcome.status
        with self._lock:
            self._stats["completed"] += 1
            if status != "ok":
                self._stats["failed"] += 1
            counter = {"crashed": "crashed", "timeout": "timeouts",
                       "oom": "ooms"}.get(status)
            if counter:
                self._stats[counter] += 1
        self._emit(job, status if counter else "finished", outcome=outcome)
        if job.on_done is not None:
            try:
                job.on_done(outcome)
            except Exception as exc:
                warnings.warn(f"serve pool completion hook failed: {exc}")

    def _dispatch(self) -> None:
        """Hand queued jobs to the pool while it has a free worker slot."""
        while self._pool.ready:
            with self._lock:
                if not self._queue:
                    return
                job = self._queue.popleft()
            pid = self._pool.submit(job.payload, timeout=job.timeout)
            self._running[id(job.payload)] = job
            with self._lock:
                self._stats["dispatched"] += 1
            self._emit(job, "started", worker=pid)

    def _reap_idle(self) -> None:
        """Scale the pool to zero once it has been idle long enough."""
        with self._lock:
            if (self.idle_timeout is None or self._queue or self._pool.busy
                    or not self._pool.size
                    or time.monotonic() - self._idle_since < self.idle_timeout):
                return
            self._stats["reaped"] += self._pool.size
        self._pool.close()

    def _supervise(self) -> None:
        while True:
            self._dispatch()
            with self._lock:
                stop = self._stop
                busy = self._pool.busy
                queued = bool(self._queue)
                if not busy and not queued:
                    self._idle.set()
                else:
                    self._idle_since = time.monotonic()
            if stop:
                break
            # sleep until a result, a timeout deadline, the idle-reap
            # deadline, or a wake byte from submit()/shutdown()
            wait = None
            if (self.idle_timeout is not None and not busy and not queued
                    and self._pool.size):
                wait = max(0.0, self._idle_since + self.idle_timeout
                           - time.monotonic())
            for payload, outcome in self._pool.step(
                    wait, extra_fds=[self._wake_r]):
                self._finish(self._running.pop(id(payload)), outcome)
            try:
                os.read(self._wake_r, 4096)
            except OSError:
                pass
            self._reap_idle()
        # orderly stop: kill whatever is left (drain happened in shutdown)
        self._pool.close()
        self._running.clear()
        with self._lock:
            abandoned = list(self._queue)
            self._queue.clear()
        for job in abandoned:
            outcome = CircuitOutcome(
                name=job.payload["name"], index=job.payload["index"],
                status="error", error="pool shut down before dispatch")
            self._finish(job, outcome)
        self._idle.set()
        with self._lock:
            self._wake_closed = True
            os.close(self._wake_r)
            os.close(self._wake_w)
