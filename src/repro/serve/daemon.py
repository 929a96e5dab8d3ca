"""ServeDaemon — synthesis-as-a-service over the warm worker pool.

``repro serve`` turns the library into a long-lived service: an HTTP/JSON
job API (:mod:`repro.serve.http`) in front of a persistent supervised
worker pool (:mod:`repro.serve.pool`), fronted by a content-addressed
result cache (:mod:`repro.serve.cache`).  The request path:

1. ``POST /jobs`` carries a circuit source (registry name, inline AIGER,
   or builder invocation) plus a flow script.  The daemon builds the
   network, takes its **structural fingerprint**, canonicalizes the flow
   script, and derives the cache key.
2. A key already in the cache returns the stored result record without
   touching a worker (a **cache hit**); a key currently being computed
   attaches the new job to the in-flight one (**coalescing** — duplicate
   concurrent traffic costs one computation); anything else dispatches to
   the pool, which keeps per-worker :class:`~repro.flow.context.FlowContext`
   engines warm across requests and scales itself to zero when idle.
3. Completed ``ok`` records are cached in memory *and* appended durably to
   the JSONL result store, so a restarted daemon is warm.

Every route (the :data:`ROUTES` table) returns JSON; job progress is the
PR 7 :class:`~repro.batch.events.RunEvent` stream, readable per job as
NDJSON.  ``POST /shutdown`` drains in-flight jobs, stops accepting new
ones, flushes the store and exits cleanly.

Resource governance: ``max_queued`` bounds the pool backlog — a saturated
daemon sheds new computations with ``429`` + a ``Retry-After`` header
(cache hits and coalesced duplicates are still always served: they cost no
worker).  ``memory_limit`` caps each pool worker's memory (``oom``
outcomes, see :mod:`repro.serve.pool`).  ``GET /healthz`` answers 200 as
long as the event loop is alive (liveness); ``GET /readyz`` checks
acceptance, pool supervisor, queue headroom and store writability, and
answers 503 with the failing checks when the daemon should not receive
new traffic (readiness).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..batch.events import RunEvent
from ..batch.runner import state_fingerprint
from ..batch.suite import SuiteEntry
from ..flow import FlowError, FlowScriptError, resolve_flow
from .cache import ResultCache, cache_key
from .http import HttpError, Request, Response, serve_connection
from .pool import ServePool

__all__ = ["ServeDaemon", "ROUTES", "TERMINAL_STATUSES"]

#: the daemon's HTTP surface — docs/serve.md documents every row
ROUTES = (
    "GET /",
    "GET /stats",
    "GET /healthz",
    "GET /readyz",
    "POST /jobs",
    "GET /jobs",
    "GET /jobs/{id}",
    "GET /jobs/{id}/events",
    "POST /shutdown",
)

#: job statuses that mean the job will never change again
TERMINAL_STATUSES = ("done", "error", "timeout", "crashed", "oom")

#: the longest a ``?wait=`` long-poll may hold a connection open
MAX_WAIT = 60.0


@dataclass
class _Job:
    """One submitted job — the daemon-side state machine.

    ``status`` walks ``queued`` → ``running`` → one of
    :data:`TERMINAL_STATUSES` (cache hits are born ``done``).  All
    mutation happens on the event loop; handlers read freely.
    """

    id: str
    name: str
    key: str
    fingerprint: str
    flow: str
    status: str = "queued"
    cached: bool = False                 # served from cache / coalesced
    coalesced: bool = False              # attached to an in-flight job
    record: Optional[dict] = None        # the result record, when terminal
    error: str = ""
    events: List[dict] = field(default_factory=list)
    created: float = field(default_factory=time.time)
    finished: float = 0.0
    done: asyncio.Event = field(default_factory=asyncio.Event)
    followers: List["_Job"] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_dict(self) -> dict:
        """The wire form of this job (``GET /jobs/{id}``)."""
        out = {
            "id": self.id,
            "name": self.name,
            "status": self.status,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "cache_key": self.key,
            "fingerprint": self.fingerprint,
            "flow": self.flow,
            "created": round(self.created, 3),
            "events": len(self.events),
        }
        if self.record is not None:
            out["record"] = self.record
        if self.error:
            out["error"] = self.error
        if self.finished:
            out["finished"] = round(self.finished, 3)
        return out


class ServeDaemon:
    """The synthesis service: HTTP job API + warm pool + result cache.

    ``store`` (a path or :class:`~repro.batch.store.ResultStore`) persists
    cache entries — omit it for a memory-only daemon.  ``jobs`` bounds the
    worker pool; ``timeout`` is the default hard per-job limit;
    ``idle_timeout`` scales the pool to zero after that many idle seconds;
    ``events`` is an optional global sink (e.g.
    :func:`~repro.batch.events.event_sink`) receiving every job's run
    events.  ``port=0`` binds an ephemeral port, readable from
    :attr:`port` after :meth:`start`.

    ``max_queued`` is the admission-control bound: a submission that
    would need a worker while that many jobs are already queued is shed
    with ``429`` and ``Retry-After: retry_after`` (cache hits and
    coalesced duplicates are exempt — they cost no worker).
    ``memory_limit`` (bytes or ``"512M"``) caps each worker's memory;
    over-budget jobs resolve as ``oom``.

    Use as a context manager, or ``start()``/``stop()`` explicitly::

        with ServeDaemon(port=0, jobs=2, store="serve.jsonl") as daemon:
            client = ServeClient(port=daemon.port)
            record = client.run("adder", flow="b; rf; b", scale="tiny")
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 jobs: int = 2, store=None, timeout: Optional[float] = None,
                 idle_timeout: Optional[float] = None, n_patterns: int = 256,
                 seed: int = 1, events=None, max_queued: Optional[int] = None,
                 memory_limit=None, retry_after: float = 2.0):
        if max_queued is not None and max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        if retry_after <= 0:
            raise ValueError(f"retry_after must be positive, got {retry_after}")
        self.host = host
        self.port = port
        self.cache = ResultCache(store)
        self.pool = ServePool(jobs, n_patterns=n_patterns, seed=seed,
                              timeout=timeout, idle_timeout=idle_timeout,
                              events=events, memory_limit=memory_limit)
        self.max_queued = max_queued
        self.retry_after = retry_after
        self.shed = 0                        # submissions rejected with 429
        self.draining = False
        self.started_at = time.time()
        self._jobs: Dict[str, _Job] = {}
        self._by_key: Dict[str, _Job] = {}    # in-flight primaries
        self._counter = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- life cycle ----------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Bind and serve on a background thread; returns once the socket
        is listening (so :attr:`port` is the real bound port)."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self._thread = threading.Thread(target=self._run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join(5)
            raise self._startup_error
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon stops (``POST /shutdown`` or
        :meth:`stop`); returns whether it did."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def stop(self, *, drain: bool = True) -> None:
        """Graceful programmatic shutdown: drain, flush, close.  Idempotent."""
        if self._thread is None or not self._thread.is_alive():
            self.pool.shutdown(drain=False)
            return
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(
                    lambda: asyncio.ensure_future(self._shutdown(drain=drain)))
            except RuntimeError:
                pass                          # loop already closed
        self.wait(30)

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:          # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        server = await asyncio.start_server(self._on_connection,
                                            self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stopping.wait()

    async def _shutdown(self, *, drain: bool = True) -> None:
        """Drain the pool off-loop, flush, then release the server."""
        self.draining = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.pool.shutdown(drain=drain))
        for job in self._jobs.values():       # anything still non-terminal
            if not job.terminal:
                self._resolve(job, status="error",
                              error="daemon shut down before completion")
        self._stopping.set()

    # -- connection plumbing -------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        await serve_connection(reader, writer, self._route)

    async def _route(self, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/":
            if method == "GET":
                return self._info()
        elif path == "/stats":
            if method == "GET":
                return Response(200, self.stats())
        elif path == "/healthz":
            if method == "GET":
                return Response(200, {"ok": True,
                                      "uptime": round(time.time()
                                                      - self.started_at, 3)})
        elif path == "/readyz":
            if method == "GET":
                ready = self.readiness()
                return Response(200 if ready["ready"] else 503, ready)
        elif path == "/jobs":
            if method == "POST":
                return await self._submit(request)
            if method == "GET":
                return self._list_jobs()
        elif path == "/shutdown":
            if method == "POST":
                return self._request_shutdown(request)
        elif path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self._jobs.get(job_id)
            if job is None:
                raise HttpError(404, f"no such job {job_id!r}")
            if not tail and method == "GET":
                return await self._job_status(job, request)
            if tail == "events" and method == "GET":
                return await self._job_events(job, request)
            if tail:
                raise HttpError(404, f"no such endpoint {path!r}")
        else:
            raise HttpError(404, f"no such endpoint {path!r}")
        raise HttpError(405, f"{method} not allowed on {path}")

    # -- handlers ------------------------------------------------------------

    def _info(self) -> Response:
        from .. import __version__

        return Response(200, {
            "service": "repro-serve",
            "version": __version__,
            "routes": list(ROUTES),
            "store": str(self.cache.store.path) if self.cache.store else "",
        })

    def stats(self) -> dict:
        """The ``GET /stats`` payload: cache, job and pool health."""
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        pool = self.pool.stats()
        return {
            "uptime": round(time.time() - self.started_at, 3),
            "draining": self.draining,
            "cache": self.cache.stats(),
            "jobs": {"total": len(self._jobs), **counts},
            "queue_depth": pool["queue_depth"],
            "max_queued": self.max_queued,
            "shed": self.shed,
            "pool": pool,
        }

    def readiness(self) -> dict:
        """The ``GET /readyz`` payload: per-check booleans + the verdict.

        Ready means: not draining, the pool supervisor is alive, the
        queue has headroom under ``max_queued``, and (when a store is
        configured) an append would succeed.  An external supervisor
        routes traffic away — or restarts the daemon — on 503.
        """
        pool = self.pool.stats()
        checks = {
            "accepting": not self.draining,
            "pool_supervisor": self.pool.alive,
            "queue_headroom": (self.max_queued is None
                               or pool["queue_depth"] < self.max_queued),
        }
        if self.cache.store is not None:
            checks["store_writable"] = self.cache.store.writable()
        return {
            "ready": all(checks.values()),
            "checks": checks,
            "queue_depth": pool["queue_depth"],
            "max_queued": self.max_queued,
        }

    def _list_jobs(self) -> Response:
        return Response(200, {"jobs": [j.to_dict() for j in
                                       self._jobs.values()]})

    async def _submit(self, request: Request) -> Response:
        if self.draining:
            raise HttpError(503, "daemon is draining (shutdown requested)")
        body = request.json()
        script = body.get("flow")
        if not script or not isinstance(script, str):
            raise HttpError(400, "submission needs a 'flow' script")
        try:
            flow = resolve_flow(script).to_script()
        except (FlowScriptError, FlowError) as exc:
            raise HttpError(400, f"bad flow script: {exc}")
        scale = body.get("scale", "small")
        loop = asyncio.get_running_loop()
        try:
            name, ntk = await loop.run_in_executor(
                None, _build_input, body, scale)
        except HttpError:
            raise
        except Exception as exc:
            raise HttpError(400, f"cannot build the submitted circuit: "
                                 f"{type(exc).__name__}: {exc}")
        fingerprint = await loop.run_in_executor(None, state_fingerprint, ntk)
        key = cache_key(fingerprint, flow)

        self._counter += 1
        job = _Job(id=f"j{self._counter:06d}", name=body.get("name") or name,
                   key=key, fingerprint=fingerprint, flow=flow)
        self._jobs[job.id] = job

        primary = self._by_key.get(key)
        if primary is not None and not primary.terminal:
            # duplicate of an in-flight computation: attach, don't recompute
            job.coalesced = True
            job.cached = True
            primary.followers.append(job)
            self.cache.note_hit()
            self._event(job, kind="claimed",
                        detail=f"coalesced onto in-flight job {primary.id}")
            return Response(202, job.to_dict())
        record = self.cache.get(key)
        if record is not None:
            self._event(job, kind="skipped", detail=f"cache hit {key}")
            self._resolve(job, status="done", record=record, cached=True)
            return Response(200, job.to_dict())

        # admission control — only computations that need a worker are
        # shed; the cache-hit and coalescing paths above always serve
        if self.max_queued is not None:
            depth = self.pool.stats()["queue_depth"]
            if depth >= self.max_queued:
                del self._jobs[job.id]
                self.shed += 1
                raise HttpError(
                    429,
                    f"saturated: {depth} job(s) queued >= max_queued "
                    f"{self.max_queued}; retry after "
                    f"{self.retry_after:g}s",
                    headers={"Retry-After": f"{self.retry_after:g}"})

        self._by_key[key] = job
        payload = {
            "index": self._counter, "name": job.name, "spec": ntk,
            "scale": scale, "flow": flow, "attempt": 1,
            "verify": bool(body.get("verify", False)), "checkpoint": False,
            "return_network": False, "pack_return": False,
        }
        if body.get("faults"):                # chaos hook (tests, drills)
            payload["faults"] = body["faults"]
        timeout = body.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
        try:
            self.pool.submit(
                payload,
                timeout=timeout,
                on_event=lambda ev: self._threadsafe(
                    self._on_pool_event, job, ev),
                on_done=lambda out: self._threadsafe(
                    self._on_pool_done, job, out))
        except RuntimeError:                  # lost the race with shutdown
            del self._by_key[key]
            self._resolve(job, status="error", error="daemon is shutting down")
            raise HttpError(503, "daemon is shutting down")
        return Response(202, job.to_dict())

    async def _job_status(self, job: _Job, request: Request) -> Response:
        await self._maybe_wait(job, request)
        return Response(200, job.to_dict())

    async def _job_events(self, job: _Job, request: Request) -> Response:
        import json as _json

        await self._maybe_wait(job, request)
        lines = "".join(_json.dumps(e, sort_keys=True) + "\n"
                        for e in job.events)
        return Response(200, lines, content_type="application/x-ndjson")

    def _request_shutdown(self, request: Request) -> Response:
        body = request.json()
        drain = bool(body.get("drain", True))
        self.draining = True
        asyncio.ensure_future(self._shutdown(drain=drain))
        return Response(202, {"shutting_down": True, "drain": drain})

    # -- job state transitions (event-loop side) -----------------------------

    async def _maybe_wait(self, job: _Job, request: Request) -> None:
        """Honour ``?wait=SECS`` long-polls: wait for terminality, bounded."""
        wait = request.query.get("wait")
        if not wait or job.terminal:
            return
        try:
            seconds = min(float(wait), MAX_WAIT)
        except ValueError:
            raise HttpError(400, f"bad wait value {wait!r}")
        try:
            await asyncio.wait_for(job.done.wait(), seconds)
        except asyncio.TimeoutError:
            pass                              # report current state instead

    def _threadsafe(self, fn, *args) -> None:
        """Bounce a pool-thread callback onto the event loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass                              # loop shut down mid-callback

    def _event(self, job: _Job, *, kind: str, detail: str = "") -> None:
        job.events.append(RunEvent(kind=kind, circuit=job.name, index=0,
                                   detail=detail, at=time.time()).to_dict())

    def _on_pool_event(self, job: _Job, event) -> None:
        job.events.append(event.to_dict())
        if event.kind == "started" and job.status == "queued":
            job.status = "running"

    def _on_pool_done(self, job: _Job, outcome) -> None:
        record = outcome.to_record()
        status = "done" if outcome.status == "ok" else outcome.status
        if outcome.status == "ok":
            self.cache.put(job.key, record, fingerprint=job.fingerprint,
                           flow=job.flow)
        self._resolve(job, status=status, record=record, error=outcome.error)
        if self._by_key.get(job.key) is job:
            del self._by_key[job.key]

    def _resolve(self, job: _Job, *, status: str, record: Optional[dict] = None,
                 error: str = "", cached: bool = False) -> None:
        """Finalize a job (and every coalesced follower) in one step."""
        job.status = status
        job.record = record
        job.error = error
        job.cached = cached or job.cached
        job.finished = time.time()
        job.done.set()
        for follower in job.followers:
            if follower.terminal:
                continue
            self._event(follower, kind="finished",
                        detail=f"resolved by job {job.id}")
            self._resolve(follower, status=status, record=record,
                          error=error, cached=True)
        job.followers.clear()


def _build_input(body: dict, scale: str):
    """Materialize the submitted circuit source into ``(name, network)``.

    Three source forms, mirroring suite entries: a registry benchmark
    name (``circuit``), inline ASCII-AIGER text (``aag``), or a builder
    invocation (``builder`` + ``params``).  Runs on an executor thread —
    builds can be slow and must not block the event loop.
    """
    forms = [k for k in ("circuit", "aag", "builder") if body.get(k)]
    if len(forms) != 1:
        raise HttpError(400, "submission needs exactly one of 'circuit', "
                             "'aag' or 'builder'")
    if body.get("circuit"):
        from ..circuits import load

        name = str(body["circuit"])
        return name, load(name, scale)
    if body.get("aag"):
        from ..io import read_aag

        return "aag", read_aag(body["aag"])
    params = body.get("params") or {}
    if not isinstance(params, dict):
        raise HttpError(400, "'params' must be an object of builder kwargs")
    entry = SuiteEntry(name=str(body["builder"]), builder=str(body["builder"]),
                       params=tuple(sorted(params.items())))
    return entry.describe(), entry.build(scale)
