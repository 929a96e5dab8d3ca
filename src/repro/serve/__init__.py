"""Synthesis as a service: a daemon, a warm pool, a content-addressed cache.

``repro serve`` runs the library as a long-lived HTTP/JSON service so the
cost of process spawn, engine warm-up and — above all — *recomputation*
is paid once, not per invocation:

* :mod:`~repro.serve.daemon` — :class:`ServeDaemon`: the asyncio HTTP job
  API (``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/events``,
  ``GET /stats``, ``GET /healthz``, ``GET /readyz``, ``POST /shutdown``),
  with admission control (``--max-queued`` → 429 + ``Retry-After``) and
  per-worker memory budgets (``--memory-limit``);
* :mod:`~repro.serve.pool` — :class:`ServePool`: a persistent job queue
  over the batch layer's supervised :class:`~repro.batch.pool.WorkerPool`
  (kill-never-join timeouts, crash and memory-budget detection), kept warm
  across requests and scaled to zero after ``--idle-timeout``;
* :mod:`~repro.serve.cache` — :class:`ResultCache` keyed by
  :func:`cache_key` (structural fingerprint of the input ×
  canonical flow script), persisted as ``kind: "cache"`` lines in the
  batch layer's JSONL :class:`~repro.batch.store.ResultStore` so a
  restarted daemon is warm;
* :mod:`~repro.serve.http` — the minimal stdlib HTTP/1.1 layer;
* :mod:`~repro.serve.client` — :class:`ServeClient` (and the
  ``repro submit`` CLI).

Quickstart — daemon in one terminal, client anywhere::

    $ repro serve --port 8787 --jobs 4 --store serve.jsonl

    from repro.serve import ServeClient
    client = ServeClient(port=8787)
    record = client.run("adder", flow="compress2rs", scale="small")

See ``docs/serve.md`` for the full API, the cache-key definition and the
failure-mode matrix.
"""

from .cache import ResultCache, cache_key
from .client import ServeClient, ServeError
from .daemon import ROUTES, ServeDaemon
from .http import HttpError, Request, Response
from .pool import ServePool

__all__ = [
    "ServeDaemon",
    "ServeClient",
    "ServeError",
    "ServePool",
    "ResultCache",
    "cache_key",
    "ROUTES",
    "Request",
    "Response",
    "HttpError",
]
