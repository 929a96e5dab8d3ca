"""Parallel suite execution: manifests, the supervised pool, result store.

The batch layer turns the one-circuit-at-a-time Flow API into a
suite-throughput machine:

* :mod:`~repro.batch.suite` — :class:`Suite` manifests: named circuit sets
  (the EPFL-analogue evaluation suites, generated word-level families,
  user TOML/JSON manifests);
* :mod:`~repro.batch.runner` — :class:`BatchRunner`: shards a suite across
  the supervised worker pool (per-worker warm
  :class:`~repro.flow.context.FlowContext`, deterministic result ordering,
  per-circuit wall-time and metric capture) or runs it in-process when
  ``jobs=1``.  Fault tolerant: per-circuit hard timeouts kill (never join)
  hung workers, crashed workers cost exactly one ``crashed`` outcome and
  are replaced, and ``retries`` re-runs transient failures with
  exponential backoff;
* :mod:`~repro.batch.pool` — :class:`WorkerPool`: the one process
  supervisor behind ``BatchRunner.run``, ``BatchRunner.map`` and the serve
  daemon's pool.  Pipe-per-worker processes spawned lazily; pipe EOF,
  deadlines and RSS over budget become ``crashed`` / ``timeout`` / ``oom``
  outcomes.  Circuits and results cross it as plain pickles;
* :mod:`~repro.batch.store` — :class:`ResultStore`: an append-only JSONL
  log of runs, written *incrementally* (one fsynced line per circuit) so
  interrupted runs leave a resumable prefix.  Runs carry a stable
  :func:`~repro.batch.store.run_key` (flow + suite + scale + input
  fingerprints): ``run(..., resume=True)`` skips circuits already ``ok``
  under the key.  :meth:`~repro.batch.store.ResultStore.compare` diffs
  runs bit-for-bit.
  Appends are disk-safe: an ENOSPC/short write is rolled back
  (:class:`~repro.batch.store.StoreWriteError`) so the file keeps a clean
  resumable prefix.  The store also holds the circuit breaker's
  quarantine records — a circuit failing identically across runs is
  skipped by later resumed runs until requarantined;
* :mod:`~repro.batch.events` — :class:`RunEvent` progress stream
  (``started`` / ``retried`` / ``crashed`` / ``finished`` / …) through a
  pluggable sink;
* :mod:`~repro.batch.faults` — :class:`FaultPlan` chaos injection for
  exercising all of the above.

Quickstart::

    from repro.batch import BatchRunner, ResultStore, get_suite

    suite = get_suite("epfl-arithmetic")
    batch = BatchRunner(jobs=4).run(suite, "compress2rs", scale="small",
                                    store="results.jsonl")
    print(batch.table())

    store = ResultStore("results.jsonl")
    print(store.compare("latest", baseline_run_id).format())

The CLI fronts this with ``repro suite`` (list/show manifests) and
``repro batch`` (run a flow over a suite with ``--jobs N``, ``--store``,
``--compare-to``).
"""

from .suite import Suite, SuiteEntry, available_suites, get_suite
from .runner import (BatchResult, BatchRunner, CircuitOutcome,
                     jittered_backoff, parse_memory_limit, state_fingerprint)
from .pool import WorkerPool
from .store import (Comparison, ResultStore, RunInfo, StoreWriteError,
                    failure_signature, git_revision, run_key)
from .events import EventLog, JsonlEventSink, RunEvent, event_sink, read_events
from .faults import Fault, FaultPlan, TransientFault

__all__ = [
    "Suite",
    "SuiteEntry",
    "available_suites",
    "get_suite",
    "BatchRunner",
    "BatchResult",
    "CircuitOutcome",
    "state_fingerprint",
    "jittered_backoff",
    "parse_memory_limit",
    "WorkerPool",
    "ResultStore",
    "RunInfo",
    "Comparison",
    "StoreWriteError",
    "failure_signature",
    "git_revision",
    "run_key",
    "RunEvent",
    "EventLog",
    "JsonlEventSink",
    "event_sink",
    "read_events",
    "Fault",
    "FaultPlan",
    "TransientFault",
]
