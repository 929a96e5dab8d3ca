"""BatchRunner — fault-tolerant suite execution across supervised workers.

The runner turns a :class:`~repro.batch.suite.Suite` (or any circuit list)
plus one flow script into per-circuit jobs and executes them either
in-process (``jobs=1`` — one shared :class:`~repro.flow.context.FlowContext`,
exactly the semantics of ``FlowRunner.run_many``) or across the supervised
:class:`~repro.batch.pool.WorkerPool` (``jobs>1`` — one *per-worker* warm
context, one duplex pipe per worker, every circuit pinned to the worker
executing it, circuits and results crossing the pipe as plain pickles).

Guarantees:

* **deterministic ordering** — outcomes come back in suite order regardless
  of which worker finished first (and regardless of dispatch order);
* **failure isolation** — a circuit whose flow raises produces an ``error``
  outcome (message + traceback) and the rest of the suite still runs;
* **fault tolerance** — because each circuit is pinned to exactly one
  worker, a worker that dies mid-circuit produces exactly one ``crashed``
  outcome (with its elapsed wall time and pid) and a replacement worker is
  spawned — nothing cascades to pending circuits.  A circuit exceeding the
  hard per-circuit ``timeout`` gets its worker *killed* (never joined) and
  a ``timeout`` outcome.  ``retries`` re-runs failed/crashed circuits with
  exponential backoff for transient failures;
* **resumability** — a :func:`~repro.batch.store.run_key` identifies the
  workload; ``run(..., resume=True)`` skips circuits that already have
  ``ok`` records under the same key and copies them forward, so a killed
  run restarted over the same store converges to bit-identical results;
* **cooperation** — ``run(..., cooperate=True)`` claims each circuit
  through the store's append-only JSONL before dispatching it, letting
  multiple runner processes share one suite without duplicated work;
* **resource governance** — ``memory_limit`` applies ``RLIMIT_AS`` inside
  every pool worker (and an RSS poll in the supervisor as the fallback for
  platforms or workloads the rlimit cannot see), turning a memory-hungry
  circuit into exactly one final ``oom`` outcome instead of a host-wide
  OOM kill; a circuit failing *identically* across ``quarantine_after``
  runs is recorded as quarantined in the store and skipped by later
  resumed/cooperative runs until ``requarantine=True`` clears it;
* **reproducibility metadata** — every outcome carries wall time, cost
  before/after, pass count and a structural fingerprint
  (:func:`state_fingerprint`) so two runs can be diffed bit-for-bit by
  :meth:`~repro.batch.store.ResultStore.compare`.

A pluggable event sink (:class:`~repro.batch.events.RunEvent`) narrates
``started`` / ``retried`` / ``timeout`` / ``crashed`` / ``finished`` /
``skipped`` / ``claimed`` transitions — the hook the serve daemon and the
watch TUI consume.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import time
import traceback as _traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..flow import Flow, FlowContext, FlowRunner, PassMetrics, resolve_flow
from ..flow.context import state_cost, state_kind, state_summary
from ..networks.base import LogicNetwork
from .events import RunEvent
from .pool import WorkerPool
from .suite import Suite, SuiteEntry

__all__ = ["BatchRunner", "BatchResult", "CircuitOutcome", "state_fingerprint",
           "jittered_backoff", "parse_memory_limit"]

#: outcome statuses that count as failures of the run
_FAILURE_STATUSES = ("error", "crashed", "timeout", "oom")

#: outcome statuses recorded into a result store
_RECORDED_STATUSES = ("ok",) + _FAILURE_STATUSES + ("quarantined",)


def jittered_backoff(base: float, attempt: int, *, cap: float = 60.0,
                     rng: Optional[Callable[[], float]] = None) -> float:
    """Retry delay for ``attempt`` (1-based): capped exponential backoff
    plus additive jitter.

    Returns a delay in ``[d, 1.5*d]`` where ``d = min(cap, base *
    2**(attempt-1))`` — the nominal delay is a *lower bound* (callers may
    rely on "never retries early"), while the jitter decorrelates
    simultaneous retries so a burst of failures against a saturated
    daemon does not thundering-herd it on the exact same schedule.
    ``rng`` injects a ``random.random``-shaped source for deterministic
    tests.  Shared by :class:`BatchRunner` retries and
    :class:`~repro.serve.client.ServeClient` 429 backoff.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    draw = rng() if rng is not None else random.random()
    nominal = min(cap, base * (2 ** (attempt - 1)))
    return nominal * (1.0 + 0.5 * draw)


_MEM_SUFFIXES = {"": 1, "b": 1,
                 "k": 1024, "kb": 1024,
                 "m": 1024 ** 2, "mb": 1024 ** 2,
                 "g": 1024 ** 3, "gb": 1024 ** 3,
                 "t": 1024 ** 4, "tb": 1024 ** 4}


def parse_memory_limit(limit: Union[int, float, str, None]) -> Optional[int]:
    """Normalize a memory budget to bytes.

    Accepts ``None`` (no limit), a number of bytes, or a string with an
    optional binary suffix: ``"512M"``, ``"2GB"``, ``"1.5g"``,
    ``"1048576"``.  Rejects non-positive and unparsable values — a typo'd
    limit must fail loudly, not silently run unbounded.
    """
    if limit is None:
        return None
    if isinstance(limit, (int, float)):
        value = int(limit)
    else:
        m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*",
                         str(limit))
        if not m or m.group(2).lower() not in _MEM_SUFFIXES:
            raise ValueError(
                f"unparsable memory limit {limit!r} (expected e.g. "
                "'512M', '2G', or a byte count)")
        value = int(float(m.group(1)) * _MEM_SUFFIXES[m.group(2).lower()])
    if value <= 0:
        raise ValueError(f"memory limit must be positive, got {limit!r}")
    return value


# ---------------------------------------------------------------------- #
# structural fingerprints                                                 #
# ---------------------------------------------------------------------- #

def state_fingerprint(state) -> str:
    """A structural hash of any pipeline state (16 hex chars).

    Two runs produced identical results iff their fingerprints match: the
    state is serialized canonically (AIGER for logic networks — converted
    to AIG first when needed — BLIF for LUT networks, structural Verilog
    for cell netlists) and hashed.  Deterministic across processes.
    """
    kind = state_kind(state)
    if kind == "lut":
        from ..io import write_blif

        text = write_blif(state)
    elif kind == "netlist":
        from ..io import write_verilog_netlist

        text = write_verilog_netlist(state)
    else:
        from ..io import write_aag
        from ..networks import Aig, convert

        ntk = state.ntk if kind == "choice" else state
        if type(ntk) is not Aig:
            ntk = convert(ntk, Aig)
        text = write_aag(ntk)
        if kind == "choice":
            text = f"choices={state.num_choices()}\n" + text
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _spec_fingerprint(spec, scale: str) -> str:
    """A stable content key for one circuit spec — the run-key input.

    Suite entries fingerprint themselves; network objects use their
    structural fingerprint; ``.aag`` paths hash the file; registry names
    are keyed by name + scale (the generators are deterministic).
    """
    if isinstance(spec, SuiteEntry):
        return spec.fingerprint(scale)
    if isinstance(spec, LogicNetwork):
        return "net:" + state_fingerprint(spec)
    text = str(spec)
    if text.endswith(".aag"):
        try:
            digest = hashlib.sha256(Path(text).read_bytes()).hexdigest()[:16]
            return f"file:{digest}"
        except OSError:
            return f"file:{text}"
    return f"bench:{text}@{scale}"


# ---------------------------------------------------------------------- #
# outcomes                                                                #
# ---------------------------------------------------------------------- #

@dataclass
class CircuitOutcome:
    """What happened to one circuit of a batch run.

    ``status`` is one of ``ok`` (flow completed), ``error`` (the flow
    raised), ``crashed`` (the worker process died mid-circuit), ``timeout``
    (the circuit exceeded the hard per-circuit timeout and its worker was
    killed), ``oom`` (the circuit exceeded its memory budget — final,
    never retried by default), ``quarantined`` (the circuit breaker
    skipped it on a resumed run) or ``claimed`` (a cooperating runner
    holds the circuit).
    """

    name: str
    index: int
    status: str = "ok"
    seconds: float = 0.0
    kind: str = ""                      # final state kind
    before: tuple = ()                  # (size, depth) of the input
    cost: tuple = ()                    # (size, depth) of the result
    summary: str = ""
    fingerprint: str = ""
    n_passes: int = 0
    error: str = ""
    traceback: str = ""
    worker: int = 0                     # pid of the executing process
    attempts: int = 1                   # execution attempts (1 = no retries)
    resumed_from: str = ""              # run id the record was resumed from
    metric_rows: List[tuple] = field(default_factory=list)
    network: Any = None                 # final state (when returned)
    result: Any = None                  # in-process FlowResult, or map() value

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failed(self) -> bool:
        """Whether this outcome counts as a run failure (``claimed`` and
        resumed outcomes do not)."""
        return self.status in _FAILURE_STATUSES

    def to_record(self) -> dict:
        """The JSON-serializable store record of this outcome."""
        rec = {
            "circuit": self.name,
            "index": self.index,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "state": self.kind,
            "passes": self.n_passes,
            "worker": self.worker,
        }
        if self.cost:
            rec["size"], rec["depth"] = self.cost
        if self.before:
            rec["size_in"], rec["depth_in"] = self.before
        if self.fingerprint:
            rec["fingerprint"] = self.fingerprint
        if self.error:
            rec["error"] = self.error
        if self.attempts > 1:
            rec["attempts"] = self.attempts
        if self.resumed_from:
            rec["resumed_from"] = self.resumed_from
        return rec

    def row(self) -> List:
        if not self.ok:
            return [self.name, self.status.upper(), "-", "-",
                    round(self.seconds, 3), self.error.split("\n")[0][:50]]
        size, depth = self.cost
        fmt = lambda v: int(v) if float(v).is_integer() else round(v, 2)
        note = self.summary if not self.resumed_from else \
            f"resumed from {self.resumed_from}"
        return [self.name, "ok", fmt(size), fmt(depth),
                round(self.seconds, 3), note]


@dataclass
class BatchResult:
    """Outcome of one batch run: ordered per-circuit results + wall time."""

    flow: str                           # canonical flow script
    scale: str
    jobs: int
    outcomes: List[CircuitOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    suite: str = ""
    run_id: str = ""                    # set when recorded into a store
    run_key: str = ""                   # stable workload identity

    @property
    def failures(self) -> List[CircuitOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def resumed(self) -> List[CircuitOutcome]:
        """Outcomes copied forward from prior runs under the same run key."""
        return [o for o in self.outcomes if o.resumed_from]

    @property
    def quarantined(self) -> List[CircuitOutcome]:
        """Outcomes the circuit breaker skipped (not counted as failures —
        the breaker tripping is old news, not a new regression)."""
        return [o for o in self.outcomes if o.status == "quarantined"]

    def by_name(self) -> Dict[str, CircuitOutcome]:
        return {o.name: o for o in self.outcomes}

    def table(self) -> str:
        from ..experiments.common import format_table

        label = f" [{self.suite}]" if self.suite else ""
        return format_table(
            ["circuit", "status", "size", "depth", "seconds", "result"],
            [o.row() for o in self.outcomes],
            title=(f"batch{label}: {self.flow!r} at scale {self.scale}, "
                   f"jobs={self.jobs}, wall {self.wall_seconds:.2f}s"))


# ---------------------------------------------------------------------- #
# worker-side execution                                                   #
# ---------------------------------------------------------------------- #

def _build_circuit(spec, scale: str):
    """Materialize a payload circuit spec (SuiteEntry | name | network)."""
    if isinstance(spec, SuiteEntry):
        return spec.build(scale)
    if isinstance(spec, str):
        from ..circuits import load

        return load(spec, scale)
    return spec                          # an already-built network object


def _execute_flow_job(payload: dict, ctx: FlowContext,
                      keep_objects: bool = False) -> CircuitOutcome:
    """Run one circuit's flow; never raises — failures become outcomes."""
    outcome = CircuitOutcome(name=payload["name"], index=payload["index"],
                             worker=os.getpid(),
                             attempts=payload.get("attempt", 1))
    t0 = time.perf_counter()
    try:
        plan = payload.get("faults")
        if plan:
            from .faults import apply_fault

            apply_fault(plan, payload["name"], payload.get("attempt", 1))
        ntk = _build_circuit(payload["spec"], payload["scale"])
        outcome.before = state_cost(ntk)
        runner = FlowRunner(ctx, verify=payload.get("verify", False),
                            checkpoint=payload.get("checkpoint", False))
        result = runner.run(ntk, Flow.parse(payload["flow"]), name=payload["name"])
        outcome.seconds = time.perf_counter() - t0
        outcome.kind = state_kind(result.network)
        outcome.cost = state_cost(result.network)
        outcome.summary = state_summary(result.network)
        outcome.fingerprint = state_fingerprint(result.network)
        outcome.n_passes = len(result.metrics)
        outcome.metric_rows = [
            (m.name, m.script, m.seconds, tuple(m.before), tuple(m.after),
             m.kind_before, m.kind_after) for m in result.metrics]
        if payload.get("return_network", True):
            outcome.network = result.network
        if keep_objects:
            outcome.result = result
    except MemoryError as exc:           # budget hit: final, not retried
        # no traceback capture — formatting one allocates, and the worker
        # is already at its RLIMIT_AS ceiling
        outcome.seconds = time.perf_counter() - t0
        outcome.status = "oom"
        outcome.error = f"MemoryError: {exc}" if str(exc) else \
            "MemoryError: circuit exceeded the worker memory budget"
    except Exception as exc:             # per-circuit isolation
        outcome.seconds = time.perf_counter() - t0
        outcome.status = "error"
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.traceback = _traceback.format_exc()
    return outcome


def _execute_map_job(payload: dict, ctx: FlowContext) -> CircuitOutcome:
    """Generic fan-out: ``fn(task, ctx)``; the value (or the exception it
    raised) rides home in ``outcome.result``."""
    outcome = CircuitOutcome(name=payload["name"], index=payload["index"],
                             worker=os.getpid())
    try:
        outcome.result = payload["fn"](payload["task"], ctx)
    except Exception as exc:
        outcome.status = "error"
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.traceback = _traceback.format_exc()
        outcome.result = exc
    return outcome


# ---------------------------------------------------------------------- #
# the runner                                                              #
# ---------------------------------------------------------------------- #

class BatchRunner:
    """Execute flows (or arbitrary per-task functions) over circuit sets.

    ``jobs=1`` runs in-process against ``context`` (or a fresh one);
    ``jobs>1`` shards across a supervised
    :class:`~repro.batch.pool.WorkerPool` with one warm per-worker
    context; networks cross the process boundary as plain pickles.
    ``progress`` is an optional
    ``callable(done, total, outcome)`` invoked as results arrive
    (completion order, not suite order); ``events`` is an optional sink
    receiving :class:`~repro.batch.events.RunEvent` transitions.

    Fault tolerance (pool runs):

    * ``timeout`` — hard per-circuit wall-clock limit in seconds; a worker
      exceeding it is SIGKILLed and replaced, the circuit becomes a
      ``timeout`` outcome (in-process runs cannot be killed, so ``jobs=1``
      ignores it);
    * ``retries`` — extra attempts for ``error`` and ``crashed`` circuits,
      delayed by :func:`jittered_backoff` (capped exponential, additive
      jitter so simultaneous retries decorrelate);
    * a worker that dies mid-circuit yields exactly one ``crashed``
      outcome (elapsed time + pid); pending circuits are unaffected;
    * ``memory_limit`` — per-worker memory budget (bytes, or a string
      like ``"512M"``): applied as ``RLIMIT_AS`` inside each worker, and
      enforced from the supervisor by an RSS poll for workers the rlimit
      cannot protect.  A circuit over budget becomes exactly one final
      ``oom`` outcome — never retried, never cascading (``jobs=1``
      in-process runs cannot be rlimited, but a ``MemoryError`` there is
      still classified ``oom``);
    * ``quarantine_after`` — the circuit breaker: a circuit that fails
      with the same :func:`~repro.batch.store.failure_signature` in this
      many runs under one run key is recorded as quarantined in the
      store; resumed/cooperative runs then skip it (with a
      ``quarantined`` event) until ``run(..., requarantine=True)``
      clears it.  ``0`` disables the breaker.

    ``order="largest"`` dispatches biggest circuits first to bound the
    straggler tail (results still return in suite order); ``"suite"``
    keeps manifest order.  ``faults`` installs a
    :class:`~repro.batch.faults.FaultPlan` (chaos testing).
    """

    def __init__(self, *, jobs: int = 1, context: Optional[FlowContext] = None,
                 progress: Optional[Callable] = None, verify: bool = False,
                 checkpoint: bool = False, n_patterns: int = 256, seed: int = 1,
                 return_networks: bool = True,
                 timeout: Optional[float] = None, retries: int = 0,
                 backoff: float = 0.5, order: str = "suite",
                 events: Optional[Callable] = None, faults=None,
                 claim_ttl: Optional[float] = None, owner: str = "",
                 memory_limit: Union[int, str, None] = None,
                 quarantine_after: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if order not in ("suite", "largest"):
            raise ValueError(f"order must be suite|largest, got {order!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if quarantine_after < 0:
            raise ValueError(
                f"quarantine_after must be >= 0, got {quarantine_after}")
        self.memory_limit = parse_memory_limit(memory_limit)
        self.quarantine_after = quarantine_after
        self.jobs = jobs
        self.ctx = context if context is not None else FlowContext(
            n_patterns=n_patterns, seed=seed)
        self.progress = progress
        self.verify = verify
        self.checkpoint = checkpoint
        self.n_patterns = n_patterns
        self.seed = seed
        self.return_networks = return_networks
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.order = order
        self.events = events
        self.faults = faults
        self.claim_ttl = claim_ttl
        import socket

        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"

    # -- flow batches --------------------------------------------------------

    def run(self, circuits: Union[Suite, Iterable], flow,
            *, scale: Optional[str] = None, store=None,
            store_meta: Optional[dict] = None, resume: bool = False,
            cooperate: bool = False, requarantine: bool = False) -> BatchResult:
        """Run one flow over a suite / circuit list; returns a
        :class:`BatchResult` with outcomes in suite order.

        ``circuits`` is a :class:`Suite`, or an iterable mixing benchmark
        names, ``.aag`` paths, :class:`SuiteEntry` items and network
        objects.  ``store`` (a :class:`~repro.batch.store.ResultStore` or a
        path) records the run *incrementally* when given — the header is
        appended up front and each circuit as it completes, so an
        interrupted run leaves a resumable prefix.

        ``resume=True`` skips circuits that already have ``ok`` records
        under the same run key (copying them forward into this run);
        ``cooperate=True`` claims each circuit through the store before
        dispatching it so concurrent runners share the suite.  Both need
        ``store``, and both honor the circuit breaker: circuits recorded
        as quarantined under the run key are skipped (a ``quarantined``
        outcome + event), unless ``requarantine=True`` first clears the
        quarantine records and lets every circuit run again.
        """
        suite_name = ""
        if isinstance(circuits, Suite):
            suite_name = circuits.name
            scale = scale or circuits.scale
            items: Sequence = list(circuits.entries)
        else:
            items = list(circuits)
        scale = scale or "small"
        flow_text = resolve_flow(flow).to_script()

        from .store import ResultStore, StoreWriteError, run_key as _run_key

        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        if (resume or cooperate) and store is None:
            raise ValueError("resume/cooperate need a result store")
        if requarantine and store is None:
            raise ValueError("requarantine needs a result store")
        if self.events is not None and hasattr(self.events, "rearm"):
            self.events.rearm()          # a sink broken last run gets retried

        payloads = self._payloads(items, flow_text, scale)
        key = _run_key(flow_text, suite_name, scale,
                       [(p["name"], _spec_fingerprint(p["spec"], p["scale"]))
                        for p in payloads])
        total = len(payloads)
        outcomes: Dict[int, CircuitOutcome] = {}
        t0 = time.perf_counter()
        run_id = ""
        if store is not None:
            run_id = store.open_run(flow=flow_text, suite=suite_name,
                                    scale=scale, jobs=self.jobs,
                                    circuits=total, run_key=key,
                                    meta=store_meta)

        def finalize(outcome: CircuitOutcome) -> None:
            outcomes[outcome.index] = outcome
            if store is not None and outcome.status in _RECORDED_STATUSES:
                try:
                    store.append_result(run_id, outcome.to_record())
                except StoreWriteError as exc:
                    # the record is lost (a resume re-runs this circuit),
                    # the run — and the file — survive
                    warnings.warn(f"result store append failed for "
                                  f"{outcome.name!r}: {exc}")
                else:
                    self._maybe_quarantine(store, key, outcome)
            if self.progress:
                self.progress(len(outcomes), total, outcome)

        if requarantine:
            store.requarantine(key)
        if resume:
            prior = store.completed(key)
            todo = []
            for p in payloads:
                rec = prior.get(p["name"])
                if rec is None:
                    todo.append(p)
                    continue
                outcome = self._resumed_outcome(p, rec)
                self._emit("skipped", outcome,
                           detail=f"ok under run key {key} "
                                  f"(run {outcome.resumed_from})")
                finalize(outcome)
            payloads = todo
        if (resume or cooperate) and self.quarantine_after:
            held = store.quarantined(key)
            todo = []
            for p in payloads:
                q = held.get(p["name"])
                if q is None:
                    todo.append(p)
                    continue
                outcome = CircuitOutcome(
                    name=p["name"], index=p["index"], status="quarantined",
                    error=(f"quarantined after {q.get('runs', '?')} identical "
                           f"{q.get('status', 'failed')} outcomes: "
                           f"{q.get('error', '')}"))
                self._emit("quarantined", outcome,
                           detail=f"skipped: quarantined under run key {key} "
                                  f"(clear with requarantine)")
                finalize(outcome)
            payloads = todo
        if self.order == "largest":
            payloads = self._order_largest(payloads)

        claims = (store, key) if cooperate else None
        if self.jobs > 1 and len(payloads) > 1:
            self._run_pool(payloads, finalize, claims)
        else:
            self._run_sequential(payloads, finalize, claims)
        wall = time.perf_counter() - t0
        result = BatchResult(flow=flow_text, scale=scale, jobs=self.jobs,
                             outcomes=[outcomes[i] for i in sorted(outcomes)],
                             wall_seconds=wall, suite=suite_name,
                             run_id=run_id, run_key=key)
        if store is not None:
            try:
                store.close_run(run_id, wall_seconds=wall,
                                failures=len(result.failures))
            except StoreWriteError as exc:
                # an unclosed run reads back as interrupted — resumable
                warnings.warn(f"result store close failed: {exc}")
        return result

    def _payloads(self, items: Sequence, flow_text: str, scale: str) -> List[dict]:
        payloads, seen = [], set()
        for i, item in enumerate(items):
            if isinstance(item, SuiteEntry):
                name, spec = item.name, item
            elif isinstance(item, str) or hasattr(item, "suffix"):
                name, spec = str(item), str(item)
            else:
                name, spec = getattr(item, "name", "") or f"circuit{i}", item
            if name in seen:             # repeated circuit: keep both results
                suffix = 2
                while f"{name}#{suffix}" in seen:
                    suffix += 1
                name = f"{name}#{suffix}"
            seen.add(name)
            payloads.append({"index": i, "name": name, "spec": spec,
                             "scale": scale, "flow": flow_text,
                             "attempt": 1,
                             "verify": self.verify,
                             "checkpoint": self.checkpoint,
                             "return_network": self.return_networks})
            if self.faults is not None:
                payloads[-1]["faults"] = self.faults.to_payload()
        return payloads

    def _order_largest(self, payloads: List[dict]) -> List[dict]:
        """Dispatch order: biggest inputs first, ties in suite order.

        Sizes come from the spec when it already is a network; named and
        manifest specs are built once here, and the built network replaces
        the spec so the worker does not repeat the build.
        """
        sized = []
        for p in payloads:
            spec = p["spec"]
            if not isinstance(spec, LogicNetwork):
                try:
                    spec = p["spec"] = _build_circuit(spec, p["scale"])
                except Exception:
                    sized.append((-1, p))    # the worker reports the error
                    continue
            sized.append((spec.num_gates(), p))
        sized.sort(key=lambda t: (-t[0], t[1]["index"]))
        return [p for _, p in sized]

    # -- event / claim plumbing ----------------------------------------------

    def _emit(self, kind: str, outcome: Optional[CircuitOutcome] = None, *,
              payload: Optional[dict] = None, worker: int = 0,
              seconds: float = 0.0, detail: str = "") -> None:
        """Send one event to the sink; a broken sink never kills the run."""
        if self.events is None:
            return
        if outcome is not None:
            event = RunEvent(kind=kind, circuit=outcome.name,
                             index=outcome.index, attempt=outcome.attempts,
                             status=outcome.status, seconds=outcome.seconds,
                             worker=outcome.worker, detail=detail,
                             at=time.time())
        else:
            event = RunEvent(kind=kind, circuit=payload["name"],
                             index=payload["index"],
                             attempt=payload.get("attempt", 1),
                             seconds=seconds, worker=worker, detail=detail,
                             at=time.time())
        try:
            self.events(event)
        except Exception as exc:
            warnings.warn(f"batch event sink failed on {kind!r}: {exc}")

    def _claim_or_yield(self, claims, payload) -> Optional[CircuitOutcome]:
        """Try to claim a circuit; returns a ``claimed`` outcome on loss."""
        if claims is None:
            return None
        store, key = claims
        won, winner = store.claim(key, payload["name"], owner=self.owner,
                                  ttl=self.claim_ttl)
        if won:
            return None
        outcome = CircuitOutcome(
            name=payload["name"], index=payload["index"], status="claimed",
            attempts=payload.get("attempt", 1),
            error=f"claimed by {winner.get('owner', '?')}")
        self._emit("claimed", outcome,
                   detail=f"held by {winner.get('owner', '?')}")
        return outcome

    def _resumed_outcome(self, payload: dict, rec: dict) -> CircuitOutcome:
        """Rehydrate a prior ``ok`` record into this run's outcome."""
        outcome = CircuitOutcome(
            name=payload["name"], index=payload["index"], status="ok",
            seconds=float(rec.get("seconds", 0.0)),
            kind=rec.get("state", ""), fingerprint=rec.get("fingerprint", ""),
            n_passes=int(rec.get("passes", 0)),
            worker=int(rec.get("worker", 0)),
            attempts=int(rec.get("attempts", 1)),
            resumed_from=rec.get("resumed_from") or rec.get("run_id", ""))
        if "size" in rec:
            outcome.cost = (rec["size"], rec["depth"])
        if "size_in" in rec:
            outcome.before = (rec["size_in"], rec["depth_in"])
        outcome.summary = f"resumed from {outcome.resumed_from}"
        return outcome

    def _maybe_quarantine(self, store, key: str,
                          outcome: CircuitOutcome) -> None:
        """Trip the circuit breaker when a failure keeps repeating.

        Called after ``outcome``'s record was appended: counts the runs
        under ``key`` whose record for this circuit carries the same
        :func:`~repro.batch.store.failure_signature` (the just-written
        record included), and appends a quarantine line once the count
        reaches ``quarantine_after``.  Store trouble only warns — the
        breaker is protection, not a new failure mode.
        """
        if (not self.quarantine_after or not key
                or outcome.status not in _FAILURE_STATUSES):
            return
        from .store import StoreWriteError, failure_signature

        try:
            sig = failure_signature(outcome.status, outcome.error)
            repeats = 0
            for run in store.runs():
                if run.run_key != key:
                    continue
                rec = run.results.get(outcome.name)
                if (rec is not None
                        and rec.get("status") in _FAILURE_STATUSES
                        and failure_signature(rec.get("status", ""),
                                              rec.get("error", "")) == sig):
                    repeats += 1
            if repeats < self.quarantine_after or \
                    outcome.name in store.quarantined(key):
                return
            store.quarantine(key, outcome.name, signature=sig,
                             status=outcome.status,
                             error=(outcome.error or "").splitlines()[0],
                             runs=repeats)
        except (StoreWriteError, ValueError) as exc:
            warnings.warn(f"quarantine bookkeeping failed for "
                          f"{outcome.name!r}: {exc}")
            return
        self._emit("quarantined", outcome,
                   detail=f"{repeats} identical {outcome.status} outcomes — "
                          f"resumed runs will skip this circuit until "
                          f"requarantine")

    def _settle(self, payload: dict, outcome: CircuitOutcome,
                finalize) -> Optional[tuple]:
        """Finalize one attempt's outcome, or return ``(delay, payload)``
        for the next attempt of an ``error``/``crashed`` circuit with
        retries left.  ``oom`` and ``timeout`` are final: a circuit over
        its budget or past its deadline would be again."""
        attempt = payload.get("attempt", 1)
        why = (outcome.error or "").split("\n", 1)[0]
        if outcome.status in ("error", "crashed") and attempt <= self.retries:
            delay = jittered_backoff(self.backoff, attempt)
            self._emit("retried", outcome,
                       detail=f"{outcome.status}: {why} — retrying in "
                              f"{delay:.2f}s")
            return delay, dict(payload, attempt=attempt + 1)
        kind = outcome.status if outcome.status in (
            "crashed", "timeout", "oom") else "finished"
        self._emit(kind, outcome, detail=why)
        finalize(outcome)
        return None

    # -- in-process execution ------------------------------------------------

    def _run_sequential(self, payloads: List[dict], finalize, claims) -> None:
        for payload in payloads:
            yielded = self._claim_or_yield(claims, payload)
            if yielded is not None:
                finalize(yielded)
                continue
            retry = (0.0, payload)
            while retry is not None:
                delay, payload = retry
                time.sleep(delay)
                self._emit("started", payload=payload, worker=os.getpid())
                outcome = _execute_flow_job(payload, self.ctx,
                                            keep_objects=True)
                retry = self._settle(payload, outcome, finalize)

    # -- supervised worker pool ----------------------------------------------

    def _run_pool(self, payloads: List[dict], finalize, claims) -> None:
        """Drive a :class:`~repro.batch.pool.WorkerPool`: dispatch in
        order, settle outcomes as they arrive, hold retries for their
        backoff.  The pool pins every circuit to the worker executing it,
        so a crash, kill or memory overrun costs exactly that circuit."""
        queue = deque(payloads)
        delayed: List[tuple] = []        # (ready_at, payload) retry backoffs
        pool = WorkerPool(min(self.jobs, len(payloads)),
                          n_patterns=self.n_patterns, seed=self.seed,
                          memory_limit=self.memory_limit)
        try:
            while True:
                now = time.monotonic()
                queue.extendleft(p for t, p in delayed if t <= now)
                delayed = [(t, p) for t, p in delayed if t > now]
                while queue and pool.ready:
                    payload = queue.popleft()
                    yielded = self._claim_or_yield(claims, payload)
                    if yielded is not None:
                        finalize(yielded)
                        continue
                    pid = pool.submit(payload, timeout=self.timeout)
                    self._emit("started", payload=payload, worker=pid)
                if not pool.busy and not delayed:
                    break
                wait = None
                if delayed:
                    wait = max(0.0, min(t for t, _ in delayed)
                               - time.monotonic())
                for payload, outcome in pool.step(wait):
                    retry = self._settle(payload, outcome, finalize)
                    if retry is not None:
                        delayed.append((time.monotonic() + retry[0], retry[1]))
        finally:
            pool.close()

    # -- generic fan-out (the experiments drivers) ---------------------------

    def map(self, tasks: Sequence, fn: Callable) -> List:
        """Apply ``fn(task, ctx)`` to every task, in order.

        ``fn`` must be a module-level callable (picklable by reference) and
        each task and result picklable.  With ``jobs=1`` every call shares
        this runner's context; with ``jobs>1`` tasks shard across a
        :class:`~repro.batch.pool.WorkerPool` and run under per-worker
        contexts.  Unlike :meth:`run`, exceptions propagate — callers
        wanting isolation use :meth:`run`.
        """
        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task, self.ctx) for task in tasks]
        queue = deque({"index": i, "name": f"task{i}", "fn": fn, "task": t}
                      for i, t in enumerate(tasks))
        results: Dict[int, Any] = {}
        pool = WorkerPool(min(self.jobs, len(tasks)), handler=_execute_map_job,
                          n_patterns=self.n_patterns, seed=self.seed)
        try:
            while queue or pool.busy:
                while queue and pool.ready:
                    pool.submit(queue.popleft())
                for payload, outcome in pool.step():
                    if isinstance(outcome.result, BaseException):
                        raise outcome.result
                    if not outcome.ok:
                        raise RuntimeError(f"map task {payload['index']} "
                                           f"{outcome.status}: {outcome.error}")
                    results[payload["index"]] = outcome.result
        finally:
            pool.close()
        return [results[i] for i in range(len(tasks))]

    # -- interop with the flow API -------------------------------------------

    def flow_results(self, batch: BatchResult) -> "Dict[str, Any]":
        """View a batch's outcomes as ``name -> FlowResult`` (the
        ``FlowRunner.run_many`` return shape).  Failed circuits raise."""
        from ..flow import FlowError
        from ..flow.runner import FlowResult

        out: Dict[str, Any] = {}
        for o in batch.outcomes:
            if not o.ok:
                raise FlowError(
                    f"flow failed on {o.name!r}: {o.error}\n{o.traceback}")
            if o.result is not None:
                out[o.name] = o.result
                continue
            metrics = [PassMetrics(name=n, script=s, seconds=sec,
                                   before=b, after=a,
                                   kind_before=kb, kind_after=ka)
                       for n, s, sec, b, a, kb, ka in o.metric_rows]
            out[o.name] = FlowResult(
                network=o.network, input=None, flow=Flow.parse(batch.flow),
                metrics=metrics, seconds=o.seconds, name=o.name)
        return out
