"""Progress events — the observable life of a batch run.

The runner narrates every circuit's life cycle through a pluggable sink:
a plain callable invoked with one :class:`RunEvent` per transition.  The
serve daemon records the same events per job, and the kill-and-resume
smoke reads the stream to find worker pids.

Event kinds:

========== ==============================================================
``started``  a circuit was dispatched to a worker (``worker`` = pid)
``finished`` a circuit produced its final outcome (``status`` ok/error)
``retried``  a failed/crashed attempt was requeued (``attempt`` is the
             attempt that failed; ``detail`` says why and when it re-runs)
``timeout``  the circuit exceeded the hard per-circuit timeout and its
             worker was killed
``crashed``  the worker process died mid-circuit and retries were
             exhausted (or disabled)
``skipped``  a resumed run found an ``ok`` record under the same run key
             and did not re-execute the circuit
``claimed``  serve only: a submission was coalesced onto an identical
             in-flight job and will share its result
``oom``      the circuit exceeded its memory budget — either the worker
             reported :class:`MemoryError` under ``RLIMIT_AS`` or the
             supervisor's RSS poll killed it (``detail`` says which)
``quarantined`` the circuit breaker acted: either a circuit just crossed
             the identical-failure threshold and was recorded as
             quarantined, or a resumed run skipped an already-quarantined
             circuit (``detail`` distinguishes the two)
``sink_disabled`` a :class:`JsonlEventSink` recovered from a write
             failure; the event records how many events were dropped
             while the sink was down (written at the first successful
             append after :meth:`JsonlEventSink.rearm`)
========== ==============================================================

A sink that raises does not kill the run — the runner catches and warns.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Union

from .store import read_jsonl

__all__ = ["RunEvent", "EventLog", "JsonlEventSink", "EVENT_KINDS",
           "read_events", "event_sink"]

#: every event kind the runner and the serve daemon emit, in rough
#: life-cycle order
EVENT_KINDS = ("started", "finished", "retried", "timeout", "crashed",
               "skipped", "claimed", "oom", "quarantined", "sink_disabled")


@dataclass(frozen=True)
class RunEvent:
    """One batch-run transition (see the module docstring for kinds)."""

    kind: str
    circuit: str
    index: int
    attempt: int = 1
    status: str = ""                    # final status, on terminal events
    seconds: float = 0.0                # elapsed wall time, where known
    worker: int = 0                     # pid of the worker involved
    detail: str = ""                    # human-readable context
    at: float = 0.0                     # epoch timestamp (set by the runner)

    @classmethod
    def of(cls, kind: str, *, outcome=None, payload: Optional[dict] = None,
           worker: int = 0, seconds: float = 0.0,
           detail: str = "") -> "RunEvent":
        """The ``kind`` event, stamped now, about a finished ``outcome``
        (its attempt, status, time and worker) or else a job ``payload``."""
        if outcome is not None:
            return cls(kind=kind, circuit=outcome.name, index=outcome.index,
                       attempt=outcome.attempts, status=outcome.status,
                       seconds=outcome.seconds, worker=outcome.worker,
                       detail=detail, at=time.time())
        return cls(kind=kind, circuit=payload["name"], index=payload["index"],
                   attempt=payload.get("attempt", 1), seconds=seconds,
                   worker=worker, detail=detail, at=time.time())

    def to_dict(self) -> dict:
        """The JSON-serializable form of this event."""
        d = asdict(self)
        d["seconds"] = round(d["seconds"], 6)
        return d


class EventLog:
    """A list-collecting event sink — handy for tests and UIs.

    Call the instance with events (it is itself a sink); read them back
    via :attr:`events`, :meth:`kinds` or :meth:`only`.
    """

    def __init__(self) -> None:
        self.events: List[RunEvent] = []

    def __call__(self, event: RunEvent) -> None:
        """Record one event (the sink protocol)."""
        self.events.append(event)

    def kinds(self) -> List[str]:
        """The event kinds seen, in arrival order."""
        return [e.kind for e in self.events]

    def only(self, kind: str) -> List[RunEvent]:
        """The recorded events of one kind, in arrival order."""
        return [e for e in self.events if e.kind == kind]


class JsonlEventSink:
    """An event sink appending one flushed+fsynced JSON line per event.

    Durable by construction: a reader (or a post-mortem after a kill)
    sees every event that was emitted before the writer died, which is
    how the kill-and-resume smoke finds the worker pids it must clean up.

    A sink whose path cannot be opened (or whose device fills up) warns
    **once** and disables itself — progress telemetry must never cost a
    run, and must not warn again on every subsequent event.  The disable
    lasts for the *current run only*: the runner calls :meth:`rearm` at
    the start of every run, so a sink broken in run 1 (full disk, missing
    mount) gets another chance in run 2 once the fault clears.  The first
    successful append after a re-arm writes a ``sink_disabled`` event
    recording how many events the outage swallowed, so readers can see
    the gap instead of inferring it.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None
        self._broken = False
        self._dropped = 0
        self._notice: Optional[dict] = None

    def __call__(self, event: RunEvent) -> None:
        """Append one event line (the sink protocol)."""
        if self._broken:
            self._dropped += 1
            return
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a")
            if self._notice is not None:
                self._fh.write(json.dumps(self._notice) + "\n")
                self._notice = None
            self._fh.write(json.dumps(event.to_dict()) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._broken = True
            self._dropped += 1
            warnings.warn(f"event sink {self.path}: disabled after write "
                          f"failure: {exc}")

    def rearm(self) -> None:
        """Give a tripped sink another chance (called at run start).

        A no-op on a healthy sink.  On a broken one: clears the disable,
        drops the stale file handle, and queues a ``sink_disabled`` event
        carrying the dropped-event count, written just before the first
        event that lands after recovery.
        """
        if not self._broken:
            return
        self._broken = False
        self.close()
        self._notice = RunEvent(
            kind="sink_disabled", circuit="", index=-1,
            detail=(f"sink re-armed after a write failure; "
                    f"{self._dropped} event(s) were dropped"),
            at=time.time(),
        ).to_dict()
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """How many events the current outage (if any) has swallowed."""
        return self._dropped

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def event_sink(path: Optional[Union[str, Path]]) -> Optional[JsonlEventSink]:
    """The one way run-event sinks are constructed from a CLI/daemon option.

    Returns a :class:`JsonlEventSink` on ``path``, or ``None`` when no path
    was given — so ``repro batch --events`` and ``repro serve --events``
    build byte-identical sinks (same durability, same warn-once handling of
    a broken path) through one helper instead of two copies.
    """
    if not path:
        return None
    return JsonlEventSink(path)


def read_events(path: Union[str, Path]) -> List[dict]:
    """Read a :class:`JsonlEventSink` file back as dicts; a truncated final
    line (the writer died mid-append) warns and is skipped, as in the
    result store (:func:`~repro.batch.store.read_jsonl`)."""
    return read_jsonl(path)
