"""Spans recorded from outside the program, for the traced benchmark run.

:class:`Tracer` keeps a stack of open spans and aggregates, per span name,
the call count, the total time of outermost calls and the self time (span
duration minus the part its child spans cover).  Spans of at least
``min_event_s`` are also kept, up to ``max_events``, as events for a Chrome
trace-event file (``chrome://tracing`` or Perfetto open it); the millions of
microsecond calls a mapper makes show only in the aggregates.

:class:`Patch` installs tracing wrappers around the program's public entry
points for the duration of a ``with`` block.  A module-level function is
replaced at *every* binding site: ``repro.core.mch`` imports
``synthesize_candidates`` by name, so patching only its defining module
would miss the calls MCH makes.  Methods are replaced on their class, which
every importer shares.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class Tracer:
    """Aggregating span recorder (one thread)."""

    min_event_s = 1e-3
    max_events = 100_000

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []          # [name, keys, start, child time]
        self._open: Dict[str, int] = {}       # open spans per name and layer
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}     # outermost spans of a name/layer
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.distinct: Dict[str, set] = {}
        self.events: List[tuple] = []         # (name, start, duration, depth)
        self.dropped = 0                      # long spans past max_events

    def enter(self, name: str) -> None:
        layer = name.split(".", 1)[0]
        keys = (name,) if layer == name else (name, layer)
        for key in keys:
            self._open[key] = self._open.get(key, 0) + 1
        self._stack.append([name, keys, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, keys, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        for key in keys:
            self._open[key] -= 1
            if not self._open[key]:
                self.total[key] = self.total.get(key, 0.0) + duration
        if self._stack:
            self._stack[-1][3] += duration
        if duration < self.min_event_s:
            return
        if len(self.events) < self.max_events:
            self.events.append((name, start, duration, len(self._stack)))
        else:
            self.dropped += 1

    def add(self, counter: str, n: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    # -- views ----------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items()
                   if name.split(".", 1)[0] == layer)

    def layer_self(self) -> Dict[str, float]:
        """Self time summed per layer (the first dotted component)."""
        out: Dict[str, float] = {}
        for name, t in self.self_time.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def chrome_trace(self) -> dict:
        """The recorded events as Chrome trace-event JSON (microseconds)."""
        base = min((e[1] for e in self.events), default=0.0)
        return {
            "traceEvents": [
                {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                 "ts": round((start - base) * 1e6, 3),
                 "dur": round(duration * 1e6, 3), "pid": 1, "tid": 1,
                 "args": {"depth": depth}}
                for name, start, duration, depth in self.events],
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``; ``span``
    names the span (its first dotted component is the layer).  ``before``
    runs outside the span and returns a token; ``after(tracer, token, args,
    kwargs, result)`` does the target's bookkeeping (counters, distinct
    keys) once the call returned.
    """

    where: str
    span: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _wrap(fn: Callable, tracer: Tracer, target: Target) -> Callable:
    enter, leave, span = tracer.enter, tracer.exit, target.span
    before, after = target.before, target.after
    if before is None and after is None:     # the hot path: millions of calls
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    @functools.wraps(fn)
    def traced_hooked(*args, **kwargs):
        token = before(tracer) if before is not None else None
        enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(tracer, token, args, kwargs, result)
        return result
    return traced_hooked


#: the program under test: wrappers are bound into its modules only
PACKAGE = "repro"


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patch:
    """Install tracing wrappers for ``targets`` while the block runs.

    Targets that do not resolve (renamed or deleted entry points) are
    listed in :attr:`skipped`; the layers they belong to then record no
    calls and are reported as missing.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self.skipped: List[str] = []
        self._undo: List[tuple] = []            # (owner, attr, original|None)
        self._functions: Dict[int, tuple] = {}  # id(wrapper) -> (wrapper, fn)

    def __enter__(self) -> "Patch":
        for target in self.targets:
            try:
                self._install(target)
            except (ImportError, AttributeError):
                self.skipped.append(target.where)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        # modules imported while the patch was active bound the wrappers
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                hit = self._functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        self._undo.clear()
        return False

    def _install(self, target: Target) -> None:
        module_name, _, path = target.where.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:                                # a method on a class
            raw = owner.__dict__.get(attr)
            inherited = raw is None
            if inherited:
                raw = getattr(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, self.tracer, target))
            else:
                new = _wrap(raw, self.tracer, target)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, None if inherited else raw))
            return
        fn = getattr(owner, attr)
        wrapper = _wrap(fn, self.tracer, target)
        self._functions[id(wrapper)] = (wrapper, fn)
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, fn))
