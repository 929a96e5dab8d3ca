"""Shared utilities for the experiment drivers (geomean, tables, timing).

The drivers run the paper's protocol as flow scripts through one
:class:`~repro.flow.context.FlowContext` per experiment, so mapping
sessions, pattern pools and NPN caches are reused across circuits and
configurations; :func:`batch_map` is their shared parallelism hook.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Sequence

__all__ = ["geomean", "improvement", "Timer", "format_table", "batch_map"]


def batch_map(tasks, fn, jobs: int = 1, context=None):
    """Fan ``fn(task, ctx)`` over tasks through the batch layer, in order.

    The uniform parallelism hook of the experiment drivers: ``jobs=1`` runs
    every task against one shared context (``context`` or a fresh one) —
    the historical sequential semantics — while ``jobs>1`` shards tasks
    across worker processes, each with its own warm context.  ``fn`` must
    be a module-level callable and the tasks picklable.
    """
    from ..batch import BatchRunner

    runner = BatchRunner(jobs=jobs,
                         context=context if jobs == 1 else None)
    return runner.map(tasks, fn)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (ignores non-positive entries, like the paper's tables)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def improvement(baseline: float, value: float) -> float:
    """Relative gain in percent: positive = better (smaller) than baseline."""
    if baseline <= 0:
        return 0.0
    return (baseline - value) / baseline * 100.0


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned plain-text table (used by benches and examples)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.2f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
