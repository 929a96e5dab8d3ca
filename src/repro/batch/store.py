"""ResultStore — an append-only JSONL record of batch runs.

Every batch invocation appends one ``run`` header line (flow script, suite,
scale, jobs, git revision, run key) followed by one ``result`` line per
circuit (status, cost, structural fingerprint, seconds, worker pid) and a
closing ``end`` line (wall time, failure count).  The file is plain
JSON-lines: greppable, diffable, safe to append to from successive runs,
and it is what resume and the circuit breaker coordinate through:

* **crash-safe appends** — every record is flushed and fsynced as it is
  written, so a run killed mid-suite leaves a readable prefix; the reader
  tolerates (and reports) a truncated final line instead of rejecting the
  whole file (:func:`read_jsonl`, also the reader of event streams);
* **run keys** — :func:`run_key` derives a stable identity from the flow
  script, suite, scale and per-circuit input fingerprints; a restarted run
  under the same key can skip circuits that already have ``ok`` records
  (:meth:`ResultStore.completed`), and the circuit breaker counts and
  records repeated failures per key (:meth:`ResultStore.quarantined`).

:meth:`ResultStore.compare` diffs two runs circuit by circuit and reports
quality regressions, result divergences (fingerprint mismatches at equal
cost) and the wall-time speedup.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["ResultStore", "RunInfo", "Comparison", "StoreWriteError",
           "git_revision", "run_key", "failure_signature", "read_jsonl"]

def git_revision(cwd: Optional[str] = None) -> str:
    """The short git revision of ``cwd`` (or $PWD), or ``"unknown"``."""
    return _git_revision(cwd or os.getcwd())


@lru_cache(maxsize=None)
def _git_revision(cwd: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except Exception:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class StoreWriteError(OSError):
    """A store append that failed (ENOSPC, quota, I/O error) — and was
    rolled back, so the file keeps a clean, resumable prefix.

    Raised instead of the bare ``OSError`` so callers can distinguish "the
    record was not written but the store is intact" from corruption: the
    failed bytes were truncated away, every earlier record survives, and a
    later resume re-runs exactly the circuits whose records were lost.
    """


_DIGIT_RUNS = re.compile(r"\d+")


def failure_signature(status: str, error: str) -> str:
    """A stable identity for one failure mode (12 hex chars).

    The circuit breaker quarantines a circuit only when it keeps failing
    *the same way*, so the signature must survive run-to-run noise: it
    hashes the status plus the first line of the error with digit runs
    normalized to ``#`` (pids, addresses, timings and attempt counters
    change every run; the failure mode does not).
    """
    first_line = (error or "").splitlines()[0] if error else ""
    normalized = _DIGIT_RUNS.sub("#", f"{status}|{first_line}")
    return hashlib.sha256(normalized.encode()).hexdigest()[:12]


def run_key(flow: str, suite: str, scale: str,
            inputs: Sequence[Tuple[str, str]]) -> str:
    """A stable identity for one batch workload (16 hex chars).

    Two invocations share a run key iff they would do the same work: same
    canonical flow script, suite name, scale, and the same per-circuit
    input fingerprints (name → content hash pairs; order-insensitive).
    The key is what resume and the circuit breaker coordinate on.
    """
    payload = json.dumps({"flow": flow, "suite": suite, "scale": scale,
                          "inputs": sorted((str(n), str(f)) for n, f in inputs)},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunInfo:
    """One recorded batch run: the header line plus its result records."""

    run_id: str
    header: dict
    results: Dict[str, dict] = field(default_factory=dict)   # circuit -> record

    @property
    def flow(self) -> str:
        return self.header.get("flow", "")

    @property
    def suite(self) -> str:
        return self.header.get("suite", "")

    @property
    def run_key(self) -> str:
        return self.header.get("run_key", "")

    @property
    def closed(self) -> bool:
        """Whether the run recorded its ``end`` line (False = interrupted
        or still in flight)."""
        return bool(self.header.get("closed"))

    @property
    def wall_seconds(self) -> float:
        return float(self.header.get("wall_seconds", 0.0))

    @property
    def failures(self) -> List[str]:
        return [c for c, r in self.results.items() if r.get("status") != "ok"]


@dataclass
class Comparison:
    """Per-circuit delta report between a run and a baseline run."""

    run: RunInfo
    baseline: RunInfo
    rows: List[dict] = field(default_factory=list)

    @property
    def regressions(self) -> List[dict]:
        """Rows where the run is worse than the baseline (bigger size or
        depth, a new failure, or a structural divergence)."""
        return [r for r in self.rows if r["regressed"]]

    @property
    def divergences(self) -> List[dict]:
        """Rows whose structural fingerprint diverged from the baseline at
        equal cost — the bit-identical check."""
        return [r for r in self.rows if r["diverged"]]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def speedup(self) -> float:
        """Baseline wall time over run wall time (>1 = the run is faster)."""
        if self.run.wall_seconds <= 0:
            return 0.0
        return self.baseline.wall_seconds / self.run.wall_seconds

    def format(self) -> str:
        from ..experiments.common import format_table

        rows = [[r["circuit"], r["status"], r["base_status"],
                 r.get("size", "-"), r.get("d_size", "-"),
                 r.get("depth", "-"), r.get("d_depth", "-"),
                 "DIVERGED" if r["diverged"] else
                 ("REGRESSED" if r["regressed"] else "ok")]
                for r in self.rows]
        table = format_table(
            ["circuit", "status", "base", "size", "Δsize", "depth", "Δdepth", "verdict"],
            rows,
            title=(f"run {self.run.run_id} vs baseline {self.baseline.run_id} "
                   f"(wall {self.run.wall_seconds:.2f}s vs "
                   f"{self.baseline.wall_seconds:.2f}s, "
                   f"speedup {self.speedup:.2f}x)"))
        verdict = ("zero regressions" if self.ok
                   else f"{len(self.regressions)} REGRESSION(S)")
        return f"{table}\n{verdict}"


def _write_all(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd`` completely, or raise.

    ``os.write`` may legitimately write fewer bytes than asked (a disk
    that fills mid-write does exactly this before ENOSPC would surface on
    the *next* call) — loop until done, and treat a zero-byte write as
    ENOSPC rather than spinning.  Module-level so chaos tests can
    monkeypatch a failing disk under the store.
    """
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        if written <= 0:
            raise OSError(errno.ENOSPC,
                          f"short write ({len(data) - len(view)}/{len(data)} "
                          "bytes): no space left on device")
        view = view[written:]


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """All parseable records of a JSON-lines file, tolerating a truncated
    final line (``[]`` when the file does not exist).

    A writer killed mid-append can leave a torn last line; that is
    reported (a warning) and skipped.  Corruption anywhere *else* raises
    :class:`ValueError` — it means the file was damaged, not interrupted.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = [(i, line.strip()) for i, line in
             enumerate(path.read_text().splitlines()) if line.strip()]
    out: List[dict] = []
    for pos, (lineno, line) in enumerate(lines):
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if pos == len(lines) - 1:
                warnings.warn(f"{path}: ignoring truncated final record "
                              f"(line {lineno + 1}): {exc}")
                continue
            raise ValueError(f"{path}: corrupt record at line {lineno + 1}: "
                             f"{exc}") from exc
    return out


class ResultStore:
    """Append-only JSONL store of batch runs (see the module docstring)."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    # -- writing -------------------------------------------------------------

    def _append(self, lines: List[str]) -> None:
        """Durably append record lines: one write, flushed and fsynced, so
        a crash immediately after a circuit completes cannot lose it.

        Disk-safe: a short write or an ``OSError`` mid-append (ENOSPC,
        quota, I/O error) is rolled back by truncating the file to its
        pre-append length, then surfaced as :class:`StoreWriteError`.  The
        *record* fails; the *file* keeps a clean resumable prefix.  (The
        rollback assumes no concurrent appender raced into the torn tail.)
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = "".join(line + "\n" for line in lines).encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            offset = os.lseek(fd, 0, os.SEEK_END)
            try:
                _write_all(fd, data)
                os.fsync(fd)
            except OSError as exc:
                try:
                    os.ftruncate(fd, offset)
                except OSError:
                    pass                # rollback is best-effort
                raise StoreWriteError(
                    f"{self.path}: append failed ({exc}); rolled the file "
                    f"back to a clean prefix at byte {offset}") from exc
        finally:
            os.close(fd)

    def open_run(self, *, flow: str, suite: str = "", scale: str = "",
                 jobs: int = 1, circuits: int = 0, run_key: str = "",
                 meta: Optional[dict] = None) -> str:
        """Start an incremental run: append its header line now, results as
        they arrive (:meth:`append_result`), the ``end`` line on completion
        (:meth:`close_run`).  Returns the new run id.

        This is what makes runs resumable — a run killed mid-suite leaves
        its header and every completed circuit on disk.
        """
        run_id = self._new_run_id()
        header = {
            "kind": "run",
            "run_id": run_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "git_rev": git_revision(),
            "flow": flow,
            "suite": suite,
            "scale": scale,
            "jobs": jobs,
            "circuits": circuits,
        }
        if run_key:
            header["run_key"] = run_key
        if meta:
            header["meta"] = meta
        self._append([json.dumps(header)])
        return run_id

    def append_result(self, run_id: str, record: dict) -> None:
        """Durably append one circuit record to an open run."""
        rec = dict(record)
        rec["kind"] = "result"
        rec["run_id"] = run_id
        self._append([json.dumps(rec)])

    def close_run(self, run_id: str, *, wall_seconds: float = 0.0,
                  failures: int = 0) -> None:
        """Append the ``end`` line of an open run (wall time, failure
        count).  A run without one was interrupted."""
        self._append([json.dumps({
            "kind": "end", "run_id": run_id,
            "wall_seconds": round(wall_seconds, 6), "failures": failures,
        })])

    def record(self, batch, *, suite: str = "", meta: Optional[dict] = None) -> str:
        """Append one completed batch result in one go (header + per-circuit
        lines + end line); returns the new run id.  ``batch`` is a
        :class:`~repro.batch.runner.BatchResult`.
        """
        run_id = self.open_run(
            flow=batch.flow, suite=suite or batch.suite, scale=batch.scale,
            jobs=batch.jobs, circuits=len(batch.outcomes),
            run_key=getattr(batch, "run_key", ""), meta=meta)
        for outcome in batch.outcomes:
            self.append_result(run_id, outcome.to_record())
        self.close_run(run_id, wall_seconds=batch.wall_seconds,
                       failures=len(batch.failures))
        batch.run_id = run_id
        return run_id

    def _new_run_id(self) -> str:
        return time.strftime("r%Y%m%d-%H%M%S") + "-" + os.urandom(3).hex()

    def writable(self) -> bool:
        """Whether an append would succeed right now.

        The ``/readyz`` probe: opens (creating if needed), seeks and
        fsyncs the store file without adding any bytes.  False means the
        next record append would fail — a full disk, a read-only mount, a
        path whose parent stopped being a directory.
        """
        try:
            self._append([])
            return True
        except OSError:
            return False

    # -- serve cache entries (content-addressed results) ---------------------

    def append_cache(self, record: dict) -> None:
        """Durably append one content-addressed cache entry (``kind:
        "cache"``) — the serve daemon's persistence layer.  ``record``
        must carry the ``cache_key``; cache lines coexist with run
        lines in the same JSONL file and are invisible to :meth:`runs`.
        """
        rec = dict(record)
        rec["kind"] = "cache"
        self._append([json.dumps(rec)])

    def cache_records(self) -> List[dict]:
        """All cache entries in file (chronological) order.

        A restarted serve daemon replays these to warm its in-memory
        index; later entries for the same ``cache_key`` win.
        """
        return [rec for rec in read_jsonl(self.path)
                if rec.get("kind") == "cache"]

    # -- quarantine (circuit breaker) ----------------------------------------

    def quarantine(self, run_key: str, circuit: str, *, signature: str,
                   status: str = "", error: str = "", runs: int = 0) -> None:
        """Record a circuit as quarantined under ``run_key``.

        The circuit breaker's trip record: the runner appends one when a
        circuit has failed identically (same :func:`failure_signature`)
        across its threshold of runs.  Resumed runs skip quarantined
        circuits until :meth:`requarantine` clears them.
        """
        self._append([json.dumps({
            "kind": "quarantine", "run_key": run_key, "circuit": circuit,
            "signature": signature, "status": status, "error": error,
            "runs": runs, "time": round(time.time(), 3),
        })])

    def requarantine(self, run_key: str) -> None:
        """Clear every quarantine record under ``run_key`` (append, don't
        erase).

        Appended as a ``requarantine`` line so the breaker's history stays
        auditable — a circuit that trips again after being cleared is
        simply quarantined again by a later line.  The line also restarts
        the breaker's count (:meth:`failure_repeats`).
        """
        self._append([json.dumps({"kind": "requarantine", "run_key": run_key,
                                  "time": round(time.time(), 3)})])

    def quarantined(self, run_key: str) -> Dict[str, dict]:
        """Circuit → its live quarantine record under ``run_key``.

        Replays quarantine/requarantine lines in file order, so the
        latest action per circuit wins.  Circuits cleared by a
        ``requarantine`` line do not appear.
        """
        out: Dict[str, dict] = {}
        for rec in read_jsonl(self.path):
            kind = rec.get("kind")
            if rec.get("run_key") != run_key:
                continue
            if kind == "quarantine":
                out[rec["circuit"]] = rec
            elif kind == "requarantine":
                out.clear()
        return out

    def failure_repeats(self, run_key: str, circuit: str,
                        signature: str) -> int:
        """The circuit breaker's count: runs under ``run_key`` whose latest
        record for ``circuit`` fails with ``signature``, replayed in file
        order since the key's last ``requarantine`` line."""
        runs = set()
        matched: Dict[str, bool] = {}      # run id -> its record matches
        for rec in read_jsonl(self.path):
            kind = rec.get("kind")
            if kind == "run" and rec.get("run_key") == run_key:
                runs.add(rec["run_id"])
            elif kind == "requarantine" and rec.get("run_key") == run_key:
                matched.clear()
            elif (kind == "result" and rec.get("run_id") in runs
                  and rec.get("circuit") == circuit):
                matched[rec["run_id"]] = failure_signature(
                    rec.get("status", ""), rec.get("error", "")) == signature
        return sum(matched.values())

    # -- reading -------------------------------------------------------------

    def runs(self) -> List[RunInfo]:
        """All recorded runs in file (chronological) order."""
        runs: Dict[str, RunInfo] = {}
        order: List[str] = []
        for rec in read_jsonl(self.path):
            kind = rec.get("kind")
            if kind == "run":
                runs[rec["run_id"]] = RunInfo(run_id=rec["run_id"], header=rec)
                order.append(rec["run_id"])
            elif kind == "result":
                run = runs.get(rec.get("run_id"))
                if run is not None:
                    run.results[rec["circuit"]] = rec
            elif kind == "end":
                run = runs.get(rec.get("run_id"))
                if run is not None:
                    run.header["wall_seconds"] = rec.get("wall_seconds", 0.0)
                    run.header["failures"] = rec.get("failures", 0)
                    run.header["closed"] = True
        return [runs[r] for r in order]

    def completed(self, run_key: str) -> Dict[str, dict]:
        """Circuit → latest ``ok`` record among all runs under ``run_key``.

        The resume set: a restarted run skips these circuits and copies
        their records forward (each record keeps its originating
        ``run_id``).
        """
        out: Dict[str, dict] = {}
        for run in self.runs():
            if run.run_key != run_key:
                continue
            for circuit, rec in run.results.items():
                if rec.get("status") == "ok":
                    out[circuit] = rec
        return out

    def find_run(self, run_id: Optional[str] = None, *, flow: Optional[str] = None,
                 suite: Optional[str] = None, exclude: Optional[str] = None) -> RunInfo:
        """Resolve one run: by (prefix of an) id, or the latest run matching
        ``flow`` / ``suite`` filters (``run_id="latest"`` or None = latest).
        ``exclude`` skips one run id — used to diff a fresh run against the
        latest *previous* one.
        """
        runs = self.runs()
        if not runs:
            raise ValueError(f"result store {self.path} holds no runs")
        if run_id and run_id != "latest":
            matches = [r for r in runs if r.run_id == run_id] or \
                      [r for r in runs if r.run_id.startswith(run_id)
                       and r.run_id != exclude]
            if not matches:
                raise ValueError(f"no run {run_id!r} in {self.path}")
            return matches[-1]
        for run in reversed(runs):
            if run.run_id == exclude:
                continue
            if flow is not None and run.flow != flow:
                continue
            if suite is not None and run.suite != suite:
                continue
            return run
        raise ValueError(f"no run matching flow={flow!r} suite={suite!r} "
                         f"in {self.path}")

    # -- regression deltas ---------------------------------------------------

    def compare(self, run: Union[str, RunInfo], baseline: Union[str, RunInfo]) -> Comparison:
        """Diff ``run`` against ``baseline`` circuit by circuit.

        A circuit **regressed** when it fails where the baseline succeeded,
        its size or depth grew, or its structural fingerprint diverged from
        the baseline at equal cost (the bit-identical check).  Circuits only
        present on one side are reported but not counted as regressions.
        """
        if not isinstance(run, RunInfo):
            run = self.find_run(run)
        if not isinstance(baseline, RunInfo):
            baseline = self.find_run(baseline)
        rows: List[dict] = []
        for circuit in baseline.results.keys() | run.results.keys():
            mine = run.results.get(circuit)
            base = baseline.results.get(circuit)
            rows.append(_compare_circuit(circuit, mine, base))
        rows.sort(key=lambda r: r["circuit"])
        return Comparison(run=run, baseline=baseline, rows=rows)


def _compare_circuit(circuit: str, mine: Optional[dict],
                     base: Optional[dict]) -> dict:
    row = {
        "circuit": circuit,
        "status": mine.get("status") if mine else "missing",
        "base_status": base.get("status") if base else "missing",
        "regressed": False,
        "diverged": False,
    }
    if mine is None or base is None:
        return row
    if mine.get("status") != "ok":
        row["regressed"] = base.get("status") == "ok"
        return row
    if base.get("status") != "ok":
        return row            # fixed a baseline failure: an improvement
    size, depth = mine.get("size"), mine.get("depth")
    row.update(size=size, depth=depth,
               d_size=_delta(size, base.get("size")),
               d_depth=_delta(depth, base.get("depth")))
    worse = (_is_worse(size, base.get("size"))
             or _is_worse(depth, base.get("depth")))
    # a fingerprint mismatch only counts as a divergence at equal cost —
    # a genuine improvement necessarily changes the structure
    same_cost = size == base.get("size") and depth == base.get("depth")
    fp_mine, fp_base = mine.get("fingerprint"), base.get("fingerprint")
    row["diverged"] = bool(same_cost and fp_mine and fp_base
                           and fp_mine != fp_base)
    row["regressed"] = worse or row["diverged"]
    return row


def _delta(mine, base):
    if mine is None or base is None:
        return "-"
    d = mine - base
    return d if d else 0


def _is_worse(mine, base) -> bool:
    return mine is not None and base is not None and mine > base
