"""Fault tolerance: timeouts, crashes, retries, resume, events.

The chaos suite for the batch layer — every failure mode the runner
promises to survive is injected (via :mod:`repro.batch.faults`) and the
promised outcome asserted, including the ROADMAP exit criterion: kill a
2-worker run mid-suite, resume it, and get bit-identical results.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import (
    BatchRunner,
    EventLog,
    Fault,
    FaultPlan,
    JsonlEventSink,
    ResultStore,
    TransientFault,
    get_suite,
    read_events,
    run_key,
)
from repro.batch.faults import apply_fault

_FORK = multiprocessing.get_start_method() == "fork"
fork_only = pytest.mark.skipif(not _FORK, reason="process-pool test needs fork")

FLOW = "b"
SUITE = "epfl-mini"


def _run(tmp_path=None, **kw):
    store = ResultStore(tmp_path / "store.jsonl") if tmp_path else None
    resume = kw.pop("resume", False)
    return BatchRunner(**kw).run(get_suite(SUITE), FLOW, scale="tiny",
                                 store=store, resume=resume)


#: the two JSONL readers, each reduced to the circuits of the result
#: records it recovers from a store file
_READERS = {
    "store": lambda path: [c for run in ResultStore(path).runs()
                           for c in run.results],
    "read_events": lambda path: [r["circuit"] for r in read_events(path)
                                 if r.get("kind") == "result"],
}


# ---------------------------------------------------------------------- #
# fault plumbing                                                          #
# ---------------------------------------------------------------------- #

class TestFaultPlan:
    def test_modes_validated(self):
        with pytest.raises(ValueError, match="fault mode"):
            Fault("explode")

    def test_plan_normalizes_strings(self):
        plan = FaultPlan({"a": "raise", "b": Fault("hang", seconds=1.0)})
        assert plan.faults["a"].mode == "raise"
        assert plan.to_payload()["b"][2] == 1.0

    def test_apply_respects_times(self):
        payload = FaultPlan({"c": Fault("raise", times=2)}).to_payload()
        with pytest.raises(TransientFault):
            apply_fault(payload, "c", 1)
        with pytest.raises(TransientFault):
            apply_fault(payload, "c", 2)
        apply_fault(payload, "c", 3)          # past `times`: no fault
        apply_fault(payload, "other", 1)      # unplanned circuit: no fault


# ---------------------------------------------------------------------- #
# crash isolation                                                         #
# ---------------------------------------------------------------------- #

@fork_only
class TestCrashIsolation:
    def test_one_crash_one_casualty(self, tmp_path):
        """A worker dying mid-circuit costs exactly that circuit — wall time
        and pid recorded — and never cascades to pending circuits."""
        log = EventLog()
        batch = _run(tmp_path, jobs=2, faults=FaultPlan({"dec": "exit"}),
                     events=log)
        by = batch.by_name()
        assert by["dec"].status == "crashed"
        assert by["dec"].worker > 0
        assert by["dec"].seconds > 0.0
        assert "died mid-circuit" in by["dec"].error
        others = [o for o in batch.outcomes if o.name != "dec"]
        assert all(o.status == "ok" for o in others)
        assert [e.circuit for e in log.only("crashed")] == ["dec"]
        # the crash is recorded in the store alongside the ok results
        rec = ResultStore(tmp_path / "store.jsonl").runs()[-1].results["dec"]
        assert rec["status"] == "crashed" and rec["seconds"] > 0

    def test_crash_retry_succeeds(self):
        """An exit on attempt 1 only: the replacement worker's retry wins."""
        log = EventLog()
        batch = _run(None, jobs=2, retries=1, backoff=0.05, events=log,
                     faults=FaultPlan({"router": Fault("exit", times=1)}))
        out = batch.by_name()["router"]
        assert out.status == "ok" and out.attempts == 2
        assert [e.circuit for e in log.only("retried")] == ["router"]
        assert not batch.failures

    def test_every_worker_crashing_still_finishes(self):
        """All circuits crash once → the pool replaces every casualty and
        the retried suite completes."""
        plan = FaultPlan({n: Fault("exit", times=1)
                          for n in get_suite(SUITE).names()})
        batch = _run(None, jobs=2, retries=1, backoff=0.01, faults=plan)
        assert not batch.failures
        assert all(o.attempts == 2 for o in batch.outcomes)


# ---------------------------------------------------------------------- #
# timeouts                                                                #
# ---------------------------------------------------------------------- #

@fork_only
class TestTimeouts:
    def test_hung_worker_is_killed(self):
        """A circuit past the hard timeout is killed (status ``timeout``,
        elapsed ≈ the limit) while its siblings complete normally."""
        log = EventLog()
        t0 = time.monotonic()
        batch = _run(None, jobs=2, timeout=1.5, events=log,
                     faults=FaultPlan({"int2float": Fault("hang", seconds=120)}))
        wall = time.monotonic() - t0
        out = batch.by_name()["int2float"]
        assert out.status == "timeout"
        assert 1.4 <= out.seconds < 10
        assert wall < 30                      # the hang did not serialize us
        assert sum(o.status == "ok" for o in batch.outcomes) == 4
        assert [e.circuit for e in log.only("timeout")] == ["int2float"]

    def test_timeouts_are_final(self):
        """Timeouts are not retried — re-running a hang would hang again."""
        log = EventLog()
        batch = _run(None, jobs=2, timeout=1.0, retries=2, events=log,
                     faults=FaultPlan({"ctrl": Fault("hang", seconds=120)}))
        assert batch.by_name()["ctrl"].status == "timeout"
        assert log.only("retried") == []

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            BatchRunner(timeout=0)
        with pytest.raises(ValueError, match="retries"):
            BatchRunner(retries=-1)
        with pytest.raises(ValueError, match="order"):
            BatchRunner(order="random")


# ---------------------------------------------------------------------- #
# retries (sequential + pool)                                             #
# ---------------------------------------------------------------------- #

class TestRetries:
    def test_sequential_transient_retry(self):
        log = EventLog()
        batch = _run(None, jobs=1, retries=2, backoff=0.01, events=log,
                     faults=FaultPlan({"cavlc": Fault("raise", times=1)}))
        out = batch.by_name()["cavlc"]
        assert out.status == "ok" and out.attempts == 2
        assert [e.circuit for e in log.only("retried")] == ["cavlc"]

    def test_retries_exhausted(self):
        """A fault on every attempt burns all retries and stays an error,
        with the attempt count recorded."""
        log = EventLog()
        batch = _run(None, jobs=1, retries=2, backoff=0.01, events=log,
                     faults=FaultPlan({"dec": "raise"}))
        out = batch.by_name()["dec"]
        assert out.status == "error" and out.attempts == 3
        assert "TransientFault" in out.error
        assert len(log.only("retried")) == 2

    @fork_only
    def test_pool_backoff_delays_reattempt(self):
        log = EventLog()
        t0 = time.monotonic()
        batch = _run(None, jobs=2, retries=1, backoff=0.5, events=log,
                     faults=FaultPlan({"ctrl": Fault("raise", times=1)}))
        assert batch.by_name()["ctrl"].status == "ok"
        started = [e for e in log.events
                   if e.kind == "started" and e.circuit == "ctrl"]
        assert len(started) == 2
        assert started[1].at - started[0].at >= 0.4


# ---------------------------------------------------------------------- #
# events                                                                  #
# ---------------------------------------------------------------------- #

class TestEvents:
    def test_lifecycle_pairs(self):
        log = EventLog()
        _run(None, jobs=1, events=log)
        names = get_suite(SUITE).names()
        assert [e.circuit for e in log.only("started")] == names
        assert [e.circuit for e in log.only("finished")] == names
        assert all(e.worker == os.getpid() for e in log.only("started"))

    def test_broken_sink_warns_not_kills(self):
        def sink(event):
            raise RuntimeError("sink down")

        with pytest.warns(UserWarning, match="event sink failed"):
            batch = _run(None, jobs=1, events=sink)
        assert not batch.failures

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path)
        _run(None, jobs=1, events=sink)
        sink.close()
        events = read_events(path)
        assert len(events) == 2 * len(get_suite(SUITE))
        assert {e["kind"] for e in events} == {"started", "finished"}
        # a torn final line (writer killed mid-append) is tolerated
        with path.open("a") as fh:
            fh.write('{"kind": "started", "circ')
        with pytest.warns(UserWarning, match="truncated final record"):
            assert len(read_events(path)) == len(events)


# ---------------------------------------------------------------------- #
# run keys + resume                                                       #
# ---------------------------------------------------------------------- #

class TestRunKeys:
    def test_stable_and_order_insensitive(self):
        inputs = [("a", "f1"), ("b", "f2")]
        assert run_key("b; rf", "s", "tiny", inputs) == \
               run_key("b; rf", "s", "tiny", list(reversed(inputs)))

    def test_sensitive_to_every_component(self):
        base = run_key("b", "s", "tiny", [("a", "f1")])
        assert base != run_key("rf", "s", "tiny", [("a", "f1")])
        assert base != run_key("b", "s2", "tiny", [("a", "f1")])
        assert base != run_key("b", "s", "small", [("a", "f1")])
        assert base != run_key("b", "s", "tiny", [("a", "f2")])

    def test_runs_share_key_across_jobs_and_order(self, tmp_path):
        r1 = _run(tmp_path, jobs=1)
        r2 = _run(tmp_path, jobs=2 if _FORK else 1, order="largest")
        assert r1.run_key and r1.run_key == r2.run_key


class TestResume:
    def test_resume_skips_ok_circuits(self, tmp_path):
        first = _run(tmp_path, jobs=1)
        log = EventLog()
        second = _run(tmp_path, jobs=1, events=log, resume=True)
        assert [o.name for o in second.resumed] == \
               [o.name for o in first.outcomes]
        assert len(log.only("skipped")) == len(first.outcomes)
        assert log.only("started") == []
        assert {o.name: o.fingerprint for o in second.outcomes} == \
               {o.name: o.fingerprint for o in first.outcomes}
        # resumed records point at the originating run
        assert all(o.resumed_from == first.run_id for o in second.outcomes)

    def test_resume_reruns_failures(self, tmp_path):
        """Only ``ok`` records are resumable — errors re-execute."""
        _run(tmp_path, jobs=1, faults=FaultPlan({"dec": "raise"}))
        log = EventLog()
        batch = _run(tmp_path, jobs=1, resume=True, events=log)
        assert not batch.failures
        assert [e.circuit for e in log.only("started")] == ["dec"]
        assert len(log.only("skipped")) == 4

    def test_resume_needs_store(self):
        with pytest.raises(ValueError, match="store"):
            BatchRunner(jobs=1).run(get_suite(SUITE), FLOW, scale="tiny",
                                    resume=True)

    def test_resumed_run_is_self_contained(self, tmp_path):
        """Resumed runs copy records forward, so compare() of the resumed
        run against the original reports zero regressions/divergences."""
        store = ResultStore(tmp_path / "store.jsonl")
        first = _run(tmp_path, jobs=1)
        second = _run(tmp_path, jobs=1, resume=True)
        cmp = store.compare(second.run_id, first.run_id)
        assert cmp.ok and not cmp.divergences


# ---------------------------------------------------------------------- #
# store robustness                                                        #
# ---------------------------------------------------------------------- #

class TestStoreRobustness:
    def test_incremental_run_visible_before_close(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        rid = store.open_run(flow="b", suite="s", scale="tiny", circuits=2,
                             run_key="k")
        store.append_result(rid, {"circuit": "a", "status": "ok",
                                  "fingerprint": "f", "seconds": 1.0})
        run = store.runs()[-1]
        assert not run.closed and list(run.results) == ["a"]
        store.close_run(rid, wall_seconds=2.5, failures=0)
        run = store.runs()[-1]
        assert run.closed and run.wall_seconds == 2.5

    def test_truncated_final_line_tolerated(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        rid = store.open_run(flow="b", run_key="k")
        store.append_result(rid, {"circuit": "a", "status": "ok"})
        with store.path.open("a") as fh:
            fh.write('{"kind": "result", "circ')   # torn mid-append
        for name, read in _READERS.items():
            with pytest.warns(UserWarning, match="truncated final record"):
                assert read(store.path) == ["a"], name

    def test_mid_file_corruption_raises(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.open_run(flow="b")
        with store.path.open("a") as fh:
            fh.write("not json\n")
        store.open_run(flow="b")
        for read in _READERS.values():
            with pytest.raises(ValueError, match="corrupt record at line 2"):
                read(store.path)

    def test_killed_run_leaves_resumable_prefix(self, tmp_path):
        """Simulate a mid-suite death: records appended before the 'kill'
        are durable and resumable; the run reads back as not closed."""
        store = ResultStore(tmp_path / "store.jsonl")
        first = _run(tmp_path, jobs=1)
        # drop the end line and the last two results, as a kill would
        lines = store.path.read_text().splitlines()
        store.path.write_text("\n".join(lines[:-3]) + "\n")
        assert not store.runs()[-1].closed
        log = EventLog()
        second = _run(tmp_path, jobs=1, resume=True, events=log)
        assert len(log.only("skipped")) == len(first.outcomes) - 2
        assert len(log.only("started")) == 2
        assert {o.name: o.fingerprint for o in second.outcomes} == \
               {o.name: o.fingerprint for o in first.outcomes}


# ---------------------------------------------------------------------- #
# ordering                                                                #
# ---------------------------------------------------------------------- #

class TestOrdering:
    def test_largest_first_dispatch(self):
        """order="largest" dispatches by descending size but returns suite
        order — and changes no result."""
        log = EventLog()
        suite = get_suite(SUITE)
        ref = _run(None, jobs=1)
        batch = _run(None, jobs=1, order="largest", events=log)
        assert [o.name for o in batch.outcomes] == suite.names()
        sizes = {e.name: e.build("tiny").num_gates() for e in suite}
        dispatched = [e.circuit for e in log.only("started")]
        assert dispatched == sorted(suite.names(),
                                    key=lambda n: -sizes[n])
        assert {o.name: o.fingerprint for o in batch.outcomes} == \
               {o.name: o.fingerprint for o in ref.outcomes}


# ---------------------------------------------------------------------- #
# the ROADMAP exit criterion: kill a 2-worker run mid-suite and resume    #
# ---------------------------------------------------------------------- #

_KILLED_RUN = """
import sys
from repro.batch import BatchRunner, Fault, FaultPlan, JsonlEventSink, \\
    ResultStore, get_suite

store, events = sys.argv[1], sys.argv[2]
sink = JsonlEventSink(events)
# slow every circuit down a touch so the kill lands mid-suite
runner = BatchRunner(jobs=2, events=sink,
                     faults=FaultPlan({n: Fault("hang", seconds=0.6, times=0)
                                       for n in get_suite("epfl-mini").names()}))
runner.run(get_suite("epfl-mini"), "b", scale="tiny",
           store=ResultStore(store))
"""


@fork_only
class TestKillAndResume:
    def test_sigkill_mid_suite_then_resume_bit_identical(self, tmp_path):
        """Kill a 2-worker batch mid-suite (SIGKILL, no cleanup chance),
        resume over the same store, and verify the union of results is
        bit-identical to an uninterrupted reference run."""
        store_path = tmp_path / "store.jsonl"
        events_path = tmp_path / "events.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") \
            + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_RUN, str(store_path),
             str(events_path)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # wait until at least two circuits finished, then strike
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if events_path.exists() and sum(
                        e["kind"] == "finished"
                        for e in read_events(events_path)) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("killed-run child produced no progress")
            proc.send_signal(signal.SIGKILL)
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)
            # reap the orphaned workers the SIGKILL left behind
            for e in read_events(events_path) if events_path.exists() else []:
                if e.get("worker"):
                    try:
                        os.kill(e["worker"], signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):
                        pass

        store = ResultStore(store_path)
        interrupted = store.runs()[-1]
        assert not interrupted.closed
        done = len([r for r in interrupted.results.values()
                    if r.get("status") == "ok"])
        assert 0 < done < len(get_suite("epfl-mini"))

        # resume over the same store: only the missing circuits run
        log = EventLog()
        resumed = BatchRunner(jobs=2, events=log).run(
            get_suite("epfl-mini"), "b", scale="tiny", store=store,
            resume=True)
        assert not resumed.failures
        assert len(log.only("skipped")) == done

        # an uninterrupted reference run in a SEPARATE store (sharing the
        # store would share the run key and skip everything)
        ref_store = ResultStore(tmp_path / "ref.jsonl")
        ref = BatchRunner(jobs=2).run(get_suite("epfl-mini"), "b",
                                      scale="tiny", store=ref_store)
        assert {o.name: o.fingerprint for o in resumed.outcomes} == \
               {o.name: o.fingerprint for o in ref.outcomes}
        cmp = store.compare(store.find_run(resumed.run_id),
                            ref_store.find_run(ref.run_id))
        assert cmp.ok and not cmp.divergences
