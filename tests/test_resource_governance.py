"""Resource governance: memory budgets, admission control, the circuit
breaker, health probes, and disk-safe stores.

The graceful-degradation contract, asserted end to end:

* a worker past its ``memory_limit`` ends that circuit ``oom`` — final,
  never retried, the rest of the suite unharmed — whether the budget is
  enforced in-worker (``RLIMIT_AS``) or by the supervisor's RSS poll;
* a saturated daemon sheds submissions with ``429`` + ``Retry-After``
  while cache hits keep being served, and ``/readyz`` flips not-ready →
  ready as the queue drains;
* a circuit failing *identically* across runs is quarantined in the
  store and skipped by resumed runs until ``requarantine`` clears it;
* a store append that hits ENOSPC fails the *record*, not the file — a
  clean resumable prefix survives, including when the final line is
  truncated at any byte offset.
"""

import errno
import json
import multiprocessing
import os
import random
import time
import warnings
from pathlib import Path

import pytest

from repro.batch import (
    BatchRunner,
    Fault,
    FaultPlan,
    JsonlEventSink,
    ResultStore,
    StoreWriteError,
    failure_signature,
    get_suite,
    jittered_backoff,
    parse_memory_limit,
    read_events,
)
from repro.batch.events import EVENT_KINDS
from repro.batch.faults import FAULT_MODES, apply_fault

_FORK = multiprocessing.get_start_method() == "fork"
fork_only = pytest.mark.skipif(not _FORK, reason="process-pool test needs fork")


# ---------------------------------------------------------------------- #
# jittered backoff (S1)                                                   #
# ---------------------------------------------------------------------- #

class TestJitteredBackoff:
    def test_nominal_is_a_lower_bound(self):
        """Jitter is additive above the exponential schedule — the nominal
        delay is a floor, never undercut (retry pacing tests rely on it)."""
        for attempt in (1, 2, 3, 5):
            nominal = min(60.0, 0.5 * 2 ** (attempt - 1))
            for _ in range(50):
                d = jittered_backoff(0.5, attempt)
                assert nominal <= d <= nominal * 1.5

    def test_cap_bounds_the_nominal(self):
        assert jittered_backoff(10.0, 30, cap=2.0) <= 3.0

    def test_injectable_rng_is_deterministic(self):
        a = jittered_backoff(0.5, 2, rng=random.Random(7).random)
        b = jittered_backoff(0.5, 2, rng=random.Random(7).random)
        assert a == b

    def test_spreads_lockstep_retries(self):
        draws = {jittered_backoff(0.5, 1) for _ in range(20)}
        assert len(draws) > 1

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt"):
            jittered_backoff(0.5, 0)


# ---------------------------------------------------------------------- #
# memory-limit parsing                                                    #
# ---------------------------------------------------------------------- #

class TestParseMemoryLimit:
    def test_none_passes_through(self):
        assert parse_memory_limit(None) is None

    def test_plain_bytes(self):
        assert parse_memory_limit(1 << 30) == 1 << 30
        assert parse_memory_limit("1048576") == 1 << 20

    @pytest.mark.parametrize("text,expect", [
        ("512M", 512 * 1024 * 1024),
        ("512mb", 512 * 1024 * 1024),
        ("2G", 2 * 1024 ** 3),
        ("1.5g", int(1.5 * 1024 ** 3)),
        ("64k", 64 * 1024),
        (" 1 GB ", 1024 ** 3),
    ])
    def test_suffixes(self, text, expect):
        assert parse_memory_limit(text) == expect

    @pytest.mark.parametrize("bad", ["", "lots", "-512M", "0", "512Q"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="memory limit"):
            parse_memory_limit(bad)


# ---------------------------------------------------------------------- #
# resource-fault plumbing                                                 #
# ---------------------------------------------------------------------- #

class TestResourceFaults:
    def test_modes_registered(self):
        for mode in ("memhog", "enospc", "slowleak"):
            assert mode in FAULT_MODES

    def test_payload_round_trips_mb(self):
        plan = FaultPlan({"a": Fault("memhog", mb=2048)})
        payload = plan.to_payload()
        assert payload["a"][0] == "memhog"
        assert payload["a"][4] == 2048

    def test_legacy_four_tuples_still_apply(self):
        """Pre-governance payloads were 4-tuples — they must keep working
        (the serve API accepts raw tuples from old clients)."""
        apply_fault({"a": ("raise", 1, 0.0, 13)}, "a", 2)   # attempt 2 > times

    def test_enospc_raises_oserror_enospc(self):
        with pytest.raises(OSError) as info:
            apply_fault(FaultPlan({"a": Fault("enospc")}).to_payload(),
                        "a", 1)
        assert info.value.errno == errno.ENOSPC


# ---------------------------------------------------------------------- #
# failure signatures (circuit-breaker identity)                           #
# ---------------------------------------------------------------------- #

class TestFailureSignature:
    def test_digit_runs_normalized(self):
        """Pids, addresses and timings change every run; the failure mode
        does not — digits must not break identity."""
        a = failure_signature("crashed", "worker pid 4411 died (signal 9)")
        b = failure_signature("crashed", "worker pid 9021 died (signal 11)")
        assert a == b

    def test_first_line_only(self):
        a = failure_signature("error", "ValueError: bad\n  at frame 1")
        b = failure_signature("error", "ValueError: bad\n  at frame 2\nmore")
        assert a == b

    def test_status_distinguishes(self):
        assert (failure_signature("error", "boom")
                != failure_signature("timeout", "boom"))


# ---------------------------------------------------------------------- #
# memory budgets in the batch pool (tentpole 1)                           #
# ---------------------------------------------------------------------- #

@fork_only
class TestMemoryBudgets:
    def test_memhog_ends_oom_others_survive(self, tmp_path):
        """One circuit hogs past the budget: exactly that circuit ends
        ``oom`` (not retried, despite retries > 0); the rest stay ok."""
        log = []
        batch = BatchRunner(
            jobs=2, return_networks=False, memory_limit="512M", retries=1,
            events=log.append,
            faults=FaultPlan({"ctrl": Fault("memhog", mb=4096)}),
        ).run(get_suite("epfl-mini"), "b", scale="tiny")
        by_name = {o.name: o for o in batch.outcomes}
        assert by_name["ctrl"].status == "oom"
        assert by_name["ctrl"].attempts == 1          # final, never retried
        assert "MemoryError" in by_name["ctrl"].error
        assert all(o.ok for n, o in by_name.items() if n != "ctrl")
        kinds = [e.kind for e in log]
        assert kinds.count("oom") == 1
        assert "retried" not in kinds

    def test_rss_poll_backstop(self, monkeypatch):
        """With in-worker rlimits unavailable, the supervisor's RSS poll
        still enforces the budget (fork start method: the monkeypatched
        no-op is inherited by the child)."""
        import repro.batch.pool as pool_mod

        monkeypatch.setattr(pool_mod, "_apply_memory_limit",
                            lambda limit: False)
        log = []
        batch = BatchRunner(
            jobs=2, return_networks=False, memory_limit="256M",
            events=log.append,
            faults=FaultPlan({"ctrl": Fault("slowleak", mb=1024,
                                            seconds=30.0)}),
        ).run(["ctrl", "dec"], "b", scale="tiny")
        by_name = {o.name: o for o in batch.outcomes}
        assert by_name["ctrl"].status == "oom"
        assert "memory budget" in by_name["ctrl"].error
        assert by_name["dec"].ok
        oom = [e for e in log if e.kind == "oom"]
        assert oom and "RSS poll" in oom[0].detail

    def test_oom_counts_as_failure_not_quarantined(self):
        batch = BatchRunner(
            jobs=2, return_networks=False, memory_limit="512M",
            faults=FaultPlan({"ctrl": Fault("memhog", mb=4096)}),
        ).run(["ctrl", "dec"], "b", scale="tiny")
        assert [o.name for o in batch.failures] == ["ctrl"]
        assert batch.quarantined == []


# ---------------------------------------------------------------------- #
# the circuit breaker (tentpole 3)                                        #
# ---------------------------------------------------------------------- #

class TestCircuitBreaker:
    def _failing_run(self, store, **kw):
        return BatchRunner(
            return_networks=False,
            faults=FaultPlan({"dec": Fault("raise")}), **kw,
        ).run(["ctrl", "dec"], "b", scale="tiny", store=store)

    def test_identical_failures_trip_the_breaker(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        self._failing_run(store)
        key = self._failing_run(store).run_key
        assert list(store.quarantined(key)) == ["dec"]
        assert "ctrl" not in store.quarantined(key)

    def test_one_failure_does_not_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        key = self._failing_run(store).run_key
        assert store.quarantined(key) == {}

    def test_different_failures_do_not_trip(self, tmp_path):
        """The breaker needs the *same* signature — an error run followed
        by a timeout run is flakiness, not a deterministic failure."""
        store = ResultStore(tmp_path / "store.jsonl")
        self._failing_run(store)
        key = BatchRunner(
            return_networks=False,
            faults=FaultPlan({"dec": Fault("enospc")}),   # different error
        ).run(["ctrl", "dec"], "b", scale="tiny", store=store).run_key
        assert store.quarantined(key) == {}

    def test_resumed_run_skips_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        self._failing_run(store)
        self._failing_run(store)
        log = []
        batch = BatchRunner(return_networks=False, events=log.append).run(
            ["ctrl", "dec"], "b", scale="tiny", store=store, resume=True)
        by_name = {o.name: o for o in batch.outcomes}
        assert by_name["dec"].status == "quarantined"
        assert "quarantined" in by_name["dec"].error
        assert by_name["ctrl"].status == "ok"
        assert any(e.kind == "quarantined" and e.circuit == "dec"
                   for e in log)
        # quarantined is a skip, not a failure — exit codes stay honest
        assert by_name["dec"] not in batch.failures
        assert [o.name for o in batch.quarantined] == ["dec"]

    def test_requarantine_clears_and_reruns(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        self._failing_run(store)
        self._failing_run(store)
        batch = BatchRunner(return_networks=False).run(
            ["ctrl", "dec"], "b", scale="tiny", store=store, resume=True,
            requarantine=True)
        assert all(o.ok for o in batch.outcomes)
        assert store.quarantined(batch.run_key) == {}

    def test_requarantine_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            BatchRunner(return_networks=False).run(
                ["ctrl"], "b", scale="tiny", requarantine=True)

    def test_store_records_quarantined_status(self, tmp_path):
        """The skip is recorded (status ``quarantined``) so a later
        ``completed()`` never mistakes it for ok."""
        store = ResultStore(tmp_path / "store.jsonl")
        self._failing_run(store)
        self._failing_run(store)
        batch = BatchRunner(return_networks=False).run(
            ["ctrl", "dec"], "b", scale="tiny", store=store, resume=True)
        rec = store.runs()[-1].results["dec"]
        assert rec["status"] == "quarantined"
        assert "dec" not in store.completed(batch.run_key)

    def test_breaker_disabled_at_zero(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        self._failing_run(store, quarantine_after=0)
        key = self._failing_run(store, quarantine_after=0).run_key
        assert store.quarantined(key) == {}


# ---------------------------------------------------------------------- #
# disk safety (tentpole 5)                                                #
# ---------------------------------------------------------------------- #

class TestDiskSafety:
    def _store_with_run(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        run_id = store.open_run(flow="b", suite="s", scale="tiny",
                                run_key="k" * 16)
        store.append_result(run_id, {"circuit": "a", "status": "ok"})
        return store, run_id

    def test_enospc_append_raises_and_rolls_back(self, tmp_path, monkeypatch):
        import repro.batch.store as store_mod

        store, run_id = self._store_with_run(tmp_path)
        before = store.path.read_bytes()

        def no_space(fd, data):
            os.write(fd, data[: len(data) // 2])      # torn half-record
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(store_mod, "_write_all", no_space)
        with pytest.raises(StoreWriteError, match="clean prefix"):
            store.append_result(run_id, {"circuit": "b", "status": "ok"})
        assert store.path.read_bytes() == before       # rolled back
        monkeypatch.undo()
        assert store.runs()[-1].results.keys() == {"a"}

    def test_short_write_is_enospc(self, tmp_path, monkeypatch):
        """A zero-byte ``os.write`` (disk full mid-append) must surface as
        ENOSPC, not spin forever."""
        import repro.batch.store as store_mod

        store, run_id = self._store_with_run(tmp_path)
        real_write = os.write
        budget = [10]

        def tiny_disk(fd, data):
            take = min(budget[0], len(data))
            budget[0] -= take
            return real_write(fd, data[:take]) if take else 0

        monkeypatch.setattr(os, "write", tiny_disk)
        try:
            with pytest.raises(OSError, match="no space") as info:
                store_mod._write_all(
                    os.open(store.path, os.O_WRONLY | os.O_APPEND),
                    b"x" * 64)
        finally:
            monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC

    def test_runner_survives_store_failure(self, tmp_path, monkeypatch):
        """A run whose store goes read-only mid-suite still finishes and
        returns outcomes — degraded (a warning), not dead."""
        import repro.batch.store as store_mod

        store = ResultStore(tmp_path / "store.jsonl")
        runner = BatchRunner(return_networks=False)
        real_append = store_mod._write_all
        calls = [0]

        def flaky(fd, data):
            calls[0] += 1
            if calls[0] > 1:                          # header lands, rest fail
                raise OSError(errno.ENOSPC, "no space left on device")
            return real_append(fd, data)

        monkeypatch.setattr(store_mod, "_write_all", flaky)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = runner.run(["ctrl"], "b", scale="tiny", store=store)
        assert all(o.ok for o in batch.outcomes)
        assert any("append failed" in str(w.message) for w in caught)

    def test_writable_probe(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.writable()
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert not ResultStore(blocker / "store.jsonl").writable()

    def test_writable_adds_no_bytes(self, tmp_path):
        store, _ = self._store_with_run(tmp_path)
        before = store.path.read_bytes()
        assert store.writable()
        assert store.path.read_bytes() == before


class TestTruncationProperty:
    """S3: truncate the store at *every* byte offset of the final record —
    the reader must always warn-and-keep-the-prefix, never raise, and
    never conjure a phantom record from a torn line."""

    def test_every_truncation_offset(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        run_id = store.open_run(flow="b", suite="s", scale="tiny",
                                run_key="k" * 16)
        store.append_result(run_id, {"circuit": "a", "status": "ok"})
        store.append_result(run_id, {"circuit": "b", "status": "ok"})
        full = path.read_bytes()
        final = json.dumps({"kind": "result", "run_id": run_id,
                            "circuit": "c", "status": "ok"}).encode() + b"\n"
        base = len(full)
        for cut in range(len(final) + 1):
            path.write_bytes(full + final[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                runs = ResultStore(path).runs()       # must never raise
            results = runs[-1].results
            assert {"a", "b"} <= results.keys()
            # the JSON document is complete once every byte but the
            # trailing newline landed; any shorter cut is a torn line
            # that must never surface as circuit c's completed record
            if cut >= len(final) - 1:
                assert results["c"]["status"] == "ok"
            else:
                assert "c" not in results
        # torn-line truncation warns (the crash-site breadcrumb)
        path.write_bytes(full + final[: len(final) - 2])
        with pytest.warns(UserWarning, match="truncated final record"):
            ResultStore(path).runs()


# ---------------------------------------------------------------------- #
# event-sink re-arming (S2)                                               #
# ---------------------------------------------------------------------- #

class TestSinkRearm:
    def _event(self):
        from repro.batch.events import RunEvent

        return RunEvent(kind="started", circuit="a", index=0)

    def test_rearm_recovers_and_reports_drops(self, tmp_path):
        blocker = tmp_path / "dir"
        blocker.write_text("")                        # parent is a file
        sink = JsonlEventSink(blocker / "events.jsonl")
        with pytest.warns(UserWarning, match="disabled after write"):
            sink(self._event())
        sink(self._event())                           # silent, counted
        assert sink.dropped == 2
        blocker.unlink()
        blocker.mkdir()                               # path is now valid
        sink.rearm()
        sink(self._event())
        sink.close()
        events = read_events(blocker / "events.jsonl")
        assert [e["kind"] for e in events] == ["sink_disabled", "started"]
        assert "2 event(s) were dropped" in events[0]["detail"]
        assert sink.dropped == 0

    def test_rearm_on_healthy_sink_is_a_noop(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "events.jsonl")
        sink(self._event())
        sink.rearm()
        sink(self._event())
        sink.close()
        kinds = [e["kind"] for e in read_events(tmp_path / "events.jsonl")]
        assert kinds == ["started", "started"]

    def test_runner_rearms_per_run(self, tmp_path):
        """Each ``run()`` retries a sink broken in the previous run —
        warn-once is per run, not forever."""
        blocker = tmp_path / "dir"
        blocker.write_text("")
        sink = JsonlEventSink(blocker / "events.jsonl")
        runner = BatchRunner(return_networks=False, events=sink)
        with pytest.warns(UserWarning, match="disabled after write"):
            runner.run(["ctrl"], "b", scale="tiny")
        blocker.unlink()
        blocker.mkdir()
        runner.run(["ctrl"], "b", scale="tiny")
        sink.close()
        kinds = [e["kind"] for e in read_events(blocker / "events.jsonl")]
        assert kinds[0] == "sink_disabled"
        assert "started" in kinds and "finished" in kinds

    def test_new_event_kinds_registered(self):
        for kind in ("oom", "quarantined", "sink_disabled"):
            assert kind in EVENT_KINDS


# ---------------------------------------------------------------------- #
# admission control + probes in the daemon (tentpoles 2 and 4)            #
# ---------------------------------------------------------------------- #

@fork_only
class TestServeGovernance:
    def _saturate(self, client, hang=1.5):
        """Fill a jobs=1, max_queued=1 daemon: one hanging job running,
        one queued.  Returns the two job ids."""
        ids = []
        for circuit in ("ctrl", "dec"):
            job = client.submit(circuit, flow="b; rf", scale="tiny",
                                timeout=30,
                                faults={circuit: ("hang", 0, hang, 13)})
            ids.append(job["id"])
        return ids

    def _wait_queued(self, daemon):
        for _ in range(100):
            if daemon.pool.stats()["queue_depth"] >= 1:
                return
            time.sleep(0.05)
        raise AssertionError("second job never queued")

    def test_saturation_sheds_with_retry_after(self, tmp_path):
        from repro.serve import ServeClient, ServeDaemon, ServeError

        with ServeDaemon(port=0, jobs=1, max_queued=1, retry_after=0.25,
                         store=tmp_path / "serve.jsonl") as daemon:
            client = ServeClient(port=daemon.port, retries=0)
            cached = client.run("adder", flow="b", scale="tiny")
            ids = self._saturate(client)
            self._wait_queued(daemon)
            with pytest.raises(ServeError) as info:
                client.submit("square", flow="b; rf", scale="tiny")
            assert info.value.status == 429
            assert info.value.retry_after == 0.25
            assert "saturated" in str(info.value)
            # cache hits and coalesced duplicates are always served
            hit = client.submit("adder", flow="b", scale="tiny")
            assert hit["status"] == "done" and hit["cached"]
            assert hit["record"] == cached
            dup = client.submit("ctrl", flow="b; rf", scale="tiny",
                                timeout=30,
                                faults={"ctrl": ("hang", 0, 1.5, 13)})
            assert dup["coalesced"]                   # attached, not shed
            assert daemon.stats()["shed"] == 1
            for job_id in ids:
                client.wait(job_id)
            # drained: admission reopens
            job = client.submit("square", flow="b; rf", scale="tiny")
            assert job["status"] in ("queued", "running", "done")

    def test_readyz_flips_with_queue_depth(self, tmp_path):
        from repro.serve import ServeClient, ServeDaemon

        with ServeDaemon(port=0, jobs=1, max_queued=1, retry_after=0.25,
                         store=tmp_path / "serve.jsonl") as daemon:
            client = ServeClient(port=daemon.port, retries=0)
            assert client.healthz()["ok"]
            assert client.readyz()["ready"]
            ids = self._saturate(client)
            self._wait_queued(daemon)
            ready = client.readyz()
            assert not ready["ready"]
            assert not ready["checks"]["queue_headroom"]
            assert ready["checks"]["store_writable"]
            for job_id in ids:
                client.wait(job_id)
            assert client.readyz()["ready"]

    def test_readyz_reports_unwritable_store(self, tmp_path):
        from repro.serve import ServeDaemon

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with ServeDaemon(port=0, jobs=1,
                         store=blocker / "serve.jsonl") as daemon:
            ready = daemon.readiness()
            assert not ready["ready"]
            assert not ready["checks"]["store_writable"]

    def test_oom_job_is_terminal_and_uncached(self, tmp_path):
        from repro.serve import ServeClient, ServeDaemon

        with ServeDaemon(port=0, jobs=1, memory_limit="512M",
                         store=tmp_path / "serve.jsonl") as daemon:
            client = ServeClient(port=daemon.port, retries=0)
            job = client.submit("ctrl", flow="b; rf", scale="tiny",
                                faults={"ctrl": ("memhog", 0, 0, 13, 4096)})
            done = client.wait(job["id"], timeout=60)
            assert done["status"] == "oom"
            assert "MemoryError" in done["error"]
            assert daemon.pool.stats()["ooms"] == 1
            again = client.submit("ctrl", flow="b; rf", scale="tiny",
                                  faults={"ctrl": ("memhog", 0, 0, 13, 4096)})
            assert not again.get("cached", False)     # failures never cached
            client.wait(again["id"], timeout=60)


class TestClientBackoff:
    def test_submit_retries_through_429(self, monkeypatch):
        """The client resubmits after a 429, sleeping at least the
        daemon's Retry-After (jittered backoff on top)."""
        from repro.serve import ServeClient, ServeError

        client = ServeClient(port=1, retries=3, backoff=0.2)
        attempts = []

        def fake_request(method, path, body=None, **kw):
            attempts.append(path)
            if len(attempts) < 3:
                raise ServeError("saturated", status=429, retry_after=0.7)
            return {"id": "j1", "status": "queued"}

        slept = []
        monkeypatch.setattr(client, "_request", fake_request)
        monkeypatch.setattr(time, "sleep", slept.append)
        job = client.submit("adder", flow="b")
        assert job["id"] == "j1"
        assert len(attempts) == 3
        assert len(slept) == 2
        assert all(delay >= 0.7 for delay in slept)   # Retry-After is a floor

    def test_retries_zero_surfaces_the_429(self, monkeypatch):
        from repro.serve import ServeClient, ServeError

        client = ServeClient(port=1, retries=0)

        def always_shed(method, path, body=None, **kw):
            raise ServeError("saturated", status=429, retry_after=1.0)

        monkeypatch.setattr(client, "_request", always_shed)
        with pytest.raises(ServeError) as info:
            client.submit("adder", flow="b")
        assert info.value.status == 429

    def test_non_429_errors_are_not_retried(self, monkeypatch):
        from repro.serve import ServeClient, ServeError

        client = ServeClient(port=1, retries=5)
        calls = []

        def bad_request(method, path, body=None, **kw):
            calls.append(path)
            raise ServeError("nope", status=400)

        monkeypatch.setattr(client, "_request", bad_request)
        with pytest.raises(ServeError):
            client.submit("adder", flow="b")
        assert len(calls) == 1


class TestGovernanceValidation:
    def test_daemon_rejects_bad_knobs(self):
        from repro.serve import ServeDaemon

        with pytest.raises(ValueError, match="max_queued"):
            ServeDaemon(port=0, max_queued=-1)
        with pytest.raises(ValueError, match="retry_after"):
            ServeDaemon(port=0, retry_after=0)

    def test_runner_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="memory limit"):
            BatchRunner(memory_limit="a lot")
        with pytest.raises(ValueError, match="quarantine_after"):
            BatchRunner(quarantine_after=-1)
