"""The serve subsystem: cache keys, the pool, the daemon, the client.

Everything network-facing binds ``port=0`` (an ephemeral localhost port)
so the suite never races another process for a port.  The cache-key tests
pin the semantics the daemon's whole value proposition rests on:

* the *same circuit* hits no matter how it was submitted (registry name,
  ``.aag`` round-trip, builder) — keys come from the structural
  fingerprint of the built network, not from the submission form;
* whitespace/alias variants of the *same flow* hit — keys come from the
  canonical ``Flow.parse(s).to_script()`` form;
* any pass-argument change misses.
"""

import json
import multiprocessing
import threading
import time
import warnings

import pytest

from repro.batch import EventLog, event_sink, state_fingerprint
from repro.batch.store import ResultStore
from repro.circuits import load
from repro.flow import resolve_flow
from repro.io import read_aag, write_aag
from repro.serve import (
    ResultCache,
    ServeClient,
    ServeDaemon,
    ServeError,
    ServePool,
    cache_key,
)

_FORK = multiprocessing.get_start_method() == "fork"
fork_only = pytest.mark.skipif(not _FORK, reason="worker-pool test needs fork")

FLOW = "b; rf; b"


def canon(script: str) -> str:
    return resolve_flow(script).to_script()


# ---------------------------------------------------------------------- #
# cache-key semantics                                                     #
# ---------------------------------------------------------------------- #

class TestCacheKey:
    def test_source_independent_fingerprint(self):
        """The same circuit as a registry build and as an ``.aag``
        round-trip shares a structural fingerprint — and hence a key."""
        built = load("adder", "tiny")
        from_file = read_aag(write_aag(built))
        assert state_fingerprint(built) == state_fingerprint(from_file)
        assert (cache_key(state_fingerprint(built), canon(FLOW))
                == cache_key(state_fingerprint(from_file), canon(FLOW)))

    def test_whitespace_variants_share_a_key(self):
        fp = state_fingerprint(load("ctrl", "tiny"))
        variants = ["b; rf; b", "b;rf;b", "  b ;  rf ; b  ", "b ;rf;  b;"]
        keys = {cache_key(fp, canon(v)) for v in variants}
        assert len(keys) == 1

    def test_any_pass_arg_change_misses(self):
        fp = state_fingerprint(load("ctrl", "tiny"))
        keys = {cache_key(fp, canon(s))
                for s in ("b; gm -k 4; b", "b; gm -k 5; b", "b; gm -k 4",
                          "b; rf; b", "b; rf -z; b")}
        assert len(keys) == 5

    def test_different_circuits_miss(self):
        flow = canon(FLOW)
        k1 = cache_key(state_fingerprint(load("ctrl", "tiny")), flow)
        k2 = cache_key(state_fingerprint(load("dec", "tiny")), flow)
        assert k1 != k2

    def test_key_is_stable_hex(self):
        key = cache_key("f" * 16, "b; rf; b")
        assert key == cache_key("f" * 16, "b; rf; b")
        assert len(key) == 16
        int(key, 16)


class TestResultCache:
    def test_memory_roundtrip_and_stats(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"status": "ok"})
        assert cache.get("k") == {"status": "ok"}
        cache.note_hit()
        assert cache.stats() == {"hits": 2, "misses": 1, "entries": 1}

    def test_persistence_warm_restart(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put("k1", {"status": "ok", "depth": 7},
                  fingerprint="abc", flow="b; rf; b")
        reborn = ResultCache(path)
        assert len(reborn) == 1
        assert reborn.get("k1") == {"status": "ok", "depth": 7}
        # the JSONL line is self-describing
        line = json.loads(path.read_text().splitlines()[-1])
        assert line["kind"] == "cache"
        assert line["input"] == "abc" and line["flow"] == "b; rf; b"

    def test_cache_lines_coexist_with_run_records(self, tmp_path):
        """Cache entries share the store file with batch run records
        without confusing either reader."""
        path = tmp_path / "mixed.jsonl"
        store = ResultStore(path)
        cache = ResultCache(store)
        cache.put("k", {"status": "ok"})
        assert store.runs() == []
        assert len(store.cache_records()) == 1
        assert ResultCache(ResultStore(path)).get("k") == {"status": "ok"}


# ---------------------------------------------------------------------- #
# the pool                                                                #
# ---------------------------------------------------------------------- #

def _payload(name="ctrl", flow=FLOW, index=1, **extra):
    spec = load(name, "tiny")
    payload = {"index": index, "name": name, "spec": spec, "scale": "tiny",
               "flow": canon(flow), "attempt": 1, "verify": False,
               "checkpoint": False, "return_network": False,
               "pack_return": False}
    payload.update(extra)
    return payload


class _Collector:
    """Thread-safe outcome/event collector for pool callbacks."""

    def __init__(self, expected: int):
        self.outcomes = []
        self.events = []
        self._done = threading.Event()
        self._expected = expected
        self._lock = threading.Lock()

    def on_done(self, outcome):
        with self._lock:
            self.outcomes.append(outcome)
            if len(self.outcomes) >= self._expected:
                self._done.set()

    def on_event(self, event):
        with self._lock:
            self.events.append(event)

    def wait(self, timeout=60.0) -> bool:
        return self._done.wait(timeout)


@fork_only
class TestServePool:
    def test_executes_and_scales_to_zero(self):
        pool = ServePool(2, idle_timeout=0.3)
        try:
            got = _Collector(2)
            for i, name in enumerate(("ctrl", "dec")):
                pool.submit(_payload(name, index=i),
                            on_done=got.on_done, on_event=got.on_event)
            assert got.wait()
            assert sorted(o.status for o in got.outcomes) == ["ok", "ok"]
            kinds = [e.kind for e in got.events]
            assert kinds.count("started") == 2
            assert kinds.count("finished") == 2
            # idle reaping: the pool sheds every worker, then respawns
            deadline = time.monotonic() + 30
            while pool.stats()["workers"] and time.monotonic() < deadline:
                time.sleep(0.05)
            stats = pool.stats()
            assert stats["workers"] == 0
            assert stats["reaped"] >= 1
            again = _Collector(1)
            pool.submit(_payload("ctrl", index=9), on_done=again.on_done)
            assert again.wait()
            assert again.outcomes[0].status == "ok"
            assert pool.stats()["spawned"] > stats["spawned"]
        finally:
            pool.shutdown(drain=False)

    def test_job_timeout_kills_worker(self):
        pool = ServePool(1, timeout=1.0)
        try:
            got = _Collector(1)
            pool.submit(_payload("ctrl", faults={"ctrl": ("hang", 0, 60, 13)}),
                        on_done=got.on_done, on_event=got.on_event)
            assert got.wait()
            out = got.outcomes[0]
            assert out.status == "timeout"
            assert "timeout" in [e.kind for e in got.events]
            assert pool.stats()["timeouts"] == 1
            # the pool recovered: the next job on a fresh worker is fine
            again = _Collector(1)
            pool.submit(_payload("dec", index=2), on_done=again.on_done)
            assert again.wait()
            assert again.outcomes[0].status == "ok"
        finally:
            pool.shutdown(drain=False)

    def test_crashed_worker_is_isolated(self):
        pool = ServePool(1)
        try:
            got = _Collector(2)
            pool.submit(_payload("ctrl", faults={"ctrl": ("exit", 0, 0, 3)}),
                        on_done=got.on_done)
            pool.submit(_payload("dec", index=2), on_done=got.on_done)
            assert got.wait()
            by_name = {o.name: o for o in got.outcomes}
            assert by_name["ctrl"].status == "crashed"
            assert by_name["dec"].status == "ok"
        finally:
            pool.shutdown(drain=False)

    def test_submit_after_shutdown_raises(self):
        pool = ServePool(1)
        pool.shutdown(drain=False)
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(_payload())

    def test_callback_exceptions_warn_not_kill(self):
        pool = ServePool(1)
        try:
            got = _Collector(1)

            def bad_hook(event):
                raise RuntimeError("boom")

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pool.submit(_payload(), on_event=bad_hook,
                            on_done=got.on_done)
                assert got.wait()
            assert got.outcomes[0].status == "ok"
            assert any("event hook failed" in str(w.message) for w in caught)
        finally:
            pool.shutdown(drain=False)

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            ServePool(0)
        with pytest.raises(ValueError, match="timeout"):
            ServePool(1, timeout=0)


# ---------------------------------------------------------------------- #
# the daemon, end to end                                                  #
# ---------------------------------------------------------------------- #

@pytest.fixture
def daemon(tmp_path):
    d = ServeDaemon(port=0, jobs=2, store=tmp_path / "serve.jsonl")
    d.start()
    yield d
    d.stop()


@pytest.fixture
def client(daemon):
    with ServeClient(port=daemon.port) as c:
        yield c


@fork_only
class TestDaemon:
    def test_cache_hit_is_bit_identical_and_dispatch_free(self, daemon, client):
        """The acceptance invariant: a repeat submission returns the
        byte-identical record and dispatches zero workers."""
        first = client.submit("ctrl", flow="b; rf; b", scale="tiny")
        assert first["status"] in ("queued", "running")
        assert not first["cached"]
        rec1 = client.result(first["id"])
        assert rec1["status"] == "ok"
        dispatched = daemon.pool.stats()["dispatched"]

        # whitespace-different script, same canonical flow -> cache hit
        second = client.submit("ctrl", flow="  b ;rf;   b", scale="tiny")
        assert second["status"] == "done"
        assert second["cached"] and not second["coalesced"]
        assert second["cache_key"] == first["cache_key"]
        rec2 = second["record"]
        assert (json.dumps(rec1, sort_keys=True)
                == json.dumps(rec2, sort_keys=True))
        assert daemon.pool.stats()["dispatched"] == dispatched

    def test_arg_change_misses(self, daemon, client):
        a = client.submit("ctrl", flow="b; gm -k 4; b", scale="tiny")
        client.result(a["id"])
        b = client.submit("ctrl", flow="b; gm -k 5; b", scale="tiny")
        assert not b["cached"]
        assert b["cache_key"] != a["cache_key"]
        client.result(b["id"])
        assert daemon.pool.stats()["dispatched"] == 2

    def test_inline_aag_hits_registry_submission(self, daemon, client):
        """File-form and registry-form of the same circuit share a key."""
        text = write_aag(load("ctrl", "tiny"))
        a = client.submit("ctrl", flow=FLOW, scale="tiny")
        rec1 = client.result(a["id"])
        b = client.submit(aag=text, flow=FLOW, scale="tiny")
        assert b["cached"] and b["status"] == "done"
        assert b["fingerprint"] == a["fingerprint"]
        assert (json.dumps(b["record"], sort_keys=True)
                == json.dumps(rec1, sort_keys=True))

    def test_events_stream(self, daemon, client):
        job = client.submit("ctrl", flow=FLOW, scale="tiny")
        client.result(job["id"])
        kinds = [e["kind"] for e in client.events(job["id"])]
        assert kinds[0] == "started" and kinds[-1] == "finished"
        hit = client.submit("ctrl", flow=FLOW, scale="tiny")
        assert [e["kind"] for e in client.events(hit["id"])] == ["skipped"]

    def test_stats_shape(self, daemon, client):
        job = client.submit("ctrl", flow=FLOW, scale="tiny")
        client.result(job["id"])
        client.submit("ctrl", flow=FLOW, scale="tiny")
        stats = client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["entries"] == 1
        assert stats["jobs"]["total"] == 2
        assert stats["pool"]["dispatched"] == 1
        assert not stats["draining"]

    def test_warm_restart_from_store(self, tmp_path):
        """A restarted daemon serves yesterday's work from the store
        without a single worker dispatch."""
        store = tmp_path / "warm.jsonl"
        with ServeDaemon(port=0, jobs=1, store=store) as d1:
            c1 = ServeClient(port=d1.port)
            job = c1.submit("ctrl", flow=FLOW, scale="tiny")
            rec1 = c1.result(job["id"])
            c1.close()
        with ServeDaemon(port=0, jobs=1, store=store) as d2:
            c2 = ServeClient(port=d2.port)
            hit = c2.submit("ctrl", flow=FLOW, scale="tiny")
            assert hit["status"] == "done" and hit["cached"]
            assert (json.dumps(hit["record"], sort_keys=True)
                    == json.dumps(rec1, sort_keys=True))
            assert d2.pool.stats()["dispatched"] == 0
            c2.close()

    def test_concurrent_duplicates_coalesce(self, daemon, client):
        """Two concurrent submissions of the same work cost one dispatch;
        the follower's record is the primary's, bit for bit."""
        slow = {"ctrl": ("hang", 0, 1.0, 13)}
        first = client.submit("ctrl", flow=FLOW, scale="tiny", faults=slow)
        with ServeClient(port=daemon.port) as other:
            second = other.submit("ctrl", flow=FLOW, scale="tiny")
            assert second["coalesced"] and second["cached"]
            rec2 = other.result(second["id"])
            # serve's own ``claimed`` kind: the follower attached, then
            # resolved with the primary
            assert [e["kind"] for e in other.events(second["id"])] \
                == ["claimed", "finished"]
        rec1 = client.result(first["id"])
        assert (json.dumps(rec1, sort_keys=True)
                == json.dumps(rec2, sort_keys=True))
        assert daemon.pool.stats()["dispatched"] == 1

    def test_job_timeout_via_api(self, daemon, client):
        job = client.submit("ctrl", flow=FLOW, scale="tiny", timeout=1.0,
                            faults={"ctrl": ("hang", 0, 60, 13)})
        done = client.wait(job["id"])
        assert done["status"] == "timeout"
        with pytest.raises(ServeError, match="timeout"):
            client.result(job["id"])
        # timeouts are not cached: the next submission recomputes
        retry = client.submit("ctrl", flow=FLOW, scale="tiny")
        assert not retry["cached"]
        assert client.result(retry["id"])["status"] == "ok"

    def test_graceful_shutdown_drains_and_store_readable(self, tmp_path):
        store = tmp_path / "drain.jsonl"
        with ServeDaemon(port=0, jobs=1, store=store) as d:
            c = ServeClient(port=d.port)
            job = c.submit("ctrl", flow=FLOW, scale="tiny",
                           faults={"ctrl": ("hang", 0, 0.5, 13)})
            c.shutdown(drain=True)
            assert d.wait(60)
        # the in-flight job finished and its record reached the store
        cache = ResultCache(store)
        assert len(cache) == 1
        with ServeClient(port=0):
            pass

    def test_submissions_rejected_while_draining(self, daemon, client):
        client.submit("ctrl", flow=FLOW, scale="tiny",
                      faults={"ctrl": ("hang", 0, 0.8, 13)})
        client.shutdown(drain=True)
        with ServeClient(port=daemon.port) as other:
            with pytest.raises(ServeError) as err:
                other.submit("dec", flow=FLOW, scale="tiny")
            assert err.value.status == 503

    def test_http_errors(self, daemon, client):
        for kwargs, match in [
            (dict(flow=""), "flow"),                        # no flow
            (dict(flow="b; zzz; b"), "flow"),               # bad flow
            (dict(circuit="no-such", flow=FLOW), "circuit"),  # bad circuit
        ]:
            with pytest.raises(ServeError) as err:
                client.submit(kwargs.pop("circuit", ""), **kwargs)
            assert err.value.status == 400
            assert match in str(err.value)
        with pytest.raises(ServeError) as err:
            client.status("j999999")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("PUT", "/stats")
        assert err.value.status == 405

    def test_info_routes(self, daemon, client):
        info = client.info()
        assert info["service"] == "repro-serve"
        assert "POST /jobs" in info["routes"]
        assert "POST /shutdown" in info["routes"]


# ---------------------------------------------------------------------- #
# the shared event-sink helper                                            #
# ---------------------------------------------------------------------- #

class TestEventSink:
    def test_none_for_no_path(self):
        assert event_sink(None) is None
        assert event_sink("") is None

    def test_constructs_jsonl_sink(self, tmp_path):
        from repro.batch import JsonlEventSink, RunEvent, read_events

        sink = event_sink(tmp_path / "ev.jsonl")
        assert isinstance(sink, JsonlEventSink)
        sink(RunEvent(kind="started", circuit="ctrl", index=0))
        sink.close()
        assert [e["kind"] for e in read_events(tmp_path / "ev.jsonl")] \
            == ["started"]

    def test_broken_path_warns_once_then_stays_silent(self, tmp_path):
        """A sink whose path cannot be written disables itself after ONE
        warning — progress telemetry must never spam or kill a run."""
        from repro.batch import RunEvent

        target = tmp_path / "not-a-dir"
        target.write_text("file, not directory")
        sink = event_sink(target / "ev.jsonl")     # parent is a file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(5):
                sink(RunEvent(kind="started", circuit="ctrl", index=i))
        mine = [w for w in caught if "event sink" in str(w.message)]
        assert len(mine) == 1
        assert "disabled" in str(mine[0].message)
