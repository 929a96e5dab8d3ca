#!/usr/bin/env python
"""Resource-governance chaos smoke — graceful degradation, as a CI step.

Three episodes, each asserting the exact promised outcome:

1. **Budgets** — a 2-worker run over ``epfl-mini`` with a memory hog, a
   hard crash and a hang injected, under ``memory_limit`` + ``timeout``
   + ``retries``: exactly one ``oom`` (never retried), the crash retried
   to ``ok``, the hang ``timeout``, everything else ``ok``; no worker
   process outlives the run; a clean resume finishes the failures'
   leftovers.
2. **Circuit breaker** — a circuit failing identically across two runs is
   quarantined; the next resumed run skips it (a ``quarantined`` event),
   and ``requarantine`` clears the bench.
3. **Admission control** — a saturated jobs=1 daemon sheds a submission
   with ``429`` + ``Retry-After`` while a cache hit is still served, and
   ``GET /readyz`` flips not-ready → ready as the queue drains; no worker
   process outlives the daemon's pool shutdown.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [workdir]

Exits non-zero (with a diagnostic) on any violated property.
"""

import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.batch import (      # noqa: E402  (path bootstrap above)
    BatchRunner,
    EventLog,
    Fault,
    FaultPlan,
    ResultStore,
    get_suite,
)

SUITE = "epfl-mini"
FLOW = "b; rf"


def fail(msg: str) -> None:
    print(f"CHAOS SMOKE FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def assert_no_workers(after: str) -> None:
    alive = multiprocessing.active_children()
    if alive:
        fail(f"worker processes outlived {after}: {alive}")


def episode_budgets(workdir: Path) -> None:
    print(f"[1/3] memory budget + crash + hang over {SUITE} "
          "(memory_limit=512M, timeout=20s, retries=1) ...")
    store = ResultStore(workdir / "budget.jsonl")
    log = EventLog()
    batch = BatchRunner(
        jobs=2, return_networks=False, memory_limit="512M", timeout=20.0,
        retries=1, events=log,
        faults=FaultPlan({
            "ctrl": Fault("memhog", mb=4096),
            "dec": Fault("exit", times=1),          # crashes once, then ok
            "int2float": Fault("hang", seconds=60.0),
        }),
    ).run(get_suite(SUITE), FLOW, scale="tiny", store=store)

    status = {o.name: o.status for o in batch.outcomes}
    expect = {"ctrl": "oom", "dec": "ok", "int2float": "timeout",
              "router": "ok", "cavlc": "ok"}
    if status != expect:
        fail(f"outcomes {status}, expected {expect}")
    by_name = {o.name: o for o in batch.outcomes}
    if by_name["ctrl"].attempts != 1:
        fail(f"oom was retried ({by_name['ctrl'].attempts} attempts) — "
             "ooms must be final")
    if by_name["dec"].attempts != 2:
        fail(f"crash not retried (attempts={by_name['dec'].attempts})")
    kinds = [e.kind for e in log.events]
    if kinds.count("oom") != 1:
        fail(f"expected exactly one oom event, got {kinds.count('oom')}")
    assert_no_workers("BatchRunner.run")

    # the failures leave a resumable prefix: a clean resume completes them
    resumed = BatchRunner(jobs=2, return_networks=False).run(
        get_suite(SUITE), FLOW, scale="tiny", store=store, resume=True)
    bad = [o.name for o in resumed.outcomes if not o.ok]
    if bad:
        fail(f"resume left failures: {bad}")
    skipped = [o.name for o in resumed.outcomes if o.resumed_from]
    if sorted(skipped) != ["cavlc", "dec", "router"]:
        fail(f"resume skipped {sorted(skipped)}, expected the three "
             "previously-ok circuits")
    print("      one oom (unretried), crash retried to ok, hang timed out, "
          "no surviving workers, clean resume")


def episode_breaker(workdir: Path) -> None:
    print("[2/3] circuit breaker: identical failures across two runs ...")
    store = ResultStore(workdir / "breaker.jsonl")

    def failing_run():
        return BatchRunner(
            return_networks=False,
            faults=FaultPlan({"dec": Fault("raise")}),
        ).run(["ctrl", "dec"], "b", scale="tiny", store=store)

    failing_run()
    key = failing_run().run_key
    if list(store.quarantined(key)) != ["dec"]:
        fail(f"breaker did not trip: quarantined={store.quarantined(key)}")

    log = EventLog()
    resumed = BatchRunner(return_networks=False, events=log).run(
        ["ctrl", "dec"], "b", scale="tiny", store=store, resume=True)
    status = {o.name: o.status for o in resumed.outcomes}
    if status != {"ctrl": "ok", "dec": "quarantined"}:
        fail(f"resumed run outcomes {status}, expected dec quarantined")
    if not any(e.kind == "quarantined" and e.circuit == "dec"
               for e in log.events):
        fail("no quarantined event emitted on the skip")

    cleared = BatchRunner(return_networks=False).run(
        ["ctrl", "dec"], "b", scale="tiny", store=store, resume=True,
        requarantine=True)
    if not all(o.ok for o in cleared.outcomes):
        fail("requarantine did not rerun the benched circuit")
    print("      tripped after 2 identical failures, skipped on resume, "
          "cleared by requarantine")


def episode_admission(workdir: Path) -> None:
    print("[3/3] admission control: jobs=1, max_queued=1 daemon ...")
    from repro.serve import ServeClient, ServeDaemon, ServeError

    with ServeDaemon(port=0, jobs=1, max_queued=1, retry_after=0.5,
                     store=workdir / "serve.jsonl") as daemon:
        client = ServeClient(port=daemon.port, retries=0)
        cached = client.run("adder", flow="b", scale="tiny")
        if not client.readyz()["ready"]:
            fail("fresh daemon not ready")

        hang_ids = []
        for circuit in ("ctrl", "dec"):
            job = client.submit(circuit, flow=FLOW, scale="tiny", timeout=30,
                                faults={circuit: ("hang", 0, 2.0, 13)})
            hang_ids.append(job["id"])
        deadline = time.monotonic() + 10
        while daemon.pool.stats()["queue_depth"] < 1:
            if time.monotonic() > deadline:
                fail("second hang job never queued")
            time.sleep(0.05)

        try:
            client.submit("square", flow=FLOW, scale="tiny")
            fail("saturated daemon accepted a fresh submission")
        except ServeError as exc:
            if exc.status != 429:
                fail(f"expected 429, got {exc.status}: {exc}")
            if exc.retry_after != 0.5:
                fail(f"Retry-After {exc.retry_after}, expected 0.5")

        hit = client.submit("adder", flow="b", scale="tiny")
        if hit["status"] != "done" or not hit["cached"] or \
                hit["record"] != cached:
            fail("cache hit not served while saturated")
        if client.readyz()["ready"]:
            fail("/readyz ready while saturated")

        for job_id in hang_ids:
            client.wait(job_id, timeout=60)
        deadline = time.monotonic() + 10
        while not client.readyz()["ready"]:
            if time.monotonic() > deadline:
                fail("/readyz never recovered after the queue drained")
            time.sleep(0.05)
        retried = ServeClient(port=daemon.port, retries=4, backoff=0.25)
        job = retried.submit("square", flow=FLOW, scale="tiny")
        retried.wait(job["id"], timeout=60)
    assert_no_workers("ServePool.shutdown()")   # the daemon's exit ran it
    print("      429 + Retry-After on saturation, cache hit still served, "
          "readyz flipped not-ready -> ready, no surviving workers")


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="chaos_smoke_"))
    workdir.mkdir(parents=True, exist_ok=True)
    episode_budgets(workdir)
    episode_breaker(workdir)
    episode_admission(workdir)
    print("CHAOS SMOKE PASSED")


if __name__ == "__main__":
    main()
