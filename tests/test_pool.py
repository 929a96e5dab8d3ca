"""The supervised WorkerPool, through every front end that drives it.

``BatchRunner.run``, ``ServePool`` and ``BatchRunner.map`` share one
:class:`~repro.batch.pool.WorkerPool`; the same fault plan must read the
same way through each of them: exactly one ``crashed``, ``timeout`` or
``oom`` outcome per injected failure, stamped with its attempt count and
the pid that ran it, while sibling jobs finish ``ok`` and no worker
process outlives its pool.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.batch import BatchRunner, Fault, FaultPlan, get_suite
from repro.serve import ServePool

_FORK = multiprocessing.get_start_method() == "fork"
pytestmark = pytest.mark.skipif(not _FORK, reason="worker-pool test needs fork")

SUITE = get_suite("epfl-mini").names()
PLAN = FaultPlan({
    "dec": Fault("exit"),                          # crash
    "int2float": Fault("hang", seconds=60.0),      # past the timeout
    "ctrl": Fault("memhog", mb=4096),              # past the memory budget
})
EXPECT = {"dec": "crashed", "int2float": "timeout", "ctrl": "oom",
          "router": "ok", "cavlc": "ok"}
TIMEOUT = 2.0
MEMORY = "512M"


def _via_batch():
    batch = BatchRunner(jobs=2, return_networks=False, timeout=TIMEOUT,
                        memory_limit=MEMORY, faults=PLAN).run(
        SUITE, "b", scale="tiny")
    return batch.outcomes, None


def _via_serve():
    pool = ServePool(2, timeout=TIMEOUT, idle_timeout=0.5,
                     memory_limit=MEMORY)
    outcomes, lock, done = [], threading.Lock(), threading.Event()

    def on_done(outcome):
        with lock:
            outcomes.append(outcome)
            if len(outcomes) == len(SUITE):
                done.set()

    for i, name in enumerate(SUITE):
        pool.submit({"index": i, "name": name, "spec": name, "scale": "tiny",
                     "flow": "b", "attempt": 1, "return_network": False,
                     "faults": PLAN.to_payload()}, on_done=on_done)
    assert done.wait(60)
    return outcomes, pool


@pytest.mark.parametrize("front", [_via_batch, _via_serve],
                         ids=["batch", "serve"])
def test_fault_plan_outcomes(front):
    outcomes, pool = front()
    try:
        by_name = {o.name: o for o in outcomes}
        assert {n: o.status for n, o in by_name.items()} == EXPECT
        for outcome in outcomes:
            assert outcome.attempts == 1
            assert outcome.worker > 0 and outcome.worker != os.getpid()
        assert "died mid-circuit" in by_name["dec"].error
        assert TIMEOUT <= by_name["int2float"].seconds < TIMEOUT + 10
        assert "MemoryError" in by_name["ctrl"].error
        if pool is not None:
            # idle reaping scales the pool to zero workers
            deadline = time.monotonic() + 30
            while pool.stats()["workers"] and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.stats()["workers"] == 0
            assert pool.stats()["reaped"] >= 1
    finally:
        if pool is not None:
            pool.shutdown(drain=False)
    workers = {o.worker for o in outcomes}
    assert not [p for p in multiprocessing.active_children()
                if p.pid in workers]


def _square(task, ctx):
    return task * task


def _fail_on_three(task, ctx):
    if task == 3:
        raise ValueError(f"task {task} refused")
    return task


def _exit_on_two(task, ctx):
    if task == 2:
        os._exit(3)
    return task


class TestMap:
    def test_results_in_task_order(self):
        assert BatchRunner(jobs=2).map(range(9), _square) == \
            [i * i for i in range(9)]

    def test_exception_reraised_in_parent(self):
        with pytest.raises(ValueError, match="task 3 refused"):
            BatchRunner(jobs=2).map(range(6), _fail_on_three)

    def test_worker_crash_raises(self):
        with pytest.raises(RuntimeError, match="crashed"):
            BatchRunner(jobs=2).map(range(4), _exit_on_two)
