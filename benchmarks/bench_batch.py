"""Micro-benchmark: the batch layer vs sequential ``FlowRunner.run_many``.

The acceptance gate of the batch subsystem: a 2-worker ``BatchRunner`` over
an EPFL sub-suite must produce **bit-identical** per-circuit results to the
sequential ``FlowRunner.run_many`` path (structural fingerprints compared,
not just cost tuples), both runs are recorded into a
:class:`~repro.batch.store.ResultStore`, and
:meth:`~repro.batch.store.ResultStore.compare` must report **zero
regressions** of the parallel run against the sequential baseline.  The
recorded run headers carry both wall times, so the store itself documents
the parallel speedup.

Networks cross the process boundary as plain pickles (see
``docs/batch.md``); the pickled size and ``dumps`` time of the suite
inputs are recorded alongside.  A final leg resumes the parallel run's workload (``resume=True`` over the
same store): every circuit must be skipped via its ``ok`` record under
the shared run key, with fingerprints intact — measuring the fixed cost
of restarting a finished run.

Results go to ``benchmarks/results/BENCH_batch.json`` (plus the JSONL store
at ``benchmarks/results/BENCH_batch_store.jsonl``).  Run standalone
(``python benchmarks/bench_batch.py``) or under pytest.
"""

import json
import pickle
import time

import pytest

from conftest import RESULTS_DIR, SCALE

from repro.batch import BatchRunner, ResultStore, get_suite, state_fingerprint
from repro.circuits import build
from repro.flow import FlowContext, FlowRunner

SUITE = "epfl-mini"
FLOW = "b; rf; gm -k 4; b"
JOBS = 2


def _payload_stats(names, scale: str) -> dict:
    """Serialization cost of shipping the suite inputs as pickles."""
    nets = [build(name, scale) for name in names]
    t0 = time.perf_counter()
    blobs = [pickle.dumps(n) for n in nets]
    t_dumps = time.perf_counter() - t0
    return {
        "circuits": len(nets),
        "pickle_bytes": sum(len(b) for b in blobs),
        "pickle_dumps_seconds": round(t_dumps, 6),
    }


def measure(scale: str = SCALE) -> dict:
    suite = get_suite(SUITE)
    store = ResultStore(RESULTS_DIR / "BENCH_batch_store.jsonl")

    # sequential baseline: the historical run_many path (one shared context),
    # recorded into the store through the batch layer it now rides on
    runner = FlowRunner(FlowContext())
    t0 = time.perf_counter()
    seq = runner.run_many(suite.names(), FLOW, scale=scale, store=store)
    t_seq = time.perf_counter() - t0
    seq_fps = {name: state_fingerprint(res.network) for name, res in seq.items()}
    seq_run = store.find_run("latest")

    # the parallel path: 2 workers, per-worker contexts
    t0 = time.perf_counter()
    batch = BatchRunner(jobs=JOBS).run(suite, FLOW, scale=scale, store=store)
    t_par = time.perf_counter() - t0

    assert not batch.failures, [o.error for o in batch.failures]
    par_fps = {o.name: o.fingerprint for o in batch.outcomes}
    assert par_fps == seq_fps, "parallel batch diverged from sequential run_many"

    cmp = store.compare(batch.run_id, seq_run)
    assert cmp.ok, f"regressions vs sequential baseline: {cmp.regressions}"

    # the resume path: re-running the parallel run's workload must skip
    # every circuit (all ok under the same run key) yet still yield the
    # same fingerprints — the cost of "nothing to do" is the store read
    t0 = time.perf_counter()
    resumed = BatchRunner(jobs=JOBS).run(
        suite, FLOW, scale=scale, store=store, resume=True)
    t_resume = time.perf_counter() - t0
    assert not resumed.failures
    resume_skipped = len(resumed.resumed)
    assert resume_skipped == len(suite), \
        f"resume re-ran circuits: skipped only {resume_skipped}/{len(suite)}"
    assert {o.name: o.fingerprint for o in resumed.outcomes} == seq_fps, \
        "resumed batch diverged from sequential run_many"

    return {
        "suite": SUITE,
        "scale": scale,
        "flow": batch.flow,
        "jobs": JOBS,
        "sequential_run": seq_run.run_id,
        "parallel_run": batch.run_id,
        "sequential_seconds": round(t_seq, 6),
        "parallel_seconds": round(t_par, 6),
        "resume_seconds": round(t_resume, 6),
        "resume_skipped": resume_skipped,
        "speedup": round(t_seq / t_par, 3) if t_par > 0 else 0.0,
        "bit_identical": True,
        "regressions": len(cmp.regressions),
        "payload": _payload_stats(suite.names(), scale),
        "circuits": [
            {"circuit": o.name, "size": o.cost[0], "depth": o.cost[1],
             "seconds": round(o.seconds, 6), "fingerprint": o.fingerprint}
            for o in batch.outcomes
        ],
    }


def write_json(result: dict) -> None:
    path = RESULTS_DIR / "BENCH_batch.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {path}")
    print(json.dumps(result, indent=2))


@pytest.mark.benchmark(group="batch")
def test_bench_batch(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_json(result)
    assert result["bit_identical"] and result["regressions"] == 0


if __name__ == "__main__":
    write_json(measure())
