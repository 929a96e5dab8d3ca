"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload asic_mch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a readable summary goes
to standard error, and the full run record (per-circuit detail rows,
generator parameters, set-up samples, and for traced runs the span table)
to ``perfbench/results/``.

``--trace 0`` measures the end-to-end metrics: passes over the workload's
flows repeat while the next one still fits in ``--seconds`` (at least one
runs), and ``flow_s`` is their median.  ``--trace 1`` runs one pass with
every layer's public entry points wrapped in spans, then one untraced pass
for ``trace.overhead``, and reports the per-layer metrics.

Every flow output is checked against the benchmark's own evaluation of the
input network (``perfbench/check.py``); a flow that raised, timed out or
failed the check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
#: set-ups per untraced run: this process plus fresh subprocesses
SETUP_SAMPLES = 3

sys.path.insert(0, str(ROOT))

from perfbench.check import check  # noqa: E402
from perfbench.layers import (STATS_SOURCES, TARGETS, TraceRun,  # noqa: E402
                              layer_values)
from perfbench.spans import Patch, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, qor  # noqa: E402


def setup(workload, seed):
    """Import the program, build the inputs, load the cell library.

    Returns ``(seconds, references, record)``: the networks the output
    check compares against (one per circuit), and the inputs' run record.
    """
    t0 = time.perf_counter()
    import repro

    inputs = workload.inputs(seed)
    repro.asap7_library()
    seconds = time.perf_counter() - t0
    return seconds, {c: ntk for c, ntk, _ in inputs.jobs}, inputs.record


def setup_sample(workload, seed) -> float:
    """One set-up in a fresh interpreter (the import is cold there too)."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def settle(p, references, seed, fingerprint):
    """Check a pass's outputs, record their QoR (and fingerprints), then
    drop the output networks so one pass's results cannot slow the next."""
    from repro.batch import state_fingerprint
    from repro.flow.context import state_cost

    for item in p.items:
        if not item.error:
            reason = check(references[item.circuit], item.state, seed)
            if reason:
                item.error = f"check: {reason}"
        if not item.error:
            item.cost = state_cost(item.state)
            if fingerprint and not item.fingerprint:
                item.fingerprint = state_fingerprint(item.state)
        item.state = None
    return p


def failures(passes):
    return [f"{i.circuit} [{i.flow}]: {i.error}"
            for p in passes for i in p.items if i.error]


def detail_rows(passes, workload):
    """Per-circuit diagnostics: seconds in every pass, QoR, fingerprint."""
    rows = []
    for k, item in enumerate(passes[0].items):
        row = {"circuit": item.circuit, "flow": item.flow,
               "seconds": [p.items[k].seconds for p in passes],
               "in_qor": workload.in_qor(item)}
        if item.error:
            row["error"] = item.error
        else:
            row[workload.qor_names[0]], row[workload.qor_names[1]] = item.cost
            row["fingerprint"] = item.fingerprint
        rows.append(row)
    return rows


def read_stats():
    """The program's process-global counters, from the sources that exist."""
    out = {}
    for key, where in STATS_SOURCES.items():
        module, _, name = where.partition(":")
        try:
            fn = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            continue
        out[key] = dict(fn())
    return out


def measure(workload, seed, seconds, setup_s, references, record):
    passes, measured = [], 0.0
    while True:
        passes.append(settle(workload.run_pass(seed), references, seed,
                             fingerprint=not passes))
        measured += passes[-1].wall
        if measured + passes[-1].wall > seconds:
            break
    failed = failures(passes)
    attempted = sum(len(p.items) for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "batch_tiny":    # before any set-up subprocess runs
        peak_kb = max(peak_kb,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    samples = [setup_s] + [setup_sample(workload, seed)
                           for _ in range(SETUP_SAMPLES - 1)]
    size, depth = qor(passes[0].items, workload)
    record.update(setup_samples_s=samples,
                  pass_walls_s=[p.wall for p in passes],
                  details=detail_rows(passes, workload))
    metrics = {
        "flow_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MiB"),
        "ok_rate": (1 - len(failed) / attempted, "ratio"),
        "qor.size": (size, "geomean"),
        "qor.depth": (depth, "geomean"),
    }
    return attempted, failed, metrics


def measure_traced(workload, seed, references, record):
    tracer = Tracer()
    before = read_stats()
    patch = Patch(tracer, TARGETS)
    traced = workload.run_pass(seed, patch)
    after = read_stats()
    settle(traced, references, seed, fingerprint=True)
    untraced = settle(workload.run_pass(seed), references, seed, False)
    passes = [traced, untraced]
    pass_seconds = {}
    for item in traced.items:
        for name, secs in item.passes:
            pass_seconds[name] = pass_seconds.get(name, 0.0) + secs
    run = TraceRun(tracer, {
        key: {k: v - before[key].get(k, 0) for k, v in after[key].items()}
        for key in after if key in before},
        traced.wall, untraced.wall, pass_seconds, traced.batch)
    values, missing, unavailable = layer_values(run, workload.name)
    layer_self = tracer.layer_self()
    record.update(
        details=detail_rows(passes, workload), missing=missing,
        unavailable=unavailable,
        skipped_targets=patch.skipped, traced_flow_s=traced.wall,
        untraced_flow_s=untraced.wall, layer_self_s=layer_self,
        unspanned_s=traced.wall - sum(layer_self.values()),
        engine_stats=run.stats, batch=traced.batch,
        spans={name: {"calls": n, "total_s": tracer.total.get(name, 0.0),
                      "self_s": tracer.self_time[name]}
               for name, n in sorted(tracer.calls.items())},
        chrome_trace=tracer.chrome_trace())
    metrics = {name: (m["value"], m["unit"]) for name, m in values.items()}
    return sum(len(p.items) for p in passes), failures(passes), metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print its seconds")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source {SRC / 'repro'} is missing; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    setup_s, references, inputs_record = setup(workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "qor_names": workload.qor_names,
              "inputs": inputs_record}
    if args.trace:
        attempted, failed, metrics = measure_traced(
            workload, args.seed, references, record)
    else:
        attempted, failed, metrics = measure(
            workload, args.seed, args.seconds, setup_s, references, record)
    record["failures"] = failed
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if "chrome_trace" in record:
        Path(f"{stem}.trace.json").write_text(
            json.dumps(record.pop("chrome_trace")))
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    for name in record.get("missing", ()):
        print(f"MISSING {name}: its layer made no call", file=sys.stderr)
    for name in record.get("unavailable", ()):
        print(f"MISSING {name}: its stats source is gone", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
