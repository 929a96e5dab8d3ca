"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info <circuit>``                 — print benchmark statistics;
* ``run <circuit> --script "..."``   — run an arbitrary flow script;
* ``optimize <circuit>``             — run the compress2rs flow, report gains;
* ``map-luts <circuit>``             — (MCH) 6-LUT mapping, optional BLIF out;
* ``map-asic <circuit>``             — (MCH) ASIC mapping, optional Verilog out;
* ``passes``                         — list the registered flow passes;
* ``table1 | table2 | fig1 | fig2 | fig6`` — regenerate a paper artifact;
* ``suite``                          — list suite manifests / show one suite;
* ``batch``                          — run a flow over a whole suite in
  parallel (``--jobs N``), record to a result store, diff against a
  baseline run (``--compare-to``);
* ``serve``                          — run the synthesis daemon: an HTTP
  job API over a warm worker pool with a content-addressed result cache
  (see ``docs/serve.md``);
* ``submit``                         — submit one job to a running daemon
  and print the result record.

Circuits are the EPFL-analogue generator names (see ``suite``), or a path to
an ASCII AIGER file (``.aag``).  Every command that transforms a circuit is
a thin front-end over the flow API: it assembles a script, runs it through
one shared :class:`~repro.flow.context.FlowContext`, and the common
``--verify`` / ``--timing`` / ``--engine-stats`` / ``-o`` reporting works
uniformly.  Examples::

    python -m repro run adder --script "b; rf; rs; gm -k 4; b" --verify
    python -m repro run square --flow resyn2rs --timing
    python -m repro map-luts adder --mch --reps xmg,xag --verify --engine-stats
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .circuits import load
from .flow import (
    FlowContext,
    FlowError,
    FlowResult,
    FlowRunner,
    available_passes,
    resolve_flow,
    state_kind,
    state_summary,
)

_SCALES = ["tiny", "small", "medium"]


# ---------------------------------------------------------------------- #
# shared helpers (the once-per-command boilerplate, hoisted)               #
# ---------------------------------------------------------------------- #

def _load(circuit: str, scale: str):
    try:
        return load(circuit, scale)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _choice_prefix(args) -> str:
    """Script fragment building the MCH choice network, from CLI options."""
    return f"mch -p {args.reps} -r {args.ratio}; "


def _run_script(args, script) -> FlowResult:
    """Load the circuit, run a script/Flow under one context, report uniformly."""
    ntk = _load(args.circuit, args.scale)
    ctx = FlowContext()
    try:
        result = FlowRunner(ctx).run(ntk, script, name=str(args.circuit))
    except (FlowError, ValueError) as exc:   # e.g. a pass rejecting "if -l 1"
        raise SystemExit(f"flow failed: {exc}")
    return result


def _report(args, result: FlowResult) -> None:
    """The shared verify / timing / engine-stats / output tail of a command."""
    ctx: FlowContext = result.context
    if getattr(args, "verify", False):
        print("cec:", "ok" if ctx.cec(result.input, result.network) else "FAILED")
    if getattr(args, "timing", False):
        print(ctx.metrics_table(result.metrics))
    if getattr(args, "engine_stats", False):
        _print_engine_stats(ctx)
    if getattr(args, "output", None):
        _write_output(result.network, args.output)


def _print_engine_stats(ctx: FlowContext) -> None:
    import json

    print("engine stats:")
    print(json.dumps(ctx.stats(), indent=2, default=str))


def _write_output(state, path: str) -> None:
    """Write the final pipeline state in the format its kind implies."""
    kind = state_kind(state)
    if kind == "lut":
        from .io import write_blif

        text = write_blif(state)
    elif kind == "netlist":
        from .io import write_verilog_netlist

        text = write_verilog_netlist(state)
    else:
        from .io import write_aag
        from .networks import Aig, convert

        ntk = state.ntk if kind == "choice" else state
        if type(ntk) is not Aig:
            ntk = convert(ntk, Aig)
        text = write_aag(ntk)
    Path(path).write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------- #
# commands                                                                #
# ---------------------------------------------------------------------- #

def cmd_info(args) -> int:
    from .analysis import format_stats, network_stats

    ntk = _load(args.circuit, args.scale)
    regs = ntk.num_registers() if hasattr(ntk, "num_registers") else 0
    print(f"{args.circuit}: {ntk.num_real_pis()} PIs, {ntk.num_pos()} POs, "
          f"{regs} registers, {ntk.num_gates()} gates, depth {ntk.depth()}"
          if regs else
          f"{args.circuit}: {ntk.num_pis()} PIs, {ntk.num_pos()} POs, "
          f"{ntk.num_gates()} gates, depth {ntk.depth()}")
    print(format_stats(network_stats(ntk)))
    return 0


def cmd_suite(args) -> int:
    from .batch import available_suites, get_suite

    if not args.name:
        for name, suite in available_suites().items():
            print(f"{name:22s} {len(suite):3d} circuits  "
                  f"[{suite.scale}]  {suite.description}")
        print("\nshow one with: repro suite <name|manifest.toml|manifest.json>")
        return 0
    try:
        suite = get_suite(args.name)
    except ValueError as exc:
        raise SystemExit(str(exc))
    scale = args.scale or suite.scale
    print(f"{suite.name}: {len(suite)} circuits at scale {scale}"
          + (f" — {suite.description}" if suite.description else ""))
    for entry in suite:
        ntk = entry.build(scale)
        regs = ntk.num_registers() if hasattr(ntk, "num_registers") else 0
        print(f"{entry.name:14s} {entry.describe():24s} "
              f"pis={ntk.num_pis():4d} pos={ntk.num_pos():4d} "
              f"gates={ntk.num_gates():5d} depth={ntk.depth():4d}"
              + (f" regs={regs:4d}" if regs else ""))
    return 0


def cmd_batch(args) -> int:
    from .batch import BatchRunner, ResultStore, get_suite

    if bool(args.script) == bool(args.flow):
        raise SystemExit("batch: give exactly one of --script or --flow")
    if args.compare_to and not args.store:
        raise SystemExit("batch: --compare-to needs --store")
    if args.resume and not args.store:
        raise SystemExit("batch: --resume needs --store")
    if args.requarantine and not args.store:
        raise SystemExit("batch: --requarantine needs --store")
    try:
        suite = get_suite(args.suite)
        flow = resolve_flow(args.script or args.flow)
    except (ValueError, FlowError) as exc:
        raise SystemExit(str(exc))

    def progress(done, total, outcome):
        status = outcome.status if not outcome.ok else (
            "ok (resumed)" if outcome.resumed_from else "ok")
        print(f"[{done}/{total}] {outcome.name}: {status} "
              f"({outcome.seconds:.2f}s)", flush=True)

    from .batch import event_sink

    events = event_sink(args.events)
    try:
        runner = BatchRunner(jobs=args.jobs, verify=args.verify,
                             progress=progress if not args.quiet else None,
                             return_networks=False,
                             timeout=args.timeout, retries=args.retries,
                             order=args.order, events=events,
                             memory_limit=args.memory_limit)
    except ValueError as exc:
        raise SystemExit(f"batch: {exc}")
    store = ResultStore(args.store) if args.store else None
    try:
        batch = runner.run(suite, flow, scale=args.scale, store=store,
                           resume=args.resume, requarantine=args.requarantine)
    except ValueError as exc:            # e.g. a corrupt result store
        raise SystemExit(f"batch: {exc}")
    finally:
        if events is not None:
            events.close()
    print(batch.table())
    if batch.run_id:
        print(f"recorded run {batch.run_id} -> {store.path}")
    for outcome in batch.quarantined:
        print(f"\nQUARANTINED {outcome.name}: {outcome.error}")
    for outcome in batch.failures:
        print(f"\nFAILED {outcome.name}: {outcome.error}")
        if outcome.traceback:
            print(outcome.traceback.rstrip())
    if args.compare_to:
        try:
            mine = store.find_run(batch.run_id or "latest")
            baseline = store.find_run(args.compare_to, exclude=mine.run_id)
            cmp = store.compare(mine, baseline)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print()
        print(cmp.format())
        if not cmp.ok:
            return 1
    return 1 if batch.failures else 0


def cmd_serve(args) -> int:
    from .batch import event_sink
    from .serve import ServeDaemon

    try:
        daemon = ServeDaemon(args.host, args.port, jobs=args.jobs,
                             store=args.store, timeout=args.timeout,
                             idle_timeout=args.idle_timeout,
                             events=event_sink(args.events),
                             max_queued=args.max_queued,
                             memory_limit=args.memory_limit)
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    daemon.start()
    # the first line is machine-readable: smoke scripts parse the port
    print(f"serving on http://{daemon.host}:{daemon.port} "
          f"(jobs={args.jobs}, store={args.store or 'memory-only'})",
          flush=True)
    try:
        daemon.wait()
    except KeyboardInterrupt:
        print("interrupted -- draining", flush=True)
        daemon.stop()
    print("serve: stopped", flush=True)
    return 0


def cmd_submit(args) -> int:
    from .serve import ServeClient, ServeError

    if bool(args.script) == bool(args.flow):
        raise SystemExit("submit: give exactly one of --script or --flow")
    # a local .aag file is shipped inline -- the daemon may be remote
    circuit, aag = args.circuit, ""
    if circuit.endswith(".aag") and Path(circuit).exists():
        circuit, aag = "", Path(args.circuit).read_text()
    client = ServeClient(args.host, args.port)
    try:
        job = client.submit(circuit, aag=aag,
                            flow=args.script or args.flow,
                            scale=args.scale, verify=args.verify,
                            timeout=args.timeout,
                            name=Path(args.circuit).stem)
        if args.no_wait:
            print(json.dumps(job, sort_keys=True, indent=2))
            return 0
        job = client.wait(job["id"], timeout=args.wait)
    except ServeError as exc:
        raise SystemExit(f"submit: {exc}")
    record = job.get("record") or {}
    cached = " (cache hit)" if job.get("cached") else ""
    print(f"{job.get('name')}: {job.get('status')}{cached}")
    print(json.dumps(record, sort_keys=True, indent=2))
    return 0 if job.get("status") == "done" else 1


def cmd_passes(args) -> int:
    for info in available_passes():
        flags = " ".join(f"[-{a.flag}]" if a.type is bool
                         else f"[-{a.flag} {a.type.__name__}]" for a in info.args)
        aliases = f" ({', '.join(info.aliases)})" if info.aliases else ""
        caps = f"  on: {','.join(info.inputs)}"
        if info.needs_library:
            caps += "  [needs library]"
        print(f"{info.name:5s}{aliases:20s} {flags}")
        print(f"      {info.help}{caps}")
    print("\nfull grammar reference and script cookbook: docs/flow-dsl.md")
    return 0


def cmd_run(args) -> int:
    if bool(args.script) == bool(args.flow):
        raise SystemExit("run: give exactly one of --script or --flow")
    script = args.script or args.flow
    result = _run_script(args, script)
    print(f"flow:   {result.flow.to_script() or '(empty)'}")
    print(f"input:  {state_summary(result.input)}")
    print(f"output: {state_summary(result.network)}  "
          f"[{len(result.metrics)} passes, {result.seconds:.3f}s]")
    _report(args, result)
    return 0


def cmd_optimize(args) -> int:
    result = _run_script(args, resolve_flow("compress2rs", rounds=args.rounds))
    ntk, opt = result.input, result.network
    print(f"before: {ntk.num_gates()} gates, depth {ntk.depth()}")
    print(f"after:  {opt.num_gates()} gates, depth {opt.depth()}")
    _report(args, result)
    return 0


def cmd_map_luts(args) -> int:
    prefix = _choice_prefix(args) if args.mch else ""
    script = f"{prefix}if -k {args.k} -o {args.objective}"
    result = _run_script(args, script)
    if args.mch:
        print(f"choice network: {_choice_state(result, 'mch')}")
    lut = result.network
    print(f"{lut.num_luts()} LUTs, depth {lut.depth()}")
    _report(args, result)
    return 0


def cmd_map_asic(args) -> int:
    prefix = _choice_prefix(args) if args.mch else ""
    script = f"{prefix}am -o {args.objective}"
    result = _run_script(args, script)
    if args.mch:
        print(f"choice network: {_choice_state(result, 'mch')}")
    nl = result.network
    print(f"{nl.num_cells()} cells, area {nl.area():.2f} µm², "
          f"delay {nl.delay():.2f} ps")
    _report(args, result)
    return 0


def _choice_state(result: FlowResult, pass_name: str) -> str:
    for m in result.metrics:
        if m.name == pass_name:
            return (f"{m.after[0]:.0f} gates after choices "
                    f"(+{m.after[0] - m.before[0]:.0f} candidate gates)")
    return "?"


def cmd_experiment(args) -> int:
    from . import experiments as exp

    if args.artifact == "fig1":
        print(exp.format_fig1(exp.run_fig1(scale=args.scale)))
    elif args.artifact == "fig2":
        print(exp.format_fig2(exp.run_fig2()))
    elif args.artifact == "table1":
        names = args.circuits.split(",") if args.circuits else None
        print(exp.format_results(exp.run_table1(names=names, scale=args.scale)))
    elif args.artifact == "table2":
        names = args.circuits.split(",") if args.circuits else None
        print(exp.format_table2(exp.run_table2(names=names, scale=args.scale)))
    elif args.artifact == "fig6":
        names = args.circuits.split(",") if args.circuits else ["adder", "square", "voter"]
        print(exp.format_fig6(exp.run_fig6(names=names, scale=args.scale)))
    return 0


# ---------------------------------------------------------------------- #
# parser                                                                  #
# ---------------------------------------------------------------------- #

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Mixed Structural Choices technology mapping"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mch_opts=True):
        p.add_argument("circuit", help="benchmark name or .aag path")
        p.add_argument("--scale", default="small", choices=_SCALES)
        p.add_argument("--verify", action="store_true", help="CEC the result")
        p.add_argument("-o", "--output", help="output file")
        p.add_argument("--timing", action="store_true",
                       help="print the per-pass timing table")
        p.add_argument("--engine-stats", action="store_true",
                       help="print shared-engine statistics (cut databases, "
                            "memos, SAT)")
        if mch_opts:
            p.add_argument("--mch", action="store_true", help="use mixed structural choices")
            p.add_argument("--reps", default="xmg", help="candidate reps, e.g. xmg,xag")
            p.add_argument("--ratio", type=float, default=1.0, help="critical-path ratio r")

    p = sub.add_parser("info", help="print circuit statistics")
    p.add_argument("circuit")
    p.add_argument("--scale", default="small", choices=_SCALES)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("suite", help="list suite manifests, or show one suite")
    p.add_argument("name", nargs="?",
                   help="suite name or .toml/.json manifest path "
                        "(omit to list the available manifests)")
    p.add_argument("--scale", default=None, choices=_SCALES)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("batch",
                       help="run a flow over a whole suite, optionally in "
                            "parallel, recording to a result store")
    p.add_argument("suite", help="suite name, manifest path, or "
                                 "comma-separated circuit list")
    p.add_argument("--script", help='flow script, e.g. "b; rf; rs; gm -k 4"')
    p.add_argument("--flow", help="named flow spec (compress2rs, resyn2rs)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = in-process, shared context)")
    p.add_argument("--scale", default=None, choices=_SCALES,
                   help="circuit scale (default: the suite's own)")
    p.add_argument("--store", help="append the run to this JSONL result store")
    p.add_argument("--compare-to",
                   help="run id (or prefix, or 'latest') in the store to "
                        "diff against; exits 1 on regressions")
    p.add_argument("--verify", action="store_true",
                   help="CEC every circuit's result against its input")
    p.add_argument("--timeout", type=float, default=None,
                   help="hard per-circuit wall-clock limit in seconds; a "
                        "worker past it is killed (pool runs only)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts for circuits that error or crash "
                        "(jittered exponential backoff between attempts; "
                        "timeouts and ooms are final)")
    p.add_argument("--memory-limit", default=None,
                   help="per-worker address-space budget, e.g. 512M or 2G; "
                        "a worker past it ends that circuit 'oom' (pool "
                        "runs only)")
    p.add_argument("--resume", action="store_true",
                   help="skip circuits already ok in --store under the same "
                        "run key (flow + suite + scale + inputs)")
    p.add_argument("--requarantine", action="store_true",
                   help="clear the run key's quarantine list in --store and "
                        "retry circuits the circuit breaker had benched")
    p.add_argument("--order", default="largest", choices=("largest", "suite"),
                   help="dispatch order: biggest circuits first to bound "
                        "stragglers (default), or manifest order")
    p.add_argument("--events",
                   help="append a JSONL progress-event stream to this path")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-circuit progress lines")
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("serve",
                       help="run the synthesis daemon: HTTP job API, warm "
                            "worker pool, content-addressed result cache")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 = pick an ephemeral port)")
    p.add_argument("--jobs", type=int, default=2,
                   help="maximum pool workers kept warm for requests")
    p.add_argument("--store",
                   help="persist cache entries to this JSONL result store "
                        "(a restarted daemon starts warm from it)")
    p.add_argument("--timeout", type=float, default=None,
                   help="default hard per-job wall-clock limit in seconds")
    p.add_argument("--memory-limit", default=None,
                   help="per-worker address-space budget, e.g. 512M or 2G; "
                        "a job past it ends 'oom'")
    p.add_argument("--max-queued", type=int, default=None,
                   help="admission control: shed new submissions with 429 + "
                        "Retry-After once this many jobs are queued "
                        "(cache hits and duplicates always served)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="scale the pool to zero workers after this many "
                        "idle seconds (respawned on the next job)")
    p.add_argument("--events",
                   help="append every job's JSONL progress events to this "
                        "path (same format as batch --events)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit one job to a running serve daemon")
    p.add_argument("circuit", help="benchmark name or .aag path")
    p.add_argument("--script", help='flow script, e.g. "b; rf; rs; b"')
    p.add_argument("--flow", help="named flow spec (compress2rs, resyn2rs)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--scale", default="small", choices=_SCALES)
    p.add_argument("--verify", action="store_true", help="CEC the result")
    p.add_argument("--timeout", type=float, default=None,
                   help="hard wall-clock limit for this job")
    p.add_argument("--wait", type=float, default=300.0,
                   help="seconds to wait for the result before giving up")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job summary and return immediately")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("passes", help="list registered flow passes")
    p.set_defaults(fn=cmd_passes)

    p = sub.add_parser("run", help="run a flow script on a circuit")
    common(p, mch_opts=False)
    p.add_argument("--script", help='flow script, e.g. "b; rf; rs; gm -k 4; b"')
    p.add_argument("--flow", help="named flow spec (compress2rs, resyn2rs)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("optimize", help="run the compress2rs flow")
    common(p, mch_opts=False)
    p.add_argument("--rounds", type=int, default=4)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("map-luts", help="K-LUT (FPGA) mapping")
    common(p)
    p.add_argument("-k", type=int, default=6)
    p.add_argument("--objective", default="area", choices=["area", "delay"])
    p.set_defaults(fn=cmd_map_luts)

    p = sub.add_parser("map-asic", help="standard-cell (ASIC) mapping")
    common(p)
    p.add_argument("--objective", default="delay", choices=["area", "delay"])
    p.set_defaults(fn=cmd_map_asic)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("artifact", choices=["fig1", "fig2", "table1", "table2", "fig6"])
    p.add_argument("--scale", default="small", choices=_SCALES)
    p.add_argument("--circuits", help="comma-separated circuit subset")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
