"""repro — Mixed Structural Choices (MCH) for technology mapping.

A from-scratch Python reproduction of "Mixed Structural Choice Operator:
Enhancing Technology Mapping with Heterogeneous Representations" (DAC 2025):
logic networks (AIG/XAG/MIG/XMG), structural-choice networks mixing
heterogeneous representations, choice-aware ASIC / FPGA technology mappers,
mapping-based logic optimization, plus the full substrate they need —
truth-table engine, cut enumeration, NPN matching, SAT-based equivalence
checking, optimization flows, benchmark generators and file I/O.

Quickstart::

    from repro import load, run_flow, optimize, lut_map, asic_map, cec

    aig = load("adder")                         # benchmark name or .aag path
    opt = optimize(aig)                         # the compress2rs flow spec
    result = run_flow(aig, "b; rf; rs; gm -k 4; b", verify=True)

    # or drive the engines directly:
    from repro import Xmg, build_mch, MchParams

    mch = build_mch(opt, MchParams(representations=(Xmg,)))
    luts = lut_map(mch, k=6, objective="area")  # choice-aware FPGA mapping
    netlist = asic_map(mch, objective="delay")  # choice-aware ASIC mapping

    # whole-suite execution across worker processes, with result tracking:
    from repro import BatchRunner, get_suite

    batch = BatchRunner(jobs=4).run(get_suite("epfl-arithmetic"),
                                    "compress2rs", store="results.jsonl")

    # or as a long-lived service (``repro serve``) with a warm worker pool
    # and a content-addressed result cache:
    from repro import ServeDaemon, ServeClient

    with ServeDaemon(port=0, jobs=2, store="serve.jsonl") as daemon:
        record = ServeClient(port=daemon.port).run("adder", flow="compress2rs")

    # sequential circuits: registers, BMC / k-induction CEC, register sweep
    from repro import load, seq_cec
    from repro.seq import register_sweep, retime_forward

    counter = load("counter", scale="tiny")     # register-bearing benchmark
    swept, merged = register_sweep(counter)
    assert seq_cec(counter, swept)              # sequential equivalence proof
"""

from .networks import (
    Aig,
    CellNetlist,
    GateType,
    LogicNetwork,
    LutNetwork,
    MixedNetwork,
    Mig,
    Xag,
    Xmg,
    convert,
)
from .truth import TruthTable
from .core import ChoiceNetwork, MchParams, build_dch, build_mch
from .cuts import CutDatabase
from .mapping import (
    MappingSession,
    asap7_library,
    asic_map,
    graph_map,
    lut_map,
)
from .opt import balance, sweep
from .sat import cec
from .circuits import load
from .flow import (
    Flow,
    FlowContext,
    FlowResult,
    FlowRunner,
    optimize,
    run_flow,
)
from .batch import (
    BatchResult,
    BatchRunner,
    ResultStore,
    Suite,
    available_suites,
    get_suite,
)
from .serve import ServeClient, ServeDaemon
from .seq import SeqCecResult, bmc_cec, k_induction_cec, seq_cec

__version__ = "1.2.0"

__all__ = [
    # flow API
    "load",
    "optimize",
    "run_flow",
    "Flow",
    "FlowContext",
    "FlowRunner",
    "FlowResult",
    # batch API
    "Suite",
    "available_suites",
    "get_suite",
    "BatchRunner",
    "BatchResult",
    "ResultStore",
    # serve API
    "ServeDaemon",
    "ServeClient",
    "Aig",
    "Xag",
    "Mig",
    "Xmg",
    "MixedNetwork",
    "LogicNetwork",
    "LutNetwork",
    "CellNetlist",
    "GateType",
    "convert",
    "TruthTable",
    "ChoiceNetwork",
    "MchParams",
    "build_mch",
    "build_dch",
    "MappingSession",
    "CutDatabase",
    "lut_map",
    "asic_map",
    "graph_map",
    "asap7_library",
    "balance",
    "sweep",
    "cec",
    # sequential API
    "SeqCecResult",
    "seq_cec",
    "bmc_cec",
    "k_induction_cec",
    "__version__",
]
