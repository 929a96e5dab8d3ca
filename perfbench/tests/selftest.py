"""Tests of the benchmark itself: its checker, its span arithmetic, its
layer wrappers and the determinism of its QoR metrics.

They run reduced workloads (tiny circuits, a small generated network) so
they stay fast.  The file name keeps them out of the repository's default
test collection: they pin the program's entry points by name, so they run
when the benchmark changes, not on every change to the program:

    PYTHONPATH=src python -m pytest perfbench/tests/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from perfbench import run
from perfbench.check import check, patterns
from perfbench.gen import GenParams, generate
from perfbench.layers import ASIC, BATCH, LAYER_METRICS, LUT, SAT
from perfbench.spans import Patch, Target, Tracer
from perfbench.workloads import WORKLOADS

BENCH = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

REDUCED = {
    ASIC: dataclasses.replace(WORKLOADS[ASIC], circuits=("priority",),
                              scale="tiny"),
    LUT: dataclasses.replace(WORKLOADS[LUT], circuits=("sin",), scale="tiny",
                             gen=GenParams(n_gates=1500)),
    SAT: dataclasses.replace(WORKLOADS[SAT], circuits=("router",),
                             scale="tiny"),
    BATCH: dataclasses.replace(WORKLOADS[BATCH],
                               circuits=("int2float", "router", "priority")),
}


def test_contract_lists_every_layer_metric():
    assert BENCH["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------- #
# span arithmetic                                                          #
# ---------------------------------------------------------------------- #

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def at(when, action, name=None):
        clock.now = when
        t.enter(name) if action == "enter" else t.exit()

    # a.x [0,10] holds b.y [1,4] (which holds c.z [2,3]) and b.y [5,7];
    # d.w [10,20] holds d.w [12,15]: a recursive call of the same span
    at(0, "enter", "a.x")
    at(1, "enter", "b.y")
    at(2, "enter", "c.z")
    at(3, "exit")
    at(4, "exit")
    at(5, "enter", "b.y")
    at(7, "exit")
    at(10, "exit")
    at(10, "enter", "d.w")
    at(12, "enter", "d.w")
    at(15, "exit")
    at(20, "exit")

    assert t.calls == {"a.x": 1, "b.y": 2, "c.z": 1, "d.w": 2}
    assert t.self_time == {"a.x": 5.0, "b.y": 4.0, "c.z": 1.0, "d.w": 10.0}
    # totals count outermost spans only, per name and per layer
    assert t.total["a.x"] == 10.0 and t.total["b.y"] == 5.0
    assert t.total["d.w"] == 10.0 and t.total["d"] == 10.0
    assert t.layer_self() == {"a": 5.0, "b": 4.0, "c": 1.0, "d": 10.0}
    # self times partition the covered wall time exactly
    assert sum(t.layer_self().values()) == 20.0
    events = t.chrome_trace()["traceEvents"]
    assert len(events) == 6 and {e["ph"] for e in events} == {"X"}


def test_patch_reaches_every_binding_site_and_restores_them():
    import repro.core.mch as mch_module
    import repro.synthesis as synthesis_package
    from repro.synthesis import strategies

    original = strategies.synthesize_candidates
    tracer = Tracer()
    target = Target("repro.synthesis.strategies:synthesize_candidates",
                    "synthesis.candidates")
    with Patch(tracer, [target]) as patch:
        assert not patch.skipped
        assert mch_module.synthesize_candidates is not original
        assert synthesis_package.synthesize_candidates is \
            mch_module.synthesize_candidates
    assert mch_module.synthesize_candidates is original
    assert strategies.synthesize_candidates is original


def test_missing_target_is_skipped():
    with Patch(Tracer(), [Target("repro.sat.solver:NoSuchSolver.solve",
                                 "sat.solve")]) as patch:
        pass
    assert patch.skipped == ["repro.sat.solver:NoSuchSolver.solve"]


# ---------------------------------------------------------------------- #
# the independent checker                                                  #
# ---------------------------------------------------------------------- #

def _lut_copy(lut, flip=None):
    """Rebuild a LUT network node by node, optionally flipping one
    truth-table bit: ``flip = (node, minterm)``."""
    from repro import LutNetwork, TruthTable

    out = LutNetwork(lut.k)
    for _ in lut.pis:
        out.create_pi()
    for node in range(1 + lut.num_pis(), 1 + lut.num_pis() + lut.num_luts()):
        tt = lut.lut_function(node)
        if flip is not None and flip[0] == node:
            tt = TruthTable(tt.num_vars, tt.bits ^ (1 << flip[1]))
        out.create_lut(lut.fanins(node), tt)
    for node, phase in lut.pos:
        out.create_po(node, phase)
    return out


def test_checker_accepts_then_rejects_a_flipped_lut_bit():
    from repro import run_flow
    from repro.circuits import build

    src = build("router", "tiny")
    lut = run_flow(src, "if -k 6").network
    assert check(src, lut, seed=1) == ""
    assert check(src, _lut_copy(lut), seed=1) == ""
    # flip the bit of a PO-driving LUT that pattern 0 selects
    node = next(n for n, _ in lut.pos if lut.is_lut(n))
    words, mask = patterns(src.num_pis(), seed=1)
    vals = lut.simulate_patterns(words, mask)
    minterm = sum((vals[f] & 1) << i for i, f in enumerate(lut.fanins(node)))
    assert check(src, _lut_copy(lut, (node, minterm)), seed=1).startswith("PO")


def _netlist_copy(netlist, swap=None):
    """Rebuild a cell netlist net by net, optionally swapping two fanins of
    one cell: ``swap = (net, pin_a, pin_b)``."""
    from repro import CellNetlist

    out = CellNetlist(netlist.library_name)
    for net, driver in enumerate(netlist._drivers[2:], start=2):
        if driver is None:
            out.create_pi()
            continue
        cell, fanins = driver
        fanins = list(fanins)
        if swap is not None and swap[0] == net:
            a, b = swap[1], swap[2]
            fanins[a], fanins[b] = fanins[b], fanins[a]
        out.add_cell(cell, fanins)
    for net in netlist.pos:
        out.create_po(net)
    return out


def test_checker_rejects_swapped_cell_fanins():
    from repro import run_flow
    from repro.circuits import build

    src = build("int2float", "tiny")
    netlist = run_flow(src, "am -o area").network
    assert check(src, netlist, seed=1) == ""
    assert check(src, _netlist_copy(netlist), seed=1) == ""
    words, mask = patterns(src.num_pis(), seed=1)
    reference = netlist.simulate_patterns(words, mask)
    rejected = 0
    for net, driver in enumerate(netlist._drivers):
        fanins = driver[1] if driver is not None else ()
        for a, b in itertools.combinations(range(len(fanins)), 2):
            if fanins[a] == fanins[b]:
                continue
            bad = _netlist_copy(netlist, (net, a, b))
            vals = bad.simulate_patterns(words, mask)
            if all(vals[p] == reference[p] for p in netlist.pos):
                continue             # symmetric pins or masked: no error
            assert check(src, bad, seed=1).startswith("PO")
            rejected += 1
    assert rejected > 0


def test_checker_catches_interface_and_random_pattern_mismatch():
    from repro import Aig

    src = generate(Aig, 3, GenParams(n_pis=20, n_gates=300, window=16))
    assert check(src, src, seed=5) == ""
    other = generate(Aig, 4, GenParams(n_pis=20, n_gates=300, window=16))
    assert check(src, other, seed=5) != ""


# ---------------------------------------------------------------------- #
# the generator                                                            #
# ---------------------------------------------------------------------- #

def test_generator_is_seeded_and_exact():
    from repro import Aig

    p = GenParams(n_pis=16, n_gates=800, window=32)
    a, b, c = generate(Aig, 9, p), generate(Aig, 9, p), generate(Aig, 10, p)
    assert a.num_gates() == 800 and a.num_pis() == 16
    assert a.structural_hash() == b.structural_hash()
    assert a.structural_hash() != c.structural_hash()


# ---------------------------------------------------------------------- #
# the traced run                                                           #
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("name", [ASIC, LUT, SAT, BATCH])
def test_every_expected_layer_fires(name):
    workload = REDUCED[name]
    _, references, _ = run.setup(workload, seed=1)
    record = {}
    attempted, failed, metrics = run.measure_traced(workload, 1, references,
                                                    record)
    assert attempted > 0 and not failed
    assert record["missing"] == [] and record["skipped_targets"] == []
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for m in LAYER_METRICS:
        if name in m.workloads and (m.name.endswith(".calls")
                                    or m.name == "cuts.count"):
            assert metrics[m.name][0] > 0, m.name
    assert metrics["trace.overhead"][0] > 0
    if name != BATCH:
        # spans cover the traced pass: self times never exceed its wall
        # time, and what no span covers stays within 5% of it
        wall = record["traced_flow_s"]
        assert 0 <= record["unspanned_s"] <= 0.05 * wall
        named = sum(t for layer, t in record["layer_self_s"].items()
                    if layer != "flow")
        assert named + metrics["flow.self_s"][0] == pytest.approx(wall)


@pytest.mark.parametrize("name", [LUT, SAT])
def test_qor_is_identical_across_runs_and_seeds(name):
    workload = REDUCED[name]
    results = []
    for seed in (1, 2):
        setup_s, references, _ = run.setup(workload, seed)
        _, failed, metrics = run.measure(workload, seed, 0.0, setup_s,
                                         references, {})
        assert not failed and metrics["ok_rate"][0] == 1.0
        assert {k: u for k, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        results.append((metrics["qor.size"], metrics["qor.depth"]))
    assert results[0] == results[1]
