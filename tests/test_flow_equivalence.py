"""Flow engine vs legacy behavior, optimize_rounds rework, script fuzzing."""

import random

import pytest

from repro.circuits import build
from repro.flow import Flow, FlowContext, FlowRunner, optimize, run_flow
from repro.mapping.graph_mapper import graph_map
from repro.opt import optimize_rounds
from repro.opt.balancing import balance
from repro.sat import cec


def legacy_compress2rs(ntk, rounds=4):
    """The pre-flow-API compress2rs loop, inlined as the golden reference."""
    best = ntk
    best_cost = (ntk.num_gates(), ntk.depth())
    current = ntk
    for _ in range(rounds):
        current = balance(current)
        current = graph_map(current, type(current), objective="area", k=4)
        current = balance(current)
        cost = (current.num_gates(), current.depth())
        if cost >= best_cost:
            break
        best, best_cost = current, cost
    return best


class TestFlowVsLegacy:
    @pytest.mark.parametrize("name", ["ctrl", "int2float", "router"])
    def test_compress2rs_flow_bit_matches_legacy(self, name):
        ntk = build(name, "tiny")
        old = legacy_compress2rs(ntk)
        new = optimize(ntk, "compress2rs")
        assert (new.num_gates(), new.depth()) == (old.num_gates(), old.depth())
        assert cec(ntk, new)

    def test_compress2rs_spec_round_trips_through_script_text(self):
        # the canonical spec survives serialization and still bit-matches
        from repro.flow import compress2rs_flow

        flow = compress2rs_flow(rounds=4)
        reparsed = Flow.parse(flow.to_script())
        ntk = build("int2float", "tiny")
        a = FlowRunner().run(ntk, flow).network
        b = FlowRunner().run(ntk, reparsed).network
        assert (a.num_gates(), a.depth()) == (b.num_gates(), b.depth())

    def test_resyn2rs_flow_verified(self):
        ntk = build("cavlc", "tiny")
        out = optimize(ntk, "resyn2rs", rounds=2)
        assert cec(ntk, out)
        assert out.num_gates() <= ntk.num_gates()


class TestOptimizeRounds:
    def test_inner_rounds_is_exposed(self):
        ntk = build("router", "tiny")
        shallow = optimize_rounds(ntk, rounds=1, inner_rounds=1)
        deep = optimize_rounds(ntk, rounds=1, inner_rounds=4)
        assert len(shallow) == len(deep) == 2
        assert cec(ntk, shallow[1]) and cec(ntk, deep[1])
        # inner_rounds=N is the compress2rs spec with rounds=N on each snapshot
        assert deep[1].num_gates() \
            == optimize(ntk, "compress2rs", rounds=4).num_gates()
        assert shallow[1].num_gates() \
            == optimize(ntk, "compress2rs", rounds=1).num_gates()

    def test_arbitrary_script_text_is_accepted(self):
        ntk = build("ctrl", "tiny")
        snaps = optimize_rounds(ntk, script="b; rf; b", rounds=2)
        assert len(snaps) == 3
        for s in snaps[1:]:
            assert cec(ntk, s)

    def test_flow_object_is_accepted(self):
        ntk = build("ctrl", "tiny")
        snaps = optimize_rounds(ntk, script=Flow.parse("b"), rounds=1)
        assert cec(ntk, snaps[1])

    def test_invalid_script_rejected_by_registry(self):
        with pytest.raises(ValueError):
            optimize_rounds(build("ctrl", "tiny"), script="mystery")
        with pytest.raises(ValueError):
            optimize_rounds(build("ctrl", "tiny"), script="b; warp 9")


class TestConvergeSemantics:
    def test_converge_never_returns_worse_than_input(self):
        ntk = build("int2float", "tiny")
        out = run_flow(ntk, "converge4( b; gm -o area; b )").network
        assert (out.num_gates(), out.depth()) \
            <= (ntk.num_gates(), ntk.depth())

    def test_converge_keeps_best_not_last(self):
        # 'rf -z' accepts size-neutral rewrites: cost can oscillate; converge
        # must still return the best state seen
        ntk = build("ctrl", "tiny")
        out = run_flow(ntk, "converge3( b; rf -z )").network
        assert out.num_gates() <= balance(ntk).num_gates()
        assert cec(ntk, out)


SAFE_FUZZ_PASSES = ["b", "rf", "rs", "sw", "gm", "cv"]


class TestScriptFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_flows_preserve_equivalence(self, seed):
        from repro.flow.script import random_flow

        rng = random.Random(1000 + seed)
        flow = random_flow(rng, SAFE_FUZZ_PASSES, max_steps=4, depth=1)
        ntk = build(rng.choice(["ctrl", "int2float", "router"]), "tiny")
        ctx = FlowContext()
        result = FlowRunner(ctx).run(ntk, flow)
        assert bool(ctx.cec(ntk, result.network)), \
            f"flow {flow.to_script()!r} broke equivalence (seed {seed})"

    @pytest.mark.parametrize("seed", range(3))
    def test_random_flows_ending_in_mapping(self, seed):
        from repro.flow.script import random_flow

        rng = random.Random(2000 + seed)
        prefix = random_flow(rng, SAFE_FUZZ_PASSES, max_steps=3, depth=0)
        suffix = rng.choice(["if -k 4", "am", "mch; if -k 4", "dch -n 1 -i 1; am"])
        script = (prefix.to_script() + "; " + suffix).lstrip("; ")
        ntk = build("ctrl", "tiny")
        ctx = FlowContext()
        result = FlowRunner(ctx).run(ntk, script)
        assert bool(ctx.cec(ntk, result.network)), \
            f"flow {script!r} broke equivalence (seed {seed})"
