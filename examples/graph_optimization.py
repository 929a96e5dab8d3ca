#!/usr/bin/env python3
"""Mapping-based logic optimization with MCH (the paper's Fig. 5 / Fig. 6).

Shows graph mapping used as a logic optimizer, written as flow scripts:
iterate XMG remapping until it converges to a local optimum
(``converge7( gm -r xmg )``), then escape that optimum by remapping
*through* a mixed (MIG + XMG) choice network
(``converge6( mch -p mig,xmg; gm -r xmg )``).  Both phases run under one
shared :class:`~repro.flow.context.FlowContext`, so the NPN synthesis
caches and cut databases carry across rounds.

Run:  python examples/graph_optimization.py [circuit] [scale]
"""

import sys

from repro import FlowContext, cec, load, run_flow


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "square"
    scale = sys.argv[2] if len(sys.argv) > 2 else "small"
    ntk = load(circuit, scale)
    print(f"benchmark '{circuit}': {ntk}")

    ctx = FlowContext()

    # 1. plain graph mapping, iterated to a local optimum: one unconditional
    #    remap into XMG, then up to 7 keep-best rounds (Fig. 6's baseline)
    baseline = run_flow(ntk, "gm -r xmg -o area; converge7( gm -r xmg -o area )",
                        context=ctx).network
    print(f"XMG local optimum:   {baseline.num_gates()} gates, depth {baseline.depth()}")

    # 2. escape with mixed structural choices: each round builds an
    #    MIG+XMG choice network and remaps through it; converge keeps the
    #    best round and stops when gains dry up
    current = run_flow(
        baseline, "converge6( mch -p mig,xmg -r 1.0; gm -r xmg -o area )",
        context=ctx,
    ).network
    print(f"MCH beyond optimum:  {current.num_gates()} gates, depth {current.depth()}")

    gain_nodes = (baseline.num_gates() - current.num_gates()) / max(baseline.num_gates(), 1)
    gain_depth = (baseline.depth() - current.depth()) / max(baseline.depth(), 1)
    print(f"MCH beyond local optimum: {gain_nodes:.1%} nodes, {gain_depth:.1%} depth")

    # 3. downstream effect on LUT mapping
    base_luts = run_flow(baseline, "if -k 6 -o area", context=ctx).network
    mch_luts = run_flow(current, "if -k 6 -o area", context=ctx).network
    print(f"6-LUT mapping: baseline {base_luts.num_luts()} LUTs/depth {base_luts.depth()}"
          f"  vs  MCH {mch_luts.num_luts()} LUTs/depth {mch_luts.depth()}")

    assert cec(ntk, current)
    print("optimized network verified equivalent (CEC)")


if __name__ == "__main__":
    main()
