"""End-to-end fuzzing: random networks through the full MCH pipeline.

Every random network is pushed through optimization, choice construction
and all three mappers, and each stage is CEC-verified against the original.
This is the failure-injection net that catches interactions no unit test
exercises.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MchParams, build_mch
from repro.mapping import asic_map, graph_map, lut_map
from repro.networks import Aig, MixedNetwork, Mig, Xag, Xmg
from repro.flow import optimize
from repro.opt import balance, refactor, resub, sweep
from repro.sat import cec


def random_network(seed: int, cls=Aig, n_pis: int = 6, n_gates: int = 40):
    rng = random.Random(seed)
    ntk = cls()
    lits = [ntk.create_pi() for _ in range(n_pis)]
    ops = ["and", "or", "xor", "maj", "mux"]
    for _ in range(n_gates):
        op = rng.choice(ops)
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        c = rng.choice(lits) ^ rng.randint(0, 1)
        if op == "and":
            lits.append(ntk.create_and(a, b))
        elif op == "or":
            lits.append(ntk.create_or(a, b))
        elif op == "xor":
            lits.append(ntk.create_xor(a, b))
        elif op == "maj":
            lits.append(ntk.create_maj(a, b, c))
        else:
            lits.append(ntk.create_mux(a, b, c))
    for _ in range(3):
        ntk.create_po(rng.choice(lits) ^ rng.randint(0, 1))
    return ntk


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_full_pipeline_aig(seed):
    ntk = random_network(seed, Aig)
    opt = optimize(ntk, "compress2rs", rounds=1)
    assert cec(ntk, opt), "compress2rs broke equivalence"
    mch = build_mch(opt, MchParams(representations=(Xmg,)))
    assert mch.verify(), "choice network corrupt"
    lut = lut_map(mch, k=5, objective="area")
    assert cec(ntk, lut.to_logic_network(Aig)), "LUT mapping broke equivalence"
    nl = asic_map(mch, objective="delay")
    assert cec(ntk, nl.to_logic_network(Aig)), "ASIC mapping broke equivalence"


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=6, deadline=None)
def test_full_pipeline_mixed_source(seed):
    ntk = random_network(seed, MixedNetwork)
    for target in (Aig, Mig, Xmg):
        out = graph_map(ntk, target, objective="area")
        assert cec(ntk, out), f"graph map to {target.__name__} broke equivalence"


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=6, deadline=None)
def test_optimization_pass_stack(seed):
    ntk = random_network(seed, Aig)
    for pass_fn in (balance, sweep, refactor, resub):
        out = pass_fn(ntk)
        assert cec(ntk, out), f"{pass_fn.__name__} broke equivalence"
        ntk = out  # chain the passes


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_choice_heavy_configurations(seed):
    ntk = random_network(seed, Aig, n_pis=5, n_gates=25)
    mch = build_mch(ntk, MchParams(
        representations=(Xag, Mig, Xmg), ratio=0.5,
        max_cuts_per_node=4, cut_size=5,
    ))
    assert mch.verify()
    lut = lut_map(mch, k=4, objective="delay")
    assert cec(ntk, lut.to_logic_network(Aig))


# ---------------------------------------------------------------------- #
# deep and wide networks                                                  #
# ---------------------------------------------------------------------- #

def deep_chain(depth: int, seed: int) -> Aig:
    """A depth-``depth`` chain of AND/OR gates, each taking one of 3 side PIs."""
    rng = random.Random(seed)
    ntk = Aig()
    pis = [ntk.create_pi() for _ in range(4)]
    x = pis[0]
    for _ in range(depth):
        op = ntk.create_and if rng.random() < 0.5 else ntk.create_or
        x = op(x ^ rng.randint(0, 1), rng.choice(pis[1:]) ^ rng.randint(0, 1))
    ntk.create_po(x)
    return ntk


def wide_tree(leaves: int, seed: int) -> Aig:
    """A balanced AND/OR/XOR tree over ``leaves`` PIs with random inversions."""
    rng = random.Random(seed)
    ntk = Aig()
    level = [ntk.create_pi() ^ rng.randint(0, 1) for _ in range(leaves)]
    while len(level) > 1:
        paired = []
        for a, b in zip(level[::2], level[1::2]):
            op = rng.choice((ntk.create_and, ntk.create_or, ntk.create_xor))
            paired.append(op(a, b) ^ rng.randint(0, 1))
        level = paired + level[len(paired) * 2:]
    ntk.create_po(level[0])
    return ntk


deep_or_wide = st.one_of(
    st.builds(deep_chain, st.integers(min_value=300, max_value=800),
              st.integers(min_value=0, max_value=2**31 - 1)),
    st.builds(wide_tree, st.integers(min_value=256, max_value=512),
              st.integers(min_value=0, max_value=2**31 - 1)),
)


def _with_low_recursion_limit(fn):
    """Run ``fn`` with at most 100 interpreter frames to spare."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(old)


@given(deep_or_wide)
@settings(max_examples=6, deadline=None)
def test_mappers_on_deep_and_wide_networks(ntk):
    lut = _with_low_recursion_limit(lambda: lut_map(ntk, k=6))
    assert cec(ntk, lut.to_logic_network(Aig)), "LUT mapping broke equivalence"
    out = _with_low_recursion_limit(lambda: graph_map(ntk, Xmg))
    assert cec(ntk, out), "graph mapping broke equivalence"
    nl = _with_low_recursion_limit(lambda: asic_map(ntk))
    assert cec(ntk, nl.to_logic_network(Aig)), "ASIC mapping broke equivalence"
