"""Tests for optimization passes: balance, sweep, equivalence, flows."""

import pytest

from repro.circuits import build
from repro.networks import Aig, Xag
from repro.networks.base import lit_not
from repro.flow import optimize
from repro.opt import balance, functional_classes, optimize_rounds, sweep
from repro.sat import cec


class TestBalance:
    def test_chain_becomes_log_depth(self):
        ntk = Aig()
        lits = [ntk.create_pi() for _ in range(16)]
        ntk.create_po(ntk.create_nary_and(lits, balanced=False))  # depth 15 chain
        assert ntk.depth() == 15
        b = balance(ntk)
        assert b.depth() == 4
        assert cec(ntk, b)

    def test_xor_chain(self):
        ntk = Xag()
        lits = [ntk.create_pi() for _ in range(8)]
        ntk.create_po(ntk.create_nary_xor(lits, balanced=False))
        b = balance(ntk)
        assert b.depth() == 3
        assert cec(ntk, b)

    def test_shared_nodes_not_flattened(self):
        ntk = Aig()
        a, b, c, d = (ntk.create_pi() for _ in range(4))
        shared = ntk.create_and(a, b)
        g1 = ntk.create_and(shared, c)
        g2 = ntk.create_and(shared, d)
        ntk.create_po(g1)
        ntk.create_po(g2)
        out = balance(ntk)
        assert cec(ntk, out)
        assert out.num_gates() <= 3  # sharing preserved

    @pytest.mark.parametrize("name", ["adder", "sin", "priority"])
    def test_suite_equivalence(self, name):
        ntk = build(name, "tiny")
        b = balance(ntk)
        assert cec(ntk, b)
        assert b.depth() <= ntk.depth()


class TestEquivalenceClasses:
    def test_detects_duplicate_logic(self):
        ntk = Aig()
        a, b, c = (ntk.create_pi() for _ in range(3))
        g1 = ntk.create_and(a, ntk.create_and(b, c))
        g2 = ntk.create_and(ntk.create_and(a, b), c)  # same function, diff structure
        ntk.create_po(g1)
        ntk.create_po(g2)
        classes = functional_classes(ntk)
        flat = [set(m for m, _ in cls) for cls in classes]
        assert any({g1 >> 1, g2 >> 1} <= s for s in flat)

    def test_detects_complement_pairs(self):
        ntk = Aig()
        a, b = ntk.create_pi(), ntk.create_pi()
        g1 = ntk.create_and(a, b)
        g2 = ntk.create_or(lit_not(a), lit_not(b))  # = !g1 structurally distinct?
        ntk.create_po(g1)
        ntk.create_po(g2)
        classes = functional_classes(ntk)
        if classes:  # strashing may already have merged them
            for cls in classes:
                nodes = [m for m, _ in cls]
                if (g1 >> 1) in nodes and (g2 >> 1) in nodes:
                    phases = {m: p for m, p in cls}
                    assert phases[g2 >> 1] != phases[g1 >> 1]

    def test_sat_rejects_false_positives(self):
        # craft signature-colliding but inequivalent nodes: with few rounds of
        # sim the SAT stage must still keep results sound
        ntk = build("priority", "tiny")
        classes = functional_classes(ntk, sim_rounds=1, width=8, sat_verify=True)
        import random
        rng = random.Random(9)
        mask = (1 << 64) - 1
        pats = [rng.getrandbits(64) for _ in range(ntk.num_pis())]
        vals = ntk.simulate_patterns(pats, mask)
        for cls in classes:
            rep, _ = cls[0]
            for node, phase in cls[1:]:
                assert vals[node] == (vals[rep] ^ (mask if phase else 0))


class TestSweep:
    def test_merges_redundancy(self):
        ntk = Aig()
        a, b, c = (ntk.create_pi() for _ in range(3))
        g1 = ntk.create_and(a, ntk.create_and(b, c))
        g2 = ntk.create_and(ntk.create_and(a, b), c)
        ntk.create_po(g1)
        ntk.create_po(g2)
        out = sweep(ntk)
        assert out.num_gates() < ntk.num_gates()
        assert cec(ntk, out)

    @pytest.mark.parametrize("name", ["int2float", "router"])
    def test_suite_equivalence(self, name):
        ntk = build(name, "tiny")
        out = sweep(ntk)
        assert cec(ntk, out)
        assert out.num_gates() <= ntk.num_gates()


class TestFlows:
    @pytest.mark.parametrize("name", ["adder", "log2", "cavlc"])
    def test_compress2rs_reduces_and_preserves(self, name):
        ntk = build(name, "tiny")
        out = optimize(ntk, "compress2rs")
        assert cec(ntk, out)
        assert out.num_gates() <= ntk.num_gates()

    def test_optimize_rounds_snapshots(self):
        ntk = build("adder", "tiny")
        snaps = optimize_rounds(ntk, rounds=2)
        assert len(snaps) == 3
        assert snaps[0] is ntk
        for s in snaps[1:]:
            assert cec(ntk, s)

    def test_unknown_script(self):
        with pytest.raises(ValueError):
            optimize_rounds(build("adder", "tiny"), script="mystery")
