"""Tests for the LUT mapper and graph mapper (plain and choice-aware)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build
from repro.core import MchParams, build_mch
from repro.flow import run_flow
from repro.mapping import graph_map, lut_map
from repro.networks import Aig, Mig, MixedNetwork, Xag, Xmg
from repro.sat import cec

#: XMG graph mapping iterated to a local optimum, at most four rounds
ITERATE_XMG = "gm -r xmg; converge3( gm -r xmg )"


def small_adder():
    return build("adder", "tiny")


class TestLutMap:
    def test_equivalence(self):
        ntk = small_adder()
        lut = lut_map(ntk, k=6, objective="area")
        assert cec(ntk, lut.to_logic_network(Aig))

    def test_k_respected(self):
        ntk = small_adder()
        for k in (3, 4, 6):
            lut = lut_map(ntk, k=k)
            for n in range(len(lut._is_lut)):
                if lut.is_lut(n):
                    assert len(lut.fanins(n)) <= k

    def test_delay_objective_not_deeper(self):
        ntk = build("max", "tiny")
        d = lut_map(ntk, k=6, objective="delay").depth()
        a = lut_map(ntk, k=6, objective="area").depth()
        assert d <= a

    def test_area_objective_not_bigger(self):
        ntk = build("max", "tiny")
        d = lut_map(ntk, k=6, objective="delay").num_luts()
        a = lut_map(ntk, k=6, objective="area").num_luts()
        assert a <= d

    def test_po_on_pi_and_const(self):
        ntk = Aig()
        a = ntk.create_pi()
        ntk.create_po(a)            # PO directly on a PI
        ntk.create_po(ntk.const1)   # constant PO
        ntk.create_po(a ^ 1)        # complemented PI
        lut = lut_map(ntk)
        assert lut.num_luts() == 0
        assert lut.simulate([True]) == [True, True, False]

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            lut_map(small_adder(), objective="power")

    @pytest.mark.parametrize("name", ["multiplier", "priority", "voter"])
    def test_suite_equivalence(self, name):
        ntk = build(name, "tiny")
        lut = lut_map(ntk, k=6, objective="area")
        assert cec(ntk, lut.to_logic_network(Aig))


class TestLutMapWithChoices:
    def test_mch_never_worse_depth(self):
        ntk = small_adder()
        plain = lut_map(ntk, k=6, objective="delay")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        mch = lut_map(ch, k=6, objective="delay")
        assert mch.depth() <= plain.depth()
        assert cec(ntk, mch.to_logic_network(Aig))

    def test_mch_adder_improves_depth(self):
        # XMG choices expose the XOR3/MAJ carry chain: depth must drop
        ntk = build("adder", "tiny")
        plain = lut_map(ntk, k=6, objective="delay")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        mch = lut_map(ch, k=6, objective="delay")
        assert mch.depth() < plain.depth()

    def test_choice_verify(self):
        ntk = build("sin", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg, Xag)))
        assert ch.verify()
        assert ch.num_choices() > 0

    def test_mch_equivalence_multiple_reps(self):
        ntk = build("log2", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Mig, Xag)))
        lut = lut_map(ch, k=4, objective="area")
        assert cec(ntk, lut.to_logic_network(Aig))


class TestLutNetwork:
    def test_create_lut_validation(self):
        from repro.networks import LutNetwork
        from repro.truth.truth_table import TruthTable

        lut = LutNetwork(4)
        a = lut.create_pi()
        with pytest.raises(ValueError):
            lut.create_lut([a], TruthTable.var(2, 0))  # arity mismatch
        with pytest.raises(ValueError):
            lut.create_lut([a] * 5, TruthTable.var(5, 0))  # k exceeded
        with pytest.raises(ValueError):
            lut.create_lut([99], TruthTable.var(1, 0))  # unknown fanin

    def test_to_logic_network_all_reps(self):
        ntk = small_adder()
        lut = lut_map(ntk, k=4)
        for cls in (Aig, Xmg, MixedNetwork):
            back = lut.to_logic_network(cls)
            assert cec(ntk, back)

    def test_depth_levels(self):
        ntk = small_adder()
        lut = lut_map(ntk, k=6)
        lev = lut.levels()
        assert lut.depth() == max(lev[n] for n, _ in lut.pos)


class TestGraphMap:
    @pytest.mark.parametrize("target", [Aig, Xag, Mig, Xmg])
    def test_equivalence_all_targets(self, target):
        ntk = small_adder()
        out = graph_map(ntk, target, objective="area")
        assert cec(ntk, out)
        assert type(out) is target

    def test_xmg_compresses_adder(self):
        # the XOR3/MAJ vocabulary must shrink an adder significantly
        ntk = build("adder", "tiny")
        xmg = graph_map(ntk, Xmg, objective="area")
        assert xmg.num_gates() < ntk.num_gates() / 2

    def test_delay_objective(self):
        ntk = build("max", "tiny")
        d = graph_map(ntk, Aig, objective="delay")
        a = graph_map(ntk, Aig, objective="area")
        assert d.depth() <= a.depth()
        assert cec(ntk, d) and cec(ntk, a)

    def test_iterate_converges(self):
        ntk = build("sin", "tiny")
        out = run_flow(ntk, ITERATE_XMG).network
        again = graph_map(out, Xmg, objective="area")
        assert again.num_gates() >= out.num_gates()
        assert cec(ntk, out)

    def test_graph_map_with_choices(self):
        ntk = build("adder", "tiny")
        base = run_flow(ntk, ITERATE_XMG).network
        ch = build_mch(base, MchParams(representations=(Mig, Xmg)))
        improved = graph_map(ch, Xmg, objective="area")
        assert cec(ntk, improved)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_networks(self, seed):
        import random
        rng = random.Random(seed)
        ntk = Aig()
        lits = [ntk.create_pi() for _ in range(5)]
        for _ in range(25):
            a, b = rng.choice(lits) ^ rng.randint(0, 1), rng.choice(lits) ^ rng.randint(0, 1)
            lits.append(ntk.create_and(a, b))
        ntk.create_po(lits[-1])
        ntk.create_po(lits[len(lits) // 2])
        out = graph_map(ntk, Xmg, objective="area")
        assert cec(ntk, out)
