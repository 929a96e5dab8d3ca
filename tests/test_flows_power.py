"""Tests for the deeper resyn2rs flow and switching-power estimation."""

import pytest

from repro.circuits import build
from repro.mapping import asic_map
from repro.flow import optimize
from repro.opt import optimize_rounds
from repro.sat import cec


class TestResyn2rs:
    @pytest.mark.parametrize("name", ["ctrl", "int2float"])
    def test_equivalence_and_gain(self, name):
        ntk = build(name, "tiny")
        out = optimize(ntk, "resyn2rs", rounds=2)
        assert cec(ntk, out)
        assert out.num_gates() <= ntk.num_gates()

    def test_not_worse_than_compress2rs_much(self):
        ntk = build("cavlc", "tiny")
        deep = optimize(ntk, "resyn2rs", rounds=2)
        quick = optimize(ntk, "compress2rs", rounds=2)
        # the deeper flow should at least be competitive
        assert deep.num_gates() <= quick.num_gates() * 1.1

    def test_optimize_rounds_resyn_script(self):
        ntk = build("router", "tiny")
        snaps = optimize_rounds(ntk, script="resyn2rs", rounds=1)
        assert len(snaps) == 2
        assert cec(ntk, snaps[1])


class TestSwitchingPower:
    def test_positive_and_deterministic(self):
        ntk = build("int2float", "tiny")
        nl = asic_map(ntk, objective="area")
        p1 = nl.switching_power()
        p2 = nl.switching_power()
        assert p1 > 0 and p1 == pytest.approx(p2)

    def test_scales_with_area(self):
        # a bigger mapping of the same function should not consume less
        # power under the same stimulus distribution (area-weighted toggles)
        ntk = build("multiplier", "tiny")
        small = asic_map(ntk, objective="area")
        big = asic_map(ntk, objective="delay")
        if big.area() > small.area() * 1.2:
            assert big.switching_power() > small.switching_power() * 0.8

    def test_constant_netlist_zero_power(self):
        from repro.networks import Aig

        ntk = Aig()
        ntk.create_pi()
        ntk.create_po(ntk.const1)
        nl = asic_map(ntk)
        assert nl.switching_power() == 0.0
