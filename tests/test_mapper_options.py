"""Focused tests for mapper parameters and edge behaviours."""

import pytest

from repro.circuits import build
from repro.core import MchParams, build_mch
from repro.cuts import CutDatabase
from repro.mapping import MappingSession, UnitCostModel, asic_map, lut_map, run_cover
from repro.networks import Aig, Xmg
from repro.sat import cec


class TestLutMapperOptions:
    def test_cut_limit_tradeoff(self):
        ntk = build("max", "tiny")
        small = lut_map(ntk, k=6, cut_limit=2, objective="area")
        large = lut_map(ntk, k=6, cut_limit=12, objective="area")
        # more cuts can only help the heuristic on average; both must verify
        assert cec(ntk, small.to_logic_network(Aig))
        assert cec(ntk, large.to_logic_network(Aig))
        assert large.num_luts() <= small.num_luts() * 1.2

    def test_flow_iterations_zero(self):
        ntk = build("ctrl", "tiny")
        lut = lut_map(ntk, flow_iterations=0, exact_iterations=0, objective="delay")
        assert cec(ntk, lut.to_logic_network(Aig))

    def test_exact_iterations_reduce_or_keep_area(self):
        ntk = build("multiplier", "tiny")
        no_exact = lut_map(ntk, k=5, exact_iterations=0, objective="area")
        with_exact = lut_map(ntk, k=5, exact_iterations=3, objective="area")
        assert with_exact.num_luts() <= no_exact.num_luts()

    def test_mapping_cover_consistency(self):
        ntk = build("int2float", "tiny")
        cover = run_cover(MappingSession.of(ntk), UnitCostModel(), k=5,
                          objective="area")
        # every selected cut's leaves must be covered or be PIs
        for node, cut in cover.selection.items():
            for leaf in cover.db.leaves[cut]:
                assert ntk.is_pi(leaf) or leaf in cover.selection
        assert cover.area == pytest.approx(len(cover.selection))

    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            lut_map(build("ctrl", "tiny"), objective="balanced")


class TestAsicMapperOptions:
    def test_flow_iterations_effect(self):
        ntk = build("max", "tiny")
        raw = asic_map(ntk, objective="delay", flow_iterations=0, exact_iterations=0)
        recovered = asic_map(ntk, objective="delay", flow_iterations=2, exact_iterations=2)
        assert recovered.area() <= raw.area() * 1.01
        assert cec(ntk, recovered.to_logic_network(Aig))

    def test_exact_iterations_never_hurt_area(self):
        ntk = build("cavlc", "tiny")
        no_exact = asic_map(ntk, objective="area", exact_iterations=0)
        with_exact = asic_map(ntk, objective="area", exact_iterations=2)
        assert with_exact.area() <= no_exact.area() + 1e-9

    def test_delay_map_respects_required_times(self):
        # area recovery must not degrade the achieved delay
        ntk = build("priority", "tiny")
        fast = asic_map(ntk, objective="delay", flow_iterations=0, exact_iterations=0)
        tuned = asic_map(ntk, objective="delay", flow_iterations=2, exact_iterations=2)
        assert tuned.delay() <= fast.delay() + 1e-9

    def test_cut_limit_param(self):
        ntk = build("router", "tiny")
        nl = asic_map(ntk, cut_limit=4)
        assert cec(ntk, nl.to_logic_network(Aig))


class TestChoiceCutsDetails:
    def test_merged_sets_respect_budget(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        l = 6
        db = CutDatabase(ch.ntk, k=4, cut_limit=l,
                         order=ch.processing_order(), choices=ch.choices_of)
        for rep in ch.choices_of:
            # own budget + choice budget + trivial
            assert len(db.cuts(rep)) <= 2 * l

    def test_plain_enumeration_unchanged_by_choice_arg_none(self):
        ntk = build("ctrl", "tiny")
        a = CutDatabase(ntk, k=4, cut_limit=8)
        b = CutDatabase(ntk, k=4, cut_limit=8, order=list(range(ntk.num_nodes())))
        for n in ntk.nodes():
            assert [a.leaves[c] for c in a.cuts(n)] == [b.leaves[c] for c in b.cuts(n)]
