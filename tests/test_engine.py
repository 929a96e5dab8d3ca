"""Tests for the shared mapping engine: sessions, cost models, equivalence.

The headline property: covers produced on the refactored engine — LUT and
ASIC, plain and choice-aware — must be combinationally equivalent
(``sat.cec``) to the source network on the EPFL-style bundled circuits.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build
from repro.core import ChoiceNetwork, MchParams, build_mch
from repro.cuts.database import CutDatabase
from repro.mapping import (
    MappingSession,
    NpnCostModel,
    UnitCostModel,
    asic_map,
    graph_map,
    library_cost_model,
    lut_map,
    run_cover,
)
from repro.mapping.asap7 import asap7_library
from repro.networks import Aig, Xmg
from repro.sat import cec
from repro.synthesis.npn_db import NpnCostCache
from repro.truth.truth_table import TruthTable

CIRCUITS = ["adder", "ctrl", "int2float", "max", "router", "cavlc"]


class TestMappingSession:
    def test_session_cached_on_subject(self):
        ntk = build("ctrl", "tiny")
        s1 = MappingSession.of(ntk)
        s2 = MappingSession.of(ntk)
        assert s1 is s2

    def test_session_invalidated_on_mutation(self):
        ntk = build("ctrl", "tiny")
        s1 = MappingSession.of(ntk)
        a, b = (n << 1 for n in ntk.pis[:2])
        ntk.create_po(ntk.create_xor(a, b))
        assert not s1.is_current()
        s2 = MappingSession.of(ntk)
        assert s2 is not s1

    def test_session_freed_with_its_last_holder(self):
        """The subject refers to its session weakly, so dropping a mapped
        network and its session frees the cut databases at once, without
        waiting for the cyclic garbage collector."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            ntk = build("ctrl", "tiny")
            session = MappingSession.of(ntk)
            lut_map(session, k=4)
            alive = weakref.ref(session)
            del ntk, session
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_cut_database_shared_across_mappers(self):
        ntk = build("int2float", "tiny")
        session = MappingSession.of(ntk)
        db1 = session.cut_database(6, 8)
        lut_map(session, k=6, cut_limit=8)
        assert session.cut_database(6, 8) is db1

    def test_choice_session_uses_processing_order(self):
        ntk = build("adder", "tiny")
        mch = build_mch(ntk, MchParams(representations=(Xmg,)))
        session = MappingSession.of(mch)
        assert session.order() == mch.processing_order()
        assert session.choices is mch.choices_of

    def test_session_results_match_fresh_runs(self):
        ntk = build("max", "tiny")
        session = MappingSession.of(ntk)
        via_session = lut_map(session, k=5, objective="area")
        fresh = lut_map(build("max", "tiny"), k=5, objective="area")
        assert via_session.num_luts() == fresh.num_luts()
        assert via_session.depth() == fresh.depth()

    def test_stats_reports_databases(self):
        ntk = build("ctrl", "tiny")
        session = MappingSession.of(ntk)
        lut_map(session, k=4, cut_limit=6)
        stats = session.stats()
        assert "k=4,limit=6" in stats["databases"]
        assert stats["databases"]["k=4,limit=6"]["cuts"] > 0


class TestCostModels:
    def test_unit_cost(self):
        model = UnitCostModel()
        ntk = build("ctrl", "tiny")
        db = CutDatabase(ntk, k=4, cut_limit=6)
        cut = db.cuts(max(ntk.gates()))[0]
        assert model.costs(db, cut) == (1.0, 1)

    def test_npn_cost_memoizes(self):
        model = NpnCostModel(Xmg, "area")
        ntk = build("ctrl", "tiny")
        db = CutDatabase(ntk, k=4, cut_limit=6)
        cut = db.cuts(max(ntk.gates()))[0]
        first = model.costs(db, cut)
        assert model.costs(db, cut) == first
        assert (db.tt_vars[cut], db.function(cut)) in model._memo

    @pytest.mark.parametrize("make", [UnitCostModel, lambda: NpnCostModel(Xmg, "area")],
                             ids=["unit", "npn"])
    def test_index_costs_match_cut_costs(self, make):
        model = make()
        db = CutDatabase(build("ctrl", "tiny"), k=4, cut_limit=6)
        npn = NpnCostCache(Xmg)
        for i in range(db.num_cuts()):
            if isinstance(model, UnitCostModel):
                want = (1.0, 1)
            elif len(db.leaves[i]) <= 1:
                want = (0.0, 0)
            else:
                tt = TruthTable(db.tt_vars[i], db.function(i))
                _, gates, depth = npn.best_method(tt, "area")
                want = (float(gates), max(depth, 1) if 0 < tt.bits < tt.mask else 0)
            assert model.costs(db, i) == want

    def test_library_cost_model_shared(self):
        lib = asap7_library()
        assert library_cost_model(lib) is library_cost_model(lib)

    def test_library_rows_memoized(self):
        lib = asap7_library()
        model = library_cost_model(lib)
        ntk = build("ctrl", "tiny")
        db = CutDatabase(ntk, k=4, cut_limit=6)
        cut = db.cuts(max(ntk.gates()))[0]
        tt = TruthTable(db.tt_vars[cut], db.function(cut))
        rows = model.rows(tt.num_vars, tt.bits)
        assert model.rows(tt.num_vars, tt.bits) is rows and all(rows)
        # each row's pins index the cut's own variables: evaluating the
        # cell on them reproduces the function in that phase
        for phase, rows_of_phase in enumerate(rows):
            want = tt if phase == 0 else ~tt
            for cell, pins in rows_of_phase:
                for x in range(1 << tt.num_vars):
                    args = 0
                    for i, (var, lp, _) in enumerate(pins):
                        args |= (((x >> var) & 1) ^ lp) << i
                    assert cell.function.get_bit(args) == want.get_bit(x)

    def test_run_cover_rejects_bad_objective(self):
        ntk = build("ctrl", "tiny")
        with pytest.raises(ValueError):
            run_cover(MappingSession.of(ntk), UnitCostModel(), objective="fast")


class TestEngineEquivalence:
    """Property: engine covers are equivalent to the source network."""

    @given(name=st.sampled_from(CIRCUITS),
           objective=st.sampled_from(["area", "delay"]))
    @settings(max_examples=8, deadline=None)
    def test_lut_map_cec(self, name, objective):
        ntk = build(name, "tiny")
        lut = lut_map(ntk, k=5, objective=objective)
        assert cec(ntk, lut.to_logic_network(Aig))

    @given(name=st.sampled_from(CIRCUITS))
    @settings(max_examples=4, deadline=None)
    def test_asic_map_cec(self, name):
        ntk = build(name, "tiny")
        nl = asic_map(ntk, objective="delay")
        assert cec(ntk, nl.to_logic_network(Aig))

    @given(name=st.sampled_from(["adder", "ctrl", "int2float"]))
    @settings(max_examples=3, deadline=None)
    def test_choice_aware_lut_map_cec(self, name):
        ntk = build(name, "tiny")
        mch = build_mch(ntk, MchParams(representations=(Xmg,)))
        lut = lut_map(mch, k=5, objective="area")
        assert cec(ntk, lut.to_logic_network(Aig))

    def test_choice_aware_asic_map_cec(self):
        ntk = build("ctrl", "tiny")
        mch = build_mch(ntk, MchParams(representations=(Xmg, Aig)))
        nl = asic_map(mch, objective="area")
        assert cec(ntk, nl.to_logic_network(Aig))

    def test_graph_map_cec(self):
        ntk = build("int2float", "tiny")
        remapped = graph_map(ntk, Xmg, objective="area")
        assert cec(ntk, remapped)

    def test_shared_session_all_three_mappers_cec(self):
        """One session drives LUT, ASIC and graph mapping; all verify."""
        ntk = build("ctrl", "tiny")
        session = MappingSession.of(ntk)
        lut = lut_map(session, k=4)
        nl = asic_map(session, objective="area")
        g = graph_map(session, Xmg)
        assert cec(ntk, lut.to_logic_network(Aig))
        assert cec(ntk, nl.to_logic_network(Aig))
        assert cec(ntk, g)
