"""Tests for structure builders, NPN cost cache and the strategy library."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import Aig, Mig, MixedNetwork, Xag, Xmg, rep_view
from repro.networks.base import GateType
from repro.synthesis import (
    SYNTHESIS_METHODS,
    NpnCostCache,
    AREA_STRATEGY,
    LEVEL_STRATEGY,
    synthesize_candidates,
    synthesize_tt,
)
from repro.synthesis import factoring
from repro.truth.truth_table import TruthTable


def check_realizes(cls, tt, method):
    ntk = cls()
    leaves = [ntk.create_pi() for _ in range(tt.num_vars)]
    out = synthesize_tt(ntk, tt, leaves, method=method)
    ntk.create_po(out)
    assert ntk.simulate_truth_tables()[0] == tt, (cls.__name__, method, tt)


class TestSynthesizeTt:
    @pytest.mark.parametrize("method", SYNTHESIS_METHODS)
    @pytest.mark.parametrize("cls", [Aig, Xag, Mig, Xmg])
    def test_known_functions(self, cls, method):
        for tt in [
            TruthTable.from_function(3, lambda a, b, c: (a + b + c) >= 2),
            TruthTable.from_function(3, lambda a, b, c: (a + b + c) % 2 == 1),
            TruthTable.from_function(4, lambda a, b, c, d: (a and b) or (c and d)),
            TruthTable.from_hex(4, "cafe"),
            TruthTable.const(2, True),
            TruthTable.const(2, False),
            TruthTable.var(3, 1),
        ]:
            check_realizes(cls, tt, method)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.sampled_from(SYNTHESIS_METHODS))
    @settings(max_examples=120, deadline=None)
    def test_random_4var_functions_aig(self, bits, method):
        check_realizes(Aig, TruthTable(4, bits), method)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.sampled_from(SYNTHESIS_METHODS))
    @settings(max_examples=60, deadline=None)
    def test_random_4var_functions_xmg(self, bits, method):
        check_realizes(Xmg, TruthTable(4, bits), method)

    def test_leaf_count_mismatch(self):
        ntk = Aig()
        a = ntk.create_pi()
        with pytest.raises(ValueError):
            synthesize_tt(ntk, TruthTable.var(2, 0), [a], method="sop")

    @pytest.mark.parametrize("method", SYNTHESIS_METHODS)
    def test_replay_leaves_no_reference_cycle(self, method):
        """A replay holds its target network only while it runs: with the
        cyclic collector off, dropping the network frees it at once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            ntk = Aig()
            leaves = [ntk.create_pi() for _ in range(4)]
            ntk.create_po(synthesize_tt(ntk, TruthTable.from_hex(4, "e8a1"), leaves,
                                        method=method))
            ref = weakref.ref(ntk)
            del ntk
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_unknown_method(self):
        ntk = Aig()
        a = ntk.create_pi()
        b = ntk.create_pi()
        with pytest.raises(ValueError):
            synthesize_tt(ntk, TruthTable.var(2, 0), [a, b], method="bogus")


def memo_test_functions():
    """Every function of at most 3 variables, plus seeded samples of 4- and
    5-8-variable functions: ``(narrow, wide)`` lists of truth tables."""
    rng = random.Random(23)
    narrow = [TruthTable(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
    narrow += [TruthTable(4, rng.getrandbits(16)) for _ in range(40)]
    wide = [TruthTable(n, rng.getrandbits(1 << n)) for n in (5, 6, 7, 8) for _ in range(3)]
    return narrow, wide


class TestPlanMemo:
    """Replaying a memoized plan builds exactly what deriving it afresh
    does, in every representation the synthesis entry point serves."""

    TARGETS = {
        "aig": lambda: (Aig(), None),
        "xmg": lambda: (Xmg(), None),
        "mixed-xmg": lambda: (MixedNetwork(), Xmg),
    }

    def build_all(self, tts):
        """``(structural hash, output literal)`` of every function synthesized
        with every method into a fresh network of every target."""
        out = []
        for tt in tts:
            for make in self.TARGETS.values():
                for method in SYNTHESIS_METHODS:
                    host, rep = make()
                    leaves = [host.create_pi() for _ in range(tt.num_vars)]
                    ntk = host if rep is None else rep_view(host, rep)
                    lit = synthesize_tt(ntk, tt, leaves, method=method)
                    host.create_po(lit)
                    out.append((host.structural_hash(), lit))
        return out

    def test_warm_cold_warm_identical(self):
        narrow, wide = memo_test_functions()
        tts = narrow + wide
        self.build_all(tts)
        warm = self.build_all(tts)
        factoring._cached_plan.cache_clear()
        cold = self.build_all(tts)
        assert factoring.plan_memo_stats()["misses"] > 0
        assert self.build_all(tts) == cold == warm

    def test_replay_leaves_plans_unchanged(self):
        narrow, _ = memo_test_functions()
        keys = [(a, tt.num_vars, tt.bits) for tt in narrow for a in ("dsd", "sop", "shannon")]
        plans = {key: repr(factoring._cached_plan(*key)) for key in keys}
        self.build_all(narrow)
        assert {key: repr(factoring._cached_plan(*key)) for key in plans} == plans

    def test_wide_functions_not_memoized(self):
        _, wide = memo_test_functions()
        before = factoring.plan_memo_stats()
        self.build_all(wide)
        assert factoring.plan_memo_stats() == before
        assert all(tt.num_vars > factoring.PLAN_MEMO_VARS for tt in wide)

    def test_memo_bounded(self):
        stats = factoring.plan_memo_stats()
        assert stats["maxsize"] == 1 << 12 and stats["currsize"] <= stats["maxsize"]


class TestRepView:
    def test_mig_view_builds_maj(self):
        mixed = MixedNetwork()
        a = mixed.create_pi()
        b = mixed.create_pi()
        view = rep_view(mixed, Mig)
        g = view.create_and(a, b)
        assert mixed.node_type(g >> 1) == GateType.MAJ

    def test_aig_view_decomposes_maj(self):
        mixed = MixedNetwork()
        a, b, c = (mixed.create_pi() for _ in range(3))
        view = rep_view(mixed, Aig)
        g = view.create_maj(a, b, c)
        # no MAJ nodes created
        assert all(mixed.node_type(n) != GateType.MAJ for n in mixed.gates())
        mixed.create_po(g)
        expect = TruthTable.from_function(3, lambda x, y, z: (x + y + z) >= 2)
        assert mixed.simulate_truth_tables()[0] == expect

    def test_view_shares_storage(self):
        mixed = MixedNetwork()
        a = mixed.create_pi()
        b = mixed.create_pi()
        view = rep_view(mixed, Xmg)
        before = mixed.num_nodes()
        view.create_xor(a, b)
        assert mixed.num_nodes() == before + 1

    def test_rejects_non_network(self):
        mixed = MixedNetwork()
        with pytest.raises(TypeError):
            rep_view(mixed, int)


class TestNpnCostCache:
    def test_cost_positive(self):
        cache = NpnCostCache(Aig)
        tt = TruthTable.from_hex(4, "cafe")
        gates, depth = cache.cost(tt, "sop")
        assert gates > 0 and depth > 0

    def test_cache_hit_consistent(self):
        cache = NpnCostCache(Aig)
        tt = TruthTable.from_hex(4, "cafe")
        assert cache.cost(tt, "dsd") == cache.cost(tt, "dsd")

    def test_npn_invariance(self):
        from repro.truth.npn import apply_transform
        cache = NpnCostCache(Xmg)
        tt = TruthTable.from_hex(4, "1ee1")
        variant = apply_transform(tt, ((2, 0, 3, 1), (True, False, True, False), True))
        assert cache.cost(tt, "dsd") == cache.cost(variant, "dsd")

    def test_xor_cheaper_in_xmg_than_aig(self):
        parity = TruthTable.from_function(3, lambda a, b, c: (a + b + c) % 2 == 1)
        aig_gates, _ = NpnCostCache(Aig).cost(parity, "dsd")
        xmg_gates, _ = NpnCostCache(Xmg).cost(parity, "dsd")
        assert xmg_gates < aig_gates  # the heterogeneity the paper exploits

    def test_best_method_objectives(self):
        cache = NpnCostCache(Aig)
        tt = TruthTable.from_hex(4, "8000")  # AND4
        m_area, g_a, d_a = cache.best_method(tt, "area")
        m_level, g_l, d_l = cache.best_method(tt, "level")
        assert d_l <= d_a or g_a <= g_l

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            NpnCostCache(Aig).best_method(TruthTable.var(2, 0), "speed")


class TestStrategyLibrary:
    def test_candidates_are_equivalent(self):
        mixed = MixedNetwork()
        leaves = [mixed.create_pi() for _ in range(4)]
        tt = TruthTable.from_hex(4, "cafe")
        for strategy in (LEVEL_STRATEGY, AREA_STRATEGY):
            cands = synthesize_candidates(mixed, tt, leaves, strategy, (Aig, Xmg))
            assert cands
            for c in cands:
                n_po = mixed.create_po(c)
                assert mixed.simulate_truth_tables()[n_po] == tt

    def test_candidates_deduped(self):
        mixed = MixedNetwork()
        leaves = [mixed.create_pi() for _ in range(2)]
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        cands = synthesize_candidates(mixed, tt, leaves, AREA_STRATEGY, (Aig, Aig))
        assert len(cands) == len(set(cands))

    def test_bad_objective_rejected(self):
        from repro.synthesis import SynthesisStrategy
        with pytest.raises(ValueError):
            SynthesisStrategy("x", ("sop",), "both")
