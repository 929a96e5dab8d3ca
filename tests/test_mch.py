"""Tests for the MCH core: choice networks, critical paths, Algorithms 1-3,
and the DCH baseline."""

import pytest

from repro.circuits import build
from repro.core import ChoiceNetwork, MchParams, build_dch, build_mch, critical_nodes
from repro.core.critical import node_heights
from repro.cuts import enumerate_cuts
from repro.networks import Aig, Mig, MixedNetwork, Xag, Xmg
from repro.opt import optimize_rounds
from repro.sat import cec


def chain_aig():
    ntk = Aig()
    a = ntk.create_pi()
    b = ntk.create_pi()
    c = ntk.create_pi()
    g1 = ntk.create_and(a, b)
    g2 = ntk.create_and(g1, c)
    g3 = ntk.create_and(g2, a)
    ntk.create_po(g3)
    return ntk, (g1, g2, g3)


class TestChoiceNetwork:
    def test_add_choice_basic(self):
        ntk = MixedNetwork()
        a, b, c = (ntk.create_pi() for _ in range(3))
        orig = ntk.create_and(a, ntk.create_and(b, c))
        cand = ntk.create_and(ntk.create_and(a, b), c)
        ch = ChoiceNetwork(ntk)
        assert ch.add_choice(orig >> 1, cand)
        assert ch.num_choices() == 1
        assert ch.is_repr(orig >> 1)
        assert ch.verify()

    def test_reject_self(self):
        ntk = MixedNetwork()
        a, b = ntk.create_pi(), ntk.create_pi()
        g = ntk.create_and(a, b)
        ch = ChoiceNetwork(ntk)
        assert not ch.add_choice(g >> 1, g)

    def test_reject_pi_candidate(self):
        ntk = MixedNetwork()
        a, b = ntk.create_pi(), ntk.create_pi()
        g = ntk.create_and(a, b)
        ch = ChoiceNetwork(ntk)
        assert not ch.add_choice(g >> 1, a)

    def test_reject_cycle(self):
        ntk = MixedNetwork()
        a, b, c = (ntk.create_pi() for _ in range(3))
        g1 = ntk.create_and(a, b)
        g2 = ntk.create_and(g1, c)  # g2 depends on g1
        ch = ChoiceNetwork(ntk)
        assert not ch.add_choice(g1 >> 1, g2)  # would create a cycle

    def test_reject_double_membership(self):
        ntk = MixedNetwork()
        a, b, c = (ntk.create_pi() for _ in range(3))
        orig = ntk.create_and(a, ntk.create_and(b, c))
        cand = ntk.create_and(ntk.create_and(a, b), c)
        ch = ChoiceNetwork(ntk)
        assert ch.add_choice(orig >> 1, cand)
        assert not ch.add_choice(orig >> 1, cand)

    def test_processing_order_choice_before_repr(self):
        ntk = MixedNetwork()
        a, b, c = (ntk.create_pi() for _ in range(3))
        orig = ntk.create_and(a, ntk.create_and(b, c))
        cand = ntk.create_and(ntk.create_and(a, b), c)
        ch = ChoiceNetwork(ntk)
        ch.add_choice(orig >> 1, cand)
        order = ch.processing_order()
        assert order.index(cand >> 1) < order.index(orig >> 1)
        # order is a permutation of all nodes
        assert sorted(order) == list(range(ntk.num_nodes()))


class TestCriticalNodes:
    def test_all_on_single_path(self):
        ntk, (g1, g2, g3) = chain_aig()
        crit = critical_nodes(ntk, 1.0)
        assert crit == {g1 >> 1, g2 >> 1, g3 >> 1}

    def test_ratio_above_one_empty(self):
        ntk, _ = chain_aig()
        assert critical_nodes(ntk, 1.5) == set()

    def test_off_path_excluded(self):
        ntk = Aig()
        a, b, c, d = (ntk.create_pi() for _ in range(4))
        deep = ntk.create_and(ntk.create_and(ntk.create_and(a, b), c), d)
        shallow = ntk.create_and(a, d)
        ntk.create_po(deep)
        ntk.create_po(shallow)
        crit = critical_nodes(ntk, 1.0)
        assert (shallow >> 1) not in crit
        assert (deep >> 1) in crit

    def test_lower_ratio_superset(self):
        ntk = build("max", "tiny")
        high = critical_nodes(ntk, 1.0)
        low = critical_nodes(ntk, 0.5)
        assert high <= low

    def test_heights(self):
        ntk, (g1, g2, g3) = chain_aig()
        h = node_heights(ntk)
        assert h[g3 >> 1] == 0
        assert h[g2 >> 1] == 1
        assert h[g1 >> 1] == 2


class TestBuildMch:
    def test_original_structure_retained(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk)
        # the mixed network must contain at least the original gate count
        assert ch.ntk.num_gates() >= ntk.num_gates()
        # and the original POs still compute the same functions
        assert cec(ntk, ch.ntk)

    def test_choices_verified_by_simulation(self):
        for name in ("adder", "sin", "arbiter"):
            ntk = build(name, "tiny")
            ch = build_mch(ntk, MchParams(representations=(Xmg, Xag)))
            assert ch.verify(), name

    def test_ratio_controls_strategy_mix(self):
        ntk = build("adder", "tiny")
        all_level = build_mch(ntk, MchParams(ratio=0.0))   # everything critical
        all_area = build_mch(ntk, MchParams(ratio=1.5))    # nothing critical
        assert all_level.num_choices() > 0
        assert all_area.num_choices() > 0

    def test_representations_param(self):
        from repro.networks.base import GateType

        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Mig,)))
        # candidates must include MAJ gates (MIG vocabulary)
        kinds = {ch.ntk.node_type(n) for n in ch.ntk.gates()}
        assert GateType.MAJ in kinds

    def test_cut_limits_bound_work(self):
        ntk = build("adder", "tiny")
        small = build_mch(ntk, MchParams(max_cuts_per_node=1))
        big = build_mch(ntk, MchParams(max_cuts_per_node=4))
        assert small.ntk.num_nodes() <= big.ntk.num_nodes()


class TestCutMergingAlgorithm3:
    def test_merged_cuts_present(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        cuts = enumerate_cuts(ch.ntk, k=4, cut_limit=8,
                              order=ch.processing_order(), choices=ch.choices_of)
        merged = 0
        for rep in ch.choices_of:
            merged += sum(1 for c in cuts[rep] if c.root != rep)
        assert merged > 0

    def test_merged_cut_functions_are_repr_functions(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        cuts = enumerate_cuts(ch.ntk, k=4, cut_limit=8,
                              order=ch.processing_order(), choices=ch.choices_of)
        mixed = ch.ntk
        import random
        rng = random.Random(3)
        width = 64
        mask = (1 << width) - 1
        patterns = [rng.getrandbits(width) for _ in range(mixed.num_pis())]
        vals = mixed.simulate_patterns(patterns, mask)
        for rep in list(ch.choices_of)[:20]:
            for cut in cuts[rep]:
                if len(cut.leaves) < 2:
                    continue
                got = 0
                for m in range(1 << len(cut.leaves)):
                    if cut.tt.get_bit(m):
                        term = mask
                        for i, leaf in enumerate(cut.leaves):
                            lv = vals[leaf]
                            term &= lv if (m >> i) & 1 else (lv ^ mask)
                        got |= term
                assert got == vals[rep]


class TestDch:
    def test_dch_choices_found(self):
        ntk = build("sin", "tiny")
        snaps = optimize_rounds(ntk, rounds=2)
        ch = build_dch(list(reversed(snaps)))
        assert ch.num_choices() > 0
        assert ch.verify()

    def test_dch_interface_check(self):
        a = build("adder", "tiny")
        b = build("max", "tiny")
        with pytest.raises(ValueError):
            build_dch([a, b])

    def test_dch_empty(self):
        with pytest.raises(ValueError):
            build_dch([])

    def test_dch_mapping_equivalence(self):
        from repro.mapping import asic_map

        ntk = build("int2float", "tiny")
        snaps = optimize_rounds(ntk, rounds=1)
        ch = build_dch(list(reversed(snaps)))
        nl = asic_map(ch, objective="delay")
        assert cec(ntk, nl.to_logic_network(Aig))


class TestChoiceVerifySat:
    def test_sat_verification_passes(self):
        ntk = build("int2float", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        assert ch.verify_sat()

    def test_sat_verification_catches_bad_link(self):
        ntk = MixedNetwork()
        a, b, c = (ntk.create_pi() for _ in range(3))
        g1 = ntk.create_and(a, b)
        g2 = ntk.create_and(a, c)  # NOT equivalent to g1
        ch = ChoiceNetwork(ntk)
        # bypass add_choice's checks to inject a wrong link
        ch.choices_of[g1 >> 1] = [(g2 >> 1, False)]
        ch.repr_of[g2 >> 1] = (g1 >> 1, False)
        assert not ch.verify_sat()
        assert not ch.verify()

    def test_stats(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        s = ch.stats()
        assert s["choices"] == ch.num_choices()
        assert s["max_class_size"] >= 1
