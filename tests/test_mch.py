"""Tests for the MCH core: choice networks, critical paths, Algorithms 1-3,
and the DCH baseline."""

import hashlib

import pytest

from repro.circuits import build
from repro.core import ChoiceNetwork, MchParams, build_dch, build_mch, critical_nodes
from repro.core.critical import node_heights
from repro.cuts import CutDatabase
from repro.flow import run_flow
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

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        ntk, _ = chain_aig()
        with pytest.raises(ValueError, match="finite"):
            critical_nodes(ntk, ratio)
        with pytest.raises(ValueError, match="finite"):
            build_mch(build("adder", "tiny"), MchParams(ratio=ratio))

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



def choice_digest(ch: ChoiceNetwork) -> str:
    """sha256 of the mixed network's structural hash plus every choice
    class (representative, sorted (choice node, phase) members)."""
    classes = sorted((rep, sorted(members)) for rep, members in ch.choices_of.items())
    return hashlib.sha256(repr((ch.ntk.structural_hash(), classes)).encode()).hexdigest()


class TestChoiceNetworkDigests:
    """The choice networks the paper's flows map, pinned: Table I's two
    ``mch`` configs on the five control circuits and Table II's
    ``mch -p xmg`` on four arithmetic circuits, each on the
    ``converge4( b; gm; b )`` of the small-scale circuit.  Any change in
    candidate synthesis, candidate order or choice registration shows up
    here."""

    @pytest.mark.parametrize("name,script,digest", [
        ("cavlc", "mch -p xmg,xag -r 0.6",
         "dbbd9c21d6d8df29a10f32c3a27b49eab698fd53cfc8114bf8729940ea613f43"),
        ("cavlc", "mch -p xmg -r 1.5",
         "c1b992b520cc09a0f3d323871038ba12302d360eea6e3b6214573b46192a2383"),
        ("i2c", "mch -p xmg,xag -r 0.6",
         "76aed6502b54a0c9c26dd10e72a2cbe7fec1886a88bc74567d23ede4238863d0"),
        ("i2c", "mch -p xmg -r 1.5",
         "9b5d3762086e6287b83d7101c085034cedcb53c2c2e2974e0c5defbea3096c6e"),
        ("priority", "mch -p xmg,xag -r 0.6",
         "65885ecd175002fca32dee84f1446ab9a987b8e1710ed7cb49489884157f4db8"),
        ("priority", "mch -p xmg -r 1.5",
         "bd8142a8e250e0c2def92a78a655d4b7d88e71cc66906ea883be1598d13b5b63"),
        ("router", "mch -p xmg,xag -r 0.6",
         "509487f9e8c3ebb03add10a6e36f7f93b52e59be6ed8dc2e4db7a8c0f313da8d"),
        ("router", "mch -p xmg -r 1.5",
         "b112a174383a04d846c6587dfe09c2127c8c46b5ffdd61ce1bab67667208792d"),
        ("int2float", "mch -p xmg,xag -r 0.6",
         "42d3cc371b327b97340c6b85e3ee86cd018261db671dd979d31a11868b27a3ce"),
        ("int2float", "mch -p xmg -r 1.5",
         "4b7a9c55e490dc7e7f7fc06d1ae0fdab7e080096d749fdd54026131b7315a363"),
        ("hyp", "mch -p xmg",
         "0870a32349b87675e15ea3a11fb3db04820c5cf36ccc1da3d88e33929edfeb58"),
        ("sin", "mch -p xmg",
         "49bc138aa0e964a7c0cb995e07dafdecabfe170dd70795d0e3d93cd6b9cd18c1"),
        ("square", "mch -p xmg",
         "a1c67d9a1dcec2e5c88a3b440873604ec428b4f8a4c9baa9adf3c584d8bb84d6"),
        ("voter", "mch -p xmg",
         "44a3f024a8370a623ac986e55c7b5de8f7d662deb861a47158d83a826a010e23"),
    ])
    def test_choice_network(self, converged, name, script, digest):
        assert choice_digest(run_flow(converged(name), script).network) == digest


class TestCutMergingAlgorithm3:
    def test_merged_cuts_present(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        db = CutDatabase(ch.ntk, k=4, cut_limit=8,
                         order=ch.processing_order(), choices=ch.choices_of)
        merged = 0
        for rep in ch.choices_of:
            merged += sum(1 for c in db.cuts(rep) if db.root[c] != rep)
        assert merged > 0

    def test_merged_cut_functions_are_repr_functions(self):
        ntk = build("adder", "tiny")
        ch = build_mch(ntk, MchParams(representations=(Xmg,)))
        db = CutDatabase(ch.ntk, k=4, cut_limit=8,
                         order=ch.processing_order(), choices=ch.choices_of)
        mixed = ch.ntk
        import random
        rng = random.Random(3)
        width = 64
        mask = (1 << width) - 1
        patterns = [rng.getrandbits(width) for _ in range(mixed.num_pis())]
        vals = mixed.simulate_patterns(patterns, mask)
        for rep in list(ch.choices_of)[:20]:
            for c in db.cuts(rep):
                leaves, bits = db.leaves[c], db.function(c)
                if len(leaves) < 2:
                    continue
                got = 0
                for m in range(1 << len(leaves)):
                    if (bits >> m) & 1:
                        term = mask
                        for i, leaf in enumerate(leaves):
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
