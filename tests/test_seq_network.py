"""Register support in the network core: API, copies, flat transport."""

import pickle

import pytest

from repro.circuits import SEQUENTIAL, build
from repro.networks import Aig
from repro.networks.base import require_combinational
from repro.networks.flat import FlatNetwork


def two_bit_counter() -> Aig:
    ntk = Aig()
    en = ntk.create_pi("en")
    r0 = ntk.create_ro("r0", init=0)
    r1 = ntk.create_ro("r1", init=1)
    n0 = ntk.create_xor(r0, en)
    n1 = ntk.create_xor(r1, ntk.create_and(r0, en))
    ntk.create_po(n0, "q0")
    ntk.create_po(n1, "q1")
    ntk.create_ri(n0)
    ntk.create_ri(n1)
    return ntk


class TestRegisterApi:
    def test_ro_is_a_pi_with_register_bookkeeping(self):
        ntk = two_bit_counter()
        assert ntk.num_pis() == 3          # en + 2 ROs in the comb skeleton
        assert ntk.num_real_pis() == 1
        assert ntk.num_registers() == 2
        assert ntk.has_registers()
        assert [init for _, _, init in ntk.registers] == [0, 1]
        ro0 = ntk.registers[0][0]
        assert ntk.is_ro(ro0)
        assert not ntk.is_ro(ntk.pis[0])   # "en" is a real PI

    def test_real_pis_excludes_register_outputs(self):
        ntk = two_bit_counter()
        assert len(ntk.real_pis) == 1
        assert ntk.pi_names[ntk.pis.index(ntk.real_pis[0])] == "en"

    def test_register_pairing_is_by_creation_order(self):
        ntk = Aig()
        a = ntk.create_ro("a", init=1)
        b = ntk.create_ro("b", init=0)
        ntk.create_po(ntk.create_and(a, b))
        ntk.create_ri(b)
        ntk.create_ri(a)
        regs = ntk.registers
        assert regs[0][2] == 1 and regs[1][2] == 0
        assert regs[0][1] == b and regs[1][1] == a

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError, match="init value"):
            Aig().create_ro(init=2)

    def test_excess_ri_rejected(self):
        ntk = Aig()
        ntk.create_ro()
        ntk.create_ri(0)
        with pytest.raises(ValueError):
            ntk.create_ri(0)

    def test_unpaired_register_caught_on_access(self):
        ntk = Aig()
        ntk.create_ro()
        with pytest.raises(ValueError):
            ntk.registers

    def test_repr_shows_register_count(self):
        assert "regs=2" in repr(two_bit_counter())


class TestRequireCombinational:
    def test_error_names_circuit_and_latch_count(self):
        ntk = two_bit_counter()
        with pytest.raises(ValueError) as exc:
            require_combinational(ntk, "balance")
        msg = str(exc.value)
        assert "balance" in msg
        assert repr(ntk) in msg            # the circuit is named
        assert "2 register" in msg         # and the latch count carried
        assert "seq-" in msg               # with a pointer at the remedy

    def test_comb_networks_pass_through(self):
        require_combinational(build("ctrl", "tiny"), "anything")

    @pytest.mark.parametrize("engine,call", [
        ("balance", lambda n: __import__("repro.opt.balancing",
                                         fromlist=["balance"]).balance(n)),
        ("cec", lambda n: __import__("repro.sat.cec",
                                     fromlist=["cec"]).cec(n, n)),
    ])
    def test_comb_engines_refuse_registers(self, engine, call):
        with pytest.raises(ValueError, match="register"):
            call(two_bit_counter())


class TestSequentialCopies:
    def test_cleanup_preserves_registers_and_reachable_ri_cones(self):
        ntk = two_bit_counter()
        ntk.create_and(2, 4)                # dangling gate: cleanup fodder
        out = ntk.cleanup()
        assert out.num_registers() == 2
        assert [i for _, _, i in out.registers] == [0, 1]

    def test_cleanup_drops_registers_with_dead_cones(self):
        ntk = Aig()
        a = ntk.create_pi("a")
        r = ntk.create_ro("r", init=0)      # never observed
        ntk.create_po(a, "out")
        ntk.create_ri(r)
        out = ntk.cleanup()
        assert out.num_registers() == 0
        assert out.num_real_pis() == 1

    def test_copy_with_pi_map_refuses_registers(self):
        ntk = two_bit_counter()
        with pytest.raises(ValueError, match="register"):
            ntk.copy_into_with_map(Aig(), pi_map={})


class TestFlatTransport:
    def test_flat_roundtrip_preserves_registers(self):
        for name in SEQUENTIAL:
            ntk = build(name, "tiny")
            back = FlatNetwork.from_network(ntk).to_network()
            assert back.num_registers() == ntk.num_registers(), name
            assert back.registers == ntk.registers, name
            assert back.structural_hash() == ntk.structural_hash(), name

    def test_flat_pickle_bit_exact(self):
        flat = FlatNetwork.from_network(two_bit_counter())
        back = pickle.loads(pickle.dumps(flat))
        assert len(back.ros) == 2
        assert back == flat
        assert back.structural_hash() == flat.structural_hash()

    def test_pickle_transport(self):
        ntk = two_bit_counter()
        back = pickle.loads(pickle.dumps(ntk))
        assert back.registers == ntk.registers
        assert back.flat == ntk.flat

    def test_hash_distinguishes_init_values(self):
        a = two_bit_counter()
        b = Aig()
        en = b.create_pi("en")
        r0 = b.create_ro("r0", init=1)      # flipped init
        r1 = b.create_ro("r1", init=1)
        n0 = b.create_xor(r0, en)
        n1 = b.create_xor(r1, b.create_and(r0, en))
        b.create_po(n0, "q0")
        b.create_po(n1, "q1")
        b.create_ri(n0)
        b.create_ri(n1)
        assert a.structural_hash() != b.structural_hash()

    def test_hash_distinguishes_registered_from_pure_comb(self):
        seq = two_bit_counter()
        comb = Aig()
        for j, n in enumerate(seq.pis):
            comb.create_pi(seq.pi_names[j])
        # same gate structure, no registers
        en, r0, r1 = comb.pis[0] * 2, comb.pis[1] * 2, comb.pis[2] * 2
        n0 = comb.create_xor(r0, en)
        n1 = comb.create_xor(r1, comb.create_and(r0, en))
        comb.create_po(n0, "q0")
        comb.create_po(n1, "q1")
        assert seq.structural_hash() != comb.structural_hash()
