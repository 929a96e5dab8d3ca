"""The flat struct-of-arrays core: exact round trips, hashes, consumers.

Property coverage for the flat network snapshot layer:

* ``FlatNetwork.from_network(n).to_network()`` restores a **graph-identical**
  network — same types, fanins, levels, PI/PO lists and names — across every
  builtin benchmark suite and randomized networks of every representation
  (including constant-driven and dangling POs);
* a network pickle (how networks cross process boundaries) restores the
  same graph and snapshot bit for bit;
* ``structural_hash`` keys content: equal for structurally identical
  networks in different objects, different after any structural change;
* the flat-compiled consumers agree with the object walk: Tseitin encoding
  accepts either a network or its snapshot with identical CNF, and
  :class:`FlowContext` shares one equivalence session between hash-equal
  network objects.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import state_fingerprint
from repro.circuits import ALL_BENCHMARKS, build
from repro.flow import FlowContext
from repro.networks import Aig, Mig, MixedNetwork, Xag, Xmg
from repro.networks.flat import FlatNetwork
from repro.sat import cec
from repro.sat.cnf import CnfBuilder


REPS = (Aig, Xag, Mig, Xmg, MixedNetwork)


def random_network(cls, seed: int, n_pis: int = 5, n_gates: int = 25):
    """A random network of ``cls`` with constant fanins and dangling POs."""
    rng = random.Random(seed)
    ntk = cls()
    lits = [ntk.create_pi() for _ in range(n_pis)]
    makers = {
        Aig: ("and",),
        Xag: ("and", "xor"),
        Mig: ("maj",),
        Xmg: ("maj", "xor3"),
        MixedNetwork: ("and", "xor", "maj", "xor3"),
    }[cls]
    for i in range(n_gates):
        pick = lambda: rng.choice(lits) ^ rng.randint(0, 1)
        # sprinkle constant fanins: normalization folds them, which is
        # exactly the kind of irregular graph the snapshot must round-trip
        a = 1 if i % 9 == 3 else pick()
        kind = rng.choice(makers)
        if kind == "and":
            lits.append(ntk.create_and(a, pick()))
        elif kind == "xor":
            lits.append(ntk.create_xor(a, pick()))
        elif kind == "maj":
            lits.append(ntk.create_maj(a, pick(), pick()))
        else:
            lits.append(ntk.create_xor3(a, pick(), pick()))
    for _ in range(3):
        ntk.create_po(rng.choice(lits) ^ rng.randint(0, 1))
    ntk.create_po(rng.randint(0, 1))     # constant-driven PO
    # note: most created gates never reach a PO — dangling logic that an
    # exact snapshot must keep (cleanup() would drop it)
    return ntk


def assert_graph_identical(a, b):
    assert type(a) is type(b)
    assert a._types == b._types
    assert a._fanins == b._fanins
    assert a._levels == b._levels
    assert a._pis == b._pis and a._pos == b._pos
    assert a._pi_names == b._pi_names and a._po_names == b._po_names
    assert a._strash == b._strash
    assert state_fingerprint(a) == state_fingerprint(b)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_builtin_suites(self, name):
        ntk = build(name, "tiny")
        back = FlatNetwork.from_network(ntk).to_network()
        assert_graph_identical(ntk, back)

    @pytest.mark.parametrize("cls", REPS)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_networks(self, cls, seed):
        ntk = random_network(cls, seed)
        back = FlatNetwork.from_network(ntk).to_network()
        assert_graph_identical(ntk, back)

    def test_flat_property_caches_per_version(self):
        ntk = random_network(Aig, 11)
        snap = ntk.flat
        assert ntk.flat is snap                   # unchanged -> same snapshot
        ntk.create_po(ntk.create_and(2, 4))
        assert ntk.flat is not snap               # mutation invalidates

    @pytest.mark.parametrize("cls", [Aig, Xag, Mig, Xmg, MixedNetwork],
                             ids=lambda cls: cls.__name__)
    def test_pickle_round_trip(self, cls):
        ntk = random_network(cls, 23)
        snap = ntk.flat
        back = pickle.loads(pickle.dumps(ntk))
        assert type(back) is cls
        assert back.flat == snap
        assert_graph_identical(ntk, back)


class TestStructuralHash:
    def test_equal_structures_equal_hashes(self):
        a = random_network(Aig, 7)
        b = random_network(Aig, 7)
        assert a is not b
        assert a.structural_hash() == b.structural_hash()
        assert a.structural_hash() == a.flat.structural_hash()

    def test_round_trip_preserves_hash(self):
        ntk = random_network(Xag, 3)
        assert ntk.flat.to_network().structural_hash() == ntk.structural_hash()

    def test_any_structural_change_changes_hash(self):
        ntk = random_network(Aig, 9)
        before = ntk.structural_hash()
        ntk.create_po(ntk.create_and(2, 5))
        assert ntk.structural_hash() != before

    def test_rep_distinguishes_hashes(self):
        # same PI-only structure, different representation class
        a, m = Aig(), Mig()
        for n in (a, m):
            n.create_po(n.create_pi("x"))
        assert a.structural_hash() != m.structural_hash()


class TestFlatConsumers:
    def test_encode_accepts_network_or_snapshot(self):
        ntk = build("ctrl", "tiny")
        ba, bb = CnfBuilder(), CnfBuilder()
        va, pa = ba.encode(ntk)
        vb, pb = bb.encode(ntk.flat)
        assert ba.num_vars == bb.num_vars
        assert ba.clauses == bb.clauses
        assert dict(va) == dict(vb) and list(pa) == list(pb)

    def test_context_shares_session_between_hash_equal_objects(self):
        ctx = FlowContext()
        ntk = build("int2float", "tiny")
        twin = ntk.flat.to_network()    # same structure, different object
        s1 = ctx.equivalence_session(ntk)
        s2 = ctx.equivalence_session(twin)
        assert s1 is s2

    def test_cec_accepts_hash_equal_session_reference(self):
        ntk = build("router", "tiny")
        twin = ntk.flat.to_network()
        ctx = FlowContext()
        session = ctx.equivalence_session(ntk)
        # sim_limit=0 forces the SAT path through the injected session even
        # though the circuit is small; the hash-equal twin must be accepted
        res = cec(twin, ntk, sim_limit=0, session=session)
        assert res.equivalent

    def test_cec_rejects_foreign_session_reference(self):
        ntk = build("router", "tiny")
        other = build("ctrl", "tiny")
        ctx = FlowContext()
        session = ctx.equivalence_session(other)
        with pytest.raises(ValueError):
            cec(ntk, ntk.flat.to_network(), sim_limit=0, session=session)
