"""Network storage: exact pickle round trips, structural hashes, CNF pins.

Every engine reads a :class:`~repro.networks.base.LogicNetwork`'s own
builder lists (``_types``, ``_fanins``, ``_levels``, ``_pis``, ``_pos``);
these tests pin what those readers produce:

* a network pickle (how networks cross process boundaries) restores a
  **graph-identical** network — same types, fanins, levels, PI/PO lists,
  names and strash table — across every builtin benchmark suite and
  randomized networks of every representation (including constant-driven
  and dangling POs);
* ``structural_hash`` keys content: equal for structurally identical
  networks in different objects, different after any structural change,
  and pinned to recorded digests;
* Tseitin encodings and one-shot simulation words are pinned to recorded
  digests.
"""

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import get_suite, state_fingerprint
from repro.circuits import ALL_BENCHMARKS, build
from repro.core import ChoiceNetwork
from repro.mapping import MappingSession
from repro.networks import Aig, Mig, MixedNetwork, Xag, Xmg, convert
from repro.sat.cnf import CnfBuilder
from repro.sim import simulate_words


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
        # exactly the kind of irregular graph a round trip must preserve
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
    # exact round trip must keep (cleanup() would drop it)
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


def pickled(ntk):
    """A structurally identical twin: a distinct object, same graph."""
    return pickle.loads(pickle.dumps(ntk))


def as_rep(ntk, cls):
    return ntk if type(ntk) is cls else convert(ntk, cls)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_builtin_suites(self, name):
        ntk = build(name, "tiny")
        assert_graph_identical(ntk, pickled(ntk))

    @pytest.mark.parametrize("cls", REPS)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_networks(self, cls, seed):
        ntk = random_network(cls, seed)
        assert_graph_identical(ntk, pickled(ntk))

    @pytest.mark.parametrize("cls", [Aig, Xag, Mig, Xmg, MixedNetwork],
                             ids=lambda cls: cls.__name__)
    def test_pickle_round_trip(self, cls):
        ntk = random_network(cls, 23)
        digest = ntk.structural_hash()
        back = pickled(ntk)
        assert type(back) is cls
        assert back.structural_hash() == digest
        assert_graph_identical(ntk, back)

    def test_pickle_drops_mapping_session(self):
        # a mapped subject carries its MappingSession (and every cut
        # database in it); a pickled result must not ship that along
        ntk = build("ctrl", "tiny")
        session = MappingSession.of(ntk)
        session.cut_database(4, 8)
        choice = ChoiceNetwork(ntk)
        MappingSession.of(choice)
        assert not hasattr(pickled(ntk), "_mapping_session")
        assert not hasattr(pickled(choice), "_mapping_session")
        assert MappingSession.of(ntk) is session, "the original keeps it"


#: recorded ``structural_hash`` digests: any change to the hashed bytes or
#: their order shows here (integers are hashed as native 8-byte words, so
#: these hold on little-endian machines)
PINNED_HASHES = {
    ("ctrl", "Aig"): "1b723badf8e3e01e",
    ("ctrl", "Xag"): "956417d5a238efb0",
    ("ctrl", "Mig"): "92aa1aa15d26cb06",
    ("ctrl", "Xmg"): "c0d1de60f6b36fc0",
    ("ctrl", "MixedNetwork"): "0a311bb6159670f5",
    ("dec", "Aig"): "f6a188cdfb30a0f7",
    ("dec", "Xag"): "679ada9e9a73c2d7",
    ("dec", "Mig"): "0ff4688068e42e7d",
    ("dec", "Xmg"): "4a0741fcc3eef29a",
    ("dec", "MixedNetwork"): "915564fd1b9499db",
    ("router", "Aig"): "4d5a306aa3596f9d",
    ("router", "Xag"): "03c03ffa3c4d4d41",
    ("router", "Mig"): "22035adc58466fb5",
    ("router", "Xmg"): "d6a9210c2372cdaf",
    ("router", "MixedNetwork"): "f99517c1be4ec58a",
}

#: seq-mini suite entries -> recorded ``structural_hash`` digests
PINNED_SEQ_HASHES = {
    "counter-w4": "93f56a318544d900",
    "shiftreg-d6": "5e9ab2796400a11c",
    "lfsr-w5": "34b2d32ce13125ef",
    "pipeline-w4s2": "dd3696008d37b1aa",
    "fsm-1101": "08b0fc520683ba84",
}


class TestStructuralHash:
    def test_equal_structures_equal_hashes(self):
        a = random_network(Aig, 7)
        b = random_network(Aig, 7)
        assert a is not b
        assert a.structural_hash() == b.structural_hash()

    def test_round_trip_preserves_hash(self):
        ntk = random_network(Xag, 3)
        assert pickled(ntk).structural_hash() == ntk.structural_hash()

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

    @pytest.mark.parametrize("name,rep", sorted(PINNED_HASHES),
                             ids=lambda v: str(v))
    def test_pinned_digests(self, name, rep):
        cls = {c.__name__: c for c in REPS}[rep]
        ntk = as_rep(build(name, "tiny"), cls)
        assert ntk.structural_hash() == PINNED_HASHES[(name, rep)]

    def test_pinned_sequential_digests(self):
        got = {e.name: e.build("tiny").structural_hash()
               for e in get_suite("seq-mini").entries}
        assert got == PINNED_SEQ_HASHES


def cnf_digest(ntk) -> str:
    """sha256 prefix over the variable count, clauses, var map and PO literals."""
    builder = CnfBuilder()
    var_of, po_lits = builder.encode(ntk)
    payload = (builder.num_vars, builder.clauses, sorted(var_of.items()), po_lits)
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def sim_digest(ntk) -> str:
    """sha256 prefix over :func:`simulate_words` on a seeded 256-bit stimulus."""
    rng = random.Random(7)
    patterns = [rng.getrandbits(256) for _ in range(ntk.num_pis())]
    words = simulate_words(ntk, patterns, (1 << 256) - 1)
    return hashlib.sha256(repr(words).encode()).hexdigest()[:16]


#: case -> (network builder, CNF digest, simulation digest); a change to
#: variable numbering, clause order or simulated words shows here
PINNED_READERS = {
    "ctrl-Aig": (lambda: build("ctrl", "tiny"),
                 "7a64f2af6412dbd2", "fc18bf7c00d5f644"),
    "router-Xag": (lambda: convert(build("router", "tiny"), Xag),
                   "f535941dca9c58e4", "2fbb3a0ddc3c71c4"),
    "int2float-Xmg": (lambda: convert(build("int2float", "tiny"), Xmg),
                      "e3a93b96534f766f", "1eb450bdc90941d3"),
    # AND, XOR, MAJ and XOR3 gates in one network
    "random-MixedNetwork": (lambda: random_network(MixedNetwork, 5, n_gates=60),
                            "f92267a059fa8213", "9cb38043a15b6561"),
}


class TestReaderDigests:
    @pytest.mark.parametrize("case", sorted(PINNED_READERS))
    def test_cnf_encoding_pinned(self, case):
        make, cnf, _ = PINNED_READERS[case]
        assert cnf_digest(make()) == cnf

    @pytest.mark.parametrize("case", sorted(PINNED_READERS))
    def test_simulation_pinned(self, case):
        make, _, sim = PINNED_READERS[case]
        assert sim_digest(make()) == sim

    def test_mixed_case_covers_every_gate_kind(self):
        make = PINNED_READERS["random-MixedNetwork"][0]
        assert {int(t) for t in make()._types} == {0, 1, 2, 3, 4, 5}

