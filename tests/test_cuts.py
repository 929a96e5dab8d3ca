"""Tests for priority-cut enumeration and cut functions."""

import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import ALL_BENCHMARKS, build
from repro.core import MchParams, build_mch
from repro.cuts import CutDatabase, expand_cache_stats
from repro.cuts.enumeration import _expand_bits
from repro.mapping import MappingSession, asic_map, graph_map, lut_map
from repro.networks import Aig, MixedNetwork, Xmg
from repro.flow import run_flow
from repro.networks.base import lit_not
from repro.truth.truth_table import TruthTable


def check_cut_functions(ntk, db):
    """Every cut function must match simulation of the node from the leaves."""
    n_pis = ntk.num_pis()
    # Assign each node's global function by simulation
    from repro.truth.truth_table import var_mask
    mask = (1 << (1 << n_pis)) - 1
    patterns = [var_mask(n_pis, i) for i in range(n_pis)]
    vals = ntk.simulate_patterns(patterns, mask)

    for node in ntk.gates():
        for c in db.cuts(node):
            leaves, bits = db.leaves[c], db.function(c)
            assert len(leaves) <= 6
            # compose: cut tt applied to leaf global functions == node function
            got = 0
            for m in range(1 << len(leaves)):
                if (bits >> m) & 1:
                    term = mask
                    for i, leaf in enumerate(leaves):
                        lv = vals[leaf]
                        term &= lv if (m >> i) & 1 else (lv ^ mask)
                    got |= term
            assert got == vals[node], f"cut {c} {leaves} of node {node} wrong"


def is_trivial(db, i):
    """Cut ``i`` is its root's own single-leaf cut."""
    return db.leaves[i] == (db.root[i],)


def build_sample(cls):
    ntk = cls()
    a = ntk.create_pi()
    b = ntk.create_pi()
    c = ntk.create_pi()
    d = ntk.create_pi()
    g1 = ntk.create_and(a, b)
    g2 = ntk.create_or(c, d)
    g3 = ntk.create_xor(g1, g2)
    ntk.create_po(g3)
    return ntk


class TestExpand:
    def test_expand_identity(self):
        tt = TruthTable.from_hex(2, "8")
        assert _expand_bits(tt.bits, (0, 1), 2) == tt.bits

    def test_expand_shift(self):
        tt = TruthTable.var(1, 0)
        bits = _expand_bits(tt.bits, (2,), 3)
        assert bits == TruthTable.var(3, 2).bits


class TestEnumeration:
    def test_pi_trivial_cut(self):
        ntk = build_sample(Aig)
        db = CutDatabase(ntk, k=4)
        pi = ntk.pis[0]
        assert len(db.cuts(pi)) == 1
        assert db.leaves[db.cuts(pi)[0]] == (pi,)

    def test_every_gate_has_trivial_cut(self):
        ntk = build_sample(Aig)
        db = CutDatabase(ntk, k=4)
        for g in ntk.gates():
            assert any(is_trivial(db, c) for c in db.cuts(g))

    def test_cut_functions_aig(self):
        ntk = build_sample(Aig)
        check_cut_functions(ntk, CutDatabase(ntk, k=4))

    def test_cut_functions_xmg(self):
        ntk = build_sample(Xmg)
        check_cut_functions(ntk, CutDatabase(ntk, k=4))

    def test_k_bound_respected(self):
        ntk = build_sample(Aig)
        for k in (2, 3, 4):
            db = CutDatabase(ntk, k=k)
            for g in ntk.gates():
                for c in db.cuts(g):
                    assert len(db.leaves[c]) <= k

    def test_cut_limit_respected(self):
        ntk = build_sample(MixedNetwork)
        db = CutDatabase(ntk, k=4, cut_limit=3)
        for g in ntk.gates():
            assert len(db.cuts(g)) <= 3

    @pytest.mark.parametrize("run", [
        lambda ntk: lut_map(ntk, k=1),
        lambda ntk: lut_map(ntk, cut_limit=1),
        lambda ntk: asic_map(ntk, cut_limit=1),
        lambda ntk: build_mch(ntk, MchParams(cut_size=1)),
        lambda ntk: build_mch(ntk, MchParams(cut_limit=1)),
    ], ids=["lut-k", "lut-limit", "asic-limit", "mch-k", "mch-limit"])
    def test_trivial_only_budget_rejected(self, run):
        """Below k = 2 or cut_limit = 2 a gate keeps only its trivial cut,
        which no mapper can use: the database refuses the budget."""
        with pytest.raises(ValueError, match="at least 2|in \\[2, "):
            run(build("adder", "tiny"))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_networks_cut_correctness(self, seed):
        import random
        rng = random.Random(seed)
        ntk = MixedNetwork()
        lits = [ntk.create_pi() for _ in range(5)]
        for _ in range(15):
            op = rng.choice(["and", "or", "xor", "maj", "xor3"])
            picks = [rng.choice(lits) ^ rng.randint(0, 1) for _ in range(3)]
            if op == "and":
                lits.append(ntk.create_and(picks[0], picks[1]))
            elif op == "or":
                lits.append(ntk.create_or(picks[0], picks[1]))
            elif op == "xor":
                lits.append(ntk.create_xor(picks[0], picks[1]))
            elif op == "maj":
                lits.append(ntk.create_maj(*picks))
            else:
                lits.append(ntk.create_xor3(*picks))
        ntk.create_po(lits[-1])
        check_cut_functions(ntk, CutDatabase(ntk, k=4, cut_limit=6))


class TestTrivialCutInvariant:
    def test_trivial_cut_always_last(self):
        """The trivial cut {node} of every gate is the LAST list element."""
        for cls in (Aig, Xmg, MixedNetwork):
            ntk = build_sample(cls)
            for limit in (2, 3, 8):
                db = CutDatabase(ntk, k=4, cut_limit=limit)
                for g in ntk.gates():
                    cuts = db.cuts(g)
                    assert is_trivial(db, cuts[-1]), f"{cls.__name__} node {g}"
                    assert all(not is_trivial(db, c) for c in cuts[:-1])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_trivial_cut_last_on_random_networks(self, seed):
        import random
        rng = random.Random(seed)
        ntk = MixedNetwork()
        lits = [ntk.create_pi() for _ in range(4)]
        for _ in range(12):
            picks = [rng.choice(lits) ^ rng.randint(0, 1) for _ in range(3)]
            op = rng.choice(["and", "xor", "maj"])
            if op == "and":
                lits.append(ntk.create_and(picks[0], picks[1]))
            elif op == "xor":
                lits.append(ntk.create_xor(picks[0], picks[1]))
            else:
                lits.append(ntk.create_maj(*picks))
        ntk.create_po(lits[-1])
        db = CutDatabase(ntk, k=4, cut_limit=6)
        for g in ntk.gates():
            cuts = db.cuts(g)
            assert cuts and is_trivial(db, cuts[-1])


class TestCutDatabase:
    def test_leaf_tuples_interned(self):
        ntk = build_sample(Aig)
        db = CutDatabase(ntk, k=4, cut_limit=8)
        by_value = {}
        for leaves in db.leaves:
            prior = by_value.setdefault(leaves, leaves)
            assert prior is leaves  # equal tuples share one object

    def test_cuts_against_reference_enumeration(self):
        """Independent oracle: with a generous budget the database holds
        exactly the non-dominated k-feasible cuts of a brute-force
        fixpoint enumeration (plus the trivial cut)."""
        k = 4
        for cls in (Aig, Xmg, MixedNetwork):
            ntk = build_sample(cls)
            # reference: all k-feasible leaf sets via plain set fixpoint
            ref = {}
            for node in ntk.nodes():
                if ntk.is_const(node):
                    ref[node] = {frozenset()}
                elif ntk.is_pi(node):
                    ref[node] = {frozenset((node,))}
                else:
                    sets = set()
                    fanin_sets = [ref[f >> 1] for f in ntk.fanins(node)]
                    import itertools
                    for combo in itertools.product(*fanin_sets):
                        u = frozenset().union(*combo)
                        if len(u) <= k:
                            sets.add(u)
                    # drop dominated (strict-superset) leaf sets
                    sets = {s for s in sets
                            if not any(o < s for o in sets)}
                    sets.add(frozenset((node,)))  # trivial
                    ref[node] = sets
            db = CutDatabase(ntk, k=k, cut_limit=64)
            for g in ntk.gates():
                got = {frozenset(db.leaves[c]) for c in db.cuts(g)}
                assert got == ref[g], f"{cls.__name__} node {g}"

    def test_no_dominated_cut_survives(self):
        ntk = build_sample(MixedNetwork)
        db = CutDatabase(ntk, k=4, cut_limit=8)
        for g in ntk.gates():
            cuts = [set(db.leaves[c]) for c in db.cuts(g)[:-1]]  # minus trivial
            for i, a in enumerate(cuts):
                for j, b in enumerate(cuts):
                    assert i == j or not a < b, f"dominated cut kept at node {g}"


def db_digest(db) -> str:
    """sha256 of every array the cut consumers read."""
    payload = repr((db.leaves, db.tt_bits, db.tt_vars, db.root, db.phase, db.spans))
    return hashlib.sha256(payload.encode()).hexdigest()


# Recorded with the node-indexed-bitmask enumerator this one replaced: the
# local-mask merge must reproduce its cut arrays bit for bit.
REFERENCE_DIGESTS = {
    ("cavlc", 4): "03b8542633de967e3f3dc17a3a768a61c6db29e847e5128ddf8559f8aa8c4b15",
    ("cavlc", 6): "65833f877464091d91cfe961f4eeac33063f571b77887d748208abe59e7fd88e",
    ("hyp", 4): "f794f8860d7f307c4e37c1a3ea09baa171bce35e589be08a700c7057b3693729",
    ("hyp", 6): "9de2425bee97c1fa4fe8e9ba65bad1eaef080847493c96380d9ac9a9b289e7e0",
    ("voter", 4): "f02129f92858db1d992acd91cdfb1263f05c16f122c31599aa9753f494bbc86c",
    ("voter", 6): "f02129f92858db1d992acd91cdfb1263f05c16f122c31599aa9753f494bbc86c",
}
REFERENCE_MCH_DIGEST = "ee90f588e6175d4991d6c838280bd667a8aa0b400bdbf3b7e85d87a744cf25c0"


class TestReferenceDigests:
    @pytest.mark.parametrize("name,k", sorted(REFERENCE_DIGESTS))
    def test_plain_network(self, name, k):
        db = CutDatabase(build(name, "small"), k=k, cut_limit=8)
        assert db_digest(db) == REFERENCE_DIGESTS[name, k]

    def test_choice_network(self):
        mch = build_mch(build("cavlc", "small"), MchParams(representations=(Xmg,)))
        db = MappingSession(mch).cut_database(6, 8)
        assert db_digest(db) == REFERENCE_MCH_DIGEST


def windowed_aig(n_gates: int, seed: int = 7, n_pis: int = 32, window: int = 64) -> Aig:
    """Seeded random AIG whose gates draw fanins from the last ``window`` nodes."""
    rng = random.Random(seed)
    aig = Aig()
    recent = [aig.create_pi() for _ in range(n_pis)]
    while len(recent) < n_pis + n_gates:
        lo = max(0, len(recent) - window)
        a = recent[rng.randrange(lo, len(recent))] ^ rng.getrandbits(1)
        b = recent[rng.randrange(lo, len(recent))] ^ rng.getrandbits(1)
        g = aig.create_and(a, b)
        if g >> 1 > recent[-1] >> 1:     # a new node, not a strash hit
            recent.append(g & ~1)
    aig.create_po(recent[-1])
    return aig


class TestScale:
    def test_bytes_per_cut_independent_of_network_size(self):
        """A cut's footprint must not grow with the index of its nodes."""
        per_cut = []
        for n_gates in (2000, 8000):
            ntk = windowed_aig(n_gates)
            # warm the network's lazy snapshot and order outside the trace
            CutDatabase(ntk, k=3, cut_limit=3)
            tracemalloc.start()
            try:
                db = CutDatabase(ntk, k=3, cut_limit=3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            per_cut.append(peak / db.num_cuts())
        assert max(per_cut) <= 1.5 * min(per_cut), per_cut


def and_chain(n: int, n_pis: int = 4) -> Aig:
    """A depth-``n`` AND chain over ``n_pis`` PIs."""
    ntk = Aig()
    pis = [ntk.create_pi() for _ in range(n_pis)]
    x = pis[0]
    for i in range(n):
        x = ntk.create_and(x ^ (i & 1), pis[1 + i % (n_pis - 1)])
    ntk.create_po(x)
    return ntk


def lut_digest(lut) -> str:
    rows = [(lut.fanins(m), lut.lut_function(m).bits if lut.is_lut(m) else None)
            for m in range(1 + lut.num_pis() + lut.num_luts())]
    return hashlib.sha256(repr((rows, lut.pos)).encode()).hexdigest()


def ntk_digest(ntk) -> str:
    rows = [(int(ntk.node_type(m)), ntk.fanins(m)) for m in ntk.nodes()]
    return hashlib.sha256(repr((rows, ntk.pos)).encode()).hexdigest()


def netlist_digest(nl) -> str:
    rows = [(d[0].name, d[1]) for d in nl._drivers if d is not None]
    return hashlib.sha256(repr((rows, nl.pos)).encode()).hexdigest()


class TestDeepNetworkCover:
    """Exact-area reference counting walks a chain's whole MFFC; it must not
    need an interpreter frame per covered node.  Digests were recorded with
    the recursive walk and a raised recursion limit."""

    @staticmethod
    def _with_low_recursion_limit(fn):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            return fn()
        finally:
            sys.setrecursionlimit(old)

    def test_lut_map_chain(self):
        ntk = and_chain(1500)
        lut = self._with_low_recursion_limit(lambda: lut_map(ntk, k=6, cut_limit=8))
        assert lut_digest(lut) == \
            "1f26c8c1cbc0e395e25d09f206792050672afc1a81f9f47d52297dc2fa499917"

    def test_graph_map_chain(self):
        ntk = and_chain(1500)
        out = self._with_low_recursion_limit(lambda: graph_map(ntk, Xmg))
        assert ntk_digest(out) == \
            "02355075a73ec977cef4d8444f1ab8099c73e1932a842ab87c269977dcd8afbd"

    def test_asic_map_chain(self):
        ntk = and_chain(1500)

        def run():
            limit = sys.getrecursionlimit()
            return asic_map(ntk), limit, sys.getrecursionlimit()

        nl, before, after = self._with_low_recursion_limit(run)
        assert netlist_digest(nl) == \
            "d4f3e94bc88f2896ad275219fb0d3ed7e9f90ffb601e35dc99ba41d7765bd64b"
        # the mapper must not raise the interpreter limit behind the caller
        assert after == before


# Recorded with eager cut functions and the Cut-object cover: covering on
# flat cut indices with functions evaluated on demand must select the same
# cuts and fill the same LUTs and gates.
LUT_MCH_DIGESTS = {
    "hyp": "3714834e799c89a0726a324c314c899b6fe3bdc845cb07607bb447c7c4b0a5cc",
    "sin": "002a8aee05786851d7301dbe7b07db40c3c0b93df93407185413c6f0e60d7928",
    "square": "1a8c3bd8185f08eb24d20257d555b264134402241d7a35b3ac5fdf9e6c498fd5",
    "voter": "573a839bb61b72fb8becc37d79257c0a6eefd3fdaaf4b0b6a9ec2fd306ac8605",
}
GM_TINY_DIGESTS = {
    "adder": "27958c0e15f65019e635e39091f95001bd6b650f33adeca5aecd50c75ab3abc8",
    "bar": "a8892d757147e6d270b2ea00c3b1ec24f1406ab961214461d7241ff8b21cadf3",
    "div": "34731de6203ce84babf4fc994553e4bff1495a2682e5bbbcb955f1d5199ecb76",
    "hyp": "d49c9419ef9818353254d7dfaf3e0c519ecf0e89b54814bc25b554b1cc4aba01",
    "log2": "6b2c55b6c4ca3aa01e98a36c7fde67586bce045ac05473a7071524798278c99e",
    "max": "49ce66260f50b6896b706bee3717e4f5adde3348386ce227e31d3642fbbd4264",
    "multiplier": "7a86e707a22a04f4f69a56ed5289d87aa79a35b906ce336f82b9291c0e249f53",
    "sin": "697d49723b9dabb6ca3215b1ce28ba575c6bb449efd8cbdd6cb331dd3cc4f234",
    "sqrt": "280503ee5b002a33bd9a1d148b9ab5a48e5c9e546d7c8ed8ec94d4c9cc593345",
    "square": "5c3e8c35a7cfaba3300d47a9a73e9558d01853cc688c0d4c1ffce23014f15a47",
    "arbiter": "211d2f03739d3c4a7e85709521a3d8e2c7246a9dc25c291a60ebaab446653289",
    "cavlc": "edfd481dead0bd4a35d3850c1c482c7946553e143fba6555442eae335e7898d7",
    "ctrl": "76760cb911a32b2b7a31fef60269b09173b402b5b3258e70e4566c984fa8310a",
    "dec": "bac3ea6fc03a9557323eec765575ce5a69c594abd917580f42c33efa365e947b",
    "i2c": "2ee6c639c386a799eee93428a57d0da31e8c701a8344fe6a6ec9e3145b207da6",
    "int2float": "dd3dac8ab6bc4a449e40d9b7b351b828d83bdbb2fd4e798f75bf6b4f1942efbd",
    "mem_ctrl": "afb25e9dfd676ff85e894f6ac385f29141f0df4207b98f951f7331d374e458a8",
    "priority": "5c93bec2809cc957615a157ac845a455f340244483b8b1962ab964b2c9c40ce9",
    "router": "ec673b215b318a139b6677bb757da040a923e0e76311f4c9f87208f67f606854",
    "voter": "428187e20aa68bd5901be49aa791dfe7ba895450310e2f1666c6e5293c512ce5",
}


class TestCoverDigests:
    @pytest.mark.parametrize("name", sorted(LUT_MCH_DIGESTS))
    def test_lut_mch(self, converged, name):
        lut = run_flow(converged(name), "mch -p xmg; if -k 6").network
        assert lut_digest(lut) == LUT_MCH_DIGESTS[name]

    def test_gm_tiny_suite(self):
        assert sorted(GM_TINY_DIGESTS) == sorted(ALL_BENCHMARKS)
        got = {name: ntk_digest(run_flow(build(name, "tiny"), "gm").network)
               for name in ALL_BENCHMARKS}
        assert got == GM_TINY_DIGESTS


def bits_digest(db) -> str:
    return hashlib.sha256(repr(db.tt_bits).encode()).hexdigest()


class TestFunctionsOnDemand:
    def test_read_after_node_appends(self):
        """``mch`` appends candidate nodes between building its database and
        reading it; the functions must still be those of the build."""
        ntk = MixedNetwork()
        build("cavlc", "tiny").copy_into(ntk)
        original = ntk.num_nodes()
        order = list(ntk.topological_order())
        before = CutDatabase(ntk, k=6, cut_limit=8)
        rng = random.Random(3)
        for g in list(ntk.gates()):
            a, b, c = (rng.randrange(1, g + 1) << 1 ^ rng.getrandbits(1)
                       for _ in range(3))
            ntk.create_po(ntk.create_maj(a, b, c))
            ntk.create_po(ntk.create_xor(a, g << 1))
        assert ntk.num_nodes() > original
        after = CutDatabase(ntk, k=6, cut_limit=8, order=order)
        assert before.stats["functions"] == 0
        assert bits_digest(before) == bits_digest(after)

    def test_cold_read_on_deep_chain(self):
        """Over two PIs every node's smallest cut is the PI pair, derived
        from the predecessor's: one read evaluates nearly the whole chain."""
        ntk = and_chain(1500, n_pis=2)
        db = CutDatabase(ntk, k=6, cut_limit=8)
        start, end = db.spans[max(ntk.gates())]
        last = end - 2          # the last cut that is not a trivial cut
        got = TestDeepNetworkCover._with_low_recursion_limit(lambda: db.function(last))
        assert 1000 < db.stats["functions"] < db.num_cuts()
        assert got == CutDatabase(ntk, k=6, cut_limit=8).tt_bits[last]

    def test_cut_limit_bound(self):
        """Derivations pack span positions into fixed-width fields."""
        with pytest.raises(ValueError):
            CutDatabase(build_sample(Aig), k=4, cut_limit=(1 << 20) + 1)
        CutDatabase(build_sample(Aig), k=4, cut_limit=1 << 20)

    def test_lut_map_reads_few_functions(self):
        ntk = build("int2float", "tiny")
        session = MappingSession.of(ntk)
        lut_map(session, k=6, cut_limit=8)
        stats = session.cut_database(6, 8).stats
        assert 0 < stats["functions"] <= stats["cuts"] / 4, stats

    @pytest.mark.parametrize("name", ["hyp", "adder", "cavlc"])
    def test_mch_reads_few_functions(self, monkeypatch, name):
        """``mch`` synthesizes from at most ``max_cuts_per_node`` cuts of a
        node: it evaluates those functions, not every non-trivial one."""
        import repro.core.mch as mch_module

        built = []

        class Recording(CutDatabase):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(mch_module, "CutDatabase", Recording)
        build_mch(build(name, "tiny"), MchParams(representations=(Xmg,)))
        (db,) = built
        assert db.k == 4
        stats = db.stats
        assert stats["functions"] < stats["cuts"] - stats["nodes"], stats


class TestExpandCacheBound:
    def test_stats_hook_counts(self):
        before = expand_cache_stats()
        ntk = build_sample(Aig)
        CutDatabase(ntk, k=4).tt_bits
        after = expand_cache_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert set(after) == {"hits", "misses", "maxsize", "currsize"}
        assert 0 < after["currsize"] <= after["maxsize"]

