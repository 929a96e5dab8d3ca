"""Tests for the bit-parallel simulation engine and pattern pools."""

import random

import pytest

from repro.networks import Aig, MixedNetwork
from repro.networks.base import GateType, lit_not
from repro.sim import PatternPool, SimEngine, simulate_words


def naive_simulate(ntk, pi_patterns, mask):
    """Straight-line reference simulation (no batching, no caching)."""
    vals = [0] * ntk.num_nodes()
    for i, n in enumerate(ntk.pis):
        vals[n] = pi_patterns[i] & mask

    def v(lit):
        x = vals[lit >> 1]
        return x ^ mask if lit & 1 else x

    for n in range(ntk.num_nodes()):
        if not ntk.is_gate(n):
            continue
        t = ntk.node_type(n)
        fis = ntk.fanins(n)
        if t == GateType.AND:
            vals[n] = v(fis[0]) & v(fis[1])
        elif t == GateType.XOR:
            vals[n] = v(fis[0]) ^ v(fis[1])
        elif t == GateType.MAJ:
            a, b, c = (v(f) for f in fis)
            vals[n] = (a & b) | (a & c) | (b & c)
        else:
            a, b, c = (v(f) for f in fis)
            vals[n] = a ^ b ^ c
    return vals


def add_random_gates(ntk, lits, rng, n_gates):
    """Append random AND/XOR/MAJ/XOR3 gates over ``lits`` (complemented at
    random), extending ``lits`` with each new gate."""
    pick = lambda: rng.choice(lits) ^ rng.randrange(2)
    for _ in range(n_gates):
        kind = rng.randrange(4)
        if kind == 0:
            lits.append(ntk.create_and(pick(), pick()))
        elif kind == 1:
            lits.append(ntk.create_xor(pick(), pick()))
        elif kind == 2:
            lits.append(ntk.create_maj(pick(), pick(), pick()))
        else:
            lits.append(ntk.create_xor3(pick(), pick(), pick()))


def random_mixed_network(seed, n_pis=6, n_gates=30):
    rng = random.Random(seed)
    ntk = MixedNetwork()
    lits = [ntk.create_pi() for _ in range(n_pis)]
    add_random_gates(ntk, lits, rng, n_gates)
    ntk.create_po(lits[-1])
    ntk.create_po(lits[-2])
    return ntk


class TestSimulateWords:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_reference(self, seed):
        ntk = random_mixed_network(seed)
        rng = random.Random(seed + 100)
        width = 64
        mask = (1 << width) - 1
        pats = [rng.getrandbits(width) for _ in range(ntk.num_pis())]
        assert simulate_words(ntk, pats, mask) == naive_simulate(ntk, pats, mask)

    def test_program_cache_follows_appends(self):
        ntk = Aig()
        a, b = ntk.create_pi(), ntk.create_pi()
        g1 = ntk.create_and(a, b)
        ntk.create_po(g1)
        v1 = ntk.simulate_patterns([0b01, 0b11], 0b11)
        assert v1[g1 >> 1] == 0b01
        # grow the network after the program was compiled
        g2 = ntk.create_and(a, lit_not(b))
        ntk.create_po(g2)
        v2 = ntk.simulate_patterns([0b01, 0b11], 0b11)
        assert v2[g2 >> 1] == 0b00
        assert v2[g1 >> 1] == 0b01

    def test_pattern_count_validated(self):
        ntk = Aig()
        ntk.create_pi()
        ntk.create_pi()
        with pytest.raises(ValueError):
            ntk.simulate_patterns([1], 1)


class TestPatternPool:
    def test_add_pattern_appends_column(self):
        pool = PatternPool(3, n_patterns=4, seed=9)
        words_before = list(pool.words)
        pool.add_pattern([True, False, True])
        assert pool.n_patterns == 5
        for i, w in enumerate(pool.words):
            assert w & 0b1111 == words_before[i]
        assert pool.pattern(4) == [True, False, True]

    def test_length_validated(self):
        pool = PatternPool(2)
        with pytest.raises(ValueError):
            pool.add_pattern([True])


class TestSimEngine:
    def test_signatures_match_naive(self):
        ntk = random_mixed_network(3)
        pool = PatternPool(ntk.num_pis(), n_patterns=128, seed=2)
        engine = SimEngine(ntk, pool)
        assert engine.signatures() == naive_simulate(ntk, pool.words, pool.mask)

    def test_pattern_incremental_refresh(self):
        ntk = random_mixed_network(4)
        pool = PatternPool(ntk.num_pis(), n_patterns=32, seed=3)
        engine = SimEngine(ntk, pool)
        engine.refresh()
        rng = random.Random(17)
        for _ in range(5):
            pool.add_pattern([bool(rng.random() < 0.5)
                              for _ in range(ntk.num_pis())])
        assert engine.signatures() == naive_simulate(ntk, pool.words, pool.mask)

    def test_node_incremental_refresh(self):
        ntk = random_mixed_network(5, n_gates=10)
        pool = PatternPool(ntk.num_pis(), n_patterns=64, seed=4)
        engine = SimEngine(ntk, pool)
        engine.refresh()
        # grow the network: the dirty suffix must be simulated on demand
        a = ntk.pis[0] << 1
        b = ntk.pis[1] << 1
        g = ntk.create_maj(a, lit_not(b), ntk.create_xor(a, b))
        assert engine.signatures() == naive_simulate(ntk, pool.words, pool.mask)
        assert engine.node_signature(g >> 1) == naive_simulate(
            ntk, pool.words, pool.mask)[g >> 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_node_incremental_refresh_every_gate_kind(self, seed):
        # appended suffixes run the evaluator from a nonzero program index
        rng = random.Random(seed)
        ntk = random_mixed_network(seed, n_gates=12)
        pool = PatternPool(ntk.num_pis(), n_patterns=96, seed=seed)
        engine = SimEngine(ntk, pool)
        engine.refresh()
        lits = [n << 1 for n in range(1, ntk.num_nodes())]
        for _ in range(3):
            add_random_gates(ntk, lits, rng, rng.randrange(4, 12))
            expected = naive_simulate(ntk, pool.words, pool.mask)
            assert engine.signatures() == expected
            assert simulate_words(ntk, pool.words, pool.mask) == expected

    def test_both_dimensions_grow(self):
        ntk = random_mixed_network(6, n_gates=8)
        pool = PatternPool(ntk.num_pis(), n_patterns=16, seed=5)
        engine = SimEngine(ntk, pool)
        engine.refresh()
        pool.add_pattern([True] * ntk.num_pis())
        ntk.create_and(ntk.pis[0] << 1, ntk.pis[1] << 1)
        assert engine.signatures() == naive_simulate(ntk, pool.words, pool.mask)

    def test_literal_signature_applies_complement(self):
        ntk = random_mixed_network(7, n_gates=6)
        pool = PatternPool(ntk.num_pis(), n_patterns=32, seed=6)
        engine = SimEngine(ntk, pool)
        node = next(ntk.gates())
        assert engine.literal_signature(node << 1) == engine.node_signature(node)
        assert engine.literal_signature((node << 1) | 1) == \
            engine.node_signature(node) ^ pool.mask

    def test_pool_pi_mismatch_rejected(self):
        ntk = random_mixed_network(8)
        with pytest.raises(ValueError):
            SimEngine(ntk, PatternPool(ntk.num_pis() + 1))
