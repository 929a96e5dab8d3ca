"""Tests for network utility methods (local functions, cone analysis, views)."""

import pytest

from repro.networks import Aig, GateType, MixedNetwork, Xmg
from repro.networks.base import lit_not
from repro.truth.truth_table import TruthTable


class TestLocalFunction:
    def test_simple_cone(self):
        ntk = Aig()
        a, b, c = (ntk.create_pi() for _ in range(3))
        g1 = ntk.create_and(a, b)
        g2 = ntk.create_and(g1, lit_not(c))
        tt = ntk.local_function(g2 >> 1, [a >> 1, b >> 1, c >> 1])
        expect = TruthTable.from_function(3, lambda x, y, z: x and y and not z)
        assert tt == expect

    def test_leaf_order_matters(self):
        ntk = Aig()
        a, b = (ntk.create_pi() for _ in range(2))
        g = ntk.create_and(a, lit_not(b))
        t1 = ntk.local_function(g >> 1, [a >> 1, b >> 1])
        t2 = ntk.local_function(g >> 1, [b >> 1, a >> 1])
        assert t1 == t2.swap(0, 1)

    def test_escaping_cone_raises(self):
        ntk = Aig()
        a, b, c = (ntk.create_pi() for _ in range(3))
        g = ntk.create_and(ntk.create_and(a, b), c)
        with pytest.raises(ValueError):
            ntk.local_function(g >> 1, [a >> 1, b >> 1])  # c not a leaf

    def test_constant_through_cone(self):
        ntk = MixedNetwork()
        a, b = (ntk.create_pi() for _ in range(2))
        g = ntk.create_maj(a, b, ntk.const1)  # OR
        tt = ntk.local_function(g >> 1, [a >> 1, b >> 1])
        assert tt == TruthTable.var(2, 0) | TruthTable.var(2, 1)

    def test_deep_chain_no_recursion_error(self):
        ntk = Aig()
        a = ntk.create_pi()
        b = ntk.create_pi()
        cur = a
        for _ in range(3000):  # far beyond default recursion limit
            cur = ntk.create_and(cur, b) ^ 1
        ntk.create_po(cur)
        tt = ntk.local_function(cur >> 1, [a >> 1, b >> 1])
        assert tt.num_vars == 2


class TestMffcLeaves:
    def test_leaves_are_boundary(self):
        ntk = Aig()
        a, b, c, d = (ntk.create_pi() for _ in range(4))
        g1 = ntk.create_and(a, b)
        g2 = ntk.create_and(c, d)
        g3 = ntk.create_and(g1, g2)
        ntk.create_po(g3)
        cone = ntk.mffc(g3 >> 1)
        leaves = ntk.mffc_leaves(cone)
        assert set(leaves) == {a >> 1, b >> 1, c >> 1, d >> 1}

    def test_shared_node_becomes_leaf(self):
        ntk = Aig()
        a, b, c = (ntk.create_pi() for _ in range(3))
        shared = ntk.create_and(a, b)
        g = ntk.create_and(shared, c)
        ntk.create_po(shared)
        ntk.create_po(g)
        cone = ntk.mffc(g >> 1)
        assert (shared >> 1) in ntk.mffc_leaves(cone)


class TestAnalysisCaches:
    def _sample(self):
        ntk = Aig()
        a, b, c, d = (ntk.create_pi() for _ in range(4))
        g1 = ntk.create_and(a, b)
        g2 = ntk.create_and(c, d)
        g3 = ntk.create_and(g1, g2)
        ntk.create_po(g3)
        return ntk, g3 >> 1

    def test_mffc_does_not_corrupt_fanout_count_cache(self):
        ntk, root = self._sample()
        before = list(ntk.fanout_counts())
        cone1 = ntk.mffc(root)
        assert list(ntk.fanout_counts()) == before
        assert ntk.mffc(root) == cone1  # stable across repeated calls

    def test_caches_invalidated_on_mutation(self):
        ntk, root = self._sample()
        counts = ntk.fanout_counts()
        fo = ntk.fanouts()
        assert ntk.fanout_counts() == counts  # stable while unchanged
        assert ntk.fanouts() == fo
        a = ntk.pis[0] << 1
        ntk.create_po(a)
        assert ntk.fanout_counts()[a >> 1] == counts[a >> 1] + 1
        g = ntk.create_and(a, lit_not(ntk.pis[3] << 1))
        assert ntk.fanouts()[a >> 1] == fo[a >> 1] + [g >> 1]

    def test_topological_order_memoized(self):
        ntk, _ = self._sample()
        order = ntk.topological_order()
        assert order == list(range(ntk.num_nodes()))
        assert ntk.topological_order() == order
        ntk.create_pi()
        assert ntk.topological_order() == list(range(ntk.num_nodes()))


class TestCreateGate:
    def test_dispatch(self):
        ntk = MixedNetwork()
        a, b, c = (ntk.create_pi() for _ in range(3))
        assert ntk.create_gate(GateType.AND, (a, b)) == ntk.create_and(a, b)
        assert ntk.create_gate(GateType.XOR, (a, b)) == ntk.create_xor(a, b)
        assert ntk.create_gate(GateType.MAJ, (a, b, c)) == ntk.create_maj(a, b, c)
        assert ntk.create_gate(GateType.XOR3, (a, b, c)) == ntk.create_xor3(a, b, c)

    def test_bad_type(self):
        ntk = MixedNetwork()
        with pytest.raises(ValueError):
            ntk.create_gate(GateType.PI, ())


class TestCopyWithPiMap:
    def test_shared_pis(self):
        src = Aig()
        a = src.create_pi("a")
        b = src.create_pi("b")
        src.create_po(src.create_and(a, b))

        dst = MixedNetwork()
        x = dst.create_pi("x")
        y = dst.create_pi("y")
        mapping = src.copy_into_with_map(dst, include_pos=False,
                                         pi_map={a >> 1: x, b >> 1: y})
        assert dst.num_pis() == 2  # no new PIs created
        out = mapping[(src.pos and src.pos[0] >> 1) or 0]
        dst.create_po(out)
        assert dst.simulate_truth_tables()[0] == TruthTable.var(2, 0) & TruthTable.var(2, 1)

    def test_pi_map_must_cover(self):
        src = Aig()
        a = src.create_pi()
        src.create_pi()
        src.create_po(a)
        dst = MixedNetwork()
        with pytest.raises(ValueError):
            src.copy_into_with_map(dst, pi_map={a >> 1: dst.create_pi()})
