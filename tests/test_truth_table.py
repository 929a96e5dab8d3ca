"""Unit and property tests for the truth-table engine."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.truth.truth_table import TruthTable, var_mask


def tts(max_vars=5):
    return st.integers(min_value=0, max_value=max_vars).flatmap(
        lambda n: st.builds(
            TruthTable, st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)
        )
    )


class TestConstruction:
    def test_const(self):
        assert TruthTable.const(3, False).bits == 0
        assert TruthTable.const(3, True).bits == 0xFF

    def test_var_masks(self):
        assert var_mask(2, 0) == 0b1010
        assert var_mask(2, 1) == 0b1100
        assert var_mask(3, 2) == 0xF0

    def test_var_mask_bits_match_minterm_index(self):
        for n in range(11):
            for v in range(n):
                m = var_mask(n, v)
                assert m >> (1 << n) == 0
                assert all((m >> i) & 1 == (i >> v) & 1 for i in range(1 << n))

    def test_var_mask_twenty_vars(self):
        for v in range(20):
            m = var_mask(20, v)
            assert bin(m).count("1") == 1 << 19
            for i in (0, 1, (1 << v) - 1, 1 << v, 0x5A5A5, (1 << 20) - 1):
                assert (m >> i) & 1 == (i >> v) & 1

    def test_var_mask_out_of_range(self):
        with pytest.raises(ValueError):
            var_mask(2, 2)

    def test_from_binary_string(self):
        tt = TruthTable.from_binary_string("1000")
        assert tt == TruthTable.var(2, 0) & TruthTable.var(2, 1)

    def test_from_binary_string_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_binary_string("101")

    def test_from_function(self):
        tt = TruthTable.from_function(3, lambda a, b, c: a and (b or c))
        for m in range(8):
            a, b, c = bool(m & 1), bool(m & 2), bool(m & 4)
            assert tt.get_bit(m) == (a and (b or c))

    def test_from_hex_roundtrip(self):
        tt = TruthTable.from_hex(4, "cafe")
        assert tt.to_hex() == "cafe"


class TestOperators:
    def test_and_or_xor_not(self):
        a = TruthTable.var(2, 0)
        b = TruthTable.var(2, 1)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101

    def test_mismatched_vars(self):
        with pytest.raises(ValueError):
            TruthTable.var(2, 0) & TruthTable.var(3, 0)

    def test_evaluate(self):
        maj = TruthTable.from_function(3, lambda a, b, c: (a + b + c) >= 2)
        assert maj.evaluate([True, True, False])
        assert not maj.evaluate([True, False, False])


class TestCofactorSupport:
    def test_cofactor(self):
        f = TruthTable.from_function(3, lambda a, b, c: a and (b or c))
        f_a1 = f.cofactor(0, True)
        expect = TruthTable.from_function(3, lambda a, b, c: b or c)
        assert f_a1 == expect

    def test_support(self):
        f = TruthTable.var(4, 2)
        assert f.support() == [2]
        g = TruthTable.var(4, 0) ^ TruthTable.var(4, 3)
        assert g.support() == [0, 3]

    def test_min_base(self):
        g = TruthTable.var(4, 1) & TruthTable.var(4, 3)
        small, sup = g.min_base()
        assert sup == [1, 3]
        assert small == TruthTable.var(2, 0) & TruthTable.var(2, 1)

    @given(tts(4))
    @settings(max_examples=100, deadline=None)
    def test_shannon_expansion(self, tt):
        for v in range(tt.num_vars):
            x = TruthTable.var(tt.num_vars, v)
            rebuilt = (x & tt.cofactor(v, True)) | (~x & tt.cofactor(v, False))
            assert rebuilt == tt


class TestPermutation:
    def test_flip(self):
        f = TruthTable.var(2, 0) & TruthTable.var(2, 1)  # AND
        g = f.flip(0)  # !a AND b
        expect = TruthTable.from_function(2, lambda a, b: (not a) and b)
        assert g == expect

    def test_swap_adjacent(self):
        f = TruthTable.from_function(3, lambda a, b, c: a and not b and c)
        g = f.swap_adjacent(0)
        expect = TruthTable.from_function(3, lambda a, b, c: b and not a and c)
        assert g == expect

    @given(tts(4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permute_consistent_with_evaluate(self, tt, data):
        n = tt.num_vars
        if n == 0:
            return
        perm = data.draw(st.permutations(range(n)))
        g = tt.permute(list(perm))
        for m in range(1 << n):
            assign = [bool((m >> i) & 1) for i in range(n)]
            src = [False] * n
            for i in range(n):
                src[perm[i]] = assign[i]
            assert g.evaluate(assign) == tt.evaluate(src)

    @given(tts(4))
    @settings(max_examples=60, deadline=None)
    def test_double_flip_identity(self, tt):
        for v in range(tt.num_vars):
            assert tt.flip(v).flip(v) == tt


class TestResize:
    def test_extend_preserves_function(self):
        f = TruthTable.var(2, 0) & TruthTable.var(2, 1)
        g = f.extend(4)
        for m in range(16):
            assert g.get_bit(m) == f.get_bit(m & 3)

    def test_shrink_requires_independence(self):
        f = TruthTable.var(3, 2)
        with pytest.raises(ValueError):
            f.shrink(2)
        g = TruthTable.var(3, 0).extend(3)
        assert g.shrink(1) == TruthTable.var(1, 0)

    @given(tts(3))
    @settings(max_examples=60, deadline=None)
    def test_extend_then_minbase(self, tt):
        big = tt.extend(5)
        small, sup = big.min_base()
        assert all(s < tt.num_vars for s in sup)
