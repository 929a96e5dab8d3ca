"""Tests for NPN canonization."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.truth.npn import apply_transform, canonicalize, inverse_transform, semi_canonicalize
from repro.truth.truth_table import TruthTable


class TestApplyTransform:
    def test_identity(self):
        tt = TruthTable.from_hex(3, "e8")  # MAJ
        ident = ((0, 1, 2), (False, False, False), False)
        assert apply_transform(tt, ident) == tt

    def test_output_negation(self):
        tt = TruthTable.from_hex(2, "8")
        t = ((0, 1), (False, False), True)
        assert apply_transform(tt, t) == ~tt

    def test_input_negation(self):
        # f = a AND b;  negate input a -> !a AND b
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        t = ((0, 1), (True, False), False)
        expect = TruthTable.from_function(2, lambda a, b: (not a) and b)
        assert apply_transform(tt, t) == expect

    def test_permutation(self):
        tt = TruthTable.from_function(3, lambda a, b, c: a and not b and c)
        t = ((1, 0, 2), (False, False, False), False)
        got = apply_transform(tt, t)
        expect = TruthTable.from_function(3, lambda a, b, c: b and not a and c)
        assert got == expect

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            apply_transform(TruthTable.var(3, 0), ((0, 1), (False, False), False))


class TestCanonicalize:
    def test_transform_contract(self):
        tt = TruthTable.from_hex(4, "cafe")
        canon, t = canonicalize(tt)
        assert apply_transform(tt, t) == canon

    def test_npn_equivalent_functions_share_canon(self):
        # AND(a, b) vs NOR(a, b) vs AND(!a, b): all NPN-equivalent
        f1 = TruthTable.from_function(2, lambda a, b: a and b)
        f2 = TruthTable.from_function(2, lambda a, b: not (a or b))
        f3 = TruthTable.from_function(2, lambda a, b: (not a) and b)
        c1, _ = canonicalize(f1)
        c2, _ = canonicalize(f2)
        c3, _ = canonicalize(f3)
        assert c1 == c2 == c3

    def test_xor_and_not_equiv(self):
        f1 = TruthTable.from_function(2, lambda a, b: a != b)
        f2 = TruthTable.from_function(2, lambda a, b: a and b)
        assert canonicalize(f1)[0] != canonicalize(f2)[0]

    def test_too_many_vars(self):
        with pytest.raises(ValueError):
            canonicalize(TruthTable.var(5, 0))

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_canon_invariant_under_random_transform(self, bits, data):
        tt = TruthTable(4, bits)
        perm = tuple(data.draw(st.permutations(range(4))))
        phases = tuple(data.draw(st.booleans()) for _ in range(4))
        out = data.draw(st.booleans())
        variant = apply_transform(tt, (perm, phases, out))
        assert canonicalize(tt)[0] == canonicalize(variant)[0]

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=60, deadline=None)
    def test_inverse_transform_roundtrip(self, bits):
        tt = TruthTable(4, bits)
        canon, t = canonicalize(tt)
        assert apply_transform(canon, inverse_transform(t)) == tt


class TestCanonDigest:
    """sha256 of ``canonicalize`` (canonical bits and transform), recorded
    from the per-transform minterm-map loop the Gray-code walk replaced."""

    def test_canonicalize_digest(self):
        tables = [TruthTable(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
        rng = random.Random(4)
        tables += [TruthTable(4, rng.getrandbits(16)) for _ in range(2048)]
        h = hashlib.sha256()
        for tt in tables:
            canon, transform = canonicalize(tt)
            h.update(repr((canon.bits, transform)).encode())
            h.update(b"\n")
        assert h.hexdigest() == "98d83680fb7f4f2dd88a7736b1235f21f1ffbb8dc481f979015f9c365439ec8c"


class TestSemiCanonical:
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=40, deadline=None)
    def test_contract_5vars(self, bits):
        tt = TruthTable(5, bits)
        norm, t = semi_canonicalize(tt)
        assert apply_transform(tt, t) == norm

    def test_deterministic(self):
        tt = TruthTable.from_hex(5, "deadbeef")
        a, _ = semi_canonicalize(tt)
        b, _ = semi_canonicalize(tt)
        assert a == b
