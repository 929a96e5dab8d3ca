"""Tests for ISOP computation and DSD decomposition."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.factoring import _shannon_plan
from repro.truth.dsd import decompose, dsd_depth, dsd_num_gates
from repro.truth.isop import cover_truth_table, cube_literals, isop, num_literals
from repro.truth.truth_table import TruthTable


def eval_dsd(node, complemented, assignment):
    """Reference evaluator for DSD trees."""
    def rec(n):
        if n.kind == "const":
            return n.value
        if n.kind == "var":
            return assignment[n.var_index]
        vals = [rec(ch) ^ c for ch, c in n.children]
        if n.kind == "and":
            return all(vals)
        if n.kind == "or":
            return any(vals)
        if n.kind == "xor":
            return sum(vals) % 2 == 1
        if n.kind == "maj":
            return sum(vals) >= 2
        if n.kind == "mux":
            return vals[1] if vals[0] else vals[2]
        raise AssertionError(n.kind)

    return rec(node) ^ complemented


class TestIsop:
    def test_and(self):
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        cubes = isop(tt)
        assert len(cubes) == 1
        assert cover_truth_table(cubes, 2) == tt

    def test_const0(self):
        assert isop(TruthTable.const(3, False)) == []

    def test_const1(self):
        cubes = isop(TruthTable.const(3, True))
        assert cubes == [(0, 0)]

    def test_xor_needs_two_cubes(self):
        tt = TruthTable.from_function(2, lambda a, b: a != b)
        cubes = isop(tt)
        assert len(cubes) == 2
        assert cover_truth_table(cubes, 2) == tt

    def test_cube_literals(self):
        tt = TruthTable.from_function(3, lambda a, b, c: a and not c)
        cubes = isop(tt)
        assert len(cubes) == 1
        assert sorted(cube_literals(cubes[0])) == [(0, False), (2, True)]

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_isop_exact_cover(self, n, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
        tt = TruthTable(n, bits)
        cubes = isop(tt)
        assert cover_truth_table(cubes, n) == tt

    @given(st.integers(min_value=2, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_isop_with_dont_cares(self, n, data):
        full = (1 << (1 << n)) - 1
        on = data.draw(st.integers(min_value=0, max_value=full))
        dc = data.draw(st.integers(min_value=0, max_value=full))
        tt = TruthTable(n, on & ~dc)
        dtt = TruthTable(n, dc)
        cubes = isop(tt, dtt)
        cover = cover_truth_table(cubes, n)
        assert (tt.bits & ~cover.bits) == 0
        assert (cover.bits & ~(tt.bits | dtt.bits)) == 0

    def test_num_literals(self):
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        assert num_literals(isop(tt)) == 2

    def test_dont_care_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            isop(TruthTable.var(3, 0), TruthTable.const(2, False))
        with pytest.raises(ValueError):
            isop(TruthTable.var(2, 0), TruthTable.const(3, False))


class TestDsd:
    def test_const(self):
        node, c = decompose(TruthTable.const(3, True))
        assert node.kind == "const" and c is True

    def test_var_and_complement(self):
        node, c = decompose(TruthTable.var(3, 1))
        assert node.kind == "var" and node.var_index == 1 and not c
        node, c = decompose(~TruthTable.var(3, 1))
        assert node.kind == "var" and c

    def test_top_and(self):
        tt = TruthTable.from_function(3, lambda a, b, c: a and (b or c))
        node, c = decompose(tt)
        assert node.kind in ("and", "maj")  # both are valid decompositions

    def test_maj_detected(self):
        tt = TruthTable.from_function(3, lambda a, b, c: (a + b + c) >= 2)
        node, c = decompose(tt)
        assert node.kind == "maj" and not c

    def test_xor_detected(self):
        tt = TruthTable.from_function(3, lambda a, b, c: (a + b + c) % 2 == 1)
        node, _ = decompose(tt)
        assert node.kind == "xor"

    @given(st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_dsd_evaluates_correctly(self, n, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
        tt = TruthTable(n, bits)
        node, c = decompose(tt)
        for m in range(1 << n):
            assignment = [bool((m >> v) & 1) for v in range(n)]
            assert eval_dsd(node, c, assignment) == tt.get_bit(m), (tt, node, c, m)

    def test_costs_positive(self):
        tt = TruthTable.from_hex(4, "cafe")
        node, _ = decompose(tt)
        assert dsd_num_gates(node) >= 1
        assert dsd_depth(node) >= 1


# ---------------------------------------------------------------------- #
# plan identity                                                           #
# ---------------------------------------------------------------------- #

def _small_functions():
    """Every function of at most 4 variables."""
    for n in range(5):
        for bits in range(1 << (1 << n)):
            yield TruthTable(n, bits)


def _wide_functions():
    """200 seeded random functions per width 5..10."""
    rng = random.Random(2025)
    for n in range(5, 11):
        for _ in range(200):
            yield TruthTable(n, rng.getrandbits(1 << n))


def _dont_care_pairs():
    """Seeded (on-set, don't-care set) pairs of 1..8 variables."""
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(100):
            on, dc = rng.getrandbits(1 << n), rng.getrandbits(1 << n)
            yield TruthTable(n, on & ~dc), TruthTable(n, dc)


def _digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(repr(res).encode())
        h.update(b"\n")
    return h.hexdigest()


_PLANNERS = {"isop": isop, "decompose": decompose, "shannon": _shannon_plan}


class TestPlanDigests:
    """sha256 of the ``repr`` of every ISOP cover, DSD tree and Shannon
    plan over fixed corpora, recorded from the object-based planners the
    integer kernels replaced: any change of iteration order shows here."""

    DIGESTS = {
        ("isop", "small"):
            "92c75c68e181c205261ea63b08a890bcefb94219014542c23339c226e38c9ccf",
        ("isop", "wide"):
            "58f63db64c4ff8f9cdca147ce729a763ec2f7c707c5914cdddf45c4f716b2530",
        ("decompose", "small"):
            "37e3ac26fda8d334606078ecd66b81969c3f3659b92ba6d84c34cc6b0cac0726",
        ("decompose", "wide"):
            "b179cf97ca3e8ff1062a3f851247d34ea6faf69c996a3812266363a4aa1a293a",
        ("shannon", "small"):
            "c31c035b4d804d95cb367d18800064dd71c9cbdf3b49cdad6e7dd636c8d3064e",
        ("shannon", "wide"):
            "0b455893171a84fadc81a9283b4903e4e4c709a45a317ea68b8589953e582356",
    }

    @pytest.mark.parametrize("planner, corpus", sorted(DIGESTS))
    def test_plan_digest(self, planner, corpus):
        fn = _PLANNERS[planner]
        functions = _small_functions() if corpus == "small" else _wide_functions()
        assert _digest(fn(tt) for tt in functions) == self.DIGESTS[planner, corpus]

    def test_isop_dont_care_digest(self):
        got = _digest(isop(on, dc) for on, dc in _dont_care_pairs())
        assert got == "21ef4f7f6b8f463e8c49c9fffe5b67c6a1c7ed92d5c140d09aca3409a1e55048"
