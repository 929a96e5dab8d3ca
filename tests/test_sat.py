"""Tests for the CDCL solver, CNF encoding and CEC."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import Aig, Mig, MixedNetwork, Xmg, convert
from repro.networks.base import lit_not
from repro.opt import balance
from repro.sat import SAT, UNSAT, CnfBuilder, Solver, cec
from repro.sat.cec import EXHAUSTIVE_PIS


def brute_force(clauses, num_vars):
    for bits in range(1 << num_vars):
        assign = [(bits >> i) & 1 for i in range(num_vars)]
        ok = True
        for cl in clauses:
            if not any(assign[abs(l) - 1] == (1 if l > 0 else 0) for l in cl):
                ok = False
                break
        if ok:
            return True
    return False


class TestSolverBasics:
    def test_empty_problem_sat(self):
        s = Solver()
        assert s.solve() == SAT

    def test_unit_clauses(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-2])
        assert s.solve() == SAT
        assert s.model_value(1) is True
        assert s.model_value(2) is False

    def test_contradiction(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() == UNSAT

    def test_simple_unsat(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([1, -2])
        s.add_clause([-1, 2])
        s.add_clause([-1, -2])
        assert s.solve() == UNSAT

    def test_pigeonhole_3_2(self):
        # 3 pigeons, 2 holes: var p_ij = pigeon i in hole j
        s = Solver()
        v = {}
        k = 0
        for i in range(3):
            for j in range(2):
                k += 1
                v[i, j] = k
                s.new_var()
        for i in range(3):
            s.add_clause([v[i, 0], v[i, 1]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-v[i1, j], -v[i2, j]])
        assert s.solve() == UNSAT

    def test_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]) == SAT
        assert s.solve(assumptions=[-1, -2]) == UNSAT
        assert s.solve() == SAT  # solver still usable

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 8)
        num_clauses = rng.randint(1, 24)
        clauses = []
        for _ in range(num_clauses):
            width = rng.randint(1, 3)
            cl = []
            for _ in range(width):
                v = rng.randint(1, num_vars)
                cl.append(v if rng.random() < 0.5 else -v)
            clauses.append(cl)
        s = Solver()
        ok = True
        for cl in clauses:
            if not s.add_clause(cl):
                ok = False
                break
        got = UNSAT if not ok else s.solve()
        assert got == brute_force(clauses, num_vars)

    def test_model_satisfies_clauses(self):
        rng = random.Random(7)
        for _ in range(20):
            num_vars = rng.randint(2, 10)
            clauses = []
            s = Solver()
            consistent = True
            for _ in range(rng.randint(2, 30)):
                cl = [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
                clauses.append(cl)
                if not s.add_clause(cl):
                    consistent = False
                    break
            if not consistent:
                continue
            if s.solve() == SAT:
                for cl in clauses:
                    assert any(
                        s.model_value(abs(l)) == (l > 0) for l in cl
                    ), f"model violates {cl}"


class TestCnfEncoding:
    def test_gate_semantics_by_enumeration(self):
        ntk = MixedNetwork()
        a = ntk.create_pi()
        b = ntk.create_pi()
        c = ntk.create_pi()
        ntk.create_po(ntk.create_and(a, b))
        ntk.create_po(ntk.create_xor(a, b))
        ntk.create_po(ntk.create_maj(a, b, c))
        ntk.create_po(ntk.create_xor3(a, b, c))
        builder = CnfBuilder()
        pi_vars = {i: builder.new_var() for i in range(3)}
        _, po_lits = builder.encode(ntk, pi_vars)
        # for every assignment the CNF must force PO values = simulation
        for bits in itertools.product([False, True], repeat=3):
            s = Solver()
            for _ in range(builder.num_vars):
                s.new_var()
            for cl in builder.clauses:
                assert s.add_clause(cl)
            assumptions = [
                (pi_vars[i] if bits[i] else -pi_vars[i]) for i in range(3)
            ]
            assert s.solve(assumptions=assumptions) == SAT
            expect = ntk.simulate(list(bits))
            got = [s.model_value(abs(l)) ^ (l < 0) for l in po_lits]
            assert got == expect


class TestCec:
    def test_equivalent_conversions(self):
        ntk = MixedNetwork()
        a = ntk.create_pi()
        b = ntk.create_pi()
        c = ntk.create_pi()
        ntk.create_po(ntk.create_maj(a, b, c))
        ntk.create_po(ntk.create_xor3(a, b, c))
        for cls in (Aig, Mig, Xmg):
            other = convert(ntk, cls)
            assert cec(ntk, other)

    def test_detects_inequivalence(self):
        n1 = Aig()
        a = n1.create_pi()
        b = n1.create_pi()
        n1.create_po(n1.create_and(a, b))
        n2 = Aig()
        a = n2.create_pi()
        b = n2.create_pi()
        n2.create_po(n2.create_or(a, b))
        res = cec(n1, n2)
        assert not res
        # counterexample must actually distinguish them
        cex = res.counterexample
        assert n1.simulate(cex) != n2.simulate(cex)

    def test_sat_path_on_wide_network(self):
        # > sim_limit PIs forces the SAT miter path
        n1 = Aig()
        n2 = Aig()
        lits1 = [n1.create_pi() for _ in range(14)]
        lits2 = [n2.create_pi() for _ in range(14)]
        x1 = n1.create_nary_and(lits1, balanced=True)
        x2 = n2.create_nary_and(lits2, balanced=False)
        n1.create_po(x1)
        n2.create_po(x2)
        assert cec(n1, n2, sim_limit=4)

    def test_sat_path_detects_bug(self):
        n1 = Aig()
        n2 = Aig()
        lits1 = [n1.create_pi() for _ in range(14)]
        lits2 = [n2.create_pi() for _ in range(14)]
        n1.create_po(n1.create_nary_and(lits1))
        bad = lits2[:]
        bad[3] = lit_not(bad[3])
        n2.create_po(n2.create_nary_and(bad))
        res = cec(n1, n2, sim_limit=4)
        assert not res
        assert n1.simulate(res.counterexample) != n2.simulate(res.counterexample)


def random_aig_pair(rng, n_pis, n_gates=40, n_pos=3, mutate=False):
    """A random AIG and a twin: its balanced copy, or a copy with one
    gate's fanin complemented (which may or may not change a PO)."""
    ops = [(rng.randrange(n_pis + g), rng.random() < 0.5,
            rng.randrange(n_pis + g), rng.random() < 0.5)
           for g in range(n_gates)]
    flip = rng.randrange(n_gates) if mutate else -1

    def build(flip_at):
        ntk = Aig()
        lits = [ntk.create_pi() for _ in range(n_pis)]
        for g, (i, ci, j, cj) in enumerate(ops):
            x = lit_not(lits[i]) if ci != (g == flip_at) else lits[i]
            y = lit_not(lits[j]) if cj else lits[j]
            lits.append(ntk.create_and(x, y))
        for lit in lits[-n_pos:]:
            ntk.create_po(lit)
        return ntk

    a = build(-1)
    return a, (build(flip) if mutate else balance(a))


class TestWindowedExhaustiveCec:
    def test_matches_sat_miter_on_random_pairs(self):
        rng = random.Random(19)
        refuted = 0
        for k in range(24):
            n_pis = rng.randint(13, EXHAUSTIVE_PIS)
            a, b = random_aig_pair(rng, n_pis, mutate=k % 3 != 0)
            res = cec(a, b)
            assert res.method == "exhaustive simulation"
            assert bool(res) == bool(cec(a, b, sim_limit=0)), (k, n_pis)
            if not res:
                refuted += 1
                cex = res.counterexample
                assert len(cex) == n_pis
                assert a.simulate(cex) != b.simulate(cex), (k, cex)
        assert refuted >= 5, "the fuzz must exercise counterexamples"

    def test_difference_in_last_window_only(self):
        n1 = Aig()
        n1.create_po(n1.create_nary_and([n1.create_pi() for _ in range(20)]))
        n2 = Aig()
        for _ in range(20):
            n2.create_pi()
        n2.create_po(n2.const0)
        res = cec(n1, n2)
        assert not res and res.method == "exhaustive simulation"
        assert res.counterexample == [True] * 20

    def test_sim_limit_above_ceiling_still_rejects_wide_networks(self):
        n1 = Aig()
        n1.create_po(n1.create_nary_and([n1.create_pi() for _ in range(21)]))
        with pytest.raises(ValueError):
            cec(n1, n1, sim_limit=21)
