"""Tests for the standard-cell library, Boolean matcher and ASIC mapper."""

import hashlib

import pytest

from repro.circuits import build
from repro.core import MchParams, build_mch
from repro.flow import run_flow
from repro.mapping import (
    LibraryCostModel,
    MappingSession,
    MatchTable,
    asap7_library,
    asic_map,
    library_cost_model,
    parse_genlib,
    write_genlib,
)
from repro.mapping.library import Library, parse_expression
from repro.networks import Aig, Xag, Xmg
from repro.sat import cec
from repro.truth.truth_table import TruthTable

MINIMAL_GENLIB = """
GATE inv    1.0  O=!A;        PIN * INV 1 999 8.0 0.0 8.0 0.0
GATE nand2  2.0  O=!(A*B);    PIN * INV 1 999 11.0 0.0 11.0 0.0
GATE nor2   2.0  O=!(A+B);    PIN * INV 1 999 13.0 0.0 13.0 0.0
GATE xnor2  5.0  O=!(A^B);    PIN * INV 1 999 24.0 0.0 24.0 0.0
GATE oai21  3.0  O=!((A+B)*C); PIN * INV 1 999 15.0 0.0 15.0 0.0
"""


class TestLibrary:
    def test_asap7_has_inverter_and_core_cells(self):
        lib = asap7_library()
        assert lib.inverter is not None
        names = {c.name for c in lib}
        for need in ("INVx1", "NAND2x1", "XOR2x1", "MAJx2", "O21BAIx1"):
            assert need in names

    def test_cell_functions(self):
        lib = asap7_library()
        nand2 = lib.cell("NAND2x1")
        assert nand2.function == ~(TruthTable.var(2, 0) & TruthTable.var(2, 1))
        maj = lib.cell("MAJx2")
        expect = TruthTable.from_function(3, lambda a, b, c: (a + b + c) >= 2)
        assert maj.function == expect

    def test_expression_parser(self):
        tt, pins = parse_expression("!((A*B)+C)")
        assert pins == ["A", "B", "C"]
        expect = TruthTable.from_function(3, lambda a, b, c: not ((a and b) or c))
        assert tt == expect

    def test_expression_parser_xor_prime(self):
        tt, pins = parse_expression("A^B'")
        expect = TruthTable.from_function(2, lambda a, b: a != (not b))
        assert tt == expect

    def test_genlib_roundtrip(self):
        lib = asap7_library()
        text = write_genlib(lib)
        lib2 = parse_genlib(text, name="roundtrip")
        assert len(lib2) == len(lib)
        for cell in lib:
            c2 = lib2.cell(cell.name)
            assert c2.function == cell.function
            assert c2.area == pytest.approx(cell.area)
            assert c2.pin_delays == pytest.approx(cell.pin_delays)

    def test_genlib_parse_basic(self):
        text = """
        GATE inv 1.0 O=!A; PIN * INV 1 999 1.0 0.0 1.0 0.0
        GATE nand2 2.0 O=!(A*B); PIN * INV 1 999 1.5 0.0 1.5 0.0
        """
        lib = parse_genlib(text)
        assert len(lib) == 2
        assert lib.inverter.name == "inv"


class TestMatcher:
    def test_and2_matches(self):
        table = MatchTable(asap7_library())
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        matches = table.lookup(tt)
        assert any(m.cell.name == "AND2x2" for m in matches)

    def test_nand_with_phases(self):
        table = MatchTable(asap7_library())
        # !a AND b should match NOR2 with one complemented pin, etc.
        tt = TruthTable.from_function(2, lambda a, b: (not a) and b)
        matches = table.lookup(tt)
        assert matches
        # verify one match semantically
        m = matches[0]
        cell_tt = m.cell.function
        for x in range(4):
            leaf_vals = [bool((x >> i) & 1) for i in range(2)]
            pin_vals = []
            for pin in range(m.cell.num_pins):
                v = leaf_vals[m.leaf_of_pin[pin]] ^ m.pin_phases[pin]
                pin_vals.append(v)
            assert cell_tt.evaluate(pin_vals) == tt.evaluate(leaf_vals)

    def test_all_matches_semantically_correct(self):
        table = MatchTable(asap7_library())
        for tt in [
            TruthTable.from_hex(3, "e8"),
            TruthTable.from_hex(3, "96"),
            TruthTable.from_function(3, lambda a, b, c: not ((a or b) and (not c))),
        ]:
            for m in table.lookup(tt):
                for x in range(1 << tt.num_vars):
                    leaf_vals = [bool((x >> i) & 1) for i in range(tt.num_vars)]
                    pin_vals = [
                        leaf_vals[m.leaf_of_pin[p]] ^ m.pin_phases[p]
                        for p in range(m.cell.num_pins)
                    ]
                    assert m.cell.function.evaluate(pin_vals) == tt.evaluate(leaf_vals)

    def test_no_match_for_exotic(self):
        table = MatchTable(asap7_library())
        # a 4-input prime function unlikely to be a single cell
        tt = TruthTable.from_hex(4, "16e9")
        for m in table.lookup(tt):
            assert m.cell.num_pins == 4  # if matched at all, must be 4-pin


class TestAsicMapper:
    @pytest.mark.parametrize("objective", ["delay", "area"])
    def test_equivalence(self, objective):
        ntk = build("adder", "tiny")
        nl = asic_map(ntk, objective=objective)
        assert cec(ntk, nl.to_logic_network(Aig))
        assert nl.area() > 0 and nl.delay() > 0

    def test_delay_map_faster_than_area_map(self):
        ntk = build("max", "tiny")
        d = asic_map(ntk, objective="delay")
        a = asic_map(ntk, objective="area")
        assert d.delay() <= a.delay()
        assert a.area() <= d.area()

    def test_po_polarity(self):
        ntk = Aig()
        a = ntk.create_pi()
        b = ntk.create_pi()
        g = ntk.create_and(a, b)
        ntk.create_po(g ^ 1)  # complemented PO
        nl = asic_map(ntk)
        assert nl.simulate([True, True]) == [False]
        assert nl.simulate([True, False]) == [True]

    def test_po_on_pi_and_const(self):
        ntk = Aig()
        a = ntk.create_pi()
        ntk.create_po(a ^ 1)
        ntk.create_po(ntk.const1)
        nl = asic_map(ntk)
        assert nl.simulate([False]) == [True, True]
        assert nl.simulate([True]) == [False, True]

    def test_mch_improves_delay_on_adder(self):
        ntk = build("adder", "tiny")
        plain = asic_map(ntk, objective="delay")
        ch = build_mch(ntk, MchParams(representations=(Xmg, Xag), ratio=0.8))
        mch = asic_map(ch, objective="delay")
        assert mch.delay() <= plain.delay()
        assert cec(ntk, mch.to_logic_network(Aig))

    def test_mixed_network_subject(self):
        # mapping an XMG directly (MAJ/XOR3 gates) must work via MAJ cells
        ntk = Xmg()
        a, b, c = (ntk.create_pi() for _ in range(3))
        ntk.create_po(ntk.create_maj(a, b, c))
        ntk.create_po(ntk.create_xor3(a, b, c))
        nl = asic_map(ntk)
        assert cec(ntk, nl.to_logic_network(Aig))
        assert any(name.startswith(("MAJ", "XOR3", "XNOR3")) for name in nl.cell_histogram())

    def test_histogram_and_verilog(self):
        from repro.io import write_verilog_netlist

        ntk = build("ctrl", "tiny")
        nl = asic_map(ntk, objective="area")
        hist = nl.cell_histogram()
        assert sum(hist.values()) == nl.num_cells()
        v = write_verilog_netlist(nl)
        assert v.startswith("module top") and v.rstrip().endswith("endmodule")

    def test_one_input_library_rejected(self):
        """A library whose widest cell has one input can match no cut; the
        mapper says so instead of failing inside the cut database."""
        lib = parse_genlib(
            "GATE INV 1.0 O=!A; PIN * INV 1 999 8.0 0.0 8.0 0.0\n"
            "GATE BUF 1.0 O=A;  PIN * NONINV 1 999 9.0 0.0 9.0 0.0\n",
            name="inv_buf")
        with pytest.raises(ValueError, match=r"'inv_buf'.*two or more inputs"):
            asic_map(build("adder", "tiny"), library=lib)


def netlist_digest(nl) -> str:
    """sha256 of every cell instance (cell name, fanin nets) plus the POs."""
    rows = [(d[0].name, d[1]) for d in nl._drivers if d is not None]
    return hashlib.sha256(repr((rows, nl.pos)).encode()).hexdigest()


class TestReferenceDigests:
    """Netlists pinned to the digests of the recursive AsicMapper that the
    iterative cover replaced: any change in candidate order, tie-breaking or
    float association of the area sums shows up here."""

    @pytest.mark.parametrize("name,objective,digest", [
        ("adder", "delay", "00892451a23261998931db3709a0cd4d5fd2eb8112fa9282bcd52c2dbde6a567"),
        ("adder", "area", "876d32b9400c25d33f46c5a50a535bf592a9b78fde204d4262d4d40d0445cf57"),
        ("max", "delay", "13c5f886066f182a2fbfb5f3352515f9f0edf4fa6caad86cfd22fccc8eadbc02"),
        ("max", "area", "83fb024aa7f62e7606fe956b4ff64177e638698635737a0ccd8bc5116f9ce774"),
        ("cavlc", "delay", "34e41bea03893cd5813f98ed0cff6f669bae2c02b1a6824fb5608ff987feda9e"),
        ("cavlc", "area", "ca8eeaaa90703e663eb36b7053c231c004760ee5cf2bf32540331f13444eaaa8"),
        ("router", "delay", "4dcd69af477eb2f953087604c3e3de77e83028560ae8054b4d68f8bdbc0e3d9f"),
        ("router", "area", "52ba70549eebec5b66b09a21afff95a32f141d8c704609c27a82a55c46ae4f94"),
        ("int2float", "delay", "b925915262104947ce47fcdbd2e084ee0a77e48df2e5e05e46ed1437ef73842e"),
        ("int2float", "area", "f5cb32bc890eda2b3278fcf50f747e04e502bfc9875d8d4c3c6e45d60c2cdfd1"),
    ])
    def test_tiny_circuit(self, name, objective, digest):
        nl = asic_map(build(name, "tiny"), objective=objective)
        assert netlist_digest(nl) == digest

    @pytest.mark.parametrize("script,objective,digest", [
        ("mch -p xmg,xag -r 0.6", "delay",
         "e40ce99f309898703fe2259a9dbba45e8f3a764121bbac339672748ff1032cd3"),
        ("mch -p xmg -r 1.5", "area",
         "669a599f248e06e184e26748cf227c87604ebe50685501516e79a47be8f0eda5"),
    ])
    def test_int2float_choice_network(self, converged, script, objective, digest):
        choices = run_flow(converged("int2float"), script).network
        assert netlist_digest(asic_map(choices, objective=objective)) == digest

    @pytest.mark.parametrize("name,script,objective,digest", [
        ("cavlc", "mch -p xmg,xag -r 0.6", "delay",
         "907189aed6ee147a3638cacb8e7c423486fab041dc7b8633f122b4b4449af117"),
        ("cavlc", "mch -p xmg -r 1.5", "area",
         "0dd6fb23a31da8e8e887d60894f6956e74fdcaa9516a5b2563f2d71bfe33b8f2"),
        ("i2c", "mch -p xmg,xag -r 0.6", "delay",
         "c7bbfb5a112ad3e378c727dd0d16c98e442c328f99bfda88c0edf00a4302e76b"),
        ("i2c", "mch -p xmg -r 1.5", "area",
         "a18ac4d59e0350ef64ce565216f6125e8c42da6b7828926a8357885912592d9b"),
        ("priority", "mch -p xmg,xag -r 0.6", "delay",
         "007c082a72ad9fa1d3de2a026aec7ee576439b197c044cc9da6f5ca50599a6d4"),
        ("priority", "mch -p xmg -r 1.5", "area",
         "91be828cdbc076ad57dfea4a3e91d0ed3f7f7cf9bef90baf02e4d66cf02eacf8"),
        ("router", "mch -p xmg,xag -r 0.6", "delay",
         "66dbb68b3d2d4df4c456069fed280ffdadee3a64b1249662124f8085144bf536"),
        ("router", "mch -p xmg -r 1.5", "area",
         "e95698874bc5fa638d722eedd3a5d902ce2d63632d0c9a96cc98e2bf4eca559f"),
    ])
    def test_control_choice_network(self, converged, name, script, objective, digest):
        """The other four Table I control circuits under both Table I
        configs, at the scale the benchmark maps them."""
        choices = run_flow(converged(name), script).network
        assert netlist_digest(asic_map(choices, objective=objective)) == digest


class TestMatchRowsMemo:
    """``LibraryCostModel`` matches each cut function once: the mapper's
    passes (and later mappings) select from its memoized rows."""

    SCRIPT = "converge4( b; gm; b ); mch -p xmg,xag -r 0.6"

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"min_base": 0, "matches": 0}
        for name in calls:
            def counted(self, tt, _orig=getattr(LibraryCostModel, name), _name=name):
                calls[_name] += 1
                return _orig(self, tt)
            monkeypatch.setattr(LibraryCostModel, name, counted)
        return calls

    def test_each_function_matched_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        asap7 = asap7_library()
        fresh = Library(asap7.name, asap7.cells)  # a new object: an empty memo
        choices = run_flow(build("int2float", "tiny"), self.SCRIPT).network
        first = asic_map(choices, library=fresh)
        db = MappingSession.of(choices).cut_database(4, 8)
        functions = set(zip(db.tt_vars, db.tt_bits))
        assert 0 < calls["min_base"] <= 2 * len(functions)
        assert library_cost_model(fresh).stats()["rows_memo"] <= len(functions)

        calls.update(min_base=0, matches=0)
        again = run_flow(build("int2float", "tiny"), self.SCRIPT).network
        second = asic_map(again, library=fresh)
        assert calls == {"min_base": 0, "matches": 0}
        assert netlist_digest(second) == netlist_digest(first)
        assert netlist_digest(first) == netlist_digest(asic_map(choices))

    def test_mapper_builds_no_cut_objects(self):
        """The mapper selects from the database's flat arrays by cut index
        (CI checks that the library defines no cut object); mapping a choice
        network that way stays equivalent."""
        choices = build_mch(build("adder", "tiny"), MchParams(representations=(Xmg,)))
        nl = asic_map(choices)
        assert cec(build("adder", "tiny"), nl.to_logic_network(Aig))

    def test_second_library_has_its_own_memo(self):
        asap7 = asap7_library()
        minimal = parse_genlib(MINIMAL_GENLIB, name="minimal")
        asic_map(build("adder", "tiny"), objective="delay")
        nl = asic_map(build("adder", "tiny"), library=minimal, objective="delay")
        assert cec(build("adder", "tiny"), nl.to_logic_network(Aig))
        plain, other = library_cost_model(asap7), library_cost_model(minimal)
        assert plain is not other and plain._rows is not other._rows
        assert other.stats()["rows_memo"] > 0

    def test_rows_read_once_per_cut(self, monkeypatch):
        """One mapping reads each usable cut's match rows once, not once per
        pass and phase."""
        calls = [0]
        orig = LibraryCostModel.rows

        def counted(self, num_vars, bits):
            calls[0] += 1
            return orig(self, num_vars, bits)

        choices = run_flow(build("int2float", "tiny"), self.SCRIPT).network
        session = MappingSession.of(choices)
        db = session.cut_database(4, 8)
        usable = sum(1 for m in session.gate_nodes() for i in range(*db.spans[m])
                     if db.leaves[i] != (m,))
        monkeypatch.setattr(LibraryCostModel, "rows", counted)
        asic_map(session)
        assert calls[0] == usable
