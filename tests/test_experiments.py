"""Integration tests for the experiment drivers (tiny scale)."""

import pytest

from repro.experiments import (
    demo_circuit,
    format_fig1,
    format_fig2,
    format_fig6,
    format_results,
    format_table2,
    geomean,
    improvement,
    merge_ablation,
    ratio_sweep,
    representation_ablation,
    run_circuit,
    run_fig1,
    run_fig2,
    run_fig6,
    run_table2,
    strategy_ablation,
    summarize,
    summarize_fig6,
)
from repro.circuits import build
from repro.experiments.fig6 import Fig6Row


class TestCommon:
    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0
        assert geomean([5]) == pytest.approx(5.0)

    def test_geomean_skips_nonpositive(self):
        assert geomean([0, 10, 10]) == pytest.approx(10.0)

    def test_improvement(self):
        assert improvement(100, 80) == pytest.approx(20.0)
        assert improvement(100, 120) == pytest.approx(-20.0)
        assert improvement(0, 10) == 0.0

    def test_format_table(self):
        from repro.experiments import format_table

        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text


class TestFig1:
    def test_runs_and_diverges(self):
        rows = run_fig1(circuit="adder", scale="tiny")
        assert set(rows) == {"AIG", "XAG", "MIG", "XMG"}
        text = format_fig1(rows, "adder")
        assert "XMG" in text
        # XOR-capable representations shrink the adder
        assert rows["XMG"].gates < rows["AIG"].gates

    def test_subset_of_reps(self):
        rows = run_fig1(circuit="adder", scale="tiny", reps=["AIG", "XMG"])
        assert set(rows) == {"AIG", "XMG"}


class TestFig2:
    def test_demo_function(self):
        ntk = demo_circuit()
        for a in range(4):
            for b in range(4):
                bits = [bool(a & 1), bool(a & 2), bool(b & 1), bool(b & 2)]
                assert ntk.simulate(bits)[0] == ((a + b) > 0)

    def test_flow_shape(self):
        rows = run_fig2()
        assert rows["optimized"].nodes <= rows["original"].nodes
        assert rows["mch"].choices > 0
        assert "MCH" in format_fig2(rows)


class TestTable1:
    def test_single_circuit_all_configs(self):
        rows = run_circuit(build("int2float", "tiny"))
        assert set(rows) == {"baseline", "dch", "dch_area", "mch_balanced",
                             "mch_delay", "mch_area"}
        for r in rows.values():
            assert r.area > 0 and r.delay > 0 and r.seconds >= 0
        # differential pin: (area, delay) per config, recorded before the
        # configs became flow scripts
        pinned = {
            "baseline": (4.832999999999998, 91.0),
            "dch": (5.345999999999998, 91.0),
            "dch_area": (4.671000000000002, 118.0),
            "mch_balanced": (4.455, 88.0),
            "mch_delay": (5.278999999999999, 88.0),
            "mch_area": (3.807000000000001, 109.0),
        }
        assert {cfg: (pytest.approx(r.area, abs=1e-9), r.delay)
                for cfg, r in rows.items()} == pinned

    def test_config_subset(self):
        rows = run_circuit(build("ctrl", "tiny"), configs=["baseline", "mch_area"])
        assert set(rows) == {"baseline", "mch_area"}

    def test_summary_and_format(self):
        results = {"ctrl": run_circuit(build("ctrl", "tiny"),
                                       configs=["baseline", "mch_area"])}
        s = summarize(results)
        assert s["baseline"]["area_gain_%"] == pytest.approx(0.0)
        text = format_results(results)
        assert "GEOMEAN" in text and "ctrl" in text


class TestTable2:
    def test_protocol_shape(self):
        rows = run_table2(names=["square"], scale="tiny")
        r = rows["square"]
        # MCH must never lose to the plain remap of the strashed network
        assert r.mch_luts <= r.strash_luts
        # differential pin, recorded before the record chain became a script
        assert (r.best_luts, r.best_levels, r.strash_luts, r.strash_levels,
                r.mch_luts, r.mch_levels) == (31, 8, 51, 11, 45, 10)
        assert "square" in format_table2(rows)


class TestFig6:
    def test_graphmap_gains(self):
        rows = run_fig6(names=["adder", "square"], scale="tiny")
        for name, r in rows.items():
            assert r.mch_nodes <= r.base_nodes * 1.05, name
        # differential pins, recorded before the keep-best loops became
        # converge scripts
        assert rows["adder"] == Fig6Row(17, 6, 17, 6, 9, 3, 9, 3)
        assert rows["square"] == Fig6Row(57, 13, 56, 12, 31, 8, 30, 8)
        s = summarize_fig6(rows)
        assert set(s) == {"graph_node_gain_%", "graph_level_gain_%",
                          "lut_node_gain_%", "lut_level_gain_%"}
        assert "Geomean" in format_fig6(rows)


class TestAblations:
    def test_ratio_sweep(self):
        rows = ratio_sweep(circuit="adder", scale="tiny", ratios=(0.5, 1.5))
        assert len(rows) == 2
        assert rows[0]["choices"] >= rows[1]["choices"]

    def test_merge_ablation(self):
        rows = merge_ablation(circuit="adder", scale="tiny", cut_limits=(8,))
        assert rows[0]["merged.depth"] <= rows[0]["unmerged.depth"]

    def test_representation_ablation(self):
        rows = representation_ablation(circuit="adder", scale="tiny")
        labels = {r["reps"] for r in rows}
        assert "AIG" in labels and "XMG" in labels

    def test_strategy_ablation(self):
        rows = strategy_ablation(circuit="adder", scale="tiny")
        assert len(rows) == 3
