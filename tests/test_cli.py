"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["fly"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "adder", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "gates" in out and "adder" in out

    def test_suite_lists_manifests(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "epfl-all" in out and "wordlevel-adders" in out

    def test_suite_shows_members(self, capsys):
        assert main(["suite", "epfl-all", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "voter" in out and "mem_ctrl" in out

    def test_suite_unknown(self):
        with pytest.raises(SystemExit, match="unknown suite"):
            main(["suite", "no-such-suite"])

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["info", "not-a-circuit"])

    def test_optimize_with_verify(self, capsys):
        assert main(["optimize", "ctrl", "--scale", "tiny", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "cec: ok" in out

    def test_map_luts_plain(self, capsys, tmp_path):
        out_file = tmp_path / "out.blif"
        assert main(["map-luts", "int2float", "--scale", "tiny",
                     "-o", str(out_file)]) == 0
        assert "LUTs" in capsys.readouterr().out
        assert out_file.read_text().startswith(".model")

    def test_map_luts_mch_verified(self, capsys):
        assert main(["map-luts", "adder", "--scale", "tiny", "--mch",
                     "--reps", "xmg,xag", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "choice network" in out and "cec: ok" in out

    def test_map_asic_with_verilog(self, capsys, tmp_path):
        out_file = tmp_path / "out.v"
        assert main(["map-asic", "router", "--scale", "tiny", "--verify",
                     "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "cec: ok" in out
        assert "module top" in out_file.read_text()

    def test_optimize_writes_aiger(self, capsys, tmp_path):
        out_file = tmp_path / "opt.aag"
        assert main(["optimize", "dec", "--scale", "tiny",
                     "-o", str(out_file)]) == 0
        from repro.io import read_aag
        from repro.circuits import build
        from repro.sat import cec

        back = read_aag(out_file.read_text())
        assert cec(build("dec", "tiny"), back)

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_aag_input_roundtrip(self, capsys, tmp_path):
        from repro.circuits import build
        from repro.io import write_aag

        path = tmp_path / "c.aag"
        path.write_text(write_aag(build("ctrl", "tiny")))
        assert main(["info", str(path)]) == 0
        assert "gates" in capsys.readouterr().out


class TestRunCommand:
    def test_run_script_with_verify(self, capsys):
        assert main(["run", "adder", "--scale", "tiny",
                     "--script", "b; rf; rs; gm -k 4; b", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "input:" in out and "output:" in out and "cec: ok" in out

    def test_run_named_flow_with_timing(self, capsys):
        assert main(["run", "ctrl", "--scale", "tiny",
                     "--flow", "compress2rs", "--timing"]) == 0
        out = capsys.readouterr().out
        assert "per-pass metrics" in out and "gm" in out

    def test_run_mapping_script_writes_blif(self, capsys, tmp_path):
        out_file = tmp_path / "out.blif"
        assert main(["run", "int2float", "--scale", "tiny",
                     "--script", "b; if -k 4", "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith(".model")

    def test_run_requires_exactly_one_flow_source(self):
        with pytest.raises(SystemExit):
            main(["run", "adder", "--scale", "tiny"])
        with pytest.raises(SystemExit):
            main(["run", "adder", "--scale", "tiny",
                  "--script", "b", "--flow", "compress2rs"])

    def test_run_bad_script_exits_with_message(self, capsys):
        with pytest.raises(SystemExit, match="unknown pass"):
            main(["run", "adder", "--scale", "tiny", "--script", "warp 9"])

    def test_run_rejected_pass_parameter_exits_with_message(self, capsys):
        # the pass accepts the int but its engine rejects the value
        with pytest.raises(SystemExit) as exc:
            main(["run", "adder", "--scale", "tiny", "--script", "if -l 1"])
        assert str(exc.value).startswith("flow failed:")
        assert "cut_limit" in str(exc.value)

    @pytest.mark.parametrize("argv", [
        ["run", "adder", "--scale", "tiny", "--script", "mch -r nan; if"],
        ["map-luts", "adder", "--scale", "tiny", "--mch", "--ratio", "nan"],
        ["map-asic", "adder", "--scale", "tiny", "--mch", "--ratio", "inf"],
    ], ids=["run", "map-luts", "map-asic"])
    def test_non_finite_ratio_exits_with_message(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        lines = str(exc.value).splitlines()
        assert len(lines) == 1 and lines[0].startswith("flow failed:"), lines
        assert "finite float" in lines[0]
        assert capsys.readouterr().out == ""

    def test_run_engine_stats(self, capsys):
        assert main(["run", "ctrl", "--scale", "tiny",
                     "--script", "b; gm", "--engine-stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats" in out and "solver" in out

    def test_passes_command_lists_registry(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "gm" in out and "balance" in out

    def test_optimize_timing_flag(self, capsys):
        assert main(["optimize", "ctrl", "--scale", "tiny", "--timing"]) == 0
        assert "per-pass metrics" in capsys.readouterr().out

    def test_map_asic_engine_stats(self, capsys):
        assert main(["map-asic", "ctrl", "--scale", "tiny",
                     "--engine-stats"]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "engine stats" in out
        stats = json.loads(out[out.index("engine stats:") + len("engine stats:"):])
        models = [m for m in stats["library_models"] if m["library"] == "asap7-like"]
        assert models and models[0]["rows_memo"] > 0

    def test_map_luts_mch_engine_stats(self, capsys):
        assert main(["map-luts", "ctrl", "--scale", "tiny", "--mch",
                     "--engine-stats"]) == 0
        out = capsys.readouterr().out
        stats = json.loads(out[out.index("engine stats:") + len("engine stats:"):])
        plans = stats["synthesis_plans"]
        assert plans["hits"] > 0 and 0 < plans["currsize"] <= plans["maxsize"]

    def test_passes_links_docs(self, capsys):
        assert main(["passes"]) == 0
        assert "docs/flow-dsl.md" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_runs_suite_with_store(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        assert main(["batch", "ctrl,dec", "--script", "b; gm -k 4",
                     "--scale", "tiny", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "ctrl" in out and "dec" in out and "recorded run" in out
        assert store.exists()

    def test_batch_parallel_compare_clean(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        args = ["batch", "ctrl,dec", "--script", "b", "--scale", "tiny",
                "--store", str(store), "--quiet"]
        assert main(args) == 0
        assert main(args + ["--jobs", "2", "--compare-to", "latest"]) == 0
        out = capsys.readouterr().out
        assert "zero regressions" in out and "speedup" in out

    def test_batch_named_suite(self, capsys):
        assert main(["batch", "epfl-mini", "--flow", "compress2rs",
                     "--scale", "tiny", "--quiet"]) == 0
        assert "epfl-mini" in capsys.readouterr().out

    def test_batch_requires_one_flow_source(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["batch", "ctrl", "--scale", "tiny"])

    def test_batch_unknown_suite(self):
        with pytest.raises(SystemExit, match="unknown suite"):
            main(["batch", "nope-suite", "--script", "b"])

    def test_batch_failure_sets_exit_code(self, capsys, tmp_path):
        aag = tmp_path / "broken.aag"
        aag.write_text("not an aiger file\n")
        manifest = tmp_path / "s.json"
        manifest.write_text(
            '{"circuits": ["ctrl", "%s"], "scale": "tiny"}' % aag)
        assert main(["batch", str(manifest), "--script", "b",
                     "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "ERROR" in out

    def test_batch_corrupt_store_exits_with_message(self, tmp_path):
        store = tmp_path / "bad.jsonl"
        store.write_text('{"kind": "run", "run_id": "r1"}\nnot json\n'
                         '{"kind": "end", "run_id": "r1"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["batch", "ctrl", "--script", "b", "--scale", "tiny",
                  "--store", str(store), "--resume", "--quiet"])
        assert str(exc.value.code).startswith("batch: ")
        assert "corrupt record at line 2" in str(exc.value.code)
        assert exc.value.code not in (0, None)

    def test_batch_compare_needs_store(self):
        with pytest.raises(SystemExit, match="--compare-to needs --store"):
            main(["batch", "ctrl", "--script", "b", "--scale", "tiny",
                  "--compare-to", "latest", "--quiet"])
