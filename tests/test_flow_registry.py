"""Pass registry completeness, capability enforcement, FlowContext sharing."""

import pytest

from repro.circuits import build, load
from repro.flow import (
    FlowContext,
    FlowError,
    FlowRunner,
    FlowScriptError,
    available_passes,
    get_pass,
    pass_names,
)
from repro.networks import Aig, Mig, Xmg


class TestRegistryCompleteness:
    # every transform the library exports must be drivable from a script
    EXPORTED_TRANSFORMS = {
        "balance": "b",
        "sweep": "sw",
        "refactor": "rf",
        "resub": "rs",
        "mig_depth_rewrite": "mr",
        "graph_map": "gm",
        "lut_map": "if",
        "asic_map": "am",
        "build_dch": "dch",
        "build_mch": "mch",
        "cec": "cec",
        "convert": "cv",
    }

    def test_every_exported_transform_has_a_pass(self):
        registered = {p.name for p in available_passes()}
        for transform, pass_name in self.EXPORTED_TRANSFORMS.items():
            assert pass_name in registered, f"{transform} has no registered pass"

    def test_long_aliases_match_transform_names(self):
        # the python-level names resolve as script aliases too
        for alias in ["balance", "sweep", "refactor", "resub", "mig_rewrite",
                      "graph_map", "lut_map", "asic_map", "verify", "convert"]:
            get_pass(alias)

    def test_aliases_resolve_to_the_same_info(self):
        assert get_pass("balance") is get_pass("b")
        assert get_pass("lm") is get_pass("if")

    def test_unknown_pass_raises(self):
        with pytest.raises(FlowScriptError):
            get_pass("nonexistent")

    def test_pass_names_includes_aliases(self):
        names = pass_names()
        assert "b" in names and "balance" in names

    def test_every_pass_declares_valid_capabilities(self):
        from repro.flow.registry import STATE_KINDS

        for info in available_passes():
            assert info.inputs, f"{info.name} accepts no state kind"
            for kind in info.inputs:
                assert kind in STATE_KINDS
            assert info.help, f"{info.name} has no help text"

    def test_boolean_args_default_to_false(self):
        # required for the canonical script form to be unambiguous
        for info in available_passes():
            for arg in info.args:
                if arg.type is bool:
                    assert arg.default is False, f"{info.name} -{arg.flag}"

    def test_arg_defaults_match_wrapped_functions(self):
        # spot-check that registry defaults track the underlying transforms
        from repro.mapping.lut_mapper import lut_map
        from repro.opt.refactoring import refactor

        assert get_pass("if").arg("k").default == 6
        assert get_pass("if").arg("objective").default \
            == lut_map.__defaults__[2]        # objective
        assert get_pass("rf").arg("l").default == refactor.__defaults__[0]

    def test_mapper_passes_declare_choice_support_and_library_needs(self):
        for name in ("gm", "if", "am"):
            assert "choice" in get_pass(name).inputs
        assert get_pass("am").needs_library
        assert not get_pass("if").needs_library

    def test_verifying_passes_flagged(self):
        assert get_pass("cec").verifying
        assert get_pass("rs").verifying      # SAT-validated rewrites
        assert not get_pass("b").verifying

    def test_seq_passes_registered_with_aliases(self):
        assert get_pass("scorr") is get_pass("seq-sweep")
        assert get_pass("retime") is get_pass("seq-retime")
        assert get_pass("bmc") is get_pass("seq-bmc")
        assert get_pass("kind") is get_pass("seq-ind")

    def test_seq_passes_declare_sequential_capability(self):
        for name in ("seq-sweep", "seq-retime", "seq-bmc", "seq-ind"):
            assert get_pass(name).sequential, f"{name} must accept registers"
        # structure-preserving utility passes work on either kind of network
        for name in ("cv", "cec", "ps", "ckpt"):
            assert get_pass(name).sequential, f"{name} must accept registers"

    def test_comb_optimization_passes_are_not_sequential(self):
        for name in ("b", "sw", "rf", "rs", "if", "gm", "am", "dch", "mch"):
            assert not get_pass(name).sequential, \
                f"{name} must refuse registered networks"


class TestCapabilityEnforcement:
    def test_logic_pass_rejects_choice_state(self):
        ntk = build("ctrl", "tiny")
        with pytest.raises(FlowError, match="cannot run on a choice"):
            FlowRunner().run(ntk, "mch; b")

    def test_mr_rejects_and_only_networks(self):
        ntk = build("ctrl", "tiny")
        with pytest.raises(FlowError, match="needs one of"):
            FlowRunner().run(ntk, "mr")

    def test_mr_accepts_majority_networks(self):
        ntk = FlowRunner().run(build("int2float", "tiny"), "cv -r mig").network
        assert isinstance(ntk, Mig)
        out = FlowRunner().run(ntk, "mr").network
        assert out.depth() <= ntk.depth()

    def test_mapped_state_rejects_further_optimization(self):
        ntk = build("ctrl", "tiny")
        with pytest.raises(FlowError, match="cannot run on a lut"):
            FlowRunner().run(ntk, "if; b")

    def test_comb_only_pass_rejects_registered_network(self):
        ntk = build("counter", "tiny")
        with pytest.raises(FlowError,
                           match="combinational-only.*4 registers.*seq-"):
            FlowRunner().run(ntk, "b")

    def test_seq_passes_accept_registered_networks(self):
        ntk = build("counter", "tiny")
        out = FlowRunner(verify=True).run(ntk, "seq-sweep; seq-retime").network
        assert out.num_registers() > 0

    def test_seq_verification_passes_run_in_flows(self):
        result = FlowRunner().run(build("lfsr", "tiny"),
                                  "seq-bmc -d 4; seq-ind -k 4")
        assert result.network.num_registers() == 5

    def test_comb_circuits_keep_running_through_comb_flows(self):
        # zero-register networks must be unaffected by the guard
        result = FlowRunner().run(build("ctrl", "tiny"), "b; rf")
        assert result.network.num_gates() > 0


class TestFlowContext:
    def test_pattern_pool_shared_per_pi_width(self):
        ctx = FlowContext()
        a = build("ctrl", "tiny")
        b = build("ctrl", "tiny")
        assert ctx.pool_for(a) is ctx.pool_for(b)

    def test_npn_cache_shared_per_representation(self):
        ctx = FlowContext()
        assert ctx.npn_cache(Xmg) is ctx.npn_cache(Xmg)
        assert ctx.npn_cache(Xmg) is not ctx.npn_cache(Aig)

    def test_library_is_lazy_and_stable(self):
        ctx = FlowContext()
        assert ctx.library is ctx.library

    def test_metrics_recorded_per_pass(self):
        ctx = FlowContext()
        result = FlowRunner(ctx).run(build("ctrl", "tiny"), "b; rf; b")
        assert [m.name for m in result.metrics] == ["b", "rf", "b"]
        assert all(m.seconds >= 0 for m in ctx.metrics)
        table = ctx.metrics_table()
        assert "rf" in table and "seconds" in table

    def test_resub_under_context_uses_shared_session(self, monkeypatch):
        import importlib

        from repro.sat.session import EquivalenceSession

        # the package re-exports the function under the module's name
        resub_mod = importlib.import_module("repro.opt.resub")

        pools, verdicts = [], []
        real_resub = resub_mod.resub
        real_prove = EquivalenceSession.prove_equal

        def spy_resub(ntk, **kwargs):
            pools.append(kwargs.get("pool"))
            return real_resub(ntk, **kwargs)

        def spy_prove(self, *args, **kwargs):
            verdicts.append(real_prove(self, *args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(resub_mod, "resub", spy_resub)
        monkeypatch.setattr(EquivalenceSession, "prove_equal", spy_prove)
        ctx = FlowContext()
        ntk = build("int2float", "tiny")
        FlowRunner(ctx).run(ntk, "rs")
        assert len(pools) == 1 and pools[0] is ctx.pool_for(ntk), \
            "resub under a FlowContext must draw its pattern pool from the context"
        assert verdicts, "resub must have posed SAT queries"

    def test_stats_aggregates_engines(self):
        ctx = FlowContext()
        FlowRunner(ctx).run(build("ctrl", "tiny"), "b; gm; if -k 4")
        stats = ctx.stats()
        assert stats["passes"] == 3
        assert stats["mapping_sessions"], "mapping passes must register sessions"
        assert "solver" in stats and "expand_cache" in stats

    def test_checkpoints(self):
        ctx = FlowContext()
        FlowRunner(ctx).run(build("ctrl", "tiny"), "b; ckpt -n mid; rf")
        assert "mid" in ctx.checkpoints

    def test_cec_pass_against_original(self):
        ntk = build("ctrl", "tiny")
        result = FlowRunner().run(ntk, "b; cec; rf; cec")
        assert result.network.num_gates() > 0

    def test_batch_run_many_shares_one_context(self):
        ctx = FlowContext()
        results = FlowRunner(ctx).run_many(["ctrl", "router"], "b; gm; b",
                                           scale="tiny")
        assert set(results) == {"ctrl", "router"}
        for name, res in results.items():
            assert bool(ctx.cec(res.input, res.network)), name
        # both circuits' graph mappings went through one shared NPN cache
        assert len(ctx._npn_caches) == 1

    def test_run_many_accepts_networks_and_paths(self, tmp_path):
        from repro.io import write_aag

        path = tmp_path / "c.aag"
        path.write_text(write_aag(build("ctrl", "tiny")))
        results = FlowRunner().run_many([build("router", "tiny"), str(path)], "b")
        assert len(results) == 2
        # named specs resolve exactly as run_flow resolves them
        from repro.batch.runner import state_fingerprint
        from repro.flow import run_flow

        ntk = load("adder", "tiny")
        expected = state_fingerprint(run_flow(ntk, "compress2rs").network)
        single = FlowRunner().run(ntk, "compress2rs")
        assert state_fingerprint(single.network) == expected
        batch = FlowRunner().run_many(["adder"], "compress2rs", scale="tiny")
        assert state_fingerprint(batch["adder"].network) == expected

    def test_load_rejects_unknown(self):
        with pytest.raises(ValueError):
            load("not-a-circuit")


class TestStaticValidation:
    def test_kind_mismatch_rejected_before_any_pass_runs(self):
        ctx = FlowContext()
        with pytest.raises(FlowError, match="cannot run on a lut"):
            FlowRunner(ctx).run(build("ctrl", "tiny"), "if -k 6; rf")
        assert ctx.metrics == [], "validation must reject before executing"

    def test_validate_uses_actual_start_kind(self):
        from repro.flow import Flow

        flow = Flow.parse("am -o area")
        assert flow.validate("choice") == "netlist"
        with pytest.raises(FlowScriptError):
            flow.validate("netlist")

    def test_converge_body_must_preserve_kind(self):
        from repro.flow import Flow

        with pytest.raises(FlowScriptError, match="preserve the state kind"):
            Flow.parse("converge( mch; if -k 4 )").validate("logic")
        # kind-preserving bodies chain fine (logic -> choice -> logic)
        assert Flow.parse("converge( mch; gm )").validate("logic") == "logic"

    def test_repeated_kind_changing_group_rejected(self):
        from repro.flow import Flow

        with pytest.raises(FlowScriptError):
            Flow.parse("2*( if -k 4 )").validate("logic")

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_float_argument_rejected(self, raw):
        """A NaN critical-path ratio would mark no node critical and map
        without complaint; the parser refuses any non-finite float."""
        from repro.flow import Flow

        with pytest.raises(FlowScriptError, match="expects finite float"):
            Flow.parse(f"mch -r {raw}; if")
        assert Flow.parse("mch -r 0.5; if").to_script() == "mch -r 0.5; if"


class TestNestedContext:
    def test_dch_threads_the_outer_context(self):
        ctx = FlowContext()
        result = FlowRunner(ctx).run(build("ctrl", "tiny"), "dch -n 1 -i 1")
        inner = [m.name for m in result.metrics]
        assert "dch" in inner
        assert "gm" in inner, "snapshot passes must run under the outer context"

    def test_nested_run_preserves_verification_reference(self):
        # the dch pass runs sub-flows; a later cec must still compare
        # against the *outer* flow's input
        ntk = build("ctrl", "tiny")
        result = FlowRunner().run(ntk, "dch -n 1 -i 1; cec")
        assert result.network.num_choices() >= 0

    def test_context_cec_verifies_wide_circuit_by_sat(self):
        ctx = FlowContext()
        ntk = build("mem_ctrl", "tiny")       # 26 PIs > EXHAUSTIVE_PIS: SAT miter
        out = FlowRunner(ctx).run(ntk, "b; cec; rf; cec").network
        res = ctx.cec(ntk, out)
        assert bool(res) and res.method == "sat"

    def test_context_cec_enumerates_up_to_exhaustive_limit(self, monkeypatch):
        from repro.sat import session as session_mod

        built = []
        real_init = session_mod.EquivalenceSession.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        ctx = FlowContext()
        ntk = build("i2c", "small")           # 18 PIs: windowed enumeration
        out = FlowRunner(ctx).run(ntk, "b").network
        monkeypatch.setattr(session_mod.EquivalenceSession, "__init__",
                            counting_init)
        res = ctx.cec(ntk, out)
        assert bool(res) and res.method == "exhaustive simulation"
        assert not built, "no miter may be encoded below the limit"

    def test_run_many_keeps_repeated_circuits(self):
        results = FlowRunner().run_many(["ctrl", "ctrl"], "b", scale="tiny")
        assert set(results) == {"ctrl", "ctrl#2"}
