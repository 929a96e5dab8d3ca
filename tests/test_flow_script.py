"""Flow-script DSL: parsing, canonical rendering, serialization, errors."""

import pytest

from repro.flow import Flow, FlowScriptError, resolve_flow
from repro.flow.script import Converge, PassStep, Repeat


class TestParse:
    def test_simple_sequence(self):
        flow = Flow.parse("b; rf; rs")
        assert [s.name for s in flow.steps] == ["b", "rf", "rs"]

    def test_aliases_resolve_to_canonical_names(self):
        flow = Flow.parse("balance; refactor; lut_map")
        assert [s.name for s in flow.steps] == ["b", "rf", "if"]

    def test_arguments_are_typed(self):
        flow = Flow.parse("gm -k 5 -o delay; mch -r 0.5")
        gm, mch = flow.steps
        assert gm.kwargs() == {"k": 5, "objective": "delay"}
        assert mch.kwargs() == {"ratio": 0.5}
        assert isinstance(mch.kwargs()["ratio"], float)

    def test_boolean_flags_take_no_value(self):
        (rf,) = Flow.parse("rf -z").steps
        assert rf.kwargs() == {"zero_gain": True}

    def test_repeat_group(self):
        (rep,) = Flow.parse("3*( b; rs )").steps
        assert isinstance(rep, Repeat)
        assert rep.count == 3
        assert [s.name for s in rep.body] == ["b", "rs"]

    def test_converge_group_with_and_without_bound(self):
        (c1,) = Flow.parse("converge( b )").steps
        (c2,) = Flow.parse("converge4( b )").steps
        assert isinstance(c1, Converge) and c1.max_rounds == 10
        assert isinstance(c2, Converge) and c2.max_rounds == 4

    def test_nested_groups(self):
        (outer,) = Flow.parse("2*( b; converge3( rs; b ) )").steps
        assert isinstance(outer, Repeat)
        inner = outer.body[1]
        assert isinstance(inner, Converge) and inner.max_rounds == 3

    def test_empty_script_and_stray_semicolons(self):
        assert Flow.parse("").steps == ()
        assert Flow.parse(" ;; ").steps == ()
        assert len(Flow.parse("b; ; rs;").steps) == 2

    def test_whitespace_insensitive(self):
        a = Flow.parse("b;rf;gm -k 4")
        b = Flow.parse("  b ;  rf ;\n gm   -k   4 ")
        assert a == b


class TestCanonicalRoundTrip:
    SCRIPTS = [
        "b; rf; rs; gm -k 5; b",
        "3*( b; rs )",
        "converge4( b; gm -o delay -k 5; b )",
        "2*( b; converge3( rs; b ) ); cec",
        "mch -p mig,xmg -r 0.5; if -k 4; ",
        "balance; resub -d 99; sweep -f",
    ]

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_parse_to_script_is_a_fixpoint(self, script):
        once = Flow.parse(script).to_script()
        assert Flow.parse(once).to_script() == once

    def test_default_arguments_are_omitted(self):
        # k=4 is gm's default, so the canonical form drops it
        assert Flow.parse("gm -k 4").to_script() == "gm"
        assert Flow.parse("gm -k 5").to_script() == "gm -k 5"

    def test_canonical_argument_order_is_declared_order(self):
        assert Flow.parse("gm -k 5 -o delay").to_script() == "gm -o delay -k 5"

    def test_default_converge_bound_is_omitted(self):
        assert Flow.parse("converge10( b )").to_script() == "converge( b )"
        assert Flow.parse("converge4( b )").to_script() == "converge4( b )"

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_dict_serialization_round_trips(self, script):
        flow = Flow.parse(script)
        assert Flow.from_dict(flow.to_dict()) == flow

    def test_dict_form_is_json_compatible(self):
        import json

        flow = Flow.parse("converge4( b; gm -k 5 ); 2*( rs )")
        assert Flow.from_dict(json.loads(json.dumps(flow.to_dict()))) == flow


class TestErrors:
    @pytest.mark.parametrize("script", [
        "fly",                      # unknown pass
        "b; warp 9; b",             # unknown pass mid-script
        "gm -q 4",                  # unknown flag
        "gm -k",                    # flag missing its value
        "gm -k four",               # wrong value type
        "3*( b",                    # unbalanced open
        "b )",                      # unbalanced close
        "3* b",                     # repeat without group
        "0*( b )",                  # zero repetition
        "converge0( b )",           # zero converge bound
        "b rf",                     # missing separator / stray word
    ])
    def test_malformed_scripts_raise(self, script):
        with pytest.raises(FlowScriptError):
            Flow.parse(script)

    def test_script_errors_are_value_errors(self):
        # legacy optimize_rounds callers catch ValueError
        with pytest.raises(ValueError):
            Flow.parse("mystery")

    def test_error_names_available_passes(self):
        with pytest.raises(FlowScriptError, match="available:.*gm"):
            Flow.parse("unknown_pass")

    def test_non_string_rejected(self):
        with pytest.raises(FlowScriptError):
            Flow.parse(42)

    def test_validate_args_rejects_unknown_keyword(self):
        from repro.flow import get_pass

        with pytest.raises(FlowScriptError):
            get_pass("gm").validate_args({"sharpness": 11})

    def test_validate_args_rejects_wrong_type(self):
        from repro.flow import get_pass

        with pytest.raises(FlowScriptError):
            get_pass("gm").validate_args({"k": "six"})


class TestFlowObject:
    def test_pass_names_walks_groups(self):
        flow = Flow.parse("b; 2*( rs; converge( gm ) ); cec")
        assert flow.pass_names() == ["b", "rs", "gm", "cec"]

    def test_of_coerces_scripts_and_passes_flows_through(self):
        flow = Flow.parse("b")
        assert resolve_flow(flow) is flow
        assert resolve_flow("b") == flow

    def test_programmatic_construction_renders(self):
        flow = Flow((Converge((PassStep("b"), PassStep("gm", (("k", 5),))), 4),))
        assert flow.to_script() == "converge4( b; gm -k 5 )"
