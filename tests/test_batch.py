"""Tests for the batch layer: suites, the parallel runner, the result store."""

import json
import multiprocessing

import pytest

from repro.batch import (
    BatchRunner,
    ResultStore,
    Suite,
    SuiteEntry,
    available_suites,
    get_suite,
    state_fingerprint,
)
from repro.circuits import ALL_BENCHMARKS, build
from repro.flow import FlowContext, FlowError, FlowRunner
from repro.networks import Aig

FLOW = "b; gm -k 4; b"
MINI = ["ctrl", "dec", "int2float"]

_FORK = multiprocessing.get_start_method() == "fork"


# ---------------------------------------------------------------------- #
# suites                                                                  #
# ---------------------------------------------------------------------- #

class TestSuites:
    def test_builtin_registry(self):
        suites = available_suites()
        assert {"epfl-arithmetic", "epfl-control", "epfl-all",
                "epfl-mini"} <= set(suites)
        assert len(suites["epfl-all"]) == 20
        assert suites["epfl-all"].names() == ALL_BENCHMARKS

    def test_wordlevel_family_builds(self):
        suite = get_suite("wordlevel-adders")
        ntks = suite.build_all()
        assert list(ntks) == ["adder-w4", "adder-w8", "adder-w16", "adder-w24"]
        # generated entries pin their own size: scale must not matter
        assert ntks["adder-w4"].num_pis() == 8
        assert suite.entries[0].build("medium").num_pis() == 8

    def test_entry_scale_override(self):
        entry = SuiteEntry(name="x", circuit="ctrl", scale="tiny")
        assert entry.build("medium").num_gates() == build("ctrl", "tiny").num_gates()

    def test_comma_separated_adhoc(self):
        suite = get_suite("ctrl,dec")
        assert suite.names() == ["ctrl", "dec"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            get_suite("not-a-suite")

    def test_manifest_json(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps({
            "name": "mine", "scale": "tiny",
            "circuits": ["ctrl", {"builder": "adder", "width": 5,
                                  "name": "adder5"}],
        }))
        suite = get_suite(str(path))
        assert suite.name == "mine" and suite.scale == "tiny"
        assert suite.names() == ["ctrl", "adder5"]
        assert suite.entries[1].build("small").num_pis() == 10

    def test_manifest_toml(self, tmp_path):
        path = tmp_path / "mine.toml"
        path.write_text(
            'name = "toml-suite"\nscale = "tiny"\n'
            'circuits = ["dec", { builder = "square", width = 4 }]\n')
        suite = Suite.from_file(path)
        assert suite.names() == ["dec", "square-width4"]
        assert len(suite.build_all()) == 2

    def test_manifest_rejects_bad_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"circuits": [{"name": "x"}]}))
        with pytest.raises(ValueError, match="exactly one"):
            Suite.from_file(path)
        path.write_text(json.dumps({"circuits": []}))
        with pytest.raises(ValueError, match="no circuits"):
            Suite.from_file(path)

    def test_manifest_resolves_aag_relative(self, tmp_path):
        from repro.io import write_aag

        (tmp_path / "c.aag").write_text(write_aag(build("dec", "tiny")))
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"circuits": ["c.aag"], "scale": "tiny"}))
        suite = Suite.from_file(path)
        assert suite.entries[0].build("tiny").num_pis() == 5


# ---------------------------------------------------------------------- #
# the runner                                                              #
# ---------------------------------------------------------------------- #

class TestBatchRunner:
    def test_sequential_matches_run_many(self):
        ctx = FlowContext()
        expected = FlowRunner(FlowContext()).run_many(MINI, FLOW, scale="tiny")
        batch = BatchRunner(jobs=1, context=ctx).run(MINI, FLOW, scale="tiny")
        assert [o.name for o in batch.outcomes] == MINI
        for outcome in batch.outcomes:
            res = expected[outcome.name]
            assert outcome.ok and outcome.cost == res.cost
            assert outcome.fingerprint == state_fingerprint(res.network)
            assert outcome.result is not None     # in-process keeps FlowResults

    @pytest.mark.skipif(not _FORK, reason="process-pool test needs fork")
    def test_parallel_bit_identical(self):
        seq = BatchRunner(jobs=1).run(MINI, FLOW, scale="tiny")
        par = BatchRunner(jobs=2).run(MINI, FLOW, scale="tiny")
        assert [o.name for o in par.outcomes] == MINI   # deterministic order
        assert [(o.name, o.cost, o.fingerprint) for o in par.outcomes] == \
               [(o.name, o.cost, o.fingerprint) for o in seq.outcomes]
        assert all(o.worker for o in par.outcomes)

    @pytest.mark.skipif(not _FORK, reason="process-pool test needs fork")
    def test_parallel_pickle_round_trip(self):
        """Network objects of every representation (and a sequential one)
        cross to the workers and back as pickles: each result comes home
        with the type, structure and fingerprint of the in-process run."""
        from repro.networks import Mig, MixedNetwork, Xag, Xmg, convert

        base = build("dec", "tiny")
        ntks = [base] + [convert(base, cls)
                         for cls in (Xag, Mig, Xmg, MixedNetwork)]
        ntks.append(get_suite("seq-mini").entries[0].build("tiny"))
        flow = "seq-sweep; seq-retime"     # accepts both kinds of network
        seq = BatchRunner(jobs=1).run(ntks, flow, scale="tiny")
        par = BatchRunner(jobs=2).run(ntks, flow, scale="tiny")
        assert all(o.ok for o in par.outcomes)

        def shape(o):
            return (type(o.network), o.network.structural_hash(),
                    o.fingerprint)

        assert [shape(o) for o in par.outcomes] == \
               [shape(o) for o in seq.outcomes]
        assert {type(o.network) for o in par.outcomes} == \
               {Aig, Xag, Mig, Xmg, MixedNetwork}
        assert par.outcomes[-1].network.num_registers() > 0

    @pytest.mark.skipif(not _FORK, reason="process-pool test needs fork")
    def test_parallel_pickle_transfer_still_works(self):
        """Result networks pickled back from the workers rebuild in the
        parent with the fingerprint the worker reported."""
        par = BatchRunner(jobs=2).run(MINI, FLOW, scale="tiny")
        assert all(o.ok and o.network is not None for o in par.outcomes)
        assert [state_fingerprint(o.network) for o in par.outcomes] == \
               [o.fingerprint for o in par.outcomes]

    def test_network_objects_and_dedup(self):
        ntk = build("dec", "tiny")
        batch = BatchRunner().run(["ctrl", ntk, "ctrl"], "b", scale="tiny")
        assert [o.name for o in batch.outcomes] == ["ctrl", "circuit1", "ctrl#2"]

    def test_suite_default_scale(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"circuits": ["dec"], "scale": "tiny"}))
        batch = BatchRunner().run(get_suite(str(path)), "b")
        assert batch.scale == "tiny"
        assert batch.outcomes[0].before == (
            build("dec", "tiny").num_gates(), build("dec", "tiny").depth())

    def test_run_many_parallel_results(self):
        out = FlowRunner().run_many(MINI, FLOW, scale="tiny", jobs=2)
        seq = FlowRunner().run_many(MINI, FLOW, scale="tiny")
        assert list(out) == list(seq)
        for name in out:
            assert out[name].cost == seq[name].cost
            assert len(out[name].metrics) == len(seq[name].metrics)
            assert out[name].network.num_gates() == seq[name].network.num_gates()

    def test_progress_callback(self):
        seen = []
        BatchRunner(progress=lambda done, total, o: seen.append((done, total, o.name))
                    ).run(["ctrl", "dec"], "b", scale="tiny")
        assert seen == [(1, 2, "ctrl"), (2, 2, "dec")]

    def test_verify_flag(self):
        batch = BatchRunner(verify=True).run(["dec"], "b", scale="tiny")
        assert batch.outcomes[0].ok

    def test_run_many_honors_checkpoint_flag(self):
        runner = FlowRunner(FlowContext(), checkpoint=True)
        runner.run_many(["dec"], "b", scale="tiny")
        assert runner.ctx.checkpoints

    def test_map_orders_results(self):
        runner = BatchRunner(jobs=2 if _FORK else 1)
        assert runner.map(list(range(5)), _double) == [0, 2, 4, 6, 8]

    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            BatchRunner(jobs=0)


def _double(task, ctx):
    return task * 2


# ---------------------------------------------------------------------- #
# failure isolation                                                       #
# ---------------------------------------------------------------------- #

class _ExplodingAig(Aig):
    """An AIG whose depth() raises — any flow over it fails mid-run."""

    def depth(self):
        raise RuntimeError("injected batch failure")


def _poisoned_circuit():
    ntk = build("dec", "tiny")
    ntk.__class__ = _ExplodingAig
    ntk.name = "poisoned"
    return ntk


class TestFailureIsolation:
    def _check(self, batch):
        assert [o.name for o in batch.outcomes] == ["ctrl", "poisoned", "dec"]
        ok = batch.by_name()
        assert ok["ctrl"].ok and ok["dec"].ok
        bad = ok["poisoned"]
        assert not bad.ok and "injected batch failure" in bad.error
        assert "RuntimeError" in bad.traceback
        assert batch.failures == [bad]

    def test_sequential_run_completes_others(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        batch = BatchRunner(jobs=1).run(
            ["ctrl", _poisoned_circuit(), "dec"], FLOW, scale="tiny",
            store=store)
        self._check(batch)
        # the store recorded the failure AND the completed circuits
        run = store.find_run(batch.run_id)
        assert run.failures == ["poisoned"]
        assert run.results["poisoned"]["error"].startswith("RuntimeError")
        assert run.results["ctrl"]["status"] == "ok"
        assert run.results["dec"]["fingerprint"]

    @pytest.mark.skipif(not _FORK, reason="process-pool test needs fork")
    def test_parallel_run_completes_others(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        batch = BatchRunner(jobs=2).run(
            ["ctrl", _poisoned_circuit(), "dec"], FLOW, scale="tiny",
            store=store)
        self._check(batch)
        assert store.find_run(batch.run_id).failures == ["poisoned"]

    def test_run_many_still_raises(self):
        with pytest.raises(FlowError, match="injected batch failure"):
            FlowRunner().run_many([_poisoned_circuit()], "b", scale="tiny")


# ---------------------------------------------------------------------- #
# the result store                                                        #
# ---------------------------------------------------------------------- #

class TestResultStore:
    def _two_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        runner = BatchRunner()
        a = runner.run(["ctrl", "dec"], FLOW, scale="tiny", store=store)
        b = runner.run(["ctrl", "dec"], FLOW, scale="tiny", store=store)
        return store, a, b

    def test_append_and_read_back(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        runs = store.runs()
        assert [r.run_id for r in runs] == [a.run_id, b.run_id]
        assert runs[0].flow == a.flow and runs[0].header["git_rev"]
        assert set(runs[1].results) == {"ctrl", "dec"}
        assert runs[1].results["ctrl"]["size"] == a.outcomes[0].cost[0]

    def test_find_run_prefix_and_latest(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        assert store.find_run(a.run_id[:12]).run_id in (a.run_id, b.run_id)
        assert store.find_run("latest").run_id == b.run_id
        assert store.find_run("latest", exclude=b.run_id).run_id == a.run_id
        # a date-like prefix must not resolve to the excluded (fresh) run
        shared = b.run_id[:10]
        assert a.run_id.startswith(shared)
        assert store.find_run(shared, exclude=b.run_id).run_id == a.run_id
        with pytest.raises(ValueError, match="no run"):
            store.find_run("r1999")

    def test_compare_identical_runs(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        cmp = store.compare(b.run_id, a.run_id)
        assert cmp.ok and not cmp.regressions
        assert "zero regressions" in cmp.format()

    def test_compare_flags_size_regression(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        worse = BatchRunner().run(["ctrl", "dec"], FLOW, scale="tiny")
        worse.outcomes[0].cost = (worse.outcomes[0].cost[0] + 5,
                                  worse.outcomes[0].cost[1])
        rid = store.record(worse)
        cmp = store.compare(rid, a.run_id)
        assert not cmp.ok
        assert [r["circuit"] for r in cmp.regressions] == ["ctrl"]
        assert "REGRESSION" in cmp.format()

    def test_compare_improvement_is_not_regression(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        better = BatchRunner().run(["ctrl", "dec"], FLOW, scale="tiny")
        # a genuine improvement changes both cost and structure
        better.outcomes[0].cost = (better.outcomes[0].cost[0] - 5,
                                   better.outcomes[0].cost[1])
        better.outcomes[0].fingerprint = "0123456789abcdef"
        rid = store.record(better)
        cmp = store.compare(rid, a.run_id)
        assert cmp.ok, cmp.regressions

    def test_compare_flags_divergence(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        diverged = BatchRunner().run(["ctrl", "dec"], FLOW, scale="tiny")
        diverged.outcomes[1].fingerprint = "deadbeefdeadbeef"
        rid = store.record(diverged)
        cmp = store.compare(rid, a.run_id)
        assert [r["circuit"] for r in cmp.regressions] == ["dec"]
        assert cmp.regressions[0]["diverged"]
        assert "DIVERGED" in cmp.format()

    def test_compare_flags_new_failure(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        failed = BatchRunner().run(["ctrl", _named_poisoned("dec")], FLOW,
                                   scale="tiny")
        rid = store.record(failed)
        cmp = store.compare(rid, a.run_id)
        assert [r["circuit"] for r in cmp.regressions] == ["dec"]

    def test_speedup_reported(self, tmp_path):
        store, a, b = self._two_runs(tmp_path)
        cmp = store.compare(b.run_id, a.run_id)
        assert cmp.speedup > 0
        assert "speedup" in cmp.format()


def _named_poisoned(name):
    ntk = _poisoned_circuit()
    ntk.name = name
    return ntk
