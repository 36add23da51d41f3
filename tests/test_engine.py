"""Unit tests for replay-engine selection and threading.

The bit-identity of the two engines is proven by
``tests/differential/``; these tests pin the *dispatch* contracts:
which engine ``auto`` resolves to, how the ``engine`` knob threads
through RunSpec / Runner / evaluate / simulate / the CLI, and the
loud failures for misuse.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.prefetch.base import HardwareDescription, Prefetcher
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.sim.batchpath import is_fresh, replay_compiled, supports
from repro.sim.engine import ENGINES, replay, resolve_engine
from repro.sim.functional import simulate
from repro.sim.two_phase import evaluate, replay_prefetcher
from repro.workloads.registry import get_trace

SCALE = 0.05


class _CustomPrefetcher(Prefetcher):
    """A user subclass the compiled engine must refuse to second-guess."""

    name = "custom"

    def on_miss(self, pc, page, evicted, pb_hit):
        return self.account([page + 2])

    def describe_hardware(self):
        return HardwareDescription(
            name=self.name, rows="0", row_contents="-", location="-",
            index_source="-", memory_ops_per_miss=0, max_prefetches="1",
        )


@pytest.fixture(scope="module")
def miss_trace():
    runner = Runner(cache=MissStreamCache())
    return runner.miss_stream("galgel", scale=SCALE)


class TestResolution:
    def test_engine_names(self):
        assert ENGINES == ("auto", "reference", "fast", "batch")

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            resolve_engine(create_prefetcher("DP"), "warp")

    def test_auto_prefers_fast_for_fresh_builtin(self):
        """Every built-in mechanism resolves to the compiled engine."""
        for name in ("none", "SP", "SP-adaptive", "ASP", "MP", "RP",
                     "DP", "DP-PC", "DP-2"):
            assert resolve_engine(create_prefetcher(name), "auto") == "batch"

    def test_fast_and_batch_are_aliases_of_the_compiled_engine(self):
        for engine in ("fast", "batch"):
            assert resolve_engine(create_prefetcher("DP"), engine) == "batch"
            assert resolve_engine(_CustomPrefetcher(), engine) == "batch"
        assert resolve_engine(create_prefetcher("DP"), "reference") == "reference"

    def test_auto_falls_back_for_subclasses(self):
        custom = _CustomPrefetcher()
        assert not supports(custom)
        assert resolve_engine(custom, "auto") == "reference"

    def test_auto_keeps_fast_for_trained_instances(self, miss_trace):
        """Warm-start: trained state does not force the reference
        engine — the compiled engine seeds its tables from it."""
        prefetcher = create_prefetcher("DP", rows=64)
        replay_prefetcher(miss_trace, prefetcher)
        assert not is_fresh(prefetcher)
        assert resolve_engine(prefetcher, "auto") == "batch"

    def test_history_only_state_stays_on_fast_path(self):
        """One miss leaves DP's table empty and counters at zero, but
        its distance history is trained — the compiled engine seeds
        that history too, so auto keeps the compiled path."""
        prefetcher = create_prefetcher("DP", rows=64)
        prefetcher.on_miss(0, 100, -1, False)
        assert prefetcher.prefetches_issued == 0
        assert len(prefetcher.table) == 0
        assert prefetcher.has_prediction_state()
        assert not is_fresh(prefetcher)
        assert resolve_engine(prefetcher, "auto") == "batch"

    def test_flush_restores_freshness_for_on_chip_state(self):
        """flush() drops on-chip state, so a flushed mechanism is fresh
        again — except RP, whose stack lives in the page table."""
        for name in ("SP-adaptive", "ASP", "MP", "DP", "DP-PC", "DP-2"):
            prefetcher = create_prefetcher(name, rows=64)
            for page in (7, 9, 12, 14):
                prefetcher.on_miss(0, page, -1, False)
            prefetcher.flush()
            prefetcher.reset_stats()
            assert is_fresh(prefetcher), name
        recency = create_prefetcher("RP")
        recency.on_miss(0, 7, 3, False)
        recency.flush()
        recency.reset_stats()
        assert not is_fresh(recency)

    def test_forced_fast_continues_trained_instances(self, miss_trace):
        """A second replay on a trained instance matches the reference
        engine run for run: same stats, same canonical state."""
        from repro.ckpt import snapshot_prefetcher

        fast_p = create_prefetcher("DP", rows=64)
        ref_p = create_prefetcher("DP", rows=64)
        replay_prefetcher(miss_trace, fast_p)
        replay_prefetcher(miss_trace, ref_p)
        again_fast = replay_compiled(miss_trace, fast_p)
        again_ref = replay_prefetcher(miss_trace, ref_p)
        assert again_fast == again_ref
        assert (
            snapshot_prefetcher(fast_p).digest()
            == snapshot_prefetcher(ref_p).digest()
        )

    def test_forced_fast_rejects_unsupported_mechanism(self, miss_trace):
        with pytest.raises(ConfigurationError, match="no replay loop"):
            replay_compiled(miss_trace, _CustomPrefetcher())

    def test_fast_engine_trains_the_instance_like_reference(self, miss_trace):
        from repro.ckpt import snapshot_prefetcher

        fast_p = create_prefetcher("DP", rows=64)
        ref_p = create_prefetcher("DP", rows=64)
        replay_compiled(miss_trace, fast_p)
        replay_prefetcher(miss_trace, ref_p)
        assert fast_p.prefetches_issued == ref_p.prefetches_issued
        assert len(fast_p.table) == len(ref_p.table)
        assert not is_fresh(fast_p)
        assert (
            snapshot_prefetcher(fast_p).digest()
            == snapshot_prefetcher(ref_p).digest()
        )

    def test_replay_dispatch_matches_both_engines(self, miss_trace):
        via_engine = replay(miss_trace, create_prefetcher("DP"), engine="reference")
        direct = replay_prefetcher(miss_trace, create_prefetcher("DP"))
        assert via_engine == direct
        fast = replay(miss_trace, create_prefetcher("DP"), engine="fast")
        assert fast == direct


class TestRunSpecEngineField:
    def test_default_is_auto(self):
        assert RunSpec.of("galgel", "DP", scale=SCALE).engine == "auto"

    def test_invalid_engine_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            RunSpec.of("galgel", "DP", scale=SCALE, engine="warp")

    def test_engine_excluded_from_identity(self):
        base = RunSpec.of("galgel", "DP", scale=SCALE)
        for engine in ("reference", "fast"):
            derived = base.derive(engine=engine)
            assert derived.key() == base.key()
            assert derived.canonical() == base.canonical()
            assert derived.stream_key() == base.stream_key()

    def test_runner_rows_identical_across_engines(self):
        runner = Runner(cache=MissStreamCache())
        base = [
            RunSpec.of("galgel", mech, scale=SCALE)
            for mech in ("DP", "RP", "ASP", "MP", "SP")
        ]
        reference = runner.run([s.derive(engine="reference") for s in base])
        fast = runner.run([s.derive(engine="fast") for s in base])
        auto = runner.run(base)
        assert reference.to_json() == fast.to_json() == auto.to_json()


class TestWrapperThreading:
    def test_evaluate_engine_param(self):
        trace = get_trace("galgel", SCALE)
        reference = evaluate(trace, create_prefetcher("DP"), engine="reference")
        fast = evaluate(trace, create_prefetcher("DP"), engine="fast")
        auto = evaluate(trace, create_prefetcher("DP"), engine="auto")
        assert reference == fast == auto

    def test_simulate_engine_param(self):
        trace = get_trace("eon", SCALE)
        online = simulate(trace, create_prefetcher("DP"))
        compiled = evaluate(trace, create_prefetcher("DP"), engine="auto")
        assert online == compiled

    def test_experiment_context_engine_threading(self):
        from repro.analysis.experiments import ExperimentContext

        reference = ExperimentContext(scale=SCALE, engine="reference")
        fast = ExperimentContext(scale=SCALE, engine="fast")
        assert reference.spec("galgel", "DP").engine == "reference"
        assert fast.spec("galgel", "DP").engine == "fast"
        ref_fig = reference.run_figure(["galgel"], None)
        fast_fig = fast.run_figure(["galgel"], None)
        assert ref_fig == fast_fig

    def test_context_replays_honour_engine_and_buffer(self):
        from repro.analysis.experiments import ExperimentContext
        from repro.workloads.validation import validate_all

        forced = ExperimentContext(scale=SCALE, engine="fast", buffer_entries=8)
        with pytest.raises(ConfigurationError):
            forced.run_mechanism("galgel", _CustomPrefetcher())
        reference = ExperimentContext(
            scale=SCALE, engine="reference", buffer_entries=8
        )
        expected = replay_prefetcher(
            reference.miss_trace("galgel"), create_prefetcher("DP"), buffer_entries=8
        )
        assert (
            forced.run_mechanism("galgel", create_prefetcher("DP"))
            == reference.run_mechanism("galgel", create_prefetcher("DP"))
            == expected
        )

        batches = []
        run_specs = reference.run_specs
        reference.run_specs = lambda specs: batches.append(specs) or run_specs(specs)
        results = validate_all(reference, apps=["galgel", "eon"])
        assert [result.app for result in results] == ["galgel", "eon"]
        (batch,) = batches  # every app in one batch
        assert len(batch) == 8
        assert {(spec.engine, spec.buffer_entries) for spec in batch} == {
            ("reference", 8)
        }

    def test_cli_engine_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "--app", "galgel", "--mechanism", "DP",
                     "--scale", str(SCALE), "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert main(["run", "--app", "galgel", "--mechanism", "DP",
                     "--scale", str(SCALE), "--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert fast_out == reference_out
        assert "acc=" in fast_out
