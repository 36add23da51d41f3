"""Tests for the unified execution API: RunSpec, Runner, ResultSet.

The contracts under test are the ones the rest of the library now
builds on:

- specs are frozen, hashable data with a *stable* content-addressed
  key (identical across processes);
- a Runner batch filters each (workload, scale, TLB, page size)
  exactly once, however many mechanism configurations replay over it;
- parallel execution is bit-identical to serial execution;
- ResultSets round-trip through JSON losslessly.
"""

import subprocess
import sys

import pytest

from repro.errors import ConfigurationError, UnknownPrefetcherError
from repro.run import MechanismSpec, MissStreamCache, ResultSet, Runner, RunSpec
from repro.sim.config import TLBConfig
from repro.sim.two_phase import evaluate
from repro.workloads.registry import get_trace

SCALE = 0.05


def spec_of(app="galgel", mechanism="DP", **kwargs):
    kwargs.setdefault("scale", SCALE)
    return RunSpec.of(app, mechanism, **kwargs)


class TestMechanismSpec:
    def test_keyword_order_is_canonicalized(self):
        assert MechanismSpec.of("DP", rows=128, slots=4) == MechanismSpec.of(
            "DP", slots=4, rows=128
        )

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(UnknownPrefetcherError):
            MechanismSpec.of("nope")

    def test_build_returns_fresh_instances(self):
        spec = MechanismSpec.of("DP", rows=64)
        assert spec.build() is not spec.build()
        assert spec.build().prefetches_issued == 0

    def test_label(self):
        assert MechanismSpec.of("RP").label == "RP"
        assert MechanismSpec.of("DP", rows=64).label == "DP(rows=64)"


class TestRunSpec:
    def test_specs_are_hashable_and_comparable(self):
        assert spec_of() == spec_of()
        assert len({spec_of(), spec_of(), spec_of(mechanism="RP")}) == 2

    def test_key_is_deterministic_within_process(self):
        assert spec_of().key() == spec_of().key()

    def test_key_differs_across_every_field(self):
        base = spec_of()
        variants = [
            spec_of(app="swim"),
            spec_of(mechanism="RP"),
            spec_of(scale=0.1),
            spec_of(tlb=TLBConfig(entries=64)),
            spec_of(buffer_entries=32),
            spec_of(warmup_fraction=0.1),
            spec_of(max_prefetches_per_miss=1),
            spec_of(page_size=8192),
            spec_of(rows=128),
        ]
        keys = {spec.key() for spec in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_key_is_stable_across_processes(self):
        """The key must not depend on PYTHONHASHSEED or object identity."""
        spec = spec_of(rows=256, slots=2)
        program = (
            "from repro.run import RunSpec;"
            f"print(RunSpec.of('galgel', 'DP', scale={SCALE}, rows=256, slots=2).key())"
        )
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "7"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == spec.key()

    def test_validation_is_the_librarys_own(self):
        with pytest.raises(ConfigurationError):
            spec_of(buffer_entries=0)
        with pytest.raises(ConfigurationError):
            spec_of(page_size=2048)
        with pytest.raises(ConfigurationError):
            spec_of(page_size=5000)
        with pytest.raises(ConfigurationError):
            spec_of(scale=0)

    def test_stream_key_ignores_replay_only_fields(self):
        assert spec_of().stream_key() == spec_of(
            mechanism="RP", buffer_entries=64, max_prefetches_per_miss=2
        ).stream_key()
        assert spec_of().stream_key() != spec_of(tlb=TLBConfig(entries=64)).stream_key()

    def test_derive(self):
        derived = spec_of().derive(buffer_entries=32)
        assert derived.buffer_entries == 32
        assert derived.workload == "galgel"


class TestRunnerCache:
    def test_each_stream_filtered_exactly_once(self):
        cache = MissStreamCache()
        runner = Runner(cache=cache)
        specs = [
            spec_of(app, mechanism)
            for app in ("galgel", "swim")
            for mechanism in ("DP", "RP", "ASP", "MP")
        ]
        results = runner.run(specs)
        assert len(results) == 8
        assert cache.misses == 2  # one filter per workload
        assert cache.hits == 6

    def test_streams_shared_across_batches(self):
        cache = MissStreamCache()
        runner = Runner(cache=cache)
        runner.run([spec_of(mechanism="DP")])
        runner.run([spec_of(mechanism="RP")])
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_tlbs_distinct_streams(self):
        cache = MissStreamCache()
        runner = Runner(cache=cache)
        runner.run(
            [spec_of(), spec_of(tlb=TLBConfig(entries=64)), spec_of(page_size=8192)]
        )
        assert cache.misses == 3

    def test_lru_eviction_is_bounded(self):
        cache = MissStreamCache(maxsize=1)
        runner = Runner(cache=cache)
        runner.run([spec_of(), spec_of(tlb=TLBConfig(entries=64)), spec_of()])
        assert len(cache) == 1
        # Serial batches execute stream-group by stream-group, so the
        # two galgel specs share one filter even though this cache can
        # hold a single stream: g=2 groups miss, the duplicate hits.
        assert cache.misses == 2
        assert cache.hits == 1
        assert cache.evictions == 1

    def test_results_match_single_run_wrapper(self):
        stats = Runner(cache=MissStreamCache()).run([spec_of(rows=256)])[0]
        reference = evaluate(
            get_trace("galgel", SCALE),
            spec_of(rows=256).build_prefetcher(),
            engine="reference",
        )
        assert stats.pb_hits == reference.pb_hits
        assert stats.prefetches_issued == reference.prefetches_issued
        assert stats.tlb_misses == reference.tlb_misses

    def test_ad_hoc_traces_keyed_by_content(self):
        cache = MissStreamCache()
        runner = Runner(cache=cache)
        first = runner.miss_stream(get_trace("galgel", SCALE))
        again = runner.miss_stream(get_trace("galgel", SCALE))
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_equal_content_traces_keep_their_own_names(self):
        """A content-cache hit must not relabel the caller's workload."""
        from repro.mem.trace import ReferenceTrace

        runner = Runner(cache=MissStreamCache())
        pages = list(range(40))
        before = ReferenceTrace([0] * 40, pages, [1] * 40, name="before")
        after = ReferenceTrace([0] * 40, pages, [1] * 40, name="after")
        assert runner.miss_stream(before).name == "before"
        assert runner.miss_stream(after).name == "after"

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            Runner().run(["galgel"])


class TestParallelExecution:
    def test_workers_bit_identical_to_serial(self):
        specs = [
            spec_of(app, mechanism)
            for app in ("galgel", "swim", "eon")
            for mechanism in ("DP", "RP", "SP")
        ]
        serial = Runner(cache=MissStreamCache()).run(specs)
        parallel = Runner(workers=2, cache=MissStreamCache()).run(specs)
        assert serial.to_json() == parallel.to_json()

    def test_figure7_style_sweep_parallel(self):
        """The acceptance-criteria shape: a Figure-7 sweep through
        ``workers=4`` matches serial execution row for row, while each
        workload's TLB is filtered exactly once."""
        from repro.analysis.figures import figure7_configs

        apps = ("galgel", "eon")
        specs = [
            spec_of(app, config.mechanism, **config.factory_params())
            for app in apps
            for config in figure7_configs()
        ]
        serial_cache = MissStreamCache()
        serial = Runner(cache=serial_cache).run(specs)
        parallel = Runner(workers=4, cache=MissStreamCache()).run(specs)
        assert serial.to_json() == parallel.to_json()
        assert serial_cache.misses == len(apps)
        assert serial_cache.hits == len(specs) - len(apps)


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        specs = [
            spec_of(app, mechanism)
            for app in ("galgel", "swim")
            for mechanism in ("DP", "RP")
        ]
        return Runner(cache=MissStreamCache()).run(specs)

    def test_sequence_protocol(self, results):
        assert len(results) == 4
        assert results[0].workload == "galgel"
        assert isinstance(results[1:3], ResultSet)
        assert len(results[1:3]) == 2

    def test_filter_by_field_and_extra(self, results):
        assert len(results.filter(workload="galgel")) == 2
        assert len(results.filter(mechanism_name="DP")) == 2
        assert len(results.filter(workload="galgel", mechanism_name="DP")) == 1
        assert len(results.filter(lambda run: run.prediction_accuracy > 2)) == 0

    def test_filter_unknown_field_raises(self, results):
        with pytest.raises(KeyError):
            results.filter(flavour="salty")

    def test_pivot(self, results):
        table = results.pivot(columns="mechanism_name")
        assert set(table) == {"galgel", "swim"}
        assert set(table["galgel"]) == {"DP", "RP"}
        assert 0.0 <= table["galgel"]["DP"] <= 1.0

    def test_json_round_trip(self, results, tmp_path):
        path = results.save(tmp_path / "results.json")
        loaded = ResultSet.load(path)
        assert loaded == results
        assert loaded.to_json() == results.to_json()

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            ResultSet.from_json('{"schema": "other/v9", "runs": []}')

    def test_concatenation(self, results):
        combined = results + results
        assert len(combined) == 8


class TestRunnerEdgeCases:
    def test_more_workers_than_specs(self):
        """A pool larger than the batch must not hang or drop rows."""
        specs = [spec_of(mechanism="DP"), spec_of(mechanism="RP")]
        serial = Runner(cache=MissStreamCache()).run(specs)
        oversubscribed = Runner(workers=8, cache=MissStreamCache()).run(specs)
        assert oversubscribed.to_json() == serial.to_json()

    def test_duplicate_specs_single_filter_pass(self):
        """Duplicates in one batch share one filter and all get rows."""
        cache = MissStreamCache()
        spec = spec_of(mechanism="DP")
        results = Runner(cache=cache).run([spec, spec, spec])
        assert len(results) == 3
        assert cache.misses == 1
        assert cache.hits == 2
        first, second, third = results
        assert first == second == third

    def test_duplicate_specs_parallel_matches_serial(self):
        spec = spec_of(mechanism="DP")
        other = spec_of(mechanism="RP")
        batch = [spec, other, spec, other]
        serial = Runner(cache=MissStreamCache()).run(batch)
        parallel = Runner(workers=4, cache=MissStreamCache()).run(batch)
        assert parallel.to_json() == serial.to_json()

    def test_pool_is_capped_by_usable_cpus(self, monkeypatch):
        """The pool never outgrows the CPUs this process may run on
        (its affinity mask), whatever ``workers`` asks for."""
        import repro.run.runner as runner_module

        pools = []
        real_pool = runner_module.ProcessPoolExecutor

        def spy(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(
            runner_module.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", spy)
        specs = [spec_of(app, "DP") for app in ("galgel", "swim")]
        parallel = Runner(workers=4, cache=MissStreamCache()).run(specs)
        assert pools == [1]
        serial = Runner(cache=MissStreamCache()).run(specs)
        assert parallel.to_json() == serial.to_json()

    def test_empty_batch(self):
        results = Runner(cache=MissStreamCache()).run([])
        assert len(results) == 0
        assert results.pivot() == {}

    def test_load_rejects_older_schema_explicitly(self, tmp_path):
        """A v0-era file fails with a ValueError naming the schema."""
        import json

        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro.resultset/v0", "runs": []}))
        with pytest.raises(ValueError, match="repro.resultset/v0"):
            ResultSet.load(path)

    def test_load_rejects_missing_run_fields_explicitly(self, tmp_path):
        """Right schema, older row shape: ValueError, not KeyError."""
        import json

        good = Runner(cache=MissStreamCache()).run([spec_of()])
        payload = json.loads(good.to_json())
        for run in payload["runs"]:
            del run["prefetch_fetch_ops"]  # field an older version lacked
        path = tmp_path / "older_rows.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="run 0 does not match schema"):
            ResultSet.load(path)

    def test_load_rejects_runs_missing(self, tmp_path):
        import json

        path = tmp_path / "norun.json"
        path.write_text(json.dumps({"schema": "repro.resultset/v1"}))
        with pytest.raises(ValueError, match="no 'runs' list"):
            ResultSet.load(path)

    def test_load_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            ResultSet.load(path)


class TestMissStreamCacheConcurrency:
    """Per-key (striped) build locks: one slow build must not serialize
    the whole cache, while same-key requests still build exactly once."""

    def test_hit_on_other_key_not_blocked_by_inflight_build(self):
        import threading
        import time as time_module

        cache = MissStreamCache()
        warm = object()
        cache.get_or_build(("b",), lambda: warm)
        build_started = threading.Event()
        release_build = threading.Event()

        def slow_build():
            build_started.set()
            assert release_build.wait(timeout=10)
            return object()

        builder = threading.Thread(
            target=cache.get_or_build, args=(("a",), slow_build)
        )
        builder.start()
        try:
            assert build_started.wait(timeout=10)
            # Key A's build is in flight and parked; a hit on key B
            # must come straight back (hits never take build locks).
            start = time_module.monotonic()
            got = cache.get_or_build(
                ("b",), lambda: pytest.fail("expected a cache hit")
            )
            elapsed = time_module.monotonic() - start
            assert got is warm
            assert elapsed < 2.0
        finally:
            release_build.set()
            builder.join(timeout=10)
        assert cache.hits == 1
        assert cache.misses == 2

    def test_same_key_concurrent_requests_build_once(self):
        import threading

        cache = MissStreamCache()
        builds = []
        all_started = threading.Event()
        value = object()

        def build():
            builds.append(1)
            assert all_started.wait(timeout=10)
            return value

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_build(("k",), build))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        all_started.set()
        for thread in threads:
            thread.join(timeout=10)
        assert builds == [1]
        assert results == [value] * 4
        assert (cache.hits, cache.misses) == (3, 1)


class TestMissStreamCacheStats:
    def test_stats_snapshot_tracks_hits_misses_evictions(self):
        cache = MissStreamCache(maxsize=1)
        runner = Runner(cache=cache)
        runner.run([spec_of(), spec_of(tlb=TLBConfig(entries=64)), spec_of()])
        # Stream-grouped serial execution: the duplicate galgel spec
        # hits within its group before the TLB-64 group evicts it.
        assert cache.stats() == {
            "entries": 1,
            "maxsize": 1,
            "hits": 1,
            "misses": 2,
            "evictions": 1,
        }

    def test_clear_zeroes_every_counter(self):
        cache = MissStreamCache(maxsize=1)
        Runner(cache=cache).run([spec_of(), spec_of(tlb=TLBConfig(entries=64))])
        cache.clear()
        assert cache.stats() == {
            "entries": 0,
            "maxsize": 1,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }


class TestRunSpecDictRoundTrip:
    def test_to_dict_from_dict_preserves_identity(self):
        spec = spec_of(
            mechanism="DP",
            tlb=TLBConfig(entries=64, ways=2),
            buffer_entries=32,
            warmup_fraction=0.1,
            page_size=8192,
            rows=128,
            slots=4,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.key() == spec.key()

    def test_from_dict_rejects_unknown_fields(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="bogus"):
            RunSpec.from_dict({"workload": "galgel", "bogus": 1})
        with pytest.raises(ConfigurationError, match="workload"):
            RunSpec.from_dict({"mechanism": "DP"})
        with pytest.raises(ConfigurationError, match="object"):
            RunSpec.from_dict(["galgel"])

    @pytest.mark.parametrize(
        "entries, ways", [(100, 3), (8, -1), (0, 0), (True, 0), (128, 2.0)]
    )
    def test_from_dict_rejects_an_invalid_tlb_shape(self, entries, ways):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RunSpec.from_dict(
                {"workload": "galgel", "tlb_entries": entries, "tlb_ways": ways}
            )

    def test_from_dict_applies_defaults(self):
        spec = RunSpec.from_dict({"workload": "galgel"})
        assert spec == RunSpec.of("galgel", "DP")


class TestResultSetMerge:
    def _rows(self, *mechanisms):
        return Runner(cache=MissStreamCache()).run(
            [spec_of(mechanism=m) for m in mechanisms]
        )

    def test_disjoint_union(self):
        merged = self._rows("DP").merge(self._rows("RP"))
        assert len(merged) == 2
        assert {run.extra["mechanism_name"] for run in merged} == {"DP", "RP"}

    def test_identical_duplicates_collapse(self):
        dp = self._rows("DP")
        partial = self._rows("DP", "RP")
        merged = partial.merge(dp)
        assert len(merged) == 2
        assert merged[:2].to_json() == partial.to_json()

    def test_conflicting_rows_for_same_spec_raise(self):
        from dataclasses import replace

        from repro.errors import ResultMergeError

        original = self._rows("DP")
        conflicting = ResultSet([replace(original[0], pb_hits=0)])
        with pytest.raises(ResultMergeError, match=original[0].extra["spec_key"]):
            original.merge(conflicting)

    def test_rows_without_spec_key_always_append(self):
        loose = ResultSet(
            [
                evaluate(
                    get_trace("galgel", SCALE),
                    spec_of().build_prefetcher(),
                    engine="reference",
                )
            ]
        )
        merged = loose.merge(loose)
        assert len(merged) == 2  # no key, no dedup — appended verbatim

    def test_merge_multiple_sets(self):
        merged = self._rows("DP").merge(self._rows("RP"), self._rows("DP", "ASP"))
        assert len(merged) == 3


class TestExperimentContextIntegration:
    def test_context_executes_through_runner(self):
        from repro.analysis.experiments import ExperimentContext

        cache = MissStreamCache()
        context = ExperimentContext(scale=SCALE, runner=Runner(cache=cache))
        figure = context.run_figure(["galgel"], None)
        assert "galgel" in figure
        assert cache.misses == 1  # one workload, one TLB shape, one filter
        assert cache.hits == len(next(iter(figure.values()))) - 1


class TestBatchEngineRouting:
    """Which specs the serial Runner routes through the batch engine.

    Contract (see Runner._run_serial): specs on any engine but
    "reference" whose mechanism has a compiled loop are grouped by
    stream key, and every group — a group of one included — takes one
    ``replay_batch`` call; checkpointing runs disable grouping
    entirely. Routing must never change results.
    """

    def _spy(self, monkeypatch):
        from repro.sim import batchpath

        calls = []
        real = batchpath.replay_batch

        def spying(miss_trace, requests):
            calls.append(len(requests))
            return real(miss_trace, requests)

        monkeypatch.setattr(batchpath, "replay_batch", spying)
        return calls

    def test_auto_group_routes_through_batch_engine(self, monkeypatch):
        calls = self._spy(monkeypatch)
        specs = [spec_of(mechanism=m) for m in ("DP", "RP", "ASP")]
        reference = Runner(cache=MissStreamCache()).run(
            [spec.derive(engine="reference") for spec in specs]
        )
        results = Runner(cache=MissStreamCache()).run(specs)
        assert calls == [3]  # one shared stream, one replay_batch call
        assert results.to_json() == reference.to_json()

    def test_auto_singleton_routes_through_batch_engine(self, monkeypatch):
        calls = self._spy(monkeypatch)
        spec = spec_of()
        reference = Runner(cache=MissStreamCache()).run_one(
            spec.derive(engine="reference")
        )
        (row,) = Runner(cache=MissStreamCache()).run([spec])
        assert calls == [1]
        assert row == reference

    def test_engine_batch_forces_singleton_through_batch(self, monkeypatch):
        calls = self._spy(monkeypatch)
        spec = spec_of(engine="batch")
        reference = Runner(cache=MissStreamCache()).run_one(
            spec.derive(engine="reference")
        )
        (row,) = Runner(cache=MissStreamCache()).run([spec])
        assert calls == [1]
        from dataclasses import asdict

        assert asdict(row) == asdict(reference)

    def test_mixed_engines_split_within_a_group(self, monkeypatch):
        calls = self._spy(monkeypatch)
        specs = [
            spec_of(mechanism="DP"),
            spec_of(mechanism="RP", engine="reference"),
            spec_of(mechanism="ASP"),
        ]
        reference = Runner(cache=MissStreamCache()).run(
            [spec.derive(engine="reference") for spec in specs]
        )
        results = Runner(cache=MissStreamCache()).run(specs)
        assert calls == [2]  # the explicit reference spec stays per-spec
        assert results.to_json() == reference.to_json()

    def test_checkpoint_every_disables_batching(self, monkeypatch, tmp_path):
        from repro.store import ExperimentStore

        calls = self._spy(monkeypatch)
        specs = [spec_of(mechanism=m) for m in ("DP", "RP")]
        runner = Runner(
            cache=MissStreamCache(),
            checkpoint_every=1000,
            store=ExperimentStore(tmp_path / "store"),
        )
        reference = Runner(cache=MissStreamCache()).run(
            [spec.derive(engine="reference") for spec in specs]
        )
        results = runner.run(specs)
        assert calls == []
        assert results.to_json() == reference.to_json()

    def test_parallel_workers_batch_within_their_groups(self, monkeypatch):
        # Worker pools partition specs by stream group and each worker
        # replays its group via _run_group -> _run_serial, so replay_batch
        # fires inside the subprocess. The pool itself is opaque
        # to a monkeypatch, so spy on _run_group invoked in-process...
        from repro.run import runner as runner_module

        calls = self._spy(monkeypatch)
        group = tuple(spec_of("swim", m) for m in ("DP", "RP"))
        rows = runner_module._run_group(group)
        assert calls == [2]
        assert len(rows) == 2
        # ...and separately check the real pool stays bit-identical.
        specs = [
            spec_of(app, mechanism)
            for app in ("galgel", "swim")
            for mechanism in ("DP", "RP")
        ]
        serial = Runner(cache=MissStreamCache()).run(specs)
        parallel = Runner(workers=2, cache=MissStreamCache()).run(specs)
        assert parallel.to_json() == serial.to_json()

    def test_duplicate_specs_share_one_batch_pass(self, monkeypatch):
        calls = self._spy(monkeypatch)
        spec = spec_of()
        results = Runner(cache=MissStreamCache()).run([spec, spec, spec])
        assert calls == [3]
        rows = [r for r in results]
        from dataclasses import asdict

        assert asdict(rows[0]) == asdict(rows[1]) == asdict(rows[2])
