"""Benchmark history: JSONL round-trip and the regression gate.

The bench observatory is a CI gate, so these tests pin the failure
modes that matter: a clean window passes, a synthetic 20% throughput
drop regresses (and ``repro-tlb bench compare`` exits nonzero on it),
ceiling budgets bind on the latest value alone, corrupt or foreign
history lines raise instead of being skipped, and metrics absent from
either side are reported as skipped, never regressed. The smoke
benchmark's gate table is pinned row by row: a clean record passes,
and each row violated on its own fails that row and no other.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs import (
    BENCH_SCHEMA,
    DEFAULT_TOLERANCES,
    SMOKE_GATES,
    append_history,
    check_gates,
    compare_history,
    format_compare,
    load_history,
)


def record(specs_per_second=100.0, **extra):
    base = {
        "specs_per_second": specs_per_second,
        "batch_specs_per_second": 200.0,
        "stream_entries_per_second": 5000.0,
        "warm_start_speedup": 3.0,
        "store_cold_overhead_fraction": 0.03,
        "obs_overhead_fraction": 0.02,
    }
    base.update(extra)
    return base


def write_history(path, throughputs, **extra):
    for i, value in enumerate(throughputs):
        append_history(
            path,
            record(specs_per_second=value, **extra),
            git_sha=f"sha{i}",
            timestamp=1700000000.0 + i,
        )


class TestAppendAndLoad:
    def test_round_trip_preserves_provenance(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        line = append_history(
            path, record(), git_sha="abc123", timestamp=1700000000.0
        )
        assert line["schema"] == BENCH_SCHEMA
        (loaded,) = load_history(path)
        assert loaded["git_sha"] == "abc123"
        assert loaded["timestamp"] == 1700000000.0
        assert loaded["record"]["specs_per_second"] == 100.0

    def test_appends_accumulate_oldest_first(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0, 110.0, 120.0])
        history = load_history(path)
        assert [h["record"]["specs_per_second"] for h in history] == [
            100.0, 110.0, 120.0,
        ]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="no benchmark history"):
            load_history(tmp_path / "absent.jsonl")

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, record())
        path.open("a").write("{not json\n")
        with pytest.raises(ObsError, match=":2:"):
            load_history(path)

    def test_foreign_schema_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps({"schema": "other/v1", "record": {}}) + "\n"
        )
        with pytest.raises(ObsError, match="other/v1"):
            load_history(path)

    def test_line_without_record_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA}) + "\n")
        with pytest.raises(ObsError, match="no 'record'"):
            load_history(path)

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, record())
        with path.open("a") as handle:
            handle.write("\n")
        assert len(load_history(path)) == 1


class TestCompare:
    def test_clean_window_passes(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0, 102.0, 98.0, 101.0])
        report = compare_history(load_history(path), baseline_window=3)
        assert report["regressed"] is False
        assert report["baseline_runs"] == 3
        assert report["latest_git_sha"] == "sha3"
        verdicts = {m["metric"]: m["verdict"] for m in report["metrics"]}
        assert verdicts["specs_per_second"] == "ok"

    def test_twenty_percent_drop_regresses(self, tmp_path):
        """The acceptance scenario: a 20% specs_per_second drop must
        trip the 15% tolerance."""
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0, 100.0, 100.0, 80.0])
        report = compare_history(load_history(path), baseline_window=3)
        assert report["regressed"] is True
        (entry,) = [
            m for m in report["metrics"] if m["metric"] == "specs_per_second"
        ]
        assert entry["verdict"] == "regressed"
        assert entry["baseline"] == pytest.approx(100.0)
        assert "REGRESSED" in format_compare(report)

    def test_ceiling_binds_on_latest_alone(self, tmp_path):
        path = tmp_path / "h.jsonl"
        # Baseline also over budget: irrelevant — ceilings ignore it.
        write_history(path, [100.0])
        append_history(path, record(obs_overhead_fraction=0.08))
        report = compare_history(load_history(path), baseline_window=1)
        (entry,) = [
            m for m in report["metrics"]
            if m["metric"] == "obs_overhead_fraction"
        ]
        assert entry["verdict"] == "regressed"
        assert entry["baseline"] is None
        assert report["regressed"] is True

    def test_missing_metric_is_skipped_not_regressed(self, tmp_path):
        path = tmp_path / "h.jsonl"
        thin = {"specs_per_second": 100.0}
        append_history(path, thin)
        append_history(path, thin)
        report = compare_history(load_history(path), baseline_window=1)
        verdicts = {m["metric"]: m["verdict"] for m in report["metrics"]}
        assert verdicts["warm_start_speedup"] == "skipped"
        assert verdicts["obs_overhead_fraction"] == "skipped"
        assert report["regressed"] is False

    def test_single_record_skips_window_kinds(self, tmp_path):
        # First-ever run: no baseline yet, only ceilings can verdict.
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0])
        report = compare_history(load_history(path), baseline_window=5)
        verdicts = {m["metric"]: m["verdict"] for m in report["metrics"]}
        assert verdicts["specs_per_second"] == "skipped"
        assert verdicts["obs_overhead_fraction"] == "ok"
        assert report["baseline_runs"] == 0

    def test_lower_kind_is_mirrored(self, tmp_path):
        path = tmp_path / "h.jsonl"
        tolerances = {"latency_ms": {"kind": "lower", "tolerance": 0.10}}
        append_history(path, {"latency_ms": 10.0})
        append_history(path, {"latency_ms": 12.0})
        report = compare_history(
            load_history(path), baseline_window=1, tolerances=tolerances
        )
        assert report["regressed"] is True
        append_history(path, {"latency_ms": 10.5})
        report = compare_history(
            load_history(path), baseline_window=1, tolerances=tolerances
        )
        # 10.5 vs baseline 12.0: faster, fine.
        assert report["regressed"] is False

    def test_empty_history_and_bad_window_raise(self):
        with pytest.raises(ObsError, match="empty"):
            compare_history([])
        with pytest.raises(ObsError, match="baseline_window"):
            compare_history([{"record": {}}], baseline_window=0)

    def test_format_compare_renders_every_metric(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0, 100.0])
        text = format_compare(compare_history(load_history(path)))
        for metric in ("specs_per_second", "obs_overhead_fraction"):
            assert metric in text
        assert text.endswith("ok")
        assert "latest sha: sha1" in text


class TestBenchCompareCli:
    def test_clean_history_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0, 101.0])
        rc = main(["bench", "compare", "--history", str(path),
                   "--baseline-window", "1"])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        write_history(path, [100.0, 100.0, 100.0, 80.0])
        rc = main(["bench", "compare", "--history", str(path),
                   "--baseline-window", "3"])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_history_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["bench", "compare", "--history",
                   str(tmp_path / "absent.jsonl")])
        assert rc == 2  # usage/input error, distinct from a regression
        assert "no benchmark history" in capsys.readouterr().err


def clean_smoke_record():
    return {
        "engines_identical": True,
        "parallel_identical": True,
        "store_identical": True,
        "store_warm_all_hits": True,
        "store_cold_overhead_fraction": 0.04,
        "streaming_identical": True,
        "distributed_identical": True,
        "load_identical": True,
        "load_clients": 120,
        "load_5xx_total": 0,
        "load_429_missing_retry_after": 0,
        "obs_overhead_fraction": 0.01,
    }


#: One violating value per gate row.
VIOLATIONS = {
    "engines_identical": False,
    "parallel_identical": False,
    "store_identical": False,
    "store_warm_all_hits": False,
    "store_cold_overhead_fraction": 0.1001,
    "streaming_identical": False,
    "distributed_identical": False,
    "load_identical": False,
    "load_clients": 99,
    "load_5xx_total": 1,
    "load_429_missing_retry_after": 1,
    "obs_overhead_fraction": 0.05,
}


def failed_fields(record):
    return [v["field"] for v in check_gates(record) if not v["passed"]]


class TestSmokeGates:
    def test_clean_record_passes_every_row(self):
        verdicts = check_gates(clean_smoke_record())
        assert [v["field"] for v in verdicts] == [g.field for g in SMOKE_GATES]
        assert all(v["passed"] for v in verdicts)

    def test_every_row_has_a_violation_case(self):
        assert set(VIOLATIONS) == {gate.field for gate in SMOKE_GATES}

    @pytest.mark.parametrize("field", sorted(VIOLATIONS))
    def test_each_row_violated_alone_fails_that_row(self, field):
        record = clean_smoke_record()
        record[field] = VIOLATIONS[field]
        assert failed_fields(record) == [field]
        (verdict,) = [v for v in check_gates(record) if not v["passed"]]
        assert verdict["value"] == VIOLATIONS[field]
        assert verdict["message"]

    @pytest.mark.parametrize("field", sorted(VIOLATIONS))
    def test_missing_or_null_field_fails_its_row(self, field):
        record = clean_smoke_record()
        record[field] = None
        assert failed_fields(record) == [field]
        del record[field]
        assert failed_fields(record) == [field]

    def test_budgets_are_the_compare_ceilings(self):
        bounds = {gate.field: gate.bound for gate in SMOKE_GATES}
        for metric in ("store_cold_overhead_fraction", "obs_overhead_fraction"):
            assert DEFAULT_TOLERANCES[metric]["kind"] == "ceiling"
            assert bounds[metric] == DEFAULT_TOLERANCES[metric]["tolerance"]

    def test_budget_boundaries(self):
        # Store overhead may sit exactly on its budget; telemetry
        # overhead must stay strictly below its own.
        record = clean_smoke_record()
        record["store_cold_overhead_fraction"] = 0.10
        record["obs_overhead_fraction"] = 0.0499
        assert failed_fields(record) == []

    def test_conditions_render_as_json(self):
        conditions = {v["field"]: v["condition"] for v in check_gates({})}
        assert conditions["engines_identical"] == "== true"
        assert conditions["obs_overhead_fraction"] == "< 0.05"
        assert conditions["store_cold_overhead_fraction"] == "<= 0.1"
        assert conditions["load_clients"] == ">= 100"
