"""The smoke benchmark's gate table, pinned row by row.

A clean record passes every row; each row violated on its own fails
that row and no other; a missing or null field fails its row; the two
overhead budgets keep their values and strictness.
"""

import pytest

from repro.obs import SMOKE_GATES, check_gates


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
