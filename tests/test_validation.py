"""Tests for the workload claim validator."""

import pytest

from repro.analysis.experiments import ExperimentContext
from repro.workloads.registry import all_app_names
from repro.workloads.validation import (
    CLAIM_GROUPS,
    ValidationResult,
    group_of,
    render_report,
    validate_all,
)


class TestGroupAssignments:
    def test_every_app_has_a_group(self):
        for app in all_app_names():
            assert group_of(app) in CLAIM_GROUPS

    def test_group_lists_only_contain_known_apps(self):
        known = set(all_app_names())
        for group, (_, apps) in CLAIM_GROUPS.items():
            unknown = set(apps) - known
            assert not unknown, (group, unknown)

    def test_group_lists_cover_all_apps(self):
        grouped = {
            app for _, apps in CLAIM_GROUPS.values() for app in apps
        }
        assert grouped == set(all_app_names())

    def test_no_app_in_two_groups(self):
        seen: dict[str, str] = {}
        for group, (_, apps) in CLAIM_GROUPS.items():
            for app in apps:
                assert app not in seen, (app, group, seen[app])
                seen[app] = group

    def test_expected_assignments(self):
        assert group_of("galgel") == "strided-repeated"
        assert group_of("parser") == "alternation"
        assert group_of("swim") == "distance"
        assert group_of("fma3d") == "nobody"
        assert group_of("bzip2") == "mixed"


class TestClaims:
    def test_strided_repeated_wants_dp_near_the_top(self):
        claim, _ = CLAIM_GROUPS["strided-repeated"]
        assert claim({"RP": 0.9, "MP": 0.5, "DP": 0.86, "ASP": 0.9}) is None
        message = claim({"RP": 0.9, "MP": 0.5, "DP": 0.84, "ASP": 0.9})
        assert "DP at or near the top" in message


class TestValidation:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(scale=0.15)

    def test_validate_single_app(self, context):
        (result,) = validate_all(context, apps=["galgel"])
        assert isinstance(result, ValidationResult)
        assert result.passed, result.failures
        assert set(result.accuracies) == {"RP", "MP", "DP", "ASP"}

    def test_validate_subset(self, context):
        # At least one app from each claim group but "history" and
        # "mixed": nobody (eon, fma3d), distance (swim), alternation
        # (parser), one-touch (gzip), strided-repeated (galgel,
        # adpcm-enc) and dp-only (gsm-enc).
        apps = ["eon", "swim", "parser", "gzip", "galgel", "fma3d",
                "adpcm-enc", "gsm-enc"]
        results = validate_all(context, apps=apps)
        assert [r.app for r in results] == apps
        assert all(r.passed for r in results), [
            (r.app, r.failures) for r in results if not r.passed
        ]

    def test_render_report_mentions_status(self, context):
        results = validate_all(context, apps=["eon"])
        text = render_report(results)
        assert "1 passed" in text
        assert "eon" in text

    def test_render_report_shows_failures(self):
        fake = ValidationResult(
            app="x", group="nobody",
            accuracies={"RP": 0.9, "MP": 0.0, "DP": 0.0, "ASP": 0.0},
            failures=("expected no mechanism to predict",),
        )
        text = render_report([fake])
        assert "FAIL" in text
        assert "expected no mechanism" in text
