"""Tests for the 56-application registry and trace building."""

import hashlib

import pytest

from repro.errors import ConfigurationError, UnknownWorkloadError
from repro.workloads.composer import BehaviorClass, build_trace, scaled
from repro.workloads.registry import (
    HIGH_MISS_APPS,
    SUITES,
    TABLE3_APPS,
    all_app_names,
    app_names_for_suite,
    get_app,
    get_trace,
)


class TestSuiteComposition:
    def test_paper_suite_sizes(self):
        assert len(SUITES["spec2000"]) == 26
        assert len(SUITES["mediabench"]) == 20
        assert len(SUITES["etch"]) == 5
        assert len(SUITES["ptrdist"]) == 5
        assert len(all_app_names()) == 56

    def test_names_unique(self):
        names = all_app_names()
        assert len(set(names)) == len(names)

    def test_seeds_unique(self):
        seeds = [spec.seed for suite in SUITES.values() for spec in suite]
        assert len(set(seeds)) == len(seeds)

    def test_every_spec_has_paper_note(self):
        for suite in SUITES.values():
            for spec in suite:
                assert spec.paper_note, spec.name
                assert isinstance(spec.behavior, BehaviorClass)

    def test_high_miss_selection_matches_paper(self):
        assert set(HIGH_MISS_APPS) == {
            "vpr", "mcf", "twolf", "galgel", "ammp", "lucas", "apsi", "adpcm-enc",
        }
        for name in HIGH_MISS_APPS:
            assert "high-miss" in get_app(name).tags

    def test_table3_apps_subset_of_high_miss(self):
        assert set(TABLE3_APPS) <= set(HIGH_MISS_APPS)
        assert list(TABLE3_APPS) == ["ammp", "mcf", "vpr", "twolf", "lucas"]

    def test_paper_figure_ordering_preserved(self):
        spec_names = app_names_for_suite("spec2000")
        assert spec_names[:4] == ["gzip", "vpr", "gcc", "mcf"]
        media = app_names_for_suite("mediabench")
        assert media[0] == "adpcm-enc"


    def test_app_metadata_is_pinned(self):
        """Every app's identity, in registry order, digests to the value
        the per-suite modules produced before they shared one builder."""
        lines = []
        for name in all_app_names():
            app = get_app(name)
            lines.append(repr((
                app.name, app.suite, app.behavior.name, app.seed,
                sorted(app.tags), app.paper_note,
            )))
        assert len(lines) == 56
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "4a20c93d720d7ca7c4897fce9d2ee957c17d5bebea3d977d68d8279ad9df3926"
        )


class TestLookup:
    def test_get_app(self):
        spec = get_app("galgel")
        assert spec.suite == "spec2000"
        assert spec.behavior is BehaviorClass.STRIDED_REPEATED

    def test_unknown_app(self):
        with pytest.raises(UnknownWorkloadError):
            get_app("does-not-exist")

    def test_unknown_suite(self):
        with pytest.raises(UnknownWorkloadError):
            app_names_for_suite("spec2017")


class TestTraceBuilding:
    def test_deterministic(self):
        a = build_trace(get_app("swim"), scale=0.02)
        b = build_trace(get_app("swim"), scale=0.02)
        assert a.pages.tolist() == b.pages.tolist()
        assert a.counts.tolist() == b.counts.tolist()

    def test_scale_grows_volume(self):
        small = build_trace(get_app("galgel"), scale=0.02)
        large = build_trace(get_app("galgel"), scale=0.04)
        assert large.total_references > small.total_references

    def test_get_trace_caches(self):
        assert get_trace("eon", 0.02) is get_trace("eon", 0.02)

    def test_trace_named_after_app(self):
        assert get_trace("ks", 0.05).name == "ks"

    def test_all_apps_build_at_tiny_scale(self):
        for name in all_app_names():
            trace = build_trace(get_app(name), scale=0.01)
            assert trace.total_references > 0, name
            assert trace.pages.min() >= 0, name


class TestScaled:
    def test_rounding_and_minimum(self):
        assert scaled(10, 0.5) == 5
        assert scaled(10, 0.01) == 1
        assert scaled(10, 0.01, minimum=3) == 3

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ConfigurationError):
            scaled(10, 0.0)
