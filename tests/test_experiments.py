"""Tests for the experiment orchestrator and figure configurations."""

import pytest

from repro.analysis.experiments import TABLE2_MECHANISMS, ExperimentContext
from repro.analysis.figures import (
    ASSOC_WAYS,
    FIGURE9_BUFFERS,
    FIGURE9_SLOTS,
    FIGURE9_TLBS,
    MechanismConfig,
    figure7_configs,
    figure9_table_configs,
)
from repro.sim.config import TLBConfig


class TestFigureConfigs:
    def test_figure7_legend_matches_paper(self):
        labels = [c.label for c in figure7_configs()]
        assert labels[0] == "RP"
        assert "MP,1024,D" in labels
        assert "MP,256,F" in labels
        assert "DP,32,D" in labels
        assert "ASP,1024" in labels
        # 1 RP + 8 MP + 6 DP + 6 ASP bars.
        assert len(labels) == 21

    def test_figure9_table_legend(self):
        labels = [c.label for c in figure9_table_configs()]
        assert labels[0] == "DP,1024,D"
        assert "DP,32,F" in labels
        assert len(labels) == 14

    def test_factory_params_map_assoc(self):
        config = MechanismConfig("MP", 512, "4")
        assert config.factory_params() == {"rows": 512, "ways": 4, "slots": 2}
        assert ASSOC_WAYS["F"] == 0

    def test_panel_constants(self):
        assert FIGURE9_SLOTS == (2, 4, 6)
        assert FIGURE9_BUFFERS == (16, 32, 64)
        assert FIGURE9_TLBS == (64, 128, 256)


@pytest.fixture(scope="module")
def context() -> ExperimentContext:
    return ExperimentContext(scale=0.05)


class TestExperimentContext:
    def test_miss_trace_cached_per_tlb_config(self, context):
        first = context.miss_trace("eon")
        assert context.miss_trace("eon") is first
        other = context.miss_trace("eon", TLBConfig(entries=64))
        assert other is not first

    def test_run_table1_mentions_all_mechanisms(self, context):
        table = context.run_table1()
        for name in ("ASP", "MP", "RP", "DP"):
            assert name in table
        assert "Distance" in table
        assert "In Memory" in table

    def test_run_figure_on_subset(self, context):
        configs = [MechanismConfig("DP", 64, "D"), MechanismConfig("RP")]
        results = context.run_figure(["galgel", "eon"], configs)
        assert set(results) == {"galgel", "eon"}
        assert set(results["galgel"]) == {"DP,64,D", "RP"}
        assert results["galgel"]["DP,64,D"] > 0.9

    def test_run_table2_structure(self, context):
        summary = context.run_table2(apps=["galgel", "swim", "eon"])
        assert set(summary) == set(TABLE2_MECHANISMS)
        for values in summary.values():
            assert 0.0 <= values["average"] <= 1.0
            assert 0.0 <= values["weighted"] <= 1.0
        rendered = context.render_table2(summary)
        assert "DP" in rendered

    def test_run_table3_structure(self, context):
        results = context.run_table3(apps=["ammp"])
        assert set(results) == {"ammp"}
        assert set(results["ammp"]) == {"RP", "DP"}

    def test_figure9_panels_run(self, context):
        slots = context.run_figure9_slots()
        assert set(next(iter(slots.values()))) == {"s = 2", "s = 4", "s = 6"}
        buffers = context.run_figure9_buffers()
        assert set(next(iter(buffers.values()))) == {"b = 16", "b = 32", "b = 64"}
        tlbs = context.run_figure9_tlbs()
        assert set(next(iter(tlbs.values()))) == {
            "64-entry TLB", "128-entry TLB", "256-entry TLB",
        }

    def test_render_figure(self, context):
        results = context.run_figure(["eon"], [MechanismConfig("RP")])
        text = context.render_figure(results, "Title")
        assert "Title" in text
        assert "eon:" in text
