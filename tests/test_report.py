"""Tests for the one-shot Markdown experiment report."""

from repro.analysis.experiments import ExperimentContext
from repro.analysis.report import generate_report
from repro.cli import main


class TestGenerateReport:
    def test_tables_only_report(self):
        text = generate_report(
            context=ExperimentContext(scale=0.05), include_figures=False
        )
        assert "# TLB prefetching reproduction" in text
        assert "## Table 1" in text
        assert "## Table 2" in text
        assert "## Table 3" in text
        assert "## Figure 7" not in text
        assert "Shape check:" in text
        # Paper reference numbers are embedded for comparison.
        assert "0.43" in text  # paper DP average
        assert "1.09" in text  # paper mcf RP cycles

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", "--out", str(path), "--scale", "0.05"]) == 0
        content = path.read_text()
        assert content.startswith("# TLB prefetching reproduction")
        # Figures included by default.
        assert "## Figure 9" in content
        assert "galgel" in content
