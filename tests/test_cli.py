"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListApps:
    def test_lists_all_suites(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        for fragment in ("spec2000 (26", "mediabench (20", "etch (5", "ptrdist (5"):
            assert fragment in out
        assert "galgel" in out
        assert "high-miss" in out


class TestRun:
    def test_run_prints_stats(self, capsys):
        assert main(["run", "--app", "eon", "--mechanism", "DP", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "eon" in out
        assert "acc=" in out
        assert "misses=" in out

    def test_unknown_app_reported_as_error(self, capsys):
        assert main(["run", "--app", "nope", "--scale", "0.05"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "eon", "--mechanism", "nope"])


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Distance" in out
        assert "In Memory" in out

    def test_table3_small_scale(self, capsys):
        assert main(["table3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "ammp" in out
        assert "RP (paper)" in out


class TestFigures:
    def test_figure9_single_panel(self, capsys):
        assert main(["figure9", "--scale", "0.05", "--panel", "slots"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9b" in out
        assert "s = 2" in out


class TestCharacterize:
    def test_characterize_subset(self, capsys):
        assert main(
            ["characterize", "--app", "galgel", "--app", "eon", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "128e-FA" in out
        assert "galgel" in out
        # eon's hot set exhibits the documented LRU anomaly at 64e.
        assert "anomalies" in out


class TestValidateCommand:
    def test_validate_single_app(self, capsys):
        assert main(["validate", "--app", "eon", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "1 passed" in out


class TestExportTrace:
    def test_round_trip_via_cli(self, capsys, tmp_path):
        out_path = str(tmp_path / "eon.npz")
        assert main(
            ["export-trace", "--app", "eon", "--out", out_path, "--scale", "0.05"]
        ) == 0
        assert main(["run", "--trace-file", out_path, "--mechanism", "DP"]) == 0
        out = capsys.readouterr().out
        assert "acc=" in out


class TestReportCommand:
    def test_report_no_figures(self, capsys, tmp_path):
        out_path = str(tmp_path / "r.md")
        assert main(
            ["report", "--out", out_path, "--scale", "0.05", "--no-figures"]
        ) == 0
        assert "report written" in capsys.readouterr().out


class TestErrorReporting:
    """Library validation errors become one ``error:`` line + exit 2,
    never a traceback from deep inside dispatch."""

    def test_unknown_engine_flag_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--app", "galgel", "--engine", "warp"])
        err = capsys.readouterr().err
        assert "invalid choice: 'warp'" in err
        assert "auto" in err and "reference" in err and "fast" in err

    def test_unknown_engine_in_specs_file_reported_helpfully(
        self, capsys, tmp_path
    ):
        import json

        from repro.run import RunSpec

        spec = RunSpec.of("galgel", "DP", scale=0.05).to_dict()
        spec["engine"] = "warp"
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([spec]))
        assert main(
            ["submit", "--url", "http://127.0.0.1:1", "--specs-file", str(path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown engine 'warp'" in err
        assert "'auto', 'reference', 'fast'" in err

    def test_unreachable_service_reported_not_raised(self, capsys, tmp_path):
        assert main(
            ["jobs", "status", "--url", "http://127.0.0.1:1",
             "--request-timeout", "0.2"]
        ) == 2
        assert "error: service unreachable" in capsys.readouterr().err

    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_worker_batch_below_one_rejected(self, capsys, batch):
        assert main(
            ["worker", "--url", "http://127.0.0.1:1", "--batch", batch]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: batch must be >= 1, got {batch}\n"
        assert captured.out == ""


class TestFigureRunner:
    """The Runner the CLI builds from ``--store``/``--service-url``."""

    ARGV = ["figure9", "--panel", "slots", "--scale", "0.05"]

    def test_store_rerun_is_warm_and_identical(self, capsys, tmp_path):
        from repro.store import ExperimentStore

        store_dir = str(tmp_path / "store")
        assert main(self.ARGV + ["--store", store_dir]) == 0
        cold = capsys.readouterr().out
        before = ExperimentStore(store_dir).stats()
        assert main(self.ARGV + ["--store", store_dir]) == 0
        warm = capsys.readouterr().out
        after = ExperimentStore(store_dir).stats()
        assert warm == cold
        assert after["result_hits"] - before["result_hits"] == 24
        assert after["result_misses"] == before["result_misses"]

    def test_unreachable_service_reported_not_raised(self, capsys):
        assert main(
            self.ARGV
            + ["--service-url", "http://127.0.0.1:1", "--request-timeout", "0.2"]
        ) == 2
        assert "error: service unreachable" in capsys.readouterr().err


class TestCacheCommand:
    def test_ls_lists_ckpt_entries(self, capsys, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        store.put_ckpt("sess:s1", b"bookmark")
        store.put_ckpt("sess:s2", b"bookmark")
        assert main(
            ["cache", "ls", "--store", str(store.root), "--kind", "ckpt"]
        ) == 0
        out = capsys.readouterr().out
        assert "sess:s1" in out and "sess:s2" in out
        assert out.rstrip().endswith("2 entries")


class TestRequestTimeoutFlag:
    def test_default_and_override_parse(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["jobs", "status", "--url", "http://x"])
        assert args.request_timeout == 30.0
        args = parser.parse_args(
            ["figure7", "--service-url", "http://x", "--request-timeout", "5"]
        )
        assert args.request_timeout == 5.0
        args = parser.parse_args(
            ["worker", "--url", "http://x", "--request-timeout", "2.5"]
        )
        assert args.request_timeout == 2.5


class TestWorkerFlags:
    """``repro-tlb worker`` forwards only the flags it was given, so
    :class:`~repro.sched.Worker` is the one place their defaults live."""

    @pytest.fixture
    def forwarded(self, monkeypatch):
        import repro.sched

        calls = []

        def fake_run_worker(url, **options):
            calls.append(options)
            return 0

        monkeypatch.setattr(repro.sched, "run_worker", fake_run_worker)
        return calls

    def test_flagless_worker_passes_no_defaults(self, forwarded):
        assert main(["worker", "--url", "http://127.0.0.1:1"]) == 0
        (options,) = forwarded
        assert not {"lease_seconds", "poll_interval", "batch"} & set(options)

    def test_given_flags_are_forwarded(self, forwarded):
        argv = ["worker", "--url", "http://127.0.0.1:1", "--lease", "2",
                "--poll", "0.5", "--batch", "3"]
        assert main(argv) == 0
        (options,) = forwarded
        given = ("lease_seconds", "poll_interval", "batch")
        assert [options[name] for name in given] == [2.0, 0.5, 3]
