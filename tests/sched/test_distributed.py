"""Distributed sweeps over a live server: the acceptance criteria.

A threaded server on an ephemeral port, in-process :class:`Worker`
loops, and real HTTP all the way through — asserting the subsystem's
contract: a distributed sweep with ≥2 workers returns a ResultSet
byte-identical to the serial Runner's, and a warm resubmission against
the same store performs zero replays.
"""

import threading

import pytest

from repro.analysis.experiments import ExperimentContext
from repro.errors import ConfigurationError, SchedulerError
from repro.run import MissStreamCache, Runner, RunSpec
from repro.sched import SchedulerClient, Worker, run_worker
from repro.service import make_server

SCALE = 0.05


def sweep_specs():
    return [
        RunSpec.of(app, mechanism, scale=SCALE, rows=64)
        for app in ("galgel", "swim")
        for mechanism in ("DP", "RP", "ASP")
    ]


@pytest.fixture
def server(tmp_path):
    server = make_server(tmp_path / "store", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def client(server):
    client = SchedulerClient(server.url)
    client.wait_healthy()
    return client


class fleet:
    """``with fleet(url, n):`` — n Worker threads, stopped on exit."""

    def __init__(self, url: str, count: int, **worker_kwargs) -> None:
        worker_kwargs.setdefault("lease_seconds", 5.0)
        worker_kwargs.setdefault("poll_interval", 0.02)
        self.workers = [Worker(url, **worker_kwargs) for _ in range(count)]
        self.threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in self.workers
        ]

    def __enter__(self) -> "fleet":
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for worker in self.workers:
            worker.stop()
        for thread in self.threads:
            thread.join(timeout=10)


class TestDistributedSweep:
    def test_two_worker_sweep_is_byte_identical_to_serial(self, server, client):
        specs = sweep_specs()
        serial = Runner(cache=MissStreamCache()).run(specs)
        with fleet(server.url, 2) as workers:
            results = client.submit_sweep(specs, poll_interval=0.02)
        assert results.to_json() == serial.to_json()
        # Both workers were live; between them they claimed everything.
        assert sum(worker.completed for worker in workers.workers) == len(specs)

    def test_warm_resubmission_performs_zero_replays(self, server, client):
        specs = sweep_specs()
        with fleet(server.url, 2):
            cold = client.submit_sweep(specs, poll_interval=0.02)
            before = client.stats()
            warm = client.submit_sweep(specs, poll_interval=0.02)
        after = client.stats()
        assert warm.to_json() == cold.to_json()
        # Every warm job was precompleted from the store at submission:
        # no claims happened, and no spec was recomputed.
        assert (
            after["queue"]["counters"]["jobs_precompleted"]
            - before["queue"]["counters"].get("jobs_precompleted", 0)
            == len(specs)
        )
        assert after["queue"]["counters"]["claims"] == before["queue"]["counters"]["claims"]
        assert after["store"]["result_entries"] == before["store"]["result_entries"]

    def test_duplicate_specs_share_one_job_row(self, server, client):
        spec = sweep_specs()[0]
        with fleet(server.url, 1):
            results = client.submit_sweep([spec, spec, spec], poll_interval=0.02)
        assert len(results) == 3
        assert results[0] == results[1] == results[2]

    def test_failed_jobs_surface_as_scheduler_error(self, server, client):
        specs = sweep_specs()[:2]
        bad_key = specs[0].key()
        with fleet(server.url, 1, fail_keys={bad_key}):
            with pytest.raises(SchedulerError) as exc_info:
                client.submit_sweep(specs, poll_interval=0.02, max_attempts=2)
        assert bad_key in str(exc_info.value)
        assert "injected failure" in str(exc_info.value)
        # The budget was honoured: claimed exactly max_attempts times.
        failed = client.progress()["failed_jobs"]
        assert len(failed) == 1
        assert client.job(failed[0]["id"])["job"]["attempts"] == 2

    def test_awkward_sweep_ids_survive_the_url(self, server, client):
        # A user-supplied sweep id with a space, '&' and '#' must
        # round-trip through GET /progress and GET /jobs/<id> — the
        # client percent-encodes, the server decodes.
        sweep_id = "my sweep&co #7"
        client.submit_jobs(
            [spec.to_dict() for spec in sweep_specs()[:2]], sweep_id=sweep_id
        )
        progress = client.progress(sweep_id)
        assert progress["total"] == 2
        job = client.job(f"{sweep_id}:0")["job"]
        assert job["sweep_id"] == sweep_id
        assert client.cancel(sweep_id)["cancelled"] == 2

    def test_cancelled_sweep_raises(self, server, client):
        # No workers polling, so the jobs sit queued until a second
        # client cancels the sweep out from under the blocked driver.
        sweep_id = "cancel-me"

        def cancel_once_submitted():
            other = SchedulerClient(server.url)
            while other.progress(sweep_id)["total"] == 0:
                pass
            other.cancel(sweep_id)

        canceller = threading.Thread(target=cancel_once_submitted, daemon=True)
        canceller.start()
        with pytest.raises(SchedulerError, match="cancelled"):
            client.submit_sweep(
                sweep_specs()[:2], sweep_id=sweep_id, poll_interval=0.02
            )
        canceller.join(timeout=10)


class TestDistributedExecutor:
    def test_runner_distributed_executor_matches_serial(self, server):
        specs = sweep_specs()[:4]
        serial = Runner(cache=MissStreamCache()).run(specs)
        with fleet(server.url, 2):
            distributed = Runner(service_url=server.url).run(specs)
        assert distributed.to_json() == serial.to_json()

    def test_service_url_alone_selects_distributed(self, server):
        assert isinstance(Runner(service_url=server.url)._client, SchedulerClient)
        assert Runner(workers=2)._client is None

    def test_experiment_context_runs_distributed(self, server):
        serial_context = ExperimentContext(scale=SCALE)
        specs = [
            serial_context.spec("galgel", "DP", rows=64),
            serial_context.spec("galgel", "RP"),
        ]
        serial = serial_context.run_specs(specs)
        with fleet(server.url, 2):
            context = ExperimentContext(
                scale=SCALE, runner=Runner(service_url=server.url)
            )
            distributed = context.run_specs(specs)
        assert distributed.to_json() == serial.to_json()


class TestWorkerOptions:
    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one_is_rejected(self, batch):
        # Regression: the constructor used to clamp to 1 silently.
        with pytest.raises(ConfigurationError, match="batch must be >= 1"):
            Worker("http://127.0.0.1:1", batch=batch)

    def test_run_worker_banner_reports_the_workers_own_settings(self, capsys):
        # max_jobs=0: the budget is spent before the first claim, so
        # the loop exits without contacting the (absent) service.
        assert run_worker("http://127.0.0.1:1", max_jobs=0) == 0
        assert run_worker(
            "http://127.0.0.1:1", max_jobs=0, lease_seconds=3.0, batch=2
        ) == 0
        banners = [
            line for line in capsys.readouterr().out.splitlines()
            if "polling" in line
        ]
        assert len(banners) == 2
        assert "polling http://127.0.0.1:1 (lease 15.0s, batch 4)" in banners[0]
        assert "polling http://127.0.0.1:1 (lease 3.0s, batch 2)" in banners[1]
