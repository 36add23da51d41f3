"""Service smoke tests: every route, over real HTTP and in-process.

``make_server(port=0)`` binds an ephemeral port, so the suite runs a
live threaded server and talks to it through the stdlib
:class:`~repro.service.client.ServiceClient` — the same path the CI
``store-smoke`` scripted client uses.
"""

import threading

import pytest

from repro.run import MissStreamCache, Runner, RunSpec
from repro.service import SERVICE_SCHEMA, ExperimentService, ServiceClient, ServiceError, make_server
from repro.store import ExperimentStore

SCALE = 0.05

SPEC_PAYLOAD = {
    "workload": "galgel",
    "mechanism": "DP",
    "scale": SCALE,
    "params": {"rows": 256, "slots": 2},
}


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
    client = ServiceClient(server.url)
    client.wait_healthy()
    return client


class TestRoutes:
    def test_stats_exposes_store_and_stream_cache(self, client):
        payload = client.stats()
        assert payload["schema"] == SERVICE_SCHEMA
        assert payload["store"]["result_entries"] == 0
        assert set(payload["stream_cache"]) == {
            "entries", "maxsize", "hits", "misses", "evictions",
        }

    def test_submit_then_query_round_trip(self, client):
        submitted = client.submit([SPEC_PAYLOAD])
        assert submitted["count"] == 1
        assert submitted["store_misses"] == 1
        (key,) = submitted["keys"]
        assert key == RunSpec.from_dict(SPEC_PAYLOAD).key()

        fetched = client.run(key)
        assert fetched["run"]["workload"] == "galgel"
        assert fetched["run"]["extra"]["spec_key"] == key

        results = client.results(workload="galgel", mechanism_name="DP")
        assert results["count"] == 1
        assert results["runs"][0]["extra"]["spec_key"] == key
        assert client.results(workload="nonexistent")["count"] == 0

    def test_resubmit_served_from_store(self, client):
        client.submit([SPEC_PAYLOAD])
        again = client.submit([SPEC_PAYLOAD])
        assert again["store_hits"] == 1
        assert again["store_misses"] == 0

    def test_results_coerces_numeric_filters(self, client):
        client.submit([SPEC_PAYLOAD])
        assert client.results(page_size=4096)["count"] == 1
        assert client.results(page_size=8192)["count"] == 0

    def test_filter_values_are_url_encoded(self, client):
        # A value with spaces/& must round-trip, not raise InvalidURL or
        # silently split into bogus extra filters.
        assert client.results(workload="my trace & co")["count"] == 0

    def test_concurrent_submits_report_their_own_hits(self, server):
        """Per-request hit accounting must not absorb other requests'
        lookups (it probes the index, not global counter deltas)."""
        import concurrent.futures

        first = ServiceClient(server.url)
        first.wait_healthy()
        first.submit([SPEC_PAYLOAD])  # pre-store the spec
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            batches = list(
                pool.map(
                    lambda _: ServiceClient(server.url).submit([SPEC_PAYLOAD]),
                    range(4),
                )
            )
        for batch in batches:
            assert batch["store_hits"] == 1
            assert batch["store_misses"] == 0

    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.run("0" * 16)
        assert exc_info.value.status == 404

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.submit([{"workload": "galgel", "bogus": 1}])
        assert exc_info.value.status == 400
        assert "bogus" in str(exc_info.value)

    def test_unknown_filter_field_is_400(self, client):
        client.submit([SPEC_PAYLOAD])
        with pytest.raises(ServiceError) as exc_info:
            client.results(flavour="salty")
        assert exc_info.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.request("/nope")
        assert exc_info.value.status == 404


class TestServiceInProcess:
    """Route-table behaviour that needs no sockets."""

    def test_post_runs_requires_specs_list(self, tmp_path):
        service = ExperimentService(ExperimentStore(tmp_path / "store"))
        status, payload = service.handle("POST", "/runs", {}, {"specs": "galgel"})
        assert status == 400
        assert "specs" in payload["error"]

    def test_post_runs_ignores_a_workers_field(self, tmp_path):
        """Older clients sent ``workers``; the server's pool size is
        ``serve --workers`` alone, and the stale field is ignored."""
        service = ExperimentService(ExperimentStore(tmp_path / "store"))
        status, payload = service.handle(
            "POST", "/runs", {}, {"specs": [], "workers": 2}
        )
        assert status == 200
        assert payload["count"] == 0

    def test_malformed_run_key_is_400(self, tmp_path):
        service = ExperimentService(ExperimentStore(tmp_path / "store"))
        status, _ = service.handle("GET", "/runs/a/b", {})
        assert status == 400

    def test_service_shares_the_runner_store(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        # Pre-populate through a plain Runner: the service must see it.
        spec = RunSpec.from_dict(SPEC_PAYLOAD)
        Runner(cache=MissStreamCache(), store=store).run([spec])
        service = ExperimentService(store)
        status, payload = service.handle("GET", f"/runs/{spec.key()}", {})
        assert status == 200
        assert payload["run"]["extra"]["spec_key"] == spec.key()
        status, payload = service.handle(
            "POST", "/runs", {}, {"specs": [SPEC_PAYLOAD]}
        )
        assert status == 200
        assert payload["store_hits"] == 1
