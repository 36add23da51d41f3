"""Service observability over real HTTP: /metrics, /trace, invariants.

A threaded server on an ephemeral port (the same fixture shape as the
scheduler acceptance tests), asserting the observability contract:
``GET /metrics`` serves parseable Prometheus text covering the
service, scheduler, store, and cache; a distributed sweep produces one
connected trace spanning client, service, and two workers; and the
scraped counters obey conservation (claims == completions, store
hits + misses == lookups) with instrumentation enabled.
"""

import logging
import threading
import time
import urllib.request

import pytest

from repro.obs import COLLECTOR, current_context, trace
from repro.obs.metrics import parse_prometheus
from repro.run import MissStreamCache, Runner, RunSpec
from repro.sched import SchedulerClient, Worker
from repro.service import ServiceClient, ServiceError, make_server

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


def scrape(url: str) -> dict:
    with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return parse_prometheus(response.read().decode())


def metric_sum(parsed: dict, metric: str, **labels: str) -> float:
    """Sum a parsed metric's children matching a label subset."""
    want = set(labels.items())
    return sum(
        value
        for label_tuple, value in parsed.get(metric, {}).items()
        if want <= set(label_tuple)
    )


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


class TestMetricsEndpoint:
    def test_serves_parseable_prometheus_text(self, server, client):
        client.stats()
        parsed = scrape(server.url)
        # Service layer: per-route request counters and latency.
        assert metric_sum(parsed, "repro_http_requests_total", route="/stats") >= 1
        assert metric_sum(parsed, "repro_http_request_seconds_count") >= 1
        # Scheduler layer: queue depth gauges for every state.
        for state in ("queued", "running", "done", "failed", "cancelled"):
            assert (("state", state),) in parsed["repro_sched_jobs"]
        # Store layer: entry gauges per artifact kind.
        for kind in ("result", "stream", "ckpt"):
            assert (("kind", kind),) in parsed["repro_store_entries"]
        assert "repro_store_total_bytes" in parsed
        # Cache layer: scrape-time entry gauge.
        assert "repro_stream_cache_entries" in parsed

    def test_route_labels_are_normalized(self, server, client):
        try:
            client.run("nonexistent-key")
        except Exception:
            pass  # 404 is fine; the request must still be counted
        parsed = scrape(server.url)
        assert (
            metric_sum(parsed, "repro_http_requests_total", route="/runs/:key") >= 1
        )
        routes = {
            dict(labels).get("route")
            for labels in parsed["repro_http_requests_total"]
        }
        assert "nonexistent-key" not in " ".join(r for r in routes if r)

    def test_stats_carries_a_metrics_section(self, client):
        client.stats()  # guarantee at least one prior request
        metrics = client.stats()["metrics"]
        assert metrics["http_requests"] >= 1
        assert metrics["http_p99_ms"] >= metrics["http_p50_ms"] >= 0.0
        assert "spans_collected" in metrics

    def test_executed_batch_moves_replay_and_store_metrics(self, server, client):
        spec = RunSpec.of("galgel", "DP", scale=SCALE, rows=64).to_dict()
        before = scrape(server.url)
        client.submit([spec])  # cold: replays and writes back
        client.submit([spec])  # warm: served from the store
        after = scrape(server.url)
        replays = lambda p: metric_sum(p, "repro_replay_entries_total")  # noqa: E731
        assert replays(after) > replays(before)
        lookups = lambda p: metric_sum(  # noqa: E731
            p, "repro_store_lookups_total", kind="result"
        )
        assert lookups(after) >= lookups(before) + 2


class TestTraceEndpoints:
    def test_push_then_fetch_round_trips(self, client):
        spans = [
            {
                "name": "external.step",
                "trace_id": "feed0001",
                "span_id": "aa01",
                "parent_id": None,
                "start": 1.0,
                "duration": 0.25,
                "status": "ok",
                "attrs": {"origin": "test"},
            }
        ]
        assert client.push_spans(spans)["accepted"] == 1
        fetched = client.fetch_trace("feed0001")
        assert fetched["count"] == 1
        assert fetched["spans"][0]["name"] == "external.step"
        summaries = client.fetch_trace()["traces"]
        assert any(t["trace_id"] == "feed0001" for t in summaries)

    def test_malformed_span_push_rejected(self, client):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as err:
            client.push_spans("not-a-list")  # type: ignore[arg-type]
        assert err.value.status == 400

    def test_trace_header_joins_client_and_server_spans(self, client):
        COLLECTOR.clear()
        with trace("probe") as span:
            ctx = current_context()
            assert ctx is not None and ctx.startswith(span.trace_id)
            client.stats()
        server_spans = COLLECTOR.spans(span.trace_id)
        requests = [s for s in server_spans if s.name == "http.request"]
        assert requests, "server span did not join the client's trace"
        assert all(s.trace_id == span.trace_id for s in requests)


class TestDistributedTraceAndConservation:
    def test_sweep_yields_one_connected_trace_across_two_workers(
        self, server, client
    ):
        COLLECTOR.clear()
        specs = sweep_specs()
        serial = Runner(cache=MissStreamCache()).run(specs)
        before = scrape(server.url)
        # batch=1 + a per-job delay so both workers demonstrably claim.
        with fleet(server.url, 2, batch=1, slow_seconds=0.05):
            results = client.submit_sweep(
                specs, sweep_id="obs-trace-sweep", poll_interval=0.02
            )
        assert results.to_json() == serial.to_json()

        # The sweep root is recorded client-side; find its trace.
        roots = [
            s
            for s in COLLECTOR.spans()
            if s.name == "sweep" and s.attrs.get("sweep_id") == "obs-trace-sweep"
        ]
        assert len(roots) == 1
        trace_id = roots[0].trace_id

        # Workers push spans after each batch; wait for the full trace
        # to assemble, then fetch it through the HTTP endpoint.
        deadline = time.monotonic() + 10.0
        while True:
            spans = client.fetch_trace(trace_id)["spans"]
            names = {s["name"] for s in spans}
            # Each worker job replays its spec as a one-pass batch.
            if {"sweep", "http.request", "worker.job", "replay.batch"} <= names:
                break
            assert time.monotonic() < deadline, f"incomplete trace: {names}"
            time.sleep(0.05)

        # Single connected trace: one root, every other span's parent
        # present — client, service, and both workers in one tree.
        ids = {s["span_id"] for s in spans}
        parentless = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in parentless] == ["sweep"]
        dangling = [
            s["name"] for s in spans if s["parent_id"] and s["parent_id"] not in ids
        ]
        assert not dangling, f"orphaned spans: {dangling}"
        workers_seen = {
            s["attrs"]["worker"] for s in spans if s["name"] == "worker.job"
        }
        assert len(workers_seen) >= 2

        # Conservation over the sweep's scrape delta: every claim was
        # either completed (clean run: no failures, requeues, retries,
        # or expiries), and every keyed store get was counted once.
        after = scrape(server.url)
        def delta(metric: str, **labels: str) -> float:
            return metric_sum(after, metric, **labels) - metric_sum(
                before, metric, **labels
            )
        claims = delta("repro_sched_events_total", name="claims")
        assert claims >= len(specs)
        assert claims == delta("repro_sched_events_total", name="completes")
        for event in ("failures", "retries", "leases_requeued", "leases_exhausted"):
            assert delta("repro_sched_events_total", name=event) == 0
        lookups = delta("repro_store_lookups_total", kind="result")
        hits = delta("repro_store_events_total", name="result_hits")
        misses = delta("repro_store_events_total", name="result_misses")
        assert lookups == hits + misses
        assert lookups > 0


class TestAccessLogs:
    def test_requests_are_logged_not_swallowed(self, client, caplog):
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            client.stats()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                hits = [
                    record
                    for record in caplog.records
                    if "GET" in record.getMessage()
                    and "/stats" in record.getMessage()
                ]
                if hits:
                    break
                time.sleep(0.02)
        assert hits, "no access-log line for GET /stats"
        assert any("200" in record.getMessage() for record in hits)


def hit(url: str, path: str) -> int:
    """GET an arbitrary path, returning the status (404s included)."""
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestRouteCardinality:
    def test_unroutable_paths_share_one_unknown_label(self, server, client):
        """Arbitrary 404 paths must not mint new route labels — an
        attacker (or a typo loop) probing random URLs would otherwise
        grow /metrics without bound."""
        before = scrape(server.url)
        bogus = [
            "/totally/made/up",
            "/runsx",  # near-miss on a real route prefix
            "/streams/sess-1/frobnicate",  # unknown stream verb
            "/..%2f..%2fetc",
            "/metrics2",
        ]
        for path in bogus:
            assert hit(server.url, path) == 404
        after = scrape(server.url)
        unknown = metric_sum(
            after, "repro_http_requests_total", route="<unknown>"
        ) - metric_sum(before, "repro_http_requests_total", route="<unknown>")
        assert unknown == len(bogus)
        routes = {
            dict(labels).get("route")
            for labels in after["repro_http_requests_total"]
        }
        for path in bogus:
            assert path not in routes
        # The label set is bounded: every route is either a known
        # template or the single unknown bucket.
        for route in routes:
            assert route == "<unknown>" or route.startswith("/")
            assert "frobnicate" not in route


class TestHealthOverHTTP:
    def test_healthz_and_alerts_on_a_healthy_service(self, server, client):
        report = client.healthz()
        assert report["status"] == "ok"
        assert set(report["components"]) >= {
            "store", "queue", "workers", "sessions",
        }
        alerts = client.alerts()
        assert alerts["enabled"] is True
        assert alerts["firing"] == []
        assert {a["name"] for a in alerts["alerts"]} == {
            "service_p99_latency",
            "queue_oldest_claimable_age",
            "worker_heartbeat_stale",
            "service_error_ratio",
            "stream_sessions_idle_pileup",
            "admission_shed_rate",
        }

    def test_firing_alerts_appear_in_the_metrics_scrape(self, server, client):
        # The background watchdog's first tick is seconds away; drive
        # one synchronously so the alert gauges exist to scrape.
        server.service.watchdog.tick()
        parsed = scrape(server.url)
        assert "repro_alerts_firing" in parsed
        # Only this server's stock rules: the mirror gauge lives on
        # the process-wide registry, so other suites' ad-hoc alerts
        # may coexist in the scrape.
        for rule in server.service.engine.rules:
            assert (
                metric_sum(parsed, "repro_alerts_firing", alert=rule.name)
                == 0.0
            )

    def test_degraded_service_returns_503(self, server, client):
        server.service._store_writable = lambda: False
        try:
            with pytest.raises(ServiceError) as err:
                client.healthz()
            assert err.value.status == 503
            assert err.value.payload["status"] == "degraded"
            assert (
                err.value.payload["components"]["store"]["status"]
                == "degraded"
            )
        finally:
            del server.service._store_writable

    def test_wait_healthy_times_out_while_degraded(self, server):
        server.service._store_writable = lambda: False
        try:
            fresh = ServiceClient(server.url)
            began = time.monotonic()
            with pytest.raises(ServiceError) as err:
                fresh.wait_healthy(timeout=0.5, interval=0.05)
            assert err.value.status == 503
            assert time.monotonic() - began >= 0.4  # it really polled
        finally:
            del server.service._store_writable

    def test_wait_healthy_returns_the_report_when_ok(self, server):
        report = ServiceClient(server.url).wait_healthy(timeout=10.0)
        assert report["status"] == "ok"
