"""Admission-control tests: buckets, tenants, auth, scoping, shedding.

The unit layer drives :class:`TokenBucket` and
:class:`AdmissionController` with an injected clock; the service layer
exercises the full gauntlet (401/403, tenant isolation, rate-limit
429s, queue-full shedding) through :class:`ExperimentService.handle`
and — where headers matter — over real HTTP.
"""

import json
import threading
import time

import pytest

from repro.errors import ReproError, StoreError
from repro.service import (
    AdmissionController,
    ExperimentService,
    ServiceClient,
    ServiceError,
    TenantConfig,
    load_tenant_config,
    make_server,
)
from repro.service.admission import TokenBucket
from repro.store import ExperimentStore

SCALE = 0.05

SPEC_PAYLOAD = {
    "workload": "galgel",
    "mechanism": "DP",
    "scale": SCALE,
    "params": {"rows": 256, "slots": 2},
}

OTHER_SPEC = {
    "workload": "swim",
    "mechanism": "DP",
    "scale": SCALE,
    "params": {"rows": 256, "slots": 2},
}


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_acquire() == 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(1000.0)
        assert bucket.try_acquire(3.0) == 0.0
        # Empty again: a 1000 s refill left no more than the burst.
        assert bucket.try_acquire(1.0) == pytest.approx(1.0 / 100.0)

    def test_wait_names_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        # Asking for more than the whole burst cannot succeed, but the
        # wait still prices the deficit.
        wait = bucket.try_acquire(10.0)
        assert wait == pytest.approx((10.0 - 4.0) / 2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ReproError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ReproError):
            TokenBucket(rate=1.0, burst=0.0)


class TestChargeCost:
    def test_fractional_units_and_the_returned_wait(self):
        clock = FakeClock()
        alpha = TenantConfig(name="alpha", token="t", cost_rate=1.0, cost_burst=10.0)
        admission = AdmissionController([alpha], clock=clock)
        assert admission.charge_cost(alpha, 7.5) == 0.0
        assert admission.charge_cost(alpha, 8.0) == pytest.approx(8.0 - 2.5)
        clock.advance(5.5)
        assert admission.charge_cost(alpha, 8.0) == 0.0
        assert admission.charge_cost(alpha, 0.5) == pytest.approx(0.5)
        # Open mode and empty sweeps are never charged.
        assert admission.charge_cost(None, 1e9) == 0.0
        assert admission.charge_cost(alpha, 0) == 0.0


class TestTenantConfig:
    def test_defaults_and_validation(self):
        tenant = TenantConfig(name="alpha", token="alpha-token")
        assert tenant.worker is True
        assert tenant.rate > 0 and tenant.cost_burst > 0
        with pytest.raises(ReproError):
            TenantConfig(name="", token="t")
        with pytest.raises(ReproError):
            TenantConfig(name="a", token="")
        with pytest.raises(ReproError):
            TenantConfig(name="a", token="t", rate=-1.0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown fields"):
            TenantConfig.from_dict({"name": "a", "token": "t", "quota": 5})

    def test_load_tenant_config_shapes(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([{"name": "a", "token": "ta"}]))
        assert [t.name for t in load_tenant_config(bare)] == ["a"]

        enveloped = tmp_path / "env.json"
        enveloped.write_text(
            json.dumps(
                {
                    "tenants": [
                        {"name": "a", "token": "ta", "worker": False},
                        {"name": "b", "token": "tb", "rate": 5.0},
                    ]
                }
            )
        )
        tenants = load_tenant_config(enveloped)
        assert [t.name for t in tenants] == ["a", "b"]
        assert tenants[0].worker is False

    def test_load_tenant_config_rejects_duplicates_and_junk(self, tmp_path):
        dupes = tmp_path / "dupes.json"
        dupes.write_text(
            json.dumps(
                [{"name": "a", "token": "t1"}, {"name": "a", "token": "t2"}]
            )
        )
        with pytest.raises(ReproError, match="duplicate tenant names"):
            load_tenant_config(dupes)
        shared = tmp_path / "shared.json"
        shared.write_text(
            json.dumps(
                [{"name": "a", "token": "t"}, {"name": "b", "token": "t"}]
            )
        )
        with pytest.raises(ReproError, match="duplicate tenant tokens"):
            load_tenant_config(shared)
        with pytest.raises(ReproError, match="cannot read"):
            load_tenant_config(tmp_path / "missing.json")
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        with pytest.raises(ReproError, match="not JSON"):
            load_tenant_config(junk)


class TestAdmissionController:
    def test_open_mode_is_anonymous_and_unlimited(self):
        controller = AdmissionController()
        assert controller.open_mode
        tenant, error = controller.authenticate(None)
        assert tenant is None and error is None
        # Anonymous requests are never rate limited...
        assert controller.check_rate(None) == 0.0
        # ...but the in-flight pool still bounds them.
        assert controller.try_enter(None) is None
        controller.leave()

    def test_token_mode_auth_paths(self):
        alpha = TenantConfig(name="alpha", token="alpha-token")
        controller = AdmissionController(tenants=[alpha])
        assert not controller.open_mode
        tenant, error = controller.authenticate("Bearer alpha-token")
        assert tenant is alpha and error is None
        for header in (None, "alpha-token", "Basic alpha-token", "Bearer "):
            tenant, error = controller.authenticate(header)
            assert tenant is None and error is not None
        _, error = controller.authenticate("Bearer wrong")
        assert error == "unknown API token"
        assert "wrong" not in error

    def test_rate_limit_prices_the_wait(self):
        clock = FakeClock()
        alpha = TenantConfig(name="alpha", token="t", rate=1.0, burst=2.0)
        controller = AdmissionController(tenants=[alpha], clock=clock)
        assert controller.check_rate(alpha) == 0.0
        assert controller.check_rate(alpha) == 0.0
        wait = controller.check_rate(alpha)
        assert wait == pytest.approx(1.0)
        clock.advance(1.0)
        assert controller.check_rate(alpha) == 0.0

    def test_inflight_pool_sheds_past_queue(self):
        controller = AdmissionController(
            max_inflight=1, max_queue=0, queue_wait_seconds=0.01
        )
        assert controller.try_enter(None) is None
        shed = controller.try_enter(None)
        assert shed == controller.shed_retry_after
        assert controller.shed_total == 1
        controller.leave()
        assert controller.try_enter(None) is None
        controller.leave()

    def test_queued_request_gets_the_freed_slot(self):
        controller = AdmissionController(
            max_inflight=1, max_queue=4, queue_wait_seconds=5.0
        )
        assert controller.try_enter(None) is None
        outcome: list = []
        waiter = threading.Thread(
            target=lambda: outcome.append(controller.try_enter(None))
        )
        waiter.start()
        # Give the waiter time to join the queue, then free the slot.
        deadline = threading.Event()
        deadline.wait(0.05)
        controller.leave()
        waiter.join(timeout=5.0)
        assert outcome == [None]
        controller.leave()

    def test_try_enter_deadline_uses_injected_clock(self):
        # The queue-wait deadline must come from the injected clock —
        # the same one the token buckets use — so tests control slot
        # shedding deterministically instead of sleeping wall time.
        class SteppingClock:
            def __init__(self) -> None:
                self.now = 0.0

            def __call__(self) -> float:
                now = self.now
                self.now += 60.0
                return now

        controller = AdmissionController(
            max_inflight=1,
            max_queue=4,
            queue_wait_seconds=5.0,
            clock=SteppingClock(),
        )
        assert controller.try_enter(None) is None
        began = time.monotonic()
        shed = controller.try_enter(None)
        assert shed == controller.shed_retry_after
        # The 5 fake queue-wait seconds lapsed on the fake clock — no
        # real 5s sleep happened.
        assert time.monotonic() - began < 2.0
        controller.leave()

    def test_census_shape(self):
        controller = AdmissionController(
            tenants=[TenantConfig(name="a", token="t")], max_inflight=7
        )
        census = controller.census()
        assert census["mode"] == "tenants"
        assert census["tenants"] == 1
        assert census["max_inflight"] == 7
        assert census["inflight"] == 0
        assert census["shed_total"] == 0


class TestStoreGrants:
    def test_grant_is_an_idempotent_acl(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.grant("alpha", "result", ["k1", "k2"])
        store.grant("alpha", "result", ["k2", "k3"])
        assert store.granted_keys("alpha", "result") == {"k1", "k2", "k3"}
        assert store.is_granted("alpha", "result", "k1")
        assert not store.is_granted("beta", "result", "k1")
        assert store.granted_keys("beta", "result") == set()

    def test_grant_validates_inputs(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.grant("", "result", ["k"])
        with pytest.raises(StoreError):
            store.grant("alpha", "frobs", ["k"])

    def test_lazy_migration_recreates_the_table(self, tmp_path):
        # A pre-admission store has no tenant_keys table; reopening it
        # must migrate in place without touching existing artifacts.
        root = tmp_path / "store"
        store = ExperimentStore(root)
        store.grant("alpha", "result", ["k"])
        store._db.execute("DROP TABLE tenant_keys")
        store._db.commit()
        store.close()
        reopened = ExperimentStore(root)
        assert reopened.granted_keys("alpha", "result") == set()
        reopened.grant("alpha", "result", ["k2"])
        assert reopened.is_granted("alpha", "result", "k2")


ALPHA = {"name": "alpha", "token": "alpha-token"}
BETA = {"name": "beta", "token": "beta-token"}


def _service(tmp_path, tenants=(), **admission_kwargs):
    store = ExperimentStore(tmp_path / "store")
    admission = AdmissionController(
        tenants=[TenantConfig(**raw) for raw in tenants], **admission_kwargs
    )
    return ExperimentService(store, admission=admission)


def _auth(token):
    return f"Bearer {token}"


class TestServiceAuth:
    def test_missing_and_unknown_tokens_are_401(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA])
        status, payload = service.handle("GET", "/stats")
        assert status == 401
        assert "Authorization" in payload["error"]
        status, payload = service.handle(
            "GET", "/stats", authorization="Bearer nope"
        )
        assert status == 401
        status, _ = service.handle(
            "GET", "/stats", authorization=_auth("alpha-token")
        )
        assert status == 200

    def test_ops_routes_bypass_auth(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA])
        assert service.handle("GET", "/healthz")[0] in (200, 503)
        assert service.handle("GET", "/alerts")[0] == 200

    def test_non_worker_tenant_is_403_on_fleet_routes(self, tmp_path):
        service = _service(
            tmp_path, tenants=[{**ALPHA, "worker": False}, BETA]
        )
        for route in ("/claim", "/complete", "/heartbeat"):
            status, payload = service.handle(
                "POST", route, body={}, authorization=_auth("alpha-token")
            )
            assert status == 403, route
            assert "worker" in payload["error"]
        # A worker-capable tenant passes admission (then fails body
        # validation, which is the handler's 400 — not auth's 403).
        status, _ = service.handle(
            "POST", "/claim", body={}, authorization=_auth("beta-token")
        )
        assert status == 400

    def test_open_mode_needs_no_token(self, tmp_path):
        service = _service(tmp_path)
        assert service.handle("GET", "/stats")[0] == 200


class TestTenantIsolation:
    def test_results_and_runs_are_tenant_scoped(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        status, submitted = service.handle(
            "POST",
            "/runs",
            body={"specs": [SPEC_PAYLOAD]},
            authorization=_auth("alpha-token"),
        )
        assert status == 200
        (key,) = submitted["keys"]

        # Alpha sees its run; beta sees neither the row nor the key.
        status, mine = service.handle(
            "GET", "/results", authorization=_auth("alpha-token")
        )
        assert status == 200 and mine["count"] == 1
        status, theirs = service.handle(
            "GET", "/results", authorization=_auth("beta-token")
        )
        assert status == 200 and theirs["count"] == 0
        assert service.handle(
            "GET", f"/runs/{key}", authorization=_auth("alpha-token")
        )[0] == 200
        status, payload = service.handle(
            "GET", f"/runs/{key}", authorization=_auth("beta-token")
        )
        assert status == 404
        # The denial is indistinguishable from a missing run.
        assert "no stored run" in payload["error"]

    def test_shared_artifacts_one_row_per_spec(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        service.handle(
            "POST",
            "/runs",
            body={"specs": [SPEC_PAYLOAD]},
            authorization=_auth("alpha-token"),
        )
        status, again = service.handle(
            "POST",
            "/runs",
            body={"specs": [SPEC_PAYLOAD]},
            authorization=_auth("beta-token"),
        )
        # Beta's submission is served from the store (shared artifact)
        # and beta now holds its own grant to the same row.
        assert status == 200 and again["store_hits"] == 1
        status, theirs = service.handle(
            "GET", "/results", authorization=_auth("beta-token")
        )
        assert theirs["count"] == 1

    def test_streams_are_tenant_scoped(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        status, _ = service.handle(
            "POST",
            "/streams",
            body={"spec": SPEC_PAYLOAD, "session_id": "s1"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200
        for method, path, body in (
            ("GET", "/streams/s1/stats", None),
            ("POST", "/streams/s1/advance", {}),
        ):
            status, payload = service.handle(
                method, path, body=body, authorization=_auth("beta-token")
            )
            assert status == 404, path
            assert "no streaming session" in payload["error"]
        assert service.handle(
            "GET", "/streams/s1/stats", authorization=_auth("alpha-token")
        )[0] == 200

    def test_stream_tenancy_survives_eviction(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        service.handle(
            "POST",
            "/streams",
            body={"spec": SPEC_PAYLOAD, "session_id": "s1"},
            authorization=_auth("alpha-token"),
        )
        service._sessions.clear()  # simulate idle eviction / restart
        status, _ = service.handle(
            "GET", "/streams/s1/stats", authorization=_auth("beta-token")
        )
        assert status == 404
        status, _ = service.handle(
            "GET", "/streams/s1/stats", authorization=_auth("alpha-token")
        )
        assert status == 200

    def test_sweeps_are_owner_scoped(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        status, submitted = service.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD], "sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200
        job_id = submitted["jobs"][0]["id"]

        assert service.handle(
            "GET", f"/jobs/{job_id}", authorization=_auth("alpha-token")
        )[0] == 200
        assert service.handle(
            "GET", f"/jobs/{job_id}", authorization=_auth("beta-token")
        )[0] == 404
        status, _ = service.handle(
            "GET",
            "/progress",
            query={"sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )
        assert status == 404
        status, _ = service.handle(
            "POST",
            "/cancel",
            body={"sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )
        assert status == 404
        status, cancelled = service.handle(
            "POST",
            "/cancel",
            body={"sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200 and cancelled["cancelled"] == 1

    def test_sweep_id_cannot_be_taken_over(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        status, _ = service.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD], "sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200
        # An empty spec list must not be a free (zero-cost) resume.
        status, _ = service.handle(
            "POST",
            "/jobs",
            body={"specs": [], "sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )
        assert status == 400
        # Resubmitting someone else's sweep id answers exactly like a
        # missing sweep and leaves ownership untouched.
        status, payload = service.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD], "sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )
        assert status == 404 and "no sweep" in payload["error"]
        assert service.handle(
            "GET",
            "/progress",
            query={"sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )[0] == 404
        assert service.handle(
            "GET",
            "/progress",
            query={"sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )[0] == 200
        # The real owner can still resume their own sweep.
        status, _ = service.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD], "sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200

    def test_sweep_ownership_survives_restart(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        status, _ = service.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD], "sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200
        service.queue.close()
        service.store.close()
        service.close()
        # Ownership rides in the queue file, so a restarted service
        # keeps beta out and alpha in.
        reopened = _service(tmp_path, tenants=[ALPHA, BETA])
        status, _ = reopened.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD], "sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )
        assert status == 404
        assert reopened.handle(
            "GET",
            "/progress",
            query={"sweep_id": "sweep-a"},
            authorization=_auth("beta-token"),
        )[0] == 404
        assert reopened.handle(
            "GET",
            "/progress",
            query={"sweep_id": "sweep-a"},
            authorization=_auth("alpha-token"),
        )[0] == 200

    def test_foreign_session_ids_do_not_collide_or_leak(self, tmp_path):
        service = _service(tmp_path, tenants=[ALPHA, BETA])
        status, _ = service.handle(
            "POST",
            "/streams",
            body={"spec": SPEC_PAYLOAD, "session_id": "s1"},
            authorization=_auth("alpha-token"),
        )
        assert status == 200
        # Beta reusing the same id opens beta's *own* fresh session —
        # indistinguishable from any unused id, so POST /streams can't
        # probe for foreign sessions (previously a revealing 409).
        status, theirs = service.handle(
            "POST",
            "/streams",
            body={"spec": OTHER_SPEC, "session_id": "s1"},
            authorization=_auth("beta-token"),
        )
        assert status == 200 and theirs["offset"] == 0
        # The two sessions advance independently...
        status, step = service.handle(
            "POST",
            "/streams/s1/advance",
            body={"count": 1},
            authorization=_auth("alpha-token"),
        )
        assert status == 200 and step["offset"] == 1
        status, stats = service.handle(
            "GET", "/streams/s1/stats", authorization=_auth("beta-token")
        )
        assert status == 200 and stats["offset"] == 0
        # ...each tenant still gets a 409 for their own duplicate...
        for token in ("alpha-token", "beta-token"):
            status, _ = service.handle(
                "POST",
                "/streams",
                body={"spec": SPEC_PAYLOAD, "session_id": "s1"},
                authorization=_auth(token),
            )
            assert status == 409, token
        # ...and a percent-encoded "/" cannot forge a namespaced key.
        status, _ = service.handle(
            "GET",
            "/streams/alpha%2Fs1/stats",
            authorization=_auth("beta-token"),
        )
        assert status == 400


class TestRateAndCostLimits:
    def test_rate_limited_request_gets_429_with_retry_after(self, tmp_path):
        service = _service(
            tmp_path, tenants=[{**ALPHA, "rate": 1.0, "burst": 2.0}]
        )
        statuses = [
            service.handle(
                "GET", "/stats", authorization=_auth("alpha-token")
            )[0]
            for _ in range(3)
        ]
        assert statuses == [200, 200, 429]
        status, payload = service.handle(
            "GET", "/stats", authorization=_auth("alpha-token")
        )
        assert status == 429
        assert payload["retry_after"] > 0
        assert "rate limit" in payload["error"]

    def test_cost_budget_bounds_sweep_size(self, tmp_path):
        service = _service(
            tmp_path,
            tenants=[{**ALPHA, "cost_rate": 1.0, "cost_burst": 1.0}],
        )
        status, payload = service.handle(
            "POST",
            "/runs",
            body={"specs": [SPEC_PAYLOAD, OTHER_SPEC]},
            authorization=_auth("alpha-token"),
        )
        assert status == 429
        assert "cost budget" in payload["error"]
        assert payload["retry_after"] > 0
        status, payload = service.handle(
            "POST",
            "/jobs",
            body={"specs": [SPEC_PAYLOAD, OTHER_SPEC]},
            authorization=_auth("alpha-token"),
        )
        assert status == 429
        assert "cost budget" in payload["error"]

    def test_admission_metrics_label_the_outcomes(self, tmp_path):
        from repro.service.admission import _OBS_ADMISSION

        service = _service(
            tmp_path, tenants=[{**ALPHA, "rate": 1.0, "burst": 1.0}]
        )
        before_admitted = _OBS_ADMISSION.value(
            tenant="alpha", outcome="admitted"
        )
        before_limited = _OBS_ADMISSION.value(
            tenant="alpha", outcome="rate_limited"
        )
        service.handle("GET", "/stats", authorization=_auth("alpha-token"))
        service.handle("GET", "/stats", authorization=_auth("alpha-token"))
        assert (
            _OBS_ADMISSION.value(tenant="alpha", outcome="admitted")
            == before_admitted + 1
        )
        assert (
            _OBS_ADMISSION.value(tenant="alpha", outcome="rate_limited")
            == before_limited + 1
        )


class TestShedding:
    def test_full_pool_sheds_with_429(self, tmp_path):
        service = _service(tmp_path, max_inflight=1, max_queue=0,
                           queue_wait_seconds=0.01)
        # Occupy the only slot out-of-band, then knock.
        assert service.admission.try_enter() is None
        try:
            status, payload = service.handle("GET", "/stats")
            assert status == 429
            assert payload["retry_after"] > 0
            assert "shed" in payload["error"]
        finally:
            service.admission.leave()
        assert service.handle("GET", "/stats")[0] == 200

    def test_flood_sheds_cleanly_no_5xx(self, tmp_path):
        service = _service(tmp_path, max_inflight=2, max_queue=1,
                           queue_wait_seconds=0.01)
        statuses: list[int] = []
        lock = threading.Lock()

        def hammer():
            for _ in range(20):
                status, payload = service.handle("GET", "/stats")
                with lock:
                    statuses.append(status)
                if status == 429:
                    assert payload["retry_after"] > 0

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert statuses and all(s in (200, 429) for s in statuses)
        census = service.admission.census()
        assert census["inflight"] == 0 and census["queued"] == 0

    def test_ops_routes_answer_while_shedding(self, tmp_path):
        service = _service(tmp_path, max_inflight=1, max_queue=0,
                           queue_wait_seconds=0.01)
        assert service.admission.try_enter() is None
        try:
            assert service.handle("GET", "/stats")[0] == 429
            # Health and alerts bypass admission entirely.
            assert service.handle("GET", "/healthz")[0] in (200, 503)
            assert service.handle("GET", "/alerts")[0] == 200
        finally:
            service.admission.leave()


class TestSheddingOverHTTP:
    @pytest.fixture
    def shedding_server(self, tmp_path):
        admission = AdmissionController(
            max_inflight=1, max_queue=0, queue_wait_seconds=0.01
        )
        server = make_server(tmp_path / "store", port=0, admission=admission)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_retry_after_header_rides_the_429(self, shedding_server):
        import urllib.error
        import urllib.request

        service = shedding_server.service
        assert service.admission.try_enter() is None
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    shedding_server.url + "/stats", timeout=10
                )
            assert excinfo.value.code == 429
            header = excinfo.value.headers.get("Retry-After")
            assert header is not None and int(header) >= 1
            payload = json.loads(excinfo.value.read())
            assert payload["retry_after"] > 0
        finally:
            service.admission.leave()

    def test_wait_healthy_works_while_shedding(self, shedding_server):
        service = shedding_server.service
        assert service.admission.try_enter() is None
        try:
            # /healthz bypasses admission, so readiness probes keep
            # answering while every data route sheds.
            report = ServiceClient(shedding_server.url).wait_healthy(
                timeout=10.0
            )
            assert report["status"] == "ok"
        finally:
            service.admission.leave()

    def test_client_honors_retry_after_on_429(self, shedding_server):
        service = shedding_server.service
        client = ServiceClient(shedding_server.url, max_retries=2)
        assert service.admission.try_enter() is None
        releaser = threading.Timer(0.3, service.admission.leave)
        releaser.start()
        try:
            # First attempt sheds; the client sleeps the server's hint
            # and the retry lands after the slot frees up.
            payload = client.stats()
            assert payload["schema"].startswith("repro.service/")
            assert client.retries >= 1
        finally:
            releaser.join()


class TestClientRetryBudget:
    def test_hinted_sleeps_draw_on_one_timeout_budget(self, monkeypatch):
        class Shed:
            status = 429
            will_close = False

            def read(self):
                return b'{"error": "shed", "retry_after": 30.0}'

            def getheader(self, name, default=None):
                return "30" if name == "Retry-After" else default

        class AlwaysShed:
            sock = None

            def request(self, method, url, body=None, headers=None):
                pass

            def getresponse(self):
                return Shed()

            def close(self):
                pass

        monkeypatch.setattr(ServiceClient, "_connect", lambda self, timeout: AlwaysShed())
        client = ServiceClient("http://127.0.0.1:1", max_retries=10)
        began = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.request("/stats", timeout=0.2)
        # The 30s hint x 10 retries must not stack: every hinted sleep
        # draws on the one 0.2s request budget, so the call gives up in
        # well under a second instead of minutes.
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 30.0
        assert time.monotonic() - began < 5.0
        assert client.backoff_seconds <= 0.25
        assert client.retries >= 1
