"""The service's route table, enumerated.

Every check here walks :data:`repro.service.server.ROUTES` instead of
naming routes by hand, so a row added to the table is covered by
construction: its metric label, its admission class, its body
validation and — for tenant rows that name a resource — the
probe-hiding 404.
"""

import json
import math
import random
import string

import pytest

from repro.obs import is_enabled
from repro.run import RunSpec
from repro.service import AdmissionController, ExperimentService, TenantConfig
from repro.service.server import _OBS_HTTP_REQUESTS, ROUTES, _match
from repro.store import ExperimentStore

SPEC = {
    "workload": "galgel",
    "mechanism": "DP",
    "scale": 0.05,
    "params": {"rows": 64, "slots": 2},
}

KEY = RunSpec.from_dict(SPEC).key()

ALPHA = TenantConfig(name="alpha", token="alpha-token")
BETA = TenantConfig(name="beta", token="beta-token")
VIEWER = TenantConfig(name="viewer", token="viewer-token", worker=False)


def _bearer(tenant):
    return f"Bearer {tenant.token}"


def _concrete(template):
    """A request path for ``template``, with ``s1`` as its parameter."""
    parts = template.split("/")
    return "/".join("s1" if part.startswith(":") else part for part in parts)


@pytest.fixture
def make_service(tmp_path):
    services = []

    def build(tenants=()):
        store = ExperimentStore(tmp_path / f"store{len(services)}")
        service = ExperimentService(
            store, admission=AdmissionController(tenants=tenants)
        )
        services.append(service)
        return service

    yield build
    for service in services:
        service.close()
        service.queue.close()
        service.store.close()


class TestTable:
    def test_every_row_is_labelled_and_classed(self):
        seen = set()
        for route in ROUTES:
            assert route.access in ("ops", "tenant", "worker"), route
            assert (route.method, route.template) not in seen, route
            seen.add((route.method, route.template))
            path = _concrete(route.template)
            param = "s1" if ":" in route.template else None
            assert _match(route.method, path) == (route, param)

    def test_every_row_reports_its_template_label(self, make_service):
        if not is_enabled():
            pytest.skip("telemetry disabled")
        service = make_service()
        for route in ROUTES:

            def counted(status):
                return _OBS_HTTP_REQUESTS.value(
                    method=route.method, route=route.template, status=str(status)
                )

            before = {status: counted(status) for status in range(200, 600)}
            status, _ = service.handle(route.method, _concrete(route.template))
            assert counted(status) == before[status] + 1, route

    def test_random_unknown_paths_share_one_label(self, make_service):
        rng = random.Random(20020525)
        alphabet = string.ascii_letters + string.digits + "-_.%/"
        fixed = [r.template for r in ROUTES if ":" not in r.template]
        paths = []
        while len(paths) < 200:
            junk = "".join(rng.choices(alphabet, k=rng.randint(1, 24)))
            shape = rng.randrange(4)
            if shape == 0:
                # No template starts with "/~".
                paths.append(("GET", "/~" + junk))
            elif shape == 1:
                # A near miss on a real route: one more character.
                paths.append(("POST", rng.choice(fixed) + rng.choice("x~_")))
            elif shape == 2:
                # An unknown verb under a session.
                paths.append(("POST", f"/streams/s1/{junk.replace('/', '')}x"))
            else:
                # The right path with no row for its method.
                paths.append(("PUT", rng.choice(fixed)))
        for method, path in paths:
            assert _match(method, path) == (None, None), (method, path)
        service = make_service()

        def unknown():
            return sum(
                _OBS_HTTP_REQUESTS.value(method=m, route="<unknown>", status="404")
                for m in ("GET", "POST", "PUT")
            )

        before = unknown()
        for method, path in paths:
            assert service.handle(method, path)[0] == 404, (method, path)
        if is_enabled():
            assert unknown() - before == len(paths)

    def test_path_parameters_are_decoded_then_checked(self, make_service):
        service = make_service()
        for template in (r.template for r in ROUTES if ":" in r.template):
            method = next(r.method for r in ROUTES if r.template == template)
            for bad in ("", "a%2Fb"):
                path = template.replace(":key", bad).replace(":id", bad)
                assert service.handle(method, path, body={})[0] == 400, path
        # A parameter captures the rest of the path.
        assert service.handle("GET", "/runs/a/b")[0] == 400
        assert service.handle("GET", "/jobs/a/b")[0] == 400


class TestAccessClasses:
    def test_ops_rows_answer_without_a_token(self, make_service):
        service = make_service(tenants=[ALPHA])
        assert service.handle("GET", "/stats")[0] == 401
        for route in (r for r in ROUTES if r.access == "ops"):
            status, _ = service.handle(route.method, route.template)
            assert status in (200, 503), route

    def test_non_worker_token_is_403_on_every_worker_row(self, make_service):
        service = make_service(tenants=[ALPHA, VIEWER])
        worker_rows = [r for r in ROUTES if r.access == "worker"]
        assert {(r.method, r.template) for r in worker_rows} >= {
            ("POST", "/claim"), ("GET", "/trace"),
        }
        for route in worker_rows:
            status, payload = service.handle(
                route.method,
                _concrete(route.template),
                body={},
                authorization=_bearer(VIEWER),
            )
            assert status == 403, route
            assert "worker" in payload["error"]

    def test_trace_reads_need_a_worker_token_writes_do_not(self, make_service):
        service = make_service(tenants=[ALPHA, VIEWER])
        span = {
            "name": "client.step", "trace_id": "feed0002", "span_id": "ab01",
            "parent_id": None, "start": 1.0, "duration": 0.1, "status": "ok",
            "attrs": {},
        }
        status, _ = service.handle(
            "POST", "/trace", body={"spans": [span]}, authorization=_bearer(VIEWER)
        )
        assert status == 200
        for query in ({}, {"trace_id": "feed0002"}):
            status, _ = service.handle(
                "GET", "/trace", query=query, authorization=_bearer(VIEWER)
            )
            assert status == 403, query
            status, fetched = service.handle(
                "GET", "/trace", query=query, authorization=_bearer(ALPHA)
            )
            assert status == 200, query
        assert fetched["count"] == 1


class TestProbeHiding:
    """A foreign resource must answer byte-for-byte like a missing one."""

    #: template -> (method, path, query, body) naming alpha's resource.
    RESOURCE_PROBES = {
        "/runs/:key": ("GET", f"/runs/{KEY}", None, None),
        "/jobs/:id": ("GET", "/jobs/sweep-a:0", None, None),
        "/streams/:id/advance": ("POST", "/streams/s1/advance", None, {"count": 1}),
        "/streams/:id/stats": ("GET", "/streams/s1/stats", None, None),
        "/cancel": ("POST", "/cancel", None, {"sweep_id": "sweep-a"}),
        "/progress": ("GET", "/progress", {"sweep_id": "sweep-a"}, None),
    }

    def test_every_resource_row_is_probed(self):
        resource_rows = {
            r.template for r in ROUTES if r.access == "tenant" and ":" in r.template
        }
        assert resource_rows <= set(self.RESOURCE_PROBES)

    def test_foreign_resources_look_missing(self, make_service):
        service = make_service(tenants=[ALPHA, BETA])

        def probe():
            answers = {}
            for template, request in self.RESOURCE_PROBES.items():
                method, path, query, body = request
                status, payload = service.handle(
                    method, path, query=query, body=body,
                    authorization=_bearer(BETA),
                )
                assert status == 404, (template, payload)
                answers[template] = json.dumps(payload, sort_keys=True)
            return answers

        missing = probe()
        for path, body in (
            ("/runs", {"specs": [SPEC]}),
            ("/jobs", {"specs": [SPEC], "sweep_id": "sweep-a"}),
            ("/streams", {"spec": SPEC, "session_id": "s1"}),
        ):
            status, payload = service.handle(
                "POST", path, body=body, authorization=_bearer(ALPHA)
            )
            assert status == 200, (path, payload)
        status, job = service.handle(
            "GET", "/jobs/sweep-a:0", authorization=_bearer(ALPHA)
        )
        assert status == 200 and job["job"]["sweep_id"] == "sweep-a"
        assert probe() == missing


class TestBodyValidation:
    def test_every_post_row_rejects_a_non_object_body(self, make_service):
        service = make_service()
        for route in (r for r in ROUTES if r.method == "POST"):
            for body in ([1], "x"):
                status, payload = service.handle(
                    "POST", _concrete(route.template), body=body
                )
                assert status == 400, (route.template, body, payload)
                assert "must be an object" in payload["error"]

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/claim", {"worker_id": "w1", "limit": True}, "limit"),
            ("/runs", {"specs": [], "workers": True}, "workers"),
            ("/jobs", {"specs": [SPEC], "max_attempts": True}, "max_attempts"),
            ("/streams/s1/advance", {"count": True}, "count"),
        ],
    )
    def test_bool_is_not_an_integer(self, make_service, path, body, field):
        status, payload = make_service().handle("POST", path, body=body)
        assert status == 400, payload
        assert field in payload["error"]

    @pytest.mark.parametrize("lease", [math.nan, math.inf, -math.inf])
    def test_non_finite_lease_is_400_and_leaves_the_job(self, make_service, lease):
        service = make_service()
        status, _ = service.handle("POST", "/jobs", body={"specs": [SPEC]})
        assert status == 200
        status, payload = service.handle(
            "POST", "/claim", body={"worker_id": "w1", "lease_seconds": lease}
        )
        assert status == 400 and "lease_seconds" in payload["error"]
        assert service.queue.progress()["queued"] == 1
        status, claimed = service.handle("POST", "/claim", body={"worker_id": "w1"})
        assert status == 200
        (job,) = claimed["jobs"]
        status, payload = service.handle(
            "POST",
            "/heartbeat",
            body={"worker_id": "w1", "job_ids": [job["id"]], "lease_seconds": lease},
        )
        assert status == 400 and "lease_seconds" in payload["error"]
        record = service.queue.job(job["id"])
        assert record["lease_expires"] == job["lease_expires"]


class TestSpecValidation:
    BAD_SHAPE = {**SPEC, "tlb_entries": 100, "tlb_ways": 3}

    def test_jobs_with_an_invalid_tlb_shape_is_400_and_queues_nothing(
        self, make_service
    ):
        service = make_service()
        status, payload = service.handle(
            "POST", "/jobs", body={"specs": [SPEC, self.BAD_SHAPE]}
        )
        assert status == 400, payload
        assert "multiple of ways" in payload["error"]
        assert service.queue.progress()["queued"] == 0

    @pytest.mark.parametrize(
        "path, field", [("/runs", "specs"), ("/streams", "spec")]
    )
    def test_runs_and_streams_reject_an_invalid_tlb_shape(
        self, make_service, path, field
    ):
        body = {field: [self.BAD_SHAPE] if field == "specs" else self.BAD_SHAPE}
        status, payload = make_service().handle("POST", path, body=body)
        assert status == 400, payload
        assert "multiple of ways" in payload["error"]
