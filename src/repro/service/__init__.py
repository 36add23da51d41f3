"""HTTP query service over the persistent experiment store.

A dependency-free (stdlib ``http.server``) JSON API that makes a
:class:`~repro.store.ExperimentStore` queryable — and extendable —
without touching Python: run batches, distributed sweeps over a worker
fleet, checkpointed streaming sessions, health and telemetry. Every
route, with its admission class and the fields it reads, is one row of
:data:`repro.service.server.ROUTES`.

Launch with ``repro-tlb serve --store DIR`` or programmatically via
:func:`make_server`; :class:`~repro.service.client.ServiceClient` is a
matching stdlib client for scripts and CI, and
:class:`~repro.sched.client.SchedulerClient` layers the job-queue
protocol (plus ``submit_sweep``) on top of it.
"""

from repro.service.admission import (
    ADMISSION_SCHEMA,
    AdmissionController,
    TenantConfig,
    TokenBucket,
    load_tenant_config,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    MAX_BODY_BYTES,
    SERVICE_SCHEMA,
    ExperimentService,
    make_server,
    serve,
)

__all__ = [
    "ADMISSION_SCHEMA",
    "AdmissionController",
    "ExperimentService",
    "MAX_BODY_BYTES",
    "SERVICE_SCHEMA",
    "ServiceClient",
    "ServiceError",
    "TenantConfig",
    "TokenBucket",
    "load_tenant_config",
    "make_server",
    "serve",
]
