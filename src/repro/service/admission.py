"""Admission control for the experiment service: tenants, rates, slots.

Every request to a ``tenant`` or ``worker`` row of the service's route
table (:data:`repro.service.server.ROUTES`) passes through here before
its handler runs:

- :class:`TokenBucket` — the classic rate limiter: ``rate`` tokens per
  second refill, ``burst`` bucket depth, and a non-blocking
  ``try_acquire`` that answers "granted" or "come back in N seconds"
  (the number the ``Retry-After`` header carries).
- :class:`CostTracker` — the same bucket in *spec units* instead of
  requests, charged before a sweep is dispatched, so one tenant's
  10,000-spec sweep cannot starve everyone else's small batches.
- :class:`TenantConfig` — one API token mapped to one named tenant
  namespace, with its rate/cost budgets and a ``worker`` capability
  bit that the ``worker`` rows require.
- :class:`AdmissionController` — token → tenant resolution plus a
  bounded in-flight slot pool: at most ``max_inflight`` requests run
  concurrently, at most ``max_queue`` wait (briefly) for a slot, and
  everything beyond that is shed with 429 + ``Retry-After`` instead of
  piling up threads. A long-poll gives its slot back while it blocks
  (:meth:`AdmissionController.park`), and each tenant may park at most
  :data:`MAX_PARKED_PER_TENANT` at once, so waiting requests never
  crowd out other tenants' work.

With no tenants configured the controller runs in **open mode**:
requests are anonymous, unauthenticated, and rate-unlimited, but the
in-flight bound still applies, so a request flood degrades to fast
429s rather than thread buildup.

Everything here is observation-friendly but determinism-neutral: no
admission decision influences result rows, spec keys, or checkpoint
digests — a shed request simply never reaches the handlers.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import ReproError
from repro.obs import REGISTRY

#: Version stamp for tenant-config files (forward compatibility).
ADMISSION_SCHEMA = "repro.admission/v1"

#: Long-polls one tenant may hold parked (blocked without a slot) at
#: once; past it, a long-poll answers at once instead of blocking.
MAX_PARKED_PER_TENANT = 16

#: Admission decisions by tenant and outcome. Label cardinality is
#: bounded: tenants come from the operator's config file, and the
#: outcome set is fixed below.
_OBS_ADMISSION = REGISTRY.counter(
    "repro_admission_requests_total",
    "Admission decisions by tenant and outcome (admitted, rate_limited, "
    "cost_limited, shed, unauthorized, forbidden).",
    labels=("tenant", "outcome"),
)

#: The tenant label used for requests in open (no-tenant) mode.
ANONYMOUS = "anonymous"


class TokenBucket:
    """A thread-safe token bucket: ``rate``/s refill up to ``burst``.

    Args:
        rate: tokens added per second; must be > 0.
        burst: bucket depth (also the starting balance); must be > 0.
        clock: injectable monotonic time source (tests).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ReproError(f"token bucket rate must be > 0, got {rate}")
        if burst <= 0:
            raise ReproError(f"token bucket burst must be > 0, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; returns the wait otherwise.

        Returns ``0.0`` when the acquisition succeeded, else the number
        of seconds until the bucket will hold ``tokens`` — the value a
        ``Retry-After`` header should carry. Asking for more than
        ``burst`` tokens can never succeed in one call; the returned
        wait still names when the deficit would be refilled, so a
        caller splitting its demand knows how long to pause.
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    @property
    def available(self) -> float:
        """Current balance (refreshing the refill first)."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            return self._tokens


class CostTracker:
    """A budget over *work units* (specs), not requests.

    Follows the rate-limiter/cost-tracker injection idiom: the service
    charges ``len(specs)`` before dispatching a ``POST /runs`` or
    ``POST /jobs`` body, so sweep cost is bounded per tenant even when
    each sweep is a single HTTP request.

    Attributes:
        charged: total units successfully charged.
        denied: number of charges refused.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._bucket = TokenBucket(rate, burst, clock)
        self._lock = threading.Lock()
        self.charged = 0.0
        self.denied = 0

    def try_charge(self, units: float) -> float:
        """Charge ``units``; ``0.0`` on success, else seconds to wait."""
        wait = self._bucket.try_acquire(units)
        with self._lock:
            if wait == 0.0:
                self.charged += units
            else:
                self.denied += 1
        return wait


@dataclass(frozen=True)
class TenantConfig:
    """One tenant namespace: a token, its budgets, its capabilities.

    Args:
        name: stable tenant identifier (labels metrics and store
            grants; must be non-empty).
        token: the API token presented as ``Authorization: Bearer``.
        rate: request tokens per second.
        burst: request bucket depth.
        cost_rate: spec units per second for sweep submission.
        cost_burst: spec-unit bucket depth (the largest sweep a tenant
            can submit at once).
        worker: whether this token may drive the fleet routes
            (``/claim``, ``/complete``, ``/heartbeat``).
    """

    name: str
    token: str
    rate: float = 50.0
    burst: float = 100.0
    cost_rate: float = 100.0
    cost_burst: float = 1000.0
    worker: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ReproError(f"tenant name must be a non-empty string, got {self.name!r}")
        if "/" in self.name:
            # The name prefixes tenant-namespaced session keys with a
            # "/" separator; a slash inside it would make keys forgeable.
            raise ReproError(f"tenant name must not contain '/': {self.name!r}")
        if not self.token or not isinstance(self.token, str):
            raise ReproError(
                f"tenant {self.name!r}: token must be a non-empty string"
            )
        for field in ("rate", "burst", "cost_rate", "cost_burst"):
            value = getattr(self, field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ReproError(
                    f"tenant {self.name!r}: {field} must be > 0, got {value!r}"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "TenantConfig":
        if not isinstance(raw, dict):
            raise ReproError(
                f"tenant entry must be an object, got {type(raw).__name__}"
            )
        known = {"name", "token", "rate", "burst", "cost_rate", "cost_burst", "worker"}
        unknown = set(raw) - known
        if unknown:
            raise ReproError(
                f"tenant entry has unknown fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**raw)


def load_tenant_config(path: str | Path) -> list[TenantConfig]:
    """Parse a tenant-config JSON file (``serve --tenant-config``).

    Accepts either a bare list of tenant objects or an envelope
    ``{"tenants": [...]}``. Duplicate names or tokens are rejected —
    a shared token would make the namespaces indistinguishable.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ReproError(f"cannot read tenant config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"tenant config {path} is not JSON: {exc}") from exc
    entries = raw.get("tenants") if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ReproError(
            f"tenant config {path} must be a list of tenant objects "
            "or {'tenants': [...]}"
        )
    tenants = [TenantConfig.from_dict(entry) for entry in entries]
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise ReproError(f"tenant config {path}: duplicate tenant names")
    tokens = [tenant.token for tenant in tenants]
    if len(set(tokens)) != len(tokens):
        raise ReproError(f"tenant config {path}: duplicate tenant tokens")
    return tenants


class AdmissionController:
    """Token auth + per-tenant rate/cost budgets + bounded in-flight.

    Args:
        tenants: the configured tenant set; empty means **open mode**
            (anonymous, unauthenticated, rate-unlimited — but still
            in-flight bounded).
        max_inflight: concurrent requests allowed past admission.
        max_queue: requests allowed to wait (briefly) for a slot;
            arrivals beyond this are shed immediately.
        queue_wait_seconds: how long a queued request waits for a slot
            before being shed.
        shed_retry_after: the ``Retry-After`` hint attached to shed
            responses.
        clock: injectable time source for the tenant buckets (tests).
    """

    def __init__(
        self,
        tenants: Iterable[TenantConfig] = (),
        max_inflight: int = 64,
        max_queue: int = 256,
        queue_wait_seconds: float = 0.5,
        shed_retry_after: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ReproError(f"max_queue must be >= 0, got {max_queue}")
        tenants = list(tenants)
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ReproError("duplicate tenant names")
        tokens = [tenant.token for tenant in tenants]
        if len(set(tokens)) != len(tokens):
            raise ReproError("duplicate tenant tokens")
        self._by_token = {tenant.token: tenant for tenant in tenants}
        self._buckets = {
            tenant.name: TokenBucket(tenant.rate, tenant.burst, clock)
            for tenant in tenants
        }
        self._costs = {
            tenant.name: CostTracker(tenant.cost_rate, tenant.cost_burst, clock)
            for tenant in tenants
        }
        self._clock = clock
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.queue_wait_seconds = float(queue_wait_seconds)
        self.shed_retry_after = float(shed_retry_after)
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._queued = 0
        self._parked: dict[str, int] = {}
        self.shed_total = 0

    # -- identity ----------------------------------------------------------

    @property
    def open_mode(self) -> bool:
        """True when no tenants are configured (anonymous access)."""
        return not self._by_token

    def note(self, tenant: str | None, outcome: str) -> None:
        """Record one admission decision in the metrics registry."""
        _OBS_ADMISSION.inc(tenant=tenant or ANONYMOUS, outcome=outcome)

    def authenticate(
        self, authorization: str | None
    ) -> tuple[TenantConfig | None, str | None]:
        """Resolve an ``Authorization`` header to ``(tenant, error)``.

        Open mode returns ``(None, None)``: the request is anonymous
        and unrestricted. In token mode a missing, malformed, or
        unknown token yields ``(None, message)`` — a 401. The token
        itself never appears in the error message.
        """
        if self.open_mode:
            return None, None
        if authorization is None:
            self.note(None, "unauthorized")
            return None, "missing Authorization header (expected 'Bearer <token>')"
        scheme, _, token = authorization.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            self.note(None, "unauthorized")
            return None, "malformed Authorization header (expected 'Bearer <token>')"
        tenant = self._by_token.get(token.strip())
        if tenant is None:
            self.note(None, "unauthorized")
            return None, "unknown API token"
        return tenant, None

    # -- budgets -----------------------------------------------------------

    def check_rate(self, tenant: TenantConfig | None) -> float:
        """Per-tenant request rate check: 0.0 ok, else retry-after."""
        if tenant is None:
            return 0.0
        wait = self._buckets[tenant.name].try_acquire()
        if wait > 0.0:
            self.note(tenant.name, "rate_limited")
        return wait

    def charge_cost(self, tenant: TenantConfig | None, units: float) -> float:
        """Charge ``units`` of sweep cost: 0.0 ok, else retry-after."""
        if tenant is None or units <= 0:
            return 0.0
        wait = self._costs[tenant.name].try_charge(units)
        if wait > 0.0:
            self.note(tenant.name, "cost_limited")
        return wait

    # -- bounded in-flight pool --------------------------------------------

    def try_enter(self, tenant: TenantConfig | None = None) -> float | None:
        """Claim an in-flight slot; ``None`` granted, else retry-after.

        Granted callers **must** pair this with :meth:`leave`. When the
        pool is full the caller waits up to ``queue_wait_seconds``
        (bounded to ``max_queue`` concurrent waiters); past either
        bound the request is shed.
        """
        # Same injected clock as the token buckets, so tests drive the
        # queue-wait deadline and slot shedding deterministically too.
        deadline = self._clock() + self.queue_wait_seconds
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return None
            if self._queued >= self.max_queue:
                return self._shed(tenant)
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return self._shed(tenant)
                    self._cond.wait(remaining)
                self._inflight += 1
                return None
            finally:
                self._queued -= 1

    def _shed(self, tenant: TenantConfig | None) -> float:
        # Callers hold self._cond.
        self.shed_total += 1
        self.note(tenant.name if tenant is not None else None, "shed")
        return self.shed_retry_after

    def leave(self) -> None:
        """Release the slot claimed by a granted :meth:`try_enter`."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def park(self, tenant: TenantConfig | None) -> bool:
        """Give up the caller's slot while it blocks in a long-poll.

        Returns ``False``, and keeps the slot, when ``tenant`` already
        has :data:`MAX_PARKED_PER_TENANT` long-polls parked: the caller
        answers at once instead. After a ``True``, the caller must
        :meth:`unpark` before it works again.
        """
        name = tenant.name if tenant is not None else ANONYMOUS
        with self._cond:
            if self._parked.get(name, 0) >= MAX_PARKED_PER_TENANT:
                return False
            self._parked[name] = self._parked.get(name, 0) + 1
        self.leave()
        return True

    def unpark(self, tenant: TenantConfig | None) -> bool:
        """End a :meth:`park`: take a slot again, as :meth:`try_enter`.

        ``True`` when the slot is granted (pair it with :meth:`leave`);
        ``False`` when the request was shed and holds no slot.
        """
        name = tenant.name if tenant is not None else ANONYMOUS
        with self._cond:
            self._parked[name] -= 1
            if not self._parked[name]:
                del self._parked[name]
        return self.try_enter(tenant) is None

    # -- reporting ---------------------------------------------------------

    def census(self) -> dict:
        """Live admission state for ``GET /stats``."""
        with self._cond:
            inflight, queued = self._inflight, self._queued
            parked = sum(self._parked.values())
        return {
            "mode": "open" if self.open_mode else "tenants",
            "tenants": len(self._by_token),
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "inflight": inflight,
            "queued": queued,
            "parked": parked,
            "shed_total": self.shed_total,
        }
