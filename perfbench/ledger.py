"""Per-layer time ledger, measured from outside the program.

The benchmark never edits ``src/``. Instead, :func:`install` wraps the
public calls that enter each layer (the table in ``METRICS.md``) with a
span recorder. Spans nest per thread: while a wrapped call runs, the
span of the wrapped call around it is paused, so every recorded
*segment* is self time of exactly one ledger key.

Segments carry ``time.monotonic()`` stamps, which on Linux read the one
system-wide ``CLOCK_MONOTONIC``; segments from a child process (the
cold ``table2`` child, the sweep worker) therefore line up with the
main process's. :func:`attribute` lays all segments of one iteration on
that time line and gives every instant to one key: work beats waiting
(a client blocked on a request yields to the server handling it), and
among equals the most recently started segment wins. Instants covered
by no segment are ``trace.unattributed_s``. The per-key self times plus
the unattributed time therefore sum to the iteration's wall time.

Counts (references generated, misses filtered, cache hits, ...) are
recorded at the same wrappers, so ratios are measured where the work
happens.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: Keys whose segments are time spent waiting on another thread or
#: process. They only claim instants that no work segment covers.
WAIT_KEYS = frozenset(
    (
        "service.transport",
        "sched.worker.claim_wait",
        "sched.worker.complete_wait",
        "sched.worker.other_wait",
        "sched.worker.idle",
    )
)

#: Route family of each service path, for the ``service.*_busy_s`` split.
_ROUTE_FAMILIES = (
    ("/streams", "service.streams"),
    ("/runs", "service.runs"),
    ("/results", "service.runs"),
    ("/jobs", "service.jobs"),
    ("/cancel", "service.jobs"),
    ("/heartbeat", "service.jobs"),
    ("/claim", "service.claim"),
    ("/complete", "service.complete"),
    ("/progress", "service.progress"),
)


def route_family(path: str) -> str:
    for prefix, key in _ROUTE_FAMILIES:
        if path == prefix or path.startswith(prefix + "/"):
            return key
    return "service.other"


class Ledger:
    """Self-time segments and counters of one process.

    Recording is off until :attr:`enabled` is set, so the same wrapped
    process can run untraced iterations at (almost) no cost.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.segments: list[tuple[float, float, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, key: str) -> list:
        now = time.monotonic()
        stack = self._stack()
        if stack:
            parent = stack[-1]
            self.segments.append((parent[1], now, parent[0]))
        frame = [key, now, now]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame``; returns its inclusive duration."""
        now = time.monotonic()
        stack = self._stack()
        stack.pop()
        self.segments.append((frame[1], now, frame[0]))
        if stack:
            stack[-1][1] = now
        return now - frame[2]

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def reset(self) -> None:
        with self._lock:
            self.segments = []
            self.counts = defaultdict(float)

    def export(self) -> dict:
        with self._lock:
            return {"segments": list(self.segments), "counts": dict(self.counts)}


def attribute(
    segments: list[tuple[float, float, str]], start: float, end: float
) -> tuple[dict[str, float], float]:
    """Split ``[start, end]`` among segment keys; returns (self times, rest)."""
    events: list[tuple[float, int, int]] = []
    clipped: list[tuple[int, float, str]] = []
    for t0, t1, key in segments:
        t0, t1 = max(t0, start), min(t1, end)
        if t1 <= t0:
            continue
        index = len(clipped)
        clipped.append((0 if key in WAIT_KEYS else 1, t0, key))
        events.append((t0, 1, index))
        events.append((t1, 0, index))
    events.sort()
    totals: dict[str, float] = defaultdict(float)
    active: set[int] = set()
    previous = start
    for moment, opening, index in events:
        if active and moment > previous:
            key = max((clipped[i] for i in active), key=lambda c: c[:2])[2]
            totals[key] += moment - previous
        previous = moment
        if opening:
            active.add(index)
        else:
            active.discard(index)
    return dict(totals), (end - start) - sum(totals.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer self-time metrics: metric name -> ledger key.
SELF_TIMES = {
    "startup.import_s": "startup.import",
    "workloads.busy_s": "workloads",
    "sim.filter.busy_s": "sim.filter",
    "run.busy_s": "run",
    "sim.replay.batch_busy_s": "sim.replay.batch",
    "sim.replay.fast_busy_s": "sim.replay.fast",
    "sim.replay.reference_busy_s": "sim.replay.reference",
    "ckpt.advance_busy_s": "ckpt.advance",
    "ckpt.snapshot_busy_s": "ckpt.snapshot",
    "ckpt.resume_busy_s": "ckpt.resume",
    "store.result_read_busy_s": "store.result_read",
    "store.result_write_busy_s": "store.result_write",
    "store.stream_busy_s": "store.stream",
    "store.ckpt_write_busy_s": "store.ckpt_write",
    "store.ckpt_read_busy_s": "store.ckpt_read",
    "service.runs_busy_s": "service.runs",
    "service.jobs_busy_s": "service.jobs",
    "service.claim_busy_s": "service.claim",
    "service.complete_busy_s": "service.complete",
    "service.progress_busy_s": "service.progress",
    "service.streams_busy_s": "service.streams",
    "service.other_busy_s": "service.other",
    "service.transport_s": "service.transport",
    "service.admission.wait_s": "service.admission",
    "sched.queue.busy_s": "sched.queue",
    "sched.worker.job_busy_s": "sched.worker.job",
    "sched.worker.claim_wait_s": "sched.worker.claim_wait",
    "sched.worker.complete_wait_s": "sched.worker.complete_wait",
    "sched.worker.other_wait_s": "sched.worker.other_wait",
    "sched.worker.idle_s": "sched.worker.idle",
}


def layer_metrics(
    self_times: dict[str, float], unattributed: float, counts: dict, wall: float
) -> dict[str, tuple[float, str]]:
    """One traced iteration's per-layer metrics, ``name -> (value, unit)``."""
    unknown = set(self_times) - set(SELF_TIMES.values())
    if unknown:
        raise ValueError(f"ledger keys without a metric: {sorted(unknown)}")
    count = lambda name: counts.get(name, 0)  # noqa: E731
    busy = {name: self_times.get(key, 0.0) for name, key in SELF_TIMES.items()}
    replay_busy = sum(
        busy[f"sim.replay.{engine}_busy_s"] for engine in ("batch", "fast", "reference")
    )
    replayed_specs = count("sim.replay.batched_specs") + count("sim.replay.single_specs")
    metrics = {name: (value, "s") for name, value in busy.items()}
    metrics.update(
        {
            "workloads.refs": (count("workloads.refs"), "refs"),
            "sim.filter.streams": (count("sim.filter.streams"), "count"),
            "sim.filter.refs_per_s": (
                _ratio(count("sim.filter.refs"), busy["sim.filter.busy_s"]), "refs/s"
            ),
            "sim.filter.misses": (count("sim.filter.misses"), "entries"),
            "run.groups": (count("run.groups"), "count"),
            "run.cache.hit_ratio": (
                _ratio(count("run.cache.hits"), count("run.cache.calls")), "ratio"
            ),
            "run.cache.build_wait_s": (count("run.cache.build_wait_s"), "s"),
            "sim.replay.entries": (count("sim.replay.entries"), "entries"),
            "sim.replay.entries_per_s": (
                _ratio(count("sim.replay.entries"), replay_busy), "entries/s"
            ),
            "sim.replay.batched_fraction": (
                _ratio(count("sim.replay.batched_specs"), replayed_specs), "ratio"
            ),
            "ckpt.entries_per_s": (
                _ratio(count("ckpt.entries"), busy["ckpt.advance_busy_s"]), "entries/s"
            ),
            "ckpt.snapshot_bytes": (count("ckpt.snapshot_bytes"), "bytes"),
            "ckpt.resumes": (count("ckpt.resumes"), "count"),
            "store.result_hit_ratio": (
                _ratio(count("store.result_hits"), count("store.result_lookups")),
                "ratio",
            ),
            "store.bytes_written": (count("store.bytes_written"), "bytes"),
            "service.requests": (count("service.requests"), "count"),
            "service.non2xx": (count("service.non2xx"), "count"),
            "service.admission.shed": (count("service.admission.shed"), "count"),
            "sched.queue.calls": (count("sched.queue.calls"), "count"),
            "sched.queue.jobs_per_claim": (
                _ratio(count("sched.queue.jobs_claimed"), count("sched.queue.claims")),
                "jobs",
            ),
            "sched.queue.requeues": (count("sched.queue.requeues"), "count"),
            "sched.worker.runner_calls": (count("sched.worker.runner_calls"), "count"),
            "sched.worker.complete_calls": (
                count("sched.worker.complete_calls"), "count"
            ),
            "paper_error": (count("paper_error"), "accuracy"),
            "trace.wall_s": (wall, "s"),
            "trace.unattributed_s": (unattributed, "s"),
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------


def _replace_everywhere(original: object, replacement: object) -> None:
    """Rebind every ``repro`` module global that names ``original``.

    Modules import functions by name (``from ... import filter_tlb``),
    so patching only the defining module would miss those callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap(ledger: Ledger, owner: object, name: str, key, before=None, after=None):
    """Wrap ``owner.name`` with a span keyed by ``key``.

    ``key`` is a string or ``key(args, kwargs)``. ``before(args,
    kwargs)`` runs ahead of the call and its value reaches ``after(args,
    kwargs, result, elapsed, state)``, which records counts.
    """
    is_class = isinstance(owner, type)
    raw = owner.__dict__[name] if is_class else getattr(owner, name)
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not ledger.enabled:
            return func(*args, **kwargs)
        span_key = key(args, kwargs) if callable(key) else key
        state = before(args, kwargs) if before is not None else None
        frame = ledger.enter(span_key)
        try:
            result = func(*args, **kwargs)
        finally:
            elapsed = ledger.exit(frame)
        if after is not None:
            after(args, kwargs, result, elapsed, state)
        return result

    replacement = classmethod(wrapper) if is_classmethod else wrapper
    if is_class:
        setattr(owner, name, replacement)
    else:
        _replace_everywhere(raw, replacement)


def install(ledger: Ledger, role: str) -> None:
    """Wrap every layer's public calls in this process.

    ``role`` is ``"worker"`` inside the sweep worker subprocess, where
    ``Runner.run`` is the worker's job and client requests are the
    worker's claim/complete waits; anywhere else it is ``"main"``.
    """
    import repro.ckpt.session as ckpt_session
    import repro.ckpt.snapshots as ckpt_snapshots
    import repro.run.runner as runner_mod
    import repro.sched.queue as queue_mod
    import repro.service.admission as admission_mod
    import repro.service.client as client_mod
    import repro.service.server as server_mod
    import repro.sim.batchpath as batchpath
    import repro.sim.engine as engine_mod
    import repro.sim.two_phase as two_phase
    import repro.store.store as store_mod
    import repro.workloads.registry as registry

    add = ledger.add
    worker = role == "worker"

    # workloads: trace generation
    def after_trace(args, kwargs, trace, elapsed, state):
        add("workloads.calls")
        add("workloads.refs", trace.total_references)

    _wrap(ledger, registry, "get_trace", "workloads", after=after_trace)

    # sim.filter: phase-1 TLB filter
    def after_filter(args, kwargs, stream, elapsed, state):
        add("sim.filter.streams")
        add("sim.filter.refs", args[0].total_references)
        add("sim.filter.misses", len(stream))

    _wrap(ledger, two_phase, "filter_tlb", "sim.filter", after=after_filter)

    # run: Runner.run (the worker's job inside the worker) + stream cache
    def after_run(args, kwargs, result, elapsed, state):
        specs = list(args[1]) if len(args) > 1 else list(kwargs["specs"])
        add("run.calls")
        add("run.groups", len({spec.stream_key() for spec in specs}))
        if worker:
            add("sched.worker.runner_calls")

    _wrap(
        ledger,
        runner_mod.Runner,
        "run",
        "sched.worker.job" if worker else "run",
        after=after_run,
    )

    def before_cache(args, kwargs):
        return args[0].hits

    def after_cache(args, kwargs, result, elapsed, hits_before):
        add("run.cache.calls")
        if args[0].hits > hits_before:
            add("run.cache.hits")
        else:
            add("run.cache.build_wait_s", elapsed)

    _wrap(
        ledger,
        runner_mod.MissStreamCache,
        "get_or_build",
        "run",
        before=before_cache,
        after=after_cache,
    )

    # sim.replay: one-pass batch engine and per-spec engines
    def after_batch(args, kwargs, rows, elapsed, state):
        add("sim.replay.batched_specs", len(rows))
        add("sim.replay.entries", len(args[0]) * len(rows))

    _wrap(ledger, batchpath, "replay_batch", "sim.replay.batch", after=after_batch)

    def replay_key(args, kwargs):
        engine = kwargs.get("engine", args[4] if len(args) > 4 else "auto")
        return "sim.replay." + engine_mod.resolve_engine(args[1], engine)

    def after_replay(args, kwargs, row, elapsed, state):
        add("sim.replay.single_specs")
        add("sim.replay.entries", len(args[0]))

    _wrap(ledger, engine_mod, "replay", replay_key, after=after_replay)

    # ckpt: suspendable sessions and the snapshot codec
    def after_advance(args, kwargs, advanced, elapsed, state):
        add("ckpt.advances")
        add("ckpt.entries", advanced)

    def after_to_bytes(args, kwargs, blob, elapsed, state):
        add("ckpt.snapshot_bytes", len(blob))

    def after_resume(args, kwargs, session, elapsed, state):
        add("ckpt.resumes")

    session_cls = ckpt_session.ReplaySession
    snapshot_cls = ckpt_snapshots.StateSnapshot
    _wrap(ledger, session_cls, "advance", "ckpt.advance", after=after_advance)
    _wrap(ledger, session_cls, "snapshot", "ckpt.snapshot")
    _wrap(ledger, snapshot_cls, "to_bytes", "ckpt.snapshot", after=after_to_bytes)
    _wrap(ledger, session_cls, "resume", "ckpt.resume", after=after_resume)
    _wrap(ledger, snapshot_cls, "from_bytes", "ckpt.resume")

    # store: result, stream and checkpoint reads and writes
    def after_has_result(args, kwargs, found, elapsed, state):
        add("store.result_lookups")
        add("store.result_hits", bool(found))

    def after_get_result(args, kwargs, row, elapsed, state):
        add("store.result_lookups")
        add("store.result_hits", row is not None)

    store_cls = store_mod.ExperimentStore
    _wrap(ledger, store_cls, "has_result", "store.result_read", after=after_has_result)
    _wrap(ledger, store_cls, "get_result", "store.result_read", after=after_get_result)
    _wrap(ledger, store_cls, "put_results", "store.result_write")
    _wrap(ledger, store_cls, "get_stream", "store.stream")
    _wrap(ledger, store_cls, "put_stream", "store.stream")
    _wrap(ledger, store_cls, "put_ckpt", "store.ckpt_write")
    _wrap(ledger, store_cls, "get_ckpt", "store.ckpt_read")

    # service: request handling by route family, and admission
    def handle_key(args, kwargs):
        path = args[2] if len(args) > 2 else kwargs["path"]
        return route_family(path)

    def after_handle(args, kwargs, outcome, elapsed, state):
        add("service.requests")
        add("service.handle_s", elapsed)
        if not 200 <= outcome[0] < 300:
            add("service.non2xx")

    _wrap(
        ledger,
        server_mod.ExperimentService,
        "handle",
        handle_key,
        after=after_handle,
    )

    def after_enter(args, kwargs, shed, elapsed, state):
        if shed is not None:
            add("service.admission.shed")

    admission_cls = admission_mod.AdmissionController
    _wrap(ledger, admission_cls, "try_enter", "service.admission", after=after_enter)
    _wrap(ledger, admission_cls, "leave", "service.admission")

    # sched.queue: the job queue's transactions
    def after_queue(args, kwargs, result, elapsed, state):
        add("sched.queue.calls")

    def after_claim(args, kwargs, jobs, elapsed, state):
        add("sched.queue.calls")
        if jobs:
            add("sched.queue.claims")
            add("sched.queue.jobs_claimed", len(jobs))

    queue_cls = queue_mod.JobQueue
    for method in ("submit", "complete", "heartbeat", "progress", "fail"):
        _wrap(ledger, queue_cls, method, "sched.queue", after=after_queue)
    _wrap(ledger, queue_cls, "claim", "sched.queue", after=after_claim)

    # Client side of every request: transport in the main process, the
    # worker's claim/complete waits in the worker.
    def request_key(args, kwargs):
        if not worker:
            return "service.transport"
        path = args[1] if len(args) > 1 else kwargs["path"]
        if path == "/claim":
            return "sched.worker.claim_wait"
        if path == "/complete":
            return "sched.worker.complete_wait"
        return "sched.worker.other_wait"

    def after_request(args, kwargs, payload, elapsed, state):
        path = args[1] if len(args) > 1 else kwargs["path"]
        add("client.requests")
        add("client.request_s", elapsed)
        if worker and path == "/complete":
            add("sched.worker.complete_calls")

    _wrap(
        ledger,
        client_mod.ServiceClient,
        "request",
        request_key,
        after=after_request,
    )

    if worker:
        # The worker loop's own time: polling an empty queue, mostly.
        import repro.sched.worker as worker_mod

        _wrap(ledger, worker_mod.Worker, "run", "sched.worker.idle")
