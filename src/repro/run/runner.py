"""The one way to execute simulations: shared cache + batch fan-out.

:class:`Runner` takes any iterable of :class:`~repro.run.spec.RunSpec`
and owns the expensive intermediate every caller used to re-implement:
the filtered TLB miss stream. Streams live in a process-wide LRU
(:data:`SHARED_CACHE`) keyed by :meth:`RunSpec.stream_key`, so a batch
touching twenty mechanism configurations per workload — the Figure 7
shape — filters each workload's TLB exactly once, and *separate*
batches in the same process reuse each other's streams too.

With ``workers=N`` the batch is grouped by stream key and the groups
are executed in a process pool: every group lands on exactly one
worker, preserving the filter-once guarantee across the pool, and
specs are pickleable by construction so nothing special is needed to
ship them. Replays are deterministic, so parallel results are
bit-identical to serial ones (the property is regression-tested).

With ``store=`` the runner additionally consults a persistent
:class:`~repro.store.ExperimentStore` before doing any work: stored
specs come back without filtering or replaying, freshly computed rows
(serial or from worker processes) are written back exactly once per
spec, and in-process stream builds are persisted for future processes.

With ``service_url=`` the batch is not executed locally at all: the
runner's one :class:`~repro.sched.client.SchedulerClient` submits it as
a sweep to a scheduler service (``repro-tlb serve``), and whatever
worker fleet is polling it replays it — same rows, same order,
byte-identical to serial.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed

from pathlib import Path

from repro.mem.address import DEFAULT_PAGE_SIZE
from repro.mem.trace import MissTrace, ReferenceTrace
from repro.obs import REGISTRY, bind_context, drain_spans, trace
from repro.run.results import ResultSet
from repro.run.spec import RunSpec
from repro.store.store import (
    ExperimentStore,
    stream_digest_for_spec,
    stream_digest_for_trace,
)
from repro.sim import batchpath
from repro.sim.config import TLBConfig
from repro.sim.engine import replay as engine_replay, resolve_engine
from repro.sim.stats import PrefetchRunStats
from repro.sim.sweep import rescale_trace
from repro.sim.two_phase import filter_tlb
from repro.workloads.registry import get_trace

#: Replay telemetry. Instrumented per *replay* — never per miss entry —
#: so the overhead stays far below the smoke bench's 5% budget. Stream
#: builds are timed by the ``stream.build`` span and counted by
#: :class:`MissStreamCache`'s own counters.
_OBS_REPLAY_SECONDS = REGISTRY.histogram(
    "repro_replay_seconds",
    "Wall-clock per replay by resolved engine.",
    labels=("engine",),
)
_OBS_REPLAY_ENTRIES = REGISTRY.counter(
    "repro_replay_entries_total",
    "Miss-stream entries replayed (batch replays count once per spec).",
    labels=("engine",),
)


class MissStreamCache:
    """Bounded LRU of filtered miss streams, with hit/miss accounting.

    The counters make the cache's contract testable: after a *serial*
    batch of ``k`` specs over ``g`` distinct stream keys, ``misses``
    grew by exactly ``g`` and ``hits`` by ``k - g``. (With
    ``workers>1`` filtering happens inside the worker processes — one
    filter per stream group there — and this cache is not consulted.)

    Thread-safe: a short-held lock guards the entry table and the
    counters, while ``build()`` runs under a *per-key* build lock
    (striped over a fixed pool). Concurrent requests for the same
    stream (the HTTP service shares one cache between handler threads)
    still build it exactly once — the second request blocks on the
    key's stripe and then finds the entry — but requests for *other*
    keys are no longer serialized behind one slow build, which used to
    stall every handler thread for the duration of a TLB filter.
    """

    #: Number of striped build locks. Distinct keys that hash to the
    #: same stripe still serialize their builds (a bounded-memory
    #: tradeoff); same-key requests always share a stripe, which is
    #: what makes the build-once guarantee hold.
    BUILD_LOCK_STRIPES = 16

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be > 0, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        self._build_locks = [
            threading.Lock() for _ in range(self.BUILD_LOCK_STRIPES)
        ]
        self._entries: OrderedDict[tuple, MissTrace] = OrderedDict()

    def _lookup(self, key: tuple) -> MissTrace | None:
        """Hit path under the table lock: promote, count, return."""
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return cached

    def get_or_build(self, key: tuple, build: Callable[[], MissTrace]) -> MissTrace:
        """Return the cached stream for ``key``, building it on miss."""
        with self._lock:
            cached = self._lookup(key)
            if cached is not None:
                return cached
        stripe = self._build_locks[hash(key) % self.BUILD_LOCK_STRIPES]
        with stripe:
            with self._lock:
                # Double-check: a same-stripe builder may have finished
                # this key while we waited for the stripe.
                cached = self._lookup(key)
                if cached is not None:
                    return cached
                self.misses += 1
            built = build()
            with self._lock:
                self._entries[key] = built
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            return built

    def stats(self) -> dict[str, int]:
        """Counter snapshot — the cache-effectiveness record surfaced by
        ``repro-tlb cache stats`` and ``GET /stats``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"MissStreamCache({len(self._entries)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


#: Process-wide default cache: every Runner (and, under ``fork``, every
#: worker process) shares it unless given a private cache.
SHARED_CACHE = MissStreamCache()


def build_miss_stream(spec: RunSpec) -> MissTrace:
    """Phase 1 for a spec: build (or fetch) the trace, filter the TLB."""
    with trace("stream.build", workload=spec.workload, scale=spec.scale):
        reference = get_trace(spec.workload, spec.scale)
        if spec.page_size != DEFAULT_PAGE_SIZE:
            reference = rescale_trace(reference, spec.page_size)
        return filter_tlb(reference, spec.tlb, spec.warmup_fraction)


def _replay(spec: RunSpec, miss_trace: MissTrace) -> PrefetchRunStats:
    """Phase 2 for a spec, annotated with its identity coordinates.

    The replay engine comes from ``spec.engine`` (``auto`` by default:
    the compiled engine whenever the mechanism has a compiled loop, the
    reference engine otherwise — bit-identical either way, see
    :mod:`repro.sim.engine`).
    """
    prefetcher = spec.build_prefetcher()
    resolved = resolve_engine(prefetcher, spec.engine)
    began = time.perf_counter()
    with trace(
        "replay",
        workload=spec.workload,
        mechanism=spec.mechanism.label,
        engine=resolved,
    ):
        stats = engine_replay(
            miss_trace,
            prefetcher,
            buffer_entries=spec.buffer_entries,
            max_prefetches_per_miss=spec.max_prefetches_per_miss,
            engine=spec.engine,
        )
    _OBS_REPLAY_SECONDS.observe(time.perf_counter() - began, engine=resolved)
    _OBS_REPLAY_ENTRIES.inc(len(miss_trace), engine=resolved)
    return annotate_stats(stats, spec)


def annotate_stats(stats: PrefetchRunStats, spec: RunSpec) -> PrefetchRunStats:
    """Stamp a row with its identity coordinates (shared by all paths)."""
    stats.extra["spec_key"] = spec.key()
    stats.extra["mechanism_name"] = spec.mechanism.name
    stats.extra["scale"] = spec.scale
    stats.extra["buffer"] = spec.buffer_entries
    stats.extra["page_size"] = spec.page_size
    return stats


def _run_group(specs: tuple[RunSpec, ...]) -> list[PrefetchRunStats]:
    """Worker entry point: replay one stream-sharing group of specs.

    All specs in a group share a stream key, so the group costs one
    TLB filter in this worker (already-warm caches inherited via
    ``fork`` make it free). The group goes through the same serial
    path as in-process execution, so batch-eligible specs take the
    one-pass loop inside the worker too.
    """
    runner = Runner()
    return runner._run_serial(list(specs))


def _run_group_traced(
    specs: tuple[RunSpec, ...], trace_ctx: str | None
) -> tuple[list[PrefetchRunStats], list[dict]]:
    """Pool entry that carries trace context across the fork boundary.

    The parent's ``"trace_id:span_id"`` context rides in as a plain
    string; spans recorded inside this worker process are drained and
    shipped back with the rows so the parent's collector holds the
    whole trace. Rows are exactly ``_run_group``'s — tracing never
    touches the replay results.
    """
    # Under the ``fork`` start method the child inherits the parent's
    # span collector; drop that inheritance so the drain below ships
    # only spans this task produced (the parent already has its own).
    from repro.obs import COLLECTOR

    COLLECTOR.clear()
    with bind_context(trace_ctx):
        with trace("pool.group", specs=len(specs)):
            rows = _run_group(specs)
    return rows, drain_spans()


class Runner:
    """Executes batches of RunSpecs over shared miss streams.

    Args:
        workers: process-pool size for :meth:`run`; ``None``/``0``/``1``
            executes serially in-process. Capped to the CPU count.
        cache: private miss-stream cache; defaults to the process-wide
            :data:`SHARED_CACHE`. Only consulted for serial execution
            and :meth:`miss_stream` — parallel batches filter inside
            the worker processes (exactly once per stream group), so a
            private cache's counters stay at zero there.
        store: optional persistent
            :class:`~repro.store.ExperimentStore` (or a path, opened on
            the spot). When set, :meth:`run` consults the store before
            filtering or replaying — specs already stored come back
            without any simulation — and writes newly computed rows
            back exactly once per spec, including rows computed by
            worker processes. Miss streams built in-process are
            persisted too, so even a cold process skips phase 1 for
            streams the store has seen.
        service_url: address of a ``repro-tlb serve`` instance; when
            given, :meth:`run` submits batches as sweeps to its worker
            fleet instead of executing them locally. The backend is
            derived, never chosen: ``service_url`` → distributed,
            ``workers > 1`` → process pool, otherwise serial. All
            backends return identical rows.
        request_timeout: per-HTTP-request socket timeout in seconds for
            the :class:`~repro.sched.client.SchedulerClient` that submits
            those sweeps (not the sweep deadline — a hung socket fails
            fast instead of masking the outage as an endless poll).
        service_token: API token for a tenant-mode service; sent by
            that client.
        checkpoint_every: when > 0, in-process replays run through a
            suspendable :class:`~repro.ckpt.ReplaySession`, leaving a
            resume bookmark in the store every N miss entries. A run
            killed mid-stream resumes from its last checkpoint on the
            next attempt (continuations are keyed by ``spec.key()``),
            and the completed row is byte-identical to an
            uninterrupted one. Requires ``store``.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: MissStreamCache | None = None,
        store: "ExperimentStore | str | Path | None" = None,
        service_url: str | None = None,
        checkpoint_every: int = 0,
        request_timeout: float = 30.0,
        service_token: str | None = None,
    ) -> None:
        from repro.errors import ConfigurationError

        self.workers = max(0, int(workers or 0))
        self.cache = cache if cache is not None else SHARED_CACHE
        if store is not None and not isinstance(store, ExperimentStore):
            store = ExperimentStore(store)
        self.store = store
        self.checkpoint_every = max(0, int(checkpoint_every or 0))
        if self.checkpoint_every and store is None:
            raise ConfigurationError(
                "checkpoint_every needs a store to keep its resume "
                "bookmarks in; pass store="
            )
        self._client = None
        if service_url is not None:
            # Local import: repro.sched builds on this module.
            from repro.sched.client import SchedulerClient

            self._client = SchedulerClient(
                service_url, timeout=request_timeout, token=service_token
            )

    # -- miss streams ------------------------------------------------------

    def miss_stream_for(self, spec: RunSpec) -> MissTrace:
        """The (cached) miss stream a spec replays over."""
        return self.cache.get_or_build(
            spec.stream_key(),
            lambda: self._load_or_build_stream(
                stream_digest_for_spec(spec), lambda: build_miss_stream(spec)
            ),
        )

    def _load_or_build_stream(
        self, digest: str, build: Callable[[], MissTrace]
    ) -> MissTrace:
        """In-memory miss → try the persistent store, else build + persist."""
        if self.store is None:
            return build()
        cached = self.store.get_stream(digest)
        if cached is not None:
            return cached
        built = build()
        self.store.put_stream(digest, built)
        return built

    def miss_stream(
        self,
        source: str | ReferenceTrace,
        tlb: TLBConfig | None = None,
        scale: float = 1.0,
        warmup_fraction: float = 0.0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> MissTrace:
        """Cached miss stream for a workload name or an ad-hoc trace.

        Ad-hoc :class:`ReferenceTrace` objects are keyed by their
        content digest, so equal traces share a cache entry no matter
        who built them (and ``scale`` does not apply to them).
        """
        tlb = tlb or TLBConfig()
        if isinstance(source, ReferenceTrace):
            trace = source
            if page_size != DEFAULT_PAGE_SIZE:
                trace = rescale_trace(trace, page_size)
            key = (
                ("trace", trace.content_key()),
                tlb.entries,
                tlb.ways,
                warmup_fraction,
            )
            digest = stream_digest_for_trace(
                trace.content_key(), tlb, warmup_fraction
            )
            miss = self.cache.get_or_build(
                key,
                lambda: self._load_or_build_stream(
                    digest, lambda: filter_tlb(trace, tlb, warmup_fraction)
                ),
            )
            if miss.name != trace.name:
                # The cache entry keeps the first builder's name; hand
                # equal-content traces a relabeled view (arrays shared)
                # so their stats report the caller's workload name.
                miss = dataclasses.replace(miss, name=trace.name)
            return miss
        spec = RunSpec.of(
            source,
            "none",
            scale=scale,
            tlb=tlb,
            warmup_fraction=warmup_fraction,
            page_size=page_size,
        )
        return self.miss_stream_for(spec)

    # -- execution ---------------------------------------------------------

    def run_one(self, spec: RunSpec) -> PrefetchRunStats:
        """Execute a single spec (always in-process).

        With :attr:`checkpoint_every` set, the replay is suspendable:
        it picks up any resume bookmark the store holds for this spec,
        replays in checkpoint-sized chunks, and clears the bookmark on
        completion — producing a byte-identical row either way.
        """
        if self.checkpoint_every:
            return self._run_resumable(spec)
        return _replay(spec, self.miss_stream_for(spec))

    def _run_resumable(self, spec: RunSpec) -> PrefetchRunStats:
        """Chunked replay with store-backed suspend/resume bookmarks."""
        # Local import: repro.ckpt.manager deliberately avoids importing
        # the store at runtime, and we return the favor here.
        from repro.ckpt import CheckpointManager, ReplaySession

        manager = CheckpointManager(self.store)
        key = manager.run_key(spec.key())
        resumed = manager.resume(key, self.miss_stream_for, spec)
        # No bookmark, or GC took its state: start from the beginning.
        session = resumed.session if resumed is not None else None
        if session is None:
            session = ReplaySession(
                self.miss_stream_for(spec),
                spec.build_prefetcher(),
                buffer_entries=spec.buffer_entries,
                max_prefetches_per_miss=spec.max_prefetches_per_miss,
            )
        while not session.finished:
            session.advance(self.checkpoint_every)
            if not session.finished:
                manager.write(key, spec, session)
        manager.delete(key)
        return annotate_stats(session.stats(), spec)

    def run(self, specs: Iterable[RunSpec]) -> ResultSet:
        """Execute a batch; results come back in input order.

        Serial and parallel execution produce identical rows: replays
        are deterministic and every spec gets a fresh mechanism.

        With a :attr:`store`, every spec key is looked up first (one
        lookup per *unique* key — duplicates share the row) and only
        the missing specs are executed; their rows are written back in
        one batch, exactly one copy per spec. A warm re-run of a sweep
        therefore performs zero filters and zero replays, and the
        returned set is bit-identical to the cold run.
        """
        spec_list = list(specs)
        for spec in spec_list:
            if not isinstance(spec, RunSpec):
                raise TypeError(
                    f"Runner.run expects RunSpec items, got {type(spec).__name__}"
                )
        if self.store is not None:
            return self._run_with_store(spec_list)
        return ResultSet(self._execute(spec_list))

    def _execute(self, spec_list: list[RunSpec]) -> list[PrefetchRunStats]:
        """Compute every spec (no store consultation)."""
        if self._client is not None:
            return list(self._client.submit_sweep(spec_list))
        if self.workers > 1 and len(spec_list) > 1:
            return self._run_parallel(spec_list)
        return self._run_serial(spec_list)

    def _run_serial(self, spec_list: list[RunSpec]) -> list[PrefetchRunStats]:
        """In-process execution: one compiled pass per stream group.

        Specs are grouped by stream key; within a group, every spec
        that :func:`~repro.sim.engine.resolve_engine` sends to the
        compiled engine is replayed in a *single* pass over the shared
        miss stream (:func:`repro.sim.batchpath.replay_batch`) — a group
        of one included. The rest run per-spec on the reference
        engine, and checkpointed runs go spec by spec through
        suspendable sessions (compiled kernels, replayed in
        checkpoint-sized windows).

        The miss-stream cache is still consulted once per spec, so the
        hit/miss counter contract is identical to per-spec execution,
        and rows are bit-identical by the differential harness.
        """
        if self.checkpoint_every:
            return [self.run_one(spec) for spec in spec_list]
        results: list[PrefetchRunStats | None] = [None] * len(spec_list)
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for index, spec in enumerate(spec_list):
            groups.setdefault(spec.stream_key(), []).append(index)
        for indices in groups.values():
            batchable: list[tuple[int, RunSpec, object]] = []
            for index in indices:
                spec = spec_list[index]
                prefetcher = spec.build_prefetcher()
                if resolve_engine(prefetcher, spec.engine) == "batch":
                    batchable.append((index, spec, prefetcher))
                else:
                    results[index] = self.run_one(spec)
            if not batchable:
                continue
            miss_trace = None
            for _, spec, _ in batchable:
                miss_trace = self.miss_stream_for(spec)
            began = time.perf_counter()
            with trace(
                "replay.batch",
                workload=batchable[0][1].workload,
                specs=len(batchable),
            ):
                stats = batchpath.replay_batch(
                    miss_trace,
                    [
                        (p, spec.buffer_entries, spec.max_prefetches_per_miss)
                        for _, spec, p in batchable
                    ],
                )
            _OBS_REPLAY_SECONDS.observe(
                time.perf_counter() - began, engine="batch"
            )
            _OBS_REPLAY_ENTRIES.inc(
                len(miss_trace) * len(batchable), engine="batch"
            )
            for (index, spec, _), row in zip(batchable, stats):
                results[index] = annotate_stats(row, spec)
        return results  # type: ignore[return-value]

    def _run_with_store(self, spec_list: list[RunSpec]) -> ResultSet:
        by_key: OrderedDict[str, list[int]] = OrderedDict()
        for index, spec in enumerate(spec_list):
            by_key.setdefault(spec.key(), []).append(index)
        results: list[PrefetchRunStats | None] = [None] * len(spec_list)
        missing: list[RunSpec] = []
        for key, indices in by_key.items():
            cached = self.store.get_result(key)
            if cached is not None:
                for index in indices:
                    results[index] = cached
            else:
                missing.append(spec_list[indices[0]])
        if missing:
            computed = self._execute(missing)
            self.store.put_results(zip(missing, computed))
            for spec, stats in zip(missing, computed):
                for index in by_key[spec.key()]:
                    results[index] = stats
        return ResultSet(results)  # type: ignore[arg-type]

    def _run_parallel(self, spec_list: list[RunSpec]) -> list[PrefetchRunStats]:
        # One task per stream group: each (workload, scale, tlb, page
        # size) is filtered exactly once across the pool, and big
        # groups amortize their filter over many replays.
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for index, spec in enumerate(spec_list):
            groups.setdefault(spec.stream_key(), []).append(index)
        workers = min(self.workers, len(groups), os.cpu_count() or 1)
        results: list[PrefetchRunStats | None] = [None] * len(spec_list)
        from repro.obs import COLLECTOR, current_context

        trace_ctx = current_context()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _run_group_traced,
                    tuple(spec_list[i] for i in indices),
                    trace_ctx,
                ): indices
                for indices in groups.values()
            }
            for future in as_completed(futures):
                rows, spans = future.result()
                for index, stats in zip(futures[future], rows):
                    results[index] = stats
                # Merge worker-process spans into the parent collector
                # so the batch reads as one trace.
                COLLECTOR.ingest(spans)
        return results  # type: ignore[return-value]
