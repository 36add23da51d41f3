#!/usr/bin/env python
"""Runner-based smoke benchmark: one small Figure-7-shaped batch.

Times a representative batch (a handful of workloads x the full
Figure 7 mechanism legend) through the unified :class:`repro.Runner`
on both replay engines — the authoritative reference engine and the
compiled engine (:mod:`repro.sim.batchpath`, which replays every
stream group in one batch, one loop per equivalence class) — and then through every other execution
path: a process pool, a persistent store, checkpointed ``/streams``
sessions, the sweep scheduler with a worker fleet, and a tenant-gated
server under overload. It emits one machine-readable JSON record
(``BENCH_smoke.json``) and judges it with the gate table
:data:`repro.obs.SMOKE_GATES`: the exit code is nonzero when any row
fails, and the record carries every row's verdict under ``gates``.

Run:  PYTHONPATH=src python benchmarks/smoke.py --out BENCH_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro import ExperimentStore, MissStreamCache, Runner, RunSpec
from repro.analysis.figures import figure7_configs
from repro.obs import (
    REGISTRY,
    PhaseProfiler,
    check_gates,
    set_enabled,
)

#: Small but behaviour-diverse: strided, pointer-walk, interleaved, noise.
SMOKE_APPS = ("galgel", "swim", "ammp", "eon")

#: Timed repetitions per measurement; the fastest is recorded
#: (scheduler interference only ever slows a run down).
REPEATS = 5

#: Process-pool size for the parallel-vs-serial check.
WORKERS = 2

#: Largest worker fleet in the distributed phase (it also times 1).
DISTRIBUTED_WORKERS = 2

#: Concurrent clients in the load phase: enough to overrun the
#: deliberately small admission envelope (the gate needs >= 100).
LOAD_CLIENTS = 120

#: Batches per timed window in the overhead comparisons (store
#: write-back, telemetry). One compiled batch takes ~0.09 s, short
#: enough that one scheduler hiccup swings a fraction by 10%; four
#: back-to-back batches per window keep the ratios readable.
WINDOW_BATCHES = 4


def _timed_window(run) -> float:
    """Mean seconds per batch over one window of WINDOW_BATCHES runs."""
    started = time.perf_counter()
    for index in range(WINDOW_BATCHES):
        run(index)
    return (time.perf_counter() - started) / WINDOW_BATCHES


def distributed_phase(specs: list[RunSpec], reference_json: str) -> dict:
    """Time the smoke sweep through the scheduler at 1 and N workers.

    Each worker-count run gets a fresh store and an in-process server;
    the workers are real ``repro-tlb worker`` subprocesses, and the
    timer starts only after every worker has announced itself (their
    cold-start imports are not the scheduler's throughput). Workers and
    the sweep client keep their default long-poll bounds, so the phase
    times the path users get.
    """
    from repro.sched import SchedulerClient
    from repro.service import make_server

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    scaling: dict[str, float] = {}
    identical = True
    with tempfile.TemporaryDirectory(prefix="repro-dist-smoke-") as root:
        for count in (1, DISTRIBUTED_WORKERS):
            server = make_server(Path(root) / f"store{count}", port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            client = SchedulerClient(server.url)
            client.wait_ready()
            workers = [
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "worker",
                        "--url", server.url, "--batch", "8",
                    ],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                )
                for _ in range(count)
            ]
            try:
                for worker in workers:
                    worker.stdout.readline()  # "... polling ..." = ready
                started = time.perf_counter()
                results = client.submit_sweep(specs, timeout=600)
                scaling[str(count)] = round(time.perf_counter() - started, 4)
            finally:
                for worker in workers:
                    worker.terminate()
                for worker in workers:
                    worker.wait(timeout=30)
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
            identical = identical and results.to_json() == reference_json
    elapsed = scaling[str(DISTRIBUTED_WORKERS)]
    return {
        "distributed_workers": DISTRIBUTED_WORKERS,
        "distributed_elapsed_seconds": elapsed,
        "distributed_specs_per_second": round(len(specs) / elapsed, 2)
        if elapsed
        else 0.0,
        "distributed_identical": identical,
        "distributed_scaling": scaling,
        "distributed_scaling_speedup": round(scaling["1"] / elapsed, 2)
        if elapsed
        else 0.0,
    }


def streaming_phase(runner: Runner, spec: RunSpec) -> dict:
    """Time the checkpoint/streaming path on one representative spec.

    ``warm_start_speedup`` compares replaying the whole miss stream
    from scratch against resuming from a mid-stream checkpoint (the
    suspend/resume currency of ``Runner(checkpoint_every=)`` and the
    service's idle-session eviction).  ``stream_entries_per_second``
    drives the real ``/streams`` API in 8 chunks — checkpointing after
    every advance — and must finish byte-identical to a one-shot
    ``POST /runs`` of the same spec.
    """
    from repro.ckpt import ReplaySession, SessionSnapshot
    from repro.service.server import ExperimentService

    stream = runner.miss_stream_for(spec)

    # Cold: the whole stream in one session, fastest of N.
    cold_elapsed = float("inf")
    for _ in range(REPEATS):
        session = ReplaySession(stream, spec.build_prefetcher())
        started = time.perf_counter()
        session.advance(None)
        cold_elapsed = min(cold_elapsed, time.perf_counter() - started)
    one_shot_stats = session.stats()

    # Warm: checkpoint halfway (through the wire format), then time
    # only the resumed second half.
    half_session = ReplaySession(stream, spec.build_prefetcher())
    half_session.advance(half_session.total // 2)
    snapshot_bytes = half_session.snapshot().to_bytes()
    warm_elapsed = float("inf")
    for _ in range(REPEATS):
        resumed = ReplaySession.resume(
            SessionSnapshot.from_bytes(snapshot_bytes),
            stream,
            spec.build_prefetcher(),
        )
        started = time.perf_counter()
        resumed.advance(None)
        warm_elapsed = min(warm_elapsed, time.perf_counter() - started)
    identical = resumed.stats() == one_shot_stats

    # Chunked through the real service API (checkpoint every advance),
    # in the same 8-chunk shape the streaming-smoke CI job uses.
    with tempfile.TemporaryDirectory(prefix="repro-stream-smoke-") as root:
        service = ExperimentService(
            ExperimentStore(Path(root) / "store"), runner=runner
        )
        status, one_shot_row = service.handle(
            "POST", "/runs", body={"specs": [spec.to_dict()]}
        )
        assert status == 200, one_shot_row
        _, opened = service.handle(
            "POST", "/streams", body={"spec": spec.to_dict(), "session_id": "smoke"}
        )
        chunk = opened["total"] // 8 + 1
        started = time.perf_counter()
        while True:
            _, step = service.handle(
                "POST", "/streams/smoke/advance", body={"count": chunk}
            )
            if step["finished"]:
                break
        stream_elapsed = time.perf_counter() - started
        identical = identical and json.dumps(
            step["stats"], sort_keys=True
        ) == json.dumps(one_shot_row["runs"][0], sort_keys=True)

    return {
        "stream_entries": opened["total"],
        "stream_chunk_entries": chunk,
        "stream_entries_per_second": round(opened["total"] / stream_elapsed, 1)
        if stream_elapsed
        else 0.0,
        "warm_start_cold_seconds": round(cold_elapsed, 4),
        "warm_start_resumed_seconds": round(warm_elapsed, 4),
        "warm_start_speedup": round(cold_elapsed / warm_elapsed, 2)
        if warm_elapsed
        else 0.0,
        "streaming_identical": identical,
    }


def obs_phase(runner: Runner, specs: list[RunSpec]) -> dict:
    """Measure what the telemetry itself costs, and what it observed.

    ``obs_overhead_fraction`` times the primary batch with the whole
    observability layer on vs switched off (``set_enabled(False)`` —
    the same switch ``REPRO_OBS_DISABLED=1`` throws); the gate table
    holds it below 5%. The two timings are interleaved within the same
    window (fastest-of-N each) so machine-load drift between benchmark
    phases cannot masquerade as instrumentation overhead. The service
    latency quantiles come straight from the process-wide registry,
    which the streaming and distributed phases populated through the
    real ``ExperimentService.handle`` path; this phase must run before
    the load phase, whose flood lands in the same histogram.
    """
    enabled_elapsed = disabled_elapsed = float("inf")
    for _ in range(REPEATS):
        enabled_elapsed = min(
            enabled_elapsed, _timed_window(lambda _: runner.run(specs))
        )
        set_enabled(False)
        try:
            disabled_elapsed = min(
                disabled_elapsed, _timed_window(lambda _: runner.run(specs))
            )
        finally:
            set_enabled(True)
    overhead = (
        (enabled_elapsed - disabled_elapsed) / disabled_elapsed
        if disabled_elapsed and disabled_elapsed != float("inf")
        else 0.0
    )
    http_seconds = REGISTRY.get("repro_http_request_seconds")
    summary = (
        http_seconds.summary()
        if http_seconds is not None
        else {"count": 0, "p50": 0.0, "p99": 0.0}
    )
    return {
        "obs_enabled_seconds": round(enabled_elapsed, 4),
        "obs_disabled_seconds": round(disabled_elapsed, 4),
        "obs_overhead_fraction": round(max(0.0, overhead), 4),
        "service_requests_observed": int(summary["count"]),
        "service_p50_ms": round(summary["p50"] * 1000.0, 3),
        "service_p99_ms": round(summary["p99"] * 1000.0, 3),
    }


def load_phase(spec: RunSpec, duration: float = 2.0) -> dict:
    """Hammer a tenant-gated server with LOAD_CLIENTS concurrent clients.

    Two tenants share a deliberately small admission envelope
    (``max_inflight=16``, ``max_queue=32``), so a fraction of the flood
    *must* be shed — the phase measures that the overload path is
    correct, not that it never happens. Every response is bucketed:
    2xx latencies feed ``load_p50_ms``/``load_p99_ms``, every 429 must
    carry a ``Retry-After`` header, and any 5xx fails the benchmark
    (overload is answered with backpressure, never with a crash).
    ``load_identical`` re-runs the same spec through a tokened
    ``POST /runs`` before and after the flood: admission control and
    shedding must not perturb result bytes.
    """
    import urllib.error
    import urllib.request

    from repro.service import make_server
    from repro.service.admission import AdmissionController, TenantConfig

    # The flood tenants get rate budgets well below what LOAD_CLIENTS
    # concurrent loops can attempt, so a healthy fraction of the flood
    # is *guaranteed* to be rejected with 429 — that rejection path is
    # what this phase measures. The byte-identity runs use a third
    # tenant whose untouched bucket stays full through the flood.
    tenants = (
        TenantConfig(
            name="alpha", token="bench-alpha", rate=150.0, burst=75.0,
            cost_rate=500.0, cost_burst=10_000.0,
        ),
        TenantConfig(
            name="beta", token="bench-beta", rate=150.0, burst=75.0,
            cost_rate=500.0, cost_burst=10_000.0,
        ),
        TenantConfig(
            name="check", token="bench-check", rate=1000.0, burst=1000.0,
            cost_rate=500.0, cost_burst=10_000.0,
        ),
    )
    admission = AdmissionController(
        tenants=tenants,
        max_inflight=16,
        max_queue=32,
        queue_wait_seconds=0.05,
        shed_retry_after=0.05,
    )

    def call(token: str, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            server.url + path,
            data=data,
            method=method,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {token}",
            },
        )
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = json.loads(response.read())
                headers = dict(response.headers)
                status = response.status
        except urllib.error.HTTPError as exc:
            payload = json.loads(exc.read() or b"{}")
            headers = dict(exc.headers)
            status = exc.code
        except OSError:
            # A reset/timed-out connection: recorded as status 0 so the
            # client keeps flooding (and the record keeps the count).
            payload, headers, status = {}, {}, 0
        return status, headers, payload, time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="repro-load-smoke-") as root:
        server = make_server(Path(root) / "store", port=0, admission=admission)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            run_body = {"specs": [spec.to_dict()]}
            status, _, before, _ = call("bench-check", "POST", "/runs", run_body)
            assert status == 200, before
            reference = json.dumps(before["runs"], sort_keys=True)

            # The flood proper: each client loops a read/claim/complete
            # mix until the deadline, recording every (status, latency,
            # has-Retry-After) triple. Tokens alternate so both tenant
            # buckets drain.
            samples: list[list[tuple[int, float, bool]]] = [
                [] for _ in range(LOAD_CLIENTS)
            ]
            begin = threading.Barrier(LOAD_CLIENTS + 1)

            def client_loop(index: int) -> None:
                token = "bench-alpha" if index % 2 == 0 else "bench-beta"
                requests = (
                    ("GET", "/results?limit=2", None),
                    ("GET", "/stats", None),
                    ("POST", "/claim", {"worker_id": f"load-{index}", "limit": 1}),
                    ("POST", "/complete", {"job_id": "load-bogus", "worker_id": f"load-{index}"}),
                )
                begin.wait(timeout=60)
                deadline = time.perf_counter() + duration
                step = index
                while time.perf_counter() < deadline:
                    method, path, body = requests[step % len(requests)]
                    step += 1
                    status, headers, _, latency = call(token, method, path, body)
                    samples[index].append(
                        (status, latency, "Retry-After" in headers)
                    )

            threads = [
                threading.Thread(target=client_loop, args=(index,))
                for index in range(LOAD_CLIENTS)
            ]
            for worker in threads:
                worker.start()
            begin.wait(timeout=60)
            flood_started = time.perf_counter()
            for worker in threads:
                worker.join(timeout=120)
            flood_elapsed = time.perf_counter() - flood_started

            status, _, after, _ = call("bench-check", "POST", "/runs", run_body)
            assert status == 200, after
            identical = json.dumps(after["runs"], sort_keys=True) == reference
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    flat = [sample for per_client in samples for sample in per_client]
    ok_latencies = sorted(
        latency for status, latency, _ in flat if 200 <= status < 300
    )
    shed = [sample for sample in flat if sample[0] == 429]
    missing_retry_after = sum(1 for _, _, hinted in shed if not hinted)
    server_errors = sum(1 for status, _, _ in flat if status >= 500)
    conn_errors = sum(1 for status, _, _ in flat if status == 0)

    def quantile(values: list[float], q: float) -> float:
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    return {
        "load_clients": LOAD_CLIENTS,
        "load_requests_total": len(flat),
        "load_p50_ms": round(quantile(ok_latencies, 0.50) * 1000.0, 3),
        "load_p99_ms": round(quantile(ok_latencies, 0.99) * 1000.0, 3),
        "load_requests_per_second": round(len(flat) / flood_elapsed, 1)
        if flood_elapsed
        else 0.0,
        "load_shed_429_total": len(shed),
        "load_429_missing_retry_after": missing_retry_after,
        "load_5xx_total": server_errors,
        "load_conn_errors": conn_errors,
        "load_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_smoke.json", help="output JSON path")
    parser.add_argument("--scale", type=float, default=0.1, help="workload scale")
    args = parser.parse_args(argv)

    specs = [
        RunSpec.of(app, config.mechanism, scale=args.scale, **config.factory_params())
        for app in SMOKE_APPS
        for config in figure7_configs()
    ]
    cache = MissStreamCache()
    runner = Runner(cache=cache)
    profiler = PhaseProfiler()

    # Phase 1 (TLB filtering) is shared by every engine and cached;
    # time it separately so the engine comparison is replay-only.
    started = time.perf_counter()
    with profiler.phase("tlb_filter"):
        for spec in specs:
            runner.miss_stream_for(spec)
    filter_elapsed = time.perf_counter() - started
    filters = cache.misses

    # Interleave the repetitions so slow drifts in machine load hit
    # both engines alike; keep each engine's fastest wall-clock.
    reference_specs = [spec.derive(engine="reference") for spec in specs]
    reference_elapsed = elapsed = float("inf")
    with profiler.phase("engines"):
        for _ in range(REPEATS):
            started = time.perf_counter()
            reference = runner.run(reference_specs)
            reference_elapsed = min(reference_elapsed, time.perf_counter() - started)

            # The compiled engine replays every stream group in one
            # replay_batch call, one loop per equivalence class.
            started = time.perf_counter()
            results = runner.run(specs)
            elapsed = min(elapsed, time.perf_counter() - started)

    engines_identical = results.to_json() == reference.to_json()
    speedup = reference_elapsed / elapsed if elapsed else 0.0

    # The parallel run is a Runner check, not an engine comparison: it
    # filters inside the worker processes, so its wall-clock includes
    # TLB filtering and is NOT comparable to the replay-only timings.
    started = time.perf_counter()
    parallel = Runner(workers=WORKERS, cache=MissStreamCache()).run(specs)
    parallel_elapsed = time.perf_counter() - started
    parallel_identical = parallel.to_json() == reference.to_json()

    # Store-backed phase: the same batch against a fresh persistent
    # store, twice. The cold pass reuses the warm miss-stream cache so
    # its wall-clock is replay + store write-back, compared with bare
    # batches timed in the same loop; the warm pass must be 100% store
    # hits — zero replays — and bit-identical.
    with profiler.phase("store"), tempfile.TemporaryDirectory(
        prefix="repro-store-smoke-"
    ) as store_root:
        # Fastest-of-repeats like the engine timings (every cold batch
        # needs a fresh store); warm timing reuses the last store.
        store_cold_elapsed = bare_elapsed = float("inf")
        for repeat in range(REPEATS):
            stores = [
                ExperimentStore(Path(store_root) / f"run{repeat}-{index}")
                for index in range(WINDOW_BATCHES)
            ]
            bare_elapsed = min(
                bare_elapsed, _timed_window(lambda _: runner.run(specs))
            )
            cold_passes: list = []
            store_cold_elapsed = min(
                store_cold_elapsed,
                _timed_window(
                    lambda index: cold_passes.append(
                        Runner(cache=cache, store=stores[index]).run(specs)
                    )
                ),
            )
        store_cold = cold_passes[-1]
        store = stores[-1]
        store_runner = Runner(cache=cache, store=store)
        before_warm = store.stats()
        started = time.perf_counter()
        store_warm = store_runner.run(specs)
        store_warm_elapsed = time.perf_counter() - started
        after_warm = store.stats()
        store_identical = (
            store_cold.to_json() == results.to_json()
            and store_warm.to_json() == results.to_json()
        )
        store_warm_all_hits = (
            after_warm["result_hits"] - before_warm["result_hits"] == len(specs)
            and after_warm["result_misses"] == before_warm["result_misses"]
        )
        store_bytes = after_warm["total_bytes"]
    store_warm_speedup = (
        store_cold_elapsed / store_warm_elapsed if store_warm_elapsed else 0.0
    )
    store_cold_overhead = (
        (store_cold_elapsed - bare_elapsed) / bare_elapsed if bare_elapsed else 0.0
    )

    # Streaming/checkpoint phase: one representative spec resumed from
    # a mid-stream checkpoint and chunked through the /streams API.
    with profiler.phase("streaming"):
        streaming = streaming_phase(
            runner, RunSpec.of("galgel", "DP", scale=args.scale, rows=256)
        )

    # Distributed phase: the same batch through the scheduler + a real
    # worker fleet, recording end-to-end throughput and worker scaling.
    with profiler.phase("distributed"):
        distributed = distributed_phase(specs, results.to_json())

    # Observability phase: what did the telemetry layer itself cost,
    # and what service latencies did the streaming and distributed
    # phases see? It runs before the load phase, whose flood would
    # otherwise swamp those quantiles.
    with profiler.phase("obs"):
        obs_record = obs_phase(runner, specs)

    # Load phase: a tenant-gated server under a deliberate overload —
    # latency quantiles for the admitted, 429 + Retry-After for the
    # shed, and byte-identical results either way.
    with profiler.phase("load"):
        load = load_phase(RunSpec.of("galgel", "DP", scale=args.scale, rows=256))
    profile = profiler.report()

    # Track the paper's representative DP configuration explicitly
    # (r=256, direct-mapped) — pivot would silently keep whichever DP
    # bar comes last in the legend.
    dp_repr = results.filter(mechanism="DP,256,D")
    record = {
        "benchmark": "smoke",
        "python": platform.python_version(),
        "scale": args.scale,
        "workers": WORKERS,
        "specs": len(specs),
        "workloads": len(SMOKE_APPS),
        "tlb_filters": filters,
        "tlb_filter_seconds": round(filter_elapsed, 4),
        "elapsed_seconds": round(elapsed, 4),
        "elapsed_reference_seconds": round(reference_elapsed, 4),
        "elapsed_parallel_total_seconds": round(parallel_elapsed, 4),
        "speedup_vs_reference": round(speedup, 2),
        "engines_identical": engines_identical,
        "parallel_identical": parallel_identical,
        "specs_per_second": round(len(specs) / elapsed, 2) if elapsed else 0.0,
        "stream_cache_hits": cache.hits,
        "store_cold_seconds": round(store_cold_elapsed, 4),
        "store_warm_seconds": round(store_warm_elapsed, 4),
        "store_warm_speedup": round(store_warm_speedup, 2),
        "store_cold_overhead_fraction": round(store_cold_overhead, 4),
        "store_warm_all_hits": store_warm_all_hits,
        "store_identical": store_identical,
        "store_bytes": store_bytes,
        **streaming,
        **distributed,
        **load,
        **obs_record,
        "phase_seconds": {
            name: round(seconds, 4)
            for name, seconds in profile["phase_seconds"].items()
        },
        "profiled_seconds": round(profile["profiled_seconds"], 4),
        "total_seconds": round(profile["total_seconds"], 4),
        "peak_rss_bytes": profile["peak_rss_bytes"],
        "mean_dp256_accuracy": round(
            sum(run.prediction_accuracy for run in dp_repr) / len(dp_repr), 4
        ),
        "rows": [
            {
                "workload": run.workload,
                "mechanism": run.mechanism,
                "prediction_accuracy": round(run.prediction_accuracy, 4),
            }
            for run in results
        ],
    }
    record["gates"] = check_gates(record)
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"[smoke] {len(specs)} specs: compiled {elapsed:.2f}s vs "
        f"reference {reference_elapsed:.2f}s -> {speedup:.2f}x speedup, "
        f"bit-identical={engines_identical} "
        f"({record['specs_per_second']} specs/s, {filters} TLB filters) -> {out}"
    )
    print(
        f"[smoke] store: cold {store_cold_elapsed:.2f}s "
        f"(+{store_cold_overhead * 100:.1f}% write-back overhead) -> warm "
        f"{store_warm_elapsed:.2f}s, {store_warm_speedup:.0f}x, "
        f"all-hits={store_warm_all_hits} bit-identical={store_identical}"
    )
    print(
        f"[smoke] streaming: resume-from-checkpoint "
        f"{streaming['warm_start_resumed_seconds']:.2f}s vs cold "
        f"{streaming['warm_start_cold_seconds']:.2f}s -> "
        f"{streaming['warm_start_speedup']}x warm-start speedup; "
        f"{streaming['stream_entries_per_second']} entries/s chunked "
        f"through /streams, bit-identical={streaming['streaming_identical']}"
    )
    print(
        f"[smoke] distributed: {distributed['distributed_workers']} workers "
        f"{distributed['distributed_elapsed_seconds']:.2f}s "
        f"({distributed['distributed_specs_per_second']} specs/s, "
        f"scaling {distributed['distributed_scaling']}, "
        f"{distributed['distributed_scaling_speedup']}x vs 1 worker) "
        f"bit-identical={distributed['distributed_identical']}"
    )
    print(
        f"[smoke] obs: {obs_record['obs_overhead_fraction'] * 100:.1f}% "
        f"instrumentation overhead (instrumented "
        f"{obs_record['obs_enabled_seconds']:.2f}s vs disabled "
        f"{obs_record['obs_disabled_seconds']:.2f}s); service p50 "
        f"{obs_record['service_p50_ms']:.1f}ms / p99 "
        f"{obs_record['service_p99_ms']:.1f}ms over "
        f"{obs_record['service_requests_observed']} requests; peak RSS "
        f"{record['peak_rss_bytes'] // (1024 * 1024)} MiB"
    )
    print(
        f"[smoke] load: {load['load_clients']} clients, "
        f"{load['load_requests_total']} requests "
        f"({load['load_requests_per_second']} req/s), p50 "
        f"{load['load_p50_ms']:.1f}ms / p99 {load['load_p99_ms']:.1f}ms, "
        f"{load['load_shed_429_total']} shed with 429 "
        f"({load['load_429_missing_retry_after']} missing Retry-After), "
        f"{load['load_5xx_total']} server errors, "
        f"{load['load_conn_errors']} connection errors, "
        f"bit-identical={load['load_identical']}"
    )
    failed = [verdict for verdict in record["gates"] if not verdict["passed"]]
    for verdict in failed:
        print(
            f"[smoke] ERROR: {verdict['field']}={verdict['value']} fails "
            f"{verdict['condition']}: {verdict['message']}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
