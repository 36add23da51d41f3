"""Command-line interface: regenerate any experiment from a shell.

Examples::

    repro-tlb list-apps
    repro-tlb run --app galgel --mechanism DP --rows 256 --scale 0.25
    repro-tlb run --app galgel --mechanism DP --engine reference
    repro-tlb run --app galgel --save galgel_dp.json
    repro-tlb table1
    repro-tlb table2 --scale 0.5
    repro-tlb table3 --scale 0.5
    repro-tlb figure7 --scale 0.25 --workers 4
    repro-tlb figure8 --scale 0.25
    repro-tlb figure9 --scale 0.25 --panel tables
    repro-tlb validate --scale 0.2
    repro-tlb report --out report.md --scale 0.25
    repro-tlb export-trace --app swim --out swim.npz --scale 0.25
    repro-tlb run --trace-file swim.npz --mechanism DP

Persistent store + service (see README "Persistent store & service")::

    repro-tlb run --app galgel --mechanism DP --store .repro-store
    repro-tlb figure7 --scale 0.25 --store .repro-store   # resumable sweep
    repro-tlb cache stats --store .repro-store
    repro-tlb cache ls --store .repro-store
    repro-tlb cache gc --store .repro-store --max-bytes 100000000
    repro-tlb serve --store .repro-store --port 8321

Distributed sweeps (see README "Distributed sweeps")::

    repro-tlb serve --store .repro-store --port 8321      # scheduler + store
    repro-tlb worker --url http://127.0.0.1:8321 --store .repro-store
    repro-tlb submit --url http://127.0.0.1:8321 --app galgel --app swim --wait
    repro-tlb jobs status --url http://127.0.0.1:8321
    repro-tlb jobs cancel --url http://127.0.0.1:8321 --sweep SWEEP_ID
    repro-tlb figure7 --scale 0.25 --service-url http://127.0.0.1:8321

Observability (see README "Observability")::

    repro-tlb top --url http://127.0.0.1:8321             # live summary + trends
    repro-tlb health --url http://127.0.0.1:8321          # GET /healthz
    repro-tlb alerts --url http://127.0.0.1:8321          # SLO alert states
    repro-tlb trace --url http://127.0.0.1:8321           # list traces
    repro-tlb trace --url http://127.0.0.1:8321 --trace-id ID
    repro-tlb trace --file spans.json --json

(Equivalently ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.analysis.experiments import ExperimentContext
from repro.analysis.tables import compare_table2, compare_table3
from repro.errors import ReproError
from repro.mem.trace_io import load_reference_trace, save_reference_trace
from repro.prefetch.factory import PREFETCHER_NAMES, create_prefetcher
from repro.run import ResultSet, Runner, RunSpec
from repro.sim.engine import ENGINES
from repro.sim.two_phase import evaluate
from repro.store.store import _KINDS as _STORE_KINDS
from repro.workloads.registry import SUITES, all_app_names, get_app, get_trace


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload volume multiplier (1.0 = full traces; default 0.25)",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool size for batch execution (0 = serial)",
    )


def _add_store(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--store",
        required=required,
        help=(
            "persistent experiment store directory (created if missing); "
            "previously executed specs are served from it and new results "
            "are written back"
        ),
    )


def _add_request_timeout(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help=(
            "per-HTTP-request socket timeout in seconds for service "
            "requests (default 30); a hung service fails fast instead "
            "of blocking forever"
        ),
    )


def _add_token(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--token",
        help=(
            "API token for a tenant-mode service (sent as "
            "'Authorization: Bearer <token>'); omit for an open service"
        ),
    )


def _add_service_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--service-url",
        help=(
            "scheduler service address (repro-tlb serve); when given, the "
            "batch is submitted as a distributed sweep and replayed by the "
            "service's worker fleet instead of locally"
        ),
    )
    _add_request_timeout(parser)
    _add_token(parser)


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", required=True, help="scheduler service address (repro-tlb serve)"
    )
    _add_request_timeout(parser)
    _add_token(parser)


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help=(
            "replay engine: auto (the compiled engine when the "
            "mechanism has a compiled loop; stream-sharing groups "
            "replay as one batch), reference (authoritative "
            "object-driven replay), or fast/batch (aliases forcing "
            "the compiled engine); both engines are bit-identical"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tlb",
        description=(
            "Reproduction harness for 'Going the Distance for TLB "
            "Prefetching' (ISCA 2002)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the 56 application models")

    run = sub.add_parser("run", help="run one mechanism on one application")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--app", help="application name (see list-apps)")
    source.add_argument(
        "--trace-file", help="path to a .npz reference trace (see export-trace)"
    )
    run.add_argument(
        "--mechanism", default="DP", choices=sorted(PREFETCHER_NAMES),
        help="prefetch mechanism",
    )
    run.add_argument("--rows", type=int, default=256, help="prediction table rows r")
    run.add_argument("--slots", type=int, default=2, help="prediction slots s")
    run.add_argument("--buffer", type=int, default=16, help="prefetch buffer entries b")
    run.add_argument(
        "--save", help="also write the run as a ResultSet JSON file (path)"
    )
    _add_scale(run)
    _add_engine(run)
    _add_store(run)

    export = sub.add_parser(
        "export-trace", help="write an application's reference trace to .npz"
    )
    export.add_argument("--app", required=True, help="application name")
    export.add_argument("--out", required=True, help="output path (.npz)")
    _add_scale(export)

    validate = sub.add_parser(
        "validate", help="check every app model against its paper claims"
    )
    validate.add_argument("--app", action="append", dest="apps",
                          help="validate only this app (repeatable)")
    _add_scale(validate)

    report = sub.add_parser(
        "report", help="run every experiment and write a Markdown report"
    )
    report.add_argument("--out", required=True, help="output path (.md)")
    report.add_argument(
        "--no-figures", action="store_true",
        help="tables only (much faster)",
    )
    _add_scale(report)

    characterize = sub.add_parser(
        "characterize",
        help="miss rates across the TLB grid (the [18] companion table)",
    )
    characterize.add_argument(
        "--app", action="append", dest="apps",
        help="characterize only this app (repeatable; default: all 56)",
    )
    _add_scale(characterize)

    sub.add_parser("table1", help="regenerate Table 1 (hardware comparison)")

    table2 = sub.add_parser("table2", help="regenerate Table 2 (accuracy averages)")
    _add_scale(table2)
    _add_workers(table2)
    _add_engine(table2)
    _add_store(table2)
    _add_service_url(table2)

    table3 = sub.add_parser("table3", help="regenerate Table 3 (normalized cycles)")
    _add_scale(table3)

    for figure, description in (
        ("figure7", "prediction accuracy, SPEC CPU2000"),
        ("figure8", "prediction accuracy, MediaBench/Etch/PtrDist"),
    ):
        fig = sub.add_parser(figure, help=f"regenerate {figure} ({description})")
        _add_scale(fig)
        _add_workers(fig)
        _add_engine(fig)
        _add_store(fig)
        _add_service_url(fig)

    figure9 = sub.add_parser("figure9", help="regenerate Figure 9 (DP sensitivity)")
    figure9.add_argument(
        "--panel",
        choices=("tables", "slots", "buffers", "tlbs", "all"),
        default="all",
        help="which sensitivity panel to run",
    )
    _add_scale(figure9)
    _add_workers(figure9)
    _add_engine(figure9)
    _add_store(figure9)
    _add_service_url(figure9)

    cache = sub.add_parser(
        "cache", help="inspect and maintain a persistent experiment store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list store entries (LRU order)")
    _add_store(cache_ls, required=True)
    cache_ls.add_argument(
        "--kind", choices=_STORE_KINDS, help="only entries of this kind"
    )
    cache_stats = cache_sub.add_parser(
        "stats", help="store counters + in-memory miss-stream cache counters"
    )
    _add_store(cache_stats, required=True)
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a byte budget"
    )
    _add_store(cache_gc, required=True)
    cache_gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        help="byte budget to shrink the store to (0 evicts everything)",
    )

    serve = sub.add_parser(
        "serve", help="serve a store over HTTP (POST /runs, GET /results, ...)"
    )
    _add_store(serve, required=True)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8321, help="TCP port (0 = any)")
    serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help=(
            "concurrent requests allowed past admission (default 64); "
            "overload beyond the wait queue is shed with 429 + Retry-After"
        ),
    )
    serve.add_argument(
        "--tenant-config",
        help=(
            "JSON file of tenant objects ({name, token, rate, burst, "
            "cost_rate, cost_burst, worker}); when given, every request "
            "must present a configured token and is scoped to its tenant"
        ),
    )
    _add_workers(serve)

    worker = sub.add_parser(
        "worker", help="run one sweep worker against a scheduler service"
    )
    _add_url(worker)
    _add_store(worker)
    # No defaults here: a flag that is not given is not passed, so
    # Worker is the one place these defaults live.
    worker.add_argument(
        "--lease", type=float,
        help="job lease length in seconds (heartbeats extend it)",
    )
    worker.add_argument(
        "--poll", type=float,
        help=(
            "longest an empty claim waits at the server for work, in "
            "seconds"
        ),
    )
    worker.add_argument(
        "--batch", type=int,
        help="jobs claimed, replayed and reported together",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after processing this many jobs (default: run until killed)",
    )
    worker.add_argument("--worker-id", help="override the host:pid:nonce identity")
    worker.add_argument(
        "--crash-after-claims", type=int, default=None, help=argparse.SUPPRESS
    )  # fault injection for the scheduler tests: vanish mid-lease
    worker.add_argument(
        "--slow", type=float, default=0.0, dest="slow_seconds",
        help=argparse.SUPPRESS,
    )  # fault injection: sleep before each replay (kill-mid-sweep tests)

    submit = sub.add_parser(
        "submit", help="submit a sweep to a scheduler service"
    )
    _add_url(submit)
    source = submit.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--app", action="append", dest="apps",
        help="application name (repeatable; crossed with every --mechanism)",
    )
    source.add_argument(
        "--specs-file",
        help="JSON file holding a list of RunSpec dicts (RunSpec.to_dict form)",
    )
    submit.add_argument(
        "--mechanism", action="append", dest="mechanisms",
        choices=sorted(PREFETCHER_NAMES),
        help="prefetch mechanism (repeatable; default DP)",
    )
    submit.add_argument("--rows", type=int, default=256, help="prediction table rows r")
    submit.add_argument("--slots", type=int, default=2, help="prediction slots s")
    submit.add_argument(
        "--buffer", type=int, default=16, help="prefetch buffer entries b"
    )
    submit.add_argument(
        "--sweep-id",
        help="explicit sweep id — resubmitting it resumes the sweep",
    )
    submit.add_argument(
        "--max-attempts", type=int, default=None,
        help="per-job claim budget before a job is parked as failed",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the fleet drains the sweep and print the rows",
    )
    _add_scale(submit)
    _add_engine(submit)

    trace = sub.add_parser(
        "trace", help="inspect distributed traces (ASCII flame or JSON)"
    )
    trace_source = trace.add_mutually_exclusive_group(required=True)
    trace_source.add_argument(
        "--url", help="scheduler service address (repro-tlb serve)"
    )
    trace_source.add_argument(
        "--file", help="JSON span dump (a list of spans, or {'spans': [...]})"
    )
    trace.add_argument(
        "--trace-id",
        help="trace to render; omitted with --url, lists trace summaries",
    )
    trace.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw span JSON instead of the flame rendering",
    )
    _add_request_timeout(trace)
    _add_token(trace)

    top = sub.add_parser(
        "top", help="live one-screen service summary (rps, latency, queues)"
    )
    _add_url(top)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )

    health = sub.add_parser(
        "health", help="componentwise service health (GET /healthz)"
    )
    _add_url(health)

    alerts = sub.add_parser(
        "alerts", help="SLO alert states (GET /alerts); exit 1 if any fire"
    )
    _add_url(alerts)

    jobs = sub.add_parser("jobs", help="inspect or cancel scheduler sweeps")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_status = jobs_sub.add_parser(
        "status", help="queue progress (optionally one sweep)"
    )
    _add_url(jobs_status)
    jobs_status.add_argument("--sweep", help="sweep id to report on")
    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="cancel a sweep's queued jobs"
    )
    _add_url(jobs_cancel)
    jobs_cancel.add_argument("--sweep", required=True, help="sweep id to cancel")

    return parser


def _cmd_list_apps() -> int:
    for suite, specs in SUITES.items():
        print(f"{suite} ({len(specs)} applications):")
        for spec in specs:
            tags = f"  [{','.join(sorted(spec.tags))}]" if spec.tags else ""
            print(f"  {spec.name:<14} {spec.behavior.value}{tags}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace_file:
        from repro.sim.config import SimulationConfig

        prefetcher = create_prefetcher(args.mechanism, rows=args.rows, slots=args.slots)
        trace = load_reference_trace(args.trace_file)
        stats = evaluate(
            trace,
            prefetcher,
            SimulationConfig(buffer_entries=args.buffer),
            engine=args.engine,
        )
        results = ResultSet([stats])
    else:
        get_app(args.app)  # validate name early with a helpful error
        spec = RunSpec.of(
            args.app,
            args.mechanism,
            scale=args.scale,
            buffer_entries=args.buffer,
            engine=args.engine,
            rows=args.rows,
            slots=args.slots,
        )
        results = Runner(store=args.store).run([spec])
        stats = results[0]
    if args.save:
        path = results.save(args.save)
        print(f"result set written to {path}")
    print(stats.one_line())
    print(
        f"  misses={stats.tlb_misses} pb_hits={stats.pb_hits} "
        f"inserted={stats.buffer_inserted} evicted_unused={stats.buffer_evicted_unused} "
        f"overhead_ops={stats.overhead_memory_ops}"
    )
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    get_app(args.app)
    trace = get_trace(args.app, args.scale)
    path = save_reference_trace(trace, args.out)
    print(f"wrote {trace} to {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.workloads.validation import render_report, validate_all

    context = ExperimentContext(scale=args.scale)
    results = validate_all(context, apps=args.apps)
    print(render_report(results))
    return 0 if all(result.passed for result in results) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(scale=args.scale, include_figures=not args.no_figures)
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"report written to {args.out}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterization import (
        associativity_anomalies,
        miss_rate_table,
        render_miss_rates,
    )

    apps = args.apps if args.apps else all_app_names()
    table = miss_rate_table(apps, scale=args.scale)
    print(render_miss_rates(table))
    anomalies = associativity_anomalies(table)
    if anomalies:
        print("\nassociativity anomalies (legitimate LRU behaviour):")
        for anomaly in anomalies:
            print(f"  {anomaly}")
    return 0


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(size)} B"  # pragma: no cover - loop always returns


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.run.runner import SHARED_CACHE
    from repro.store import ExperimentStore

    store = ExperimentStore(args.store)
    if args.cache_command == "ls":
        entries = store.entries(kind=getattr(args, "kind", None))
        if not entries:
            print("store is empty")
            return 0
        print(f"{'kind':<8} {'key':<26} {'size':>10}  workload / mechanism")
        for entry in entries:
            what = entry["workload"] or ""
            if entry["mechanism"]:
                what += f" / {entry['mechanism']}"
            print(
                f"{entry['kind']:<8} {entry['key']:<26} "
                f"{_format_bytes(entry['size_bytes']):>10}  {what}"
            )
        print(f"{len(entries)} entries")
    elif args.cache_command == "stats":
        print("persistent store:")
        for name, value in store.stats().items():
            print(f"  {name:<16} {value}")
        print("in-memory miss-stream cache (this process):")
        for name, value in SHARED_CACHE.stats().items():
            print(f"  {name:<16} {value}")
    elif args.cache_command == "gc":
        report = store.gc(max_bytes=args.max_bytes)
        print(
            f"evicted {report['evicted']} entries, reclaimed "
            f"{_format_bytes(report['reclaimed_bytes'])}; store now "
            f"{_format_bytes(report['total_bytes'])}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        verbose=args.verbose,
        max_inflight=args.max_inflight,
        tenant_config=args.tenant_config,
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.sched import run_worker

    given = {
        option: value
        for option, value in (
            ("lease_seconds", args.lease),
            ("poll_interval", args.poll),
            ("batch", args.batch),
        )
        if value is not None
    }
    return run_worker(
        args.url,
        store=args.store,
        **given,
        max_jobs=args.max_jobs,
        worker_id=args.worker_id,
        crash_after_claims=args.crash_after_claims,
        slow_seconds=args.slow_seconds,
        request_timeout=args.request_timeout,
        token=args.token,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.sched import SchedulerClient

    if args.specs_file:
        specs = json_module.loads(open(args.specs_file).read())
        if not isinstance(specs, list):
            print(f"{args.specs_file}: expected a JSON list of RunSpec dicts")
            return 1
        specs = [RunSpec.from_dict(raw) for raw in specs]
    else:
        mechanisms = args.mechanisms or ["DP"]
        specs = [
            RunSpec.of(
                app,
                mechanism,
                scale=args.scale,
                buffer_entries=args.buffer,
                engine=args.engine,
                rows=args.rows,
                slots=args.slots,
            )
            for app in args.apps
            for mechanism in mechanisms
        ]
    client = SchedulerClient(args.url, timeout=args.request_timeout, token=args.token)
    if args.wait:
        results = client.submit_sweep(
            specs, sweep_id=args.sweep_id, max_attempts=args.max_attempts
        )
        for stats in results:
            print(stats.one_line())
        print(f"{len(results)} rows")
        return 0
    batch = client.submit_jobs(
        [spec.to_dict() for spec in specs],
        sweep_id=args.sweep_id,
        max_attempts=args.max_attempts,
    )
    print(
        f"sweep {batch['sweep_id']}: {batch['total']} jobs "
        f"({batch['queued']} queued, {batch['precompleted']} already stored)"
    )
    print(f"watch it: repro-tlb jobs status --url {args.url} --sweep {batch['sweep_id']}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs import render_flame

    if args.file:
        with open(args.file) as handle:
            payload = json_module.load(handle)
        spans = payload.get("spans", []) if isinstance(payload, dict) else payload
        if args.trace_id:
            spans = [
                span for span in spans if span.get("trace_id") == args.trace_id
            ]
    else:
        from repro.sched import SchedulerClient

        client = SchedulerClient(
            args.url, timeout=args.request_timeout, token=args.token
        )
        if not args.trace_id:
            traces = client.fetch_trace()["traces"]
            if not traces:
                print("no traces collected")
                return 0
            print(f"{'trace id':<18} {'spans':>6} {'duration':>10}  root")
            for summary in traces:
                print(
                    f"{summary['trace_id']:<18} {summary['spans']:>6} "
                    f"{summary['duration'] * 1000.0:>8.1f}ms  {summary['root']}"
                )
            print(f"{len(traces)} trace(s); rerun with --trace-id to render one")
            return 0
        spans = client.fetch_trace(args.trace_id)["spans"]
    if args.as_json:
        print(json_module.dumps(spans, indent=2))
        return 0
    if not spans:
        print("no spans" + (f" for trace {args.trace_id}" if args.trace_id else ""))
        return 1
    print(render_flame(spans))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as time_module
    from collections import deque

    from repro.obs.console import render_top
    from repro.sched import SchedulerClient

    client = SchedulerClient(args.url, timeout=args.request_timeout, token=args.token)
    previous: dict | None = None
    previous_at: float | None = None
    # Per-refresh trend series rendered as sparklines; bounded to the
    # sparkline window so an all-day top never grows.
    trends: dict[str, deque] = {
        name: deque(maxlen=30) for name in ("p99_ms", "rps", "queued")
    }
    try:
        while True:
            stats = client.stats()
            now = time_module.monotonic()
            interval = (
                now - previous_at if previous_at is not None else None
            )
            metrics = stats.get("metrics", {})
            trends["p99_ms"].append(float(metrics.get("http_p99_ms", 0.0)))
            trends["queued"].append(float(stats.get("queue", {}).get("queued", 0)))
            if previous is not None and interval:
                delta = metrics.get("http_requests", 0) - (
                    previous.get("metrics", {}).get("http_requests", 0)
                )
                trends["rps"].append(max(0.0, delta / interval))
            frame = render_top(
                stats,
                previous=previous,
                interval=interval,
                history={name: list(series) for name, series in trends.items()},
            )
            if not args.once:
                # Clear-and-home rather than scroll: one refreshing screen.
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            if args.once:
                return 0
            previous, previous_at = stats, now
            time_module.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.request_timeout, token=args.token)
    try:
        report = client.healthz()
        degraded = False
    except ServiceError as exc:
        if exc.status != 503:
            raise
        report = exc.payload
        degraded = True
    print(f"service {args.url}: {report.get('status', 'unknown')}")
    for name, component in sorted(report.get("components", {}).items()):
        detail = "  ".join(
            f"{key}={value}"
            for key, value in component.items()
            if key not in ("status",)
        )
        print(f"  {name:<10} {component.get('status', '?'):<10} {detail}")
    firing = report.get("firing", [])
    if firing:
        print(f"firing alerts: {', '.join(firing)}")
    return 1 if degraded else 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url, timeout=args.request_timeout, token=args.token)
    payload = client.alerts()
    if not payload.get("enabled", False):
        print("telemetry disabled: no alert engine on this service")
        return 0
    alerts = payload.get("alerts", [])
    print(f"{'alert':<30} {'state':<9} {'value':>10} {'threshold':>10}  component")
    for alert in alerts:
        value = alert.get("value")
        print(
            f"{alert['name']:<30} {alert['state']:<9} "
            f"{'-' if value is None else format(value, '.4g'):>10} "
            f"{alert['op']}{alert['threshold']:<9g}  {alert['component']}"
        )
    firing = payload.get("firing", [])
    print(f"{len(alerts)} rule(s), {len(firing)} firing")
    return 1 if firing else 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.sched import SchedulerClient

    client = SchedulerClient(args.url, timeout=args.request_timeout, token=args.token)
    if args.jobs_command == "status":
        progress = client.progress(getattr(args, "sweep", None))
        scope = progress["sweep_id"] or "all sweeps"
        print(f"{scope}: {progress['total']} jobs")
        for state in ("queued", "running", "done", "failed", "cancelled"):
            print(f"  {state:<10} {progress[state]}")
        for job in progress.get("failed_jobs", []):
            print(f"  failed {job['id']} ({job['spec_key']}): {job['error']}")
        return 0 if not progress["failed"] else 1
    if args.jobs_command == "cancel":
        outcome = client.cancel(args.sweep)
        print(f"sweep {args.sweep}: cancelled {outcome['cancelled']} queued job(s)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library validation errors (unknown engine names in a specs file,
    bad knob values, unreachable services, ...) are reported as one
    ``error:`` line on stderr instead of a traceback from deep inside
    dispatch.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: the Unix-conventional
        # quiet exit, not a traceback. Detach stdout so the interpreter
        # shutdown flush doesn't raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-apps":
        return _cmd_list_apps()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "export-trace":
        return _cmd_export_trace(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "health":
        return _cmd_health(args)
    if args.command == "alerts":
        return _cmd_alerts(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "table1":
        print(ExperimentContext(scale=0.05).run_table1())
        return 0
    if args.command == "table3":
        print(compare_table3(ExperimentContext(scale=args.scale).run_table3()))
        return 0

    runner = Runner(
        workers=args.workers,
        store=args.store,
        service_url=args.service_url,
        request_timeout=args.request_timeout,
        service_token=args.token,
    )
    context = ExperimentContext(scale=args.scale, runner=runner, engine=args.engine)
    if args.command == "table2":
        print(compare_table2(context.run_table2()))
    elif args.command == "figure7":
        print(context.render_figure(context.run_figure7(), "Figure 7: SPEC CPU2000"))
    elif args.command == "figure8":
        print(
            context.render_figure(
                context.run_figure8(), "Figure 8: MediaBench / Etch / PtrDist"
            )
        )
    elif args.command == "figure9":
        panels = {
            "tables": ("Figure 9a: DP table size x associativity", context.run_figure9_tables),
            "slots": ("Figure 9b: DP prediction slots", context.run_figure9_slots),
            "buffers": ("Figure 9c: prefetch buffer size", context.run_figure9_buffers),
            "tlbs": ("Figure 9d: TLB size", context.run_figure9_tlbs),
        }
        selected = panels if args.panel == "all" else {args.panel: panels[args.panel]}
        for title, run_panel in selected.values():
            print(context.render_figure(run_panel(), title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
