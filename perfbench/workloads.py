"""The three workloads, one iteration at a time.

Each ``iteration`` call returns an :class:`Iteration`: its set-up and
wall times, the work it delivered, its peak RSS, how many operations it
attempted and how many failed, and — for traced iterations — the ledger
segments and counts of every process that took part, plus the wall
window they are attributed over.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import ledger as ledger_mod

CHILD = Path(__file__).resolve().parent / "child.py"

#: Scale of every workload: the CLI default, the one users run.
SCALE = 0.25
#: Chunks each streaming session is cut into; the server is replaced
#: after half of them, so every session resumes exactly once.
STREAM_CHUNKS = 6
#: Pause before each host-speed probe, so that nothing the iteration
#: left behind (server threads winding down, the worker exiting) runs
#: beside the probe.
SETTLE_S = 0.1


def main_rss_mib() -> float:
    """Peak RSS of the benchmark's main process, which hosts the server.

    It is the process's lifetime peak, so it also holds the benchmark's
    own share (its imports, the reference rows); the server's traces and
    sessions are the bulk of it.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Iteration:
    traced: bool
    setup_s: float
    wall_s: float
    specs: int
    entries: int
    peak_rss_mib: float
    attempted: int
    failed: int
    window: tuple[float, float]
    segments: list = dataclasses.field(default_factory=list)
    counts: dict = dataclasses.field(default_factory=dict)
    latencies_s: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)


class Context:
    """What every workload shares: paths, seed, expected outputs."""

    def __init__(
        self, root: Path, work: Path, seed: int, expected: dict, trace: bool
    ) -> None:
        self.root = root
        self.work = work
        self.rng = random.Random(seed)
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.main_ledger = ledger_mod.Ledger()
        if trace:
            ledger_mod.install(self.main_ledger, "main")
        self._count = 0

    def scratch(self, name: str) -> Path:
        self._count += 1
        path = self.work / f"{name}-{self._count}"
        path.mkdir(parents=True)
        return path

    def child(self, *args: str) -> list[str]:
        return [sys.executable, str(CHILD), *args]

    def calibrate(self) -> float:
        """One host-speed probe, in a fresh process so no state of the
        main process (heap size, leftover threads) can slow it."""
        time.sleep(SETTLE_S)
        proc = subprocess.run(
            self.child("calibrate"), capture_output=True, text=True, check=True
        )
        return float(proc.stdout)

    def begin(self, traced: bool) -> None:
        self.main_ledger.reset()
        self.main_ledger.enabled = traced

    def end(self) -> dict:
        self.main_ledger.enabled = False
        return self.main_ledger.export()


def merge_counts(*parts: dict) -> dict:
    merged: dict = {}
    for part in parts:
        for name, value in part.items():
            merged[name] = merged.get(name, 0) + value
    return merged


def paper_error(summary: dict) -> float:
    from repro.analysis.tables import PAPER_TABLE2

    gaps = [
        abs(summary[scheme][field] - paper)
        for scheme, pair in PAPER_TABLE2.items()
        for field, paper in zip(("average", "weighted"), pair)
    ]
    return sum(gaps) / len(gaps)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _start_server(store_root: Path, tenants=()):
    from repro.service.server import make_server
    from repro.store import ExperimentStore

    store = ExperimentStore(store_root)
    server = make_server(store, tenants=tenants)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server, thread


def _stop_server(server, thread) -> None:
    server.shutdown()
    thread.join()
    server.server_close()
    server.service.queue.close()
    server.service.store.close()


# ---------------------------------------------------------------------------
# table2_cold
# ---------------------------------------------------------------------------


class Table2Cold:
    """``repro-tlb table2`` in a fresh process per iteration."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.expected = ctx.expected["table2"]

    def iteration(self, traced: bool) -> Iteration:
        ctx = self.ctx
        out = ctx.scratch("table2") / "report.json"
        t_launch = time.monotonic()
        proc = subprocess.run(
            ctx.child("table2", str(out), "1" if traced else "0"),
            env=ctx.env,
            cwd=ctx.root,
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"table2 child failed:\n{proc.stderr}")
        report = json.loads(out.read_text())
        problems = []
        if report["code"] != 0:
            problems.append(f"repro-tlb table2 exited {report['code']}")
        if report["rows_sha256"] != self.expected["rows_sha256"]:
            problems.append("table2 rows differ from the reference engine's")
        if sha256(proc.stdout) != self.expected["table_sha256"]:
            problems.append("printed Table 2 differs from the reference engine's")
        error = paper_error(report["summary"])
        if error != self.expected["paper_error"]:
            problems.append(f"paper_error {error!r} != {self.expected['paper_error']!r}")
        ledger = report["ledger"] or {"segments": [], "counts": {}}
        counts = dict(ledger["counts"], paper_error=error)
        return Iteration(
            traced=traced,
            setup_s=report["t_ready"] - t_launch,
            wall_s=report["t_done"] - t_launch,
            specs=len(report["rows"]),
            entries=sum(row["tlb_misses"] for row in report["rows"]),
            peak_rss_mib=report["peak_rss_mib"],
            attempted=len(report["rows"]),
            failed=len(report["rows"]) if problems else 0,
            window=(t_launch, report["t_done"]),
            segments=ledger["segments"],
            counts=counts,
            problems=problems,
        )


# ---------------------------------------------------------------------------
# sweep_service
# ---------------------------------------------------------------------------


class SweepService:
    """Figure-7 legend x high-miss apps through service, queue and worker."""

    CLIENT_TOKEN = "bench-client-token"
    WORKER_TOKEN = "bench-worker-token"

    def __init__(self, ctx: Context) -> None:
        from repro.analysis.figures import figure7_configs
        from repro.analysis.experiments import ExperimentContext
        from repro.workloads.registry import HIGH_MISS_APPS

        self.ctx = ctx
        experiment = ExperimentContext(scale=SCALE)
        self.apps = HIGH_MISS_APPS
        self.specs = [
            experiment.spec(app, config.mechanism, **config.factory_params())
            for app in HIGH_MISS_APPS
            for config in figure7_configs()
        ]
        # The reference rows: one in-process Runner run, in a child so
        # its memory does not count against the main (server) process.
        work = ctx.scratch("sweep-reference")
        (work / "specs.json").write_text(
            json.dumps([spec.to_dict() for spec in self.specs])
        )
        subprocess.run(
            ctx.child("rows", str(work / "rows.json"), str(work / "specs.json")),
            env=ctx.env,
            cwd=ctx.root,
            check=True,
            timeout=170,
        )
        runs = json.loads((work / "rows.json").read_text())["runs"]
        self.reference = {
            spec.key(): run for spec, run in zip(self.specs, runs)
        }

    def _draw(self) -> tuple[list, list]:
        """Seeded inputs: the pre-stored half and the submission order.

        The half is stratified by app and mechanism: half of each app's
        MP, DP and ASP configs, and the one RP spec of four of the eight
        apps. Every app keeps specs to replay, so the worker's cache and
        store counts are the same on every seed, and every seed replays
        about the same amount of work.
        """
        rng = self.ctx.rng
        groups: dict[tuple[str, str], list] = {}
        for spec in self.specs:
            groups.setdefault((spec.workload, spec.mechanism.name), []).append(spec)
        rp_stored = set(rng.sample(self.apps, len(self.apps) // 2))
        stored = []
        for (app, mechanism), specs in groups.items():
            if len(specs) > 1:
                stored += rng.sample(specs, len(specs) // 2)
            elif app in rp_stored:
                stored += specs
        order = list(self.specs)
        rng.shuffle(order)
        return stored, order

    def iteration(self, traced: bool) -> Iteration:
        from repro.sched import SchedulerClient
        from repro.service.admission import TenantConfig
        from repro.sim.stats import PrefetchRunStats
        from repro.store import ExperimentStore

        ctx = self.ctx
        stored, order = self._draw()
        work = ctx.scratch("sweep")
        with ExperimentStore(work / "store") as store:
            store.put_results(
                (spec, PrefetchRunStats(**self.reference[spec.key()]))
                for spec in stored
            )
            prestored_bytes = store.stats()["bytes_written"]
        unlimited = {"rate": 1e9, "burst": 1e9, "cost_rate": 1e9, "cost_burst": 1e9}
        tenants = (
            TenantConfig(name="bench", token=self.CLIENT_TOKEN, worker=False, **unlimited),
            TenantConfig(name="fleet", token=self.WORKER_TOKEN, worker=True, **unlimited),
        )
        report_path = work / "worker.json"
        t_setup = time.monotonic()
        server, thread = _start_server(work / "store", tenants)
        worker = subprocess.Popen(
            ctx.child(
                "worker", str(report_path), "1" if traced else "0",
                server.url, self.WORKER_TOKEN,
            ),
            env=ctx.env,
            cwd=ctx.root,
            stdout=subprocess.PIPE,
            text=True,
        )
        problems: list[str] = []
        try:
            announce = worker.stdout.readline()
            t_ready = time.monotonic()
            if "polling" not in announce:
                raise RuntimeError(f"worker did not start: {announce!r}")
            client = SchedulerClient(server.url, token=self.CLIENT_TOKEN)
            ctx.begin(traced)
            t_start = time.monotonic()
            try:
                rows = client.submit_sweep(order)
            finally:
                t_end = time.monotonic()
                main = ctx.end()
            rss = main_rss_mib()
            progress = server.service.queue.stats()
            written = server.service.store.stats()["bytes_written"] - prestored_bytes
        finally:
            # Server first: the worker then sits in a refused-claim retry,
            # never in a half-answered request, when SIGINT lands.
            _stop_server(server, thread)
            tail = _stop_child(worker)
        report = json.loads(report_path.read_text())
        if worker.returncode != 0 or " 0 failed" not in tail:
            problems.append(f"worker reported failures: {tail.strip()!r}")
        mismatched = sum(
            json.dumps(dataclasses.asdict(row), sort_keys=True)
            != json.dumps(self.reference[spec.key()], sort_keys=True)
            for spec, row in zip(order, rows)
        )
        if len(rows) != len(order) or mismatched:
            problems.append(f"{mismatched} sweep rows differ from the in-process run")
        worker_ledger = report["ledger"] or {"segments": [], "counts": {}}
        counters = progress["counters"]
        counts = merge_counts(
            main["counts"],
            worker_ledger["counts"],
            {
                "sched.queue.requeues": counters.get("leases_requeued", 0)
                + counters.get("retries", 0),
                "store.bytes_written": written,
            },
        )
        stored_keys = {spec.key() for spec in stored}
        shutil.rmtree(work, ignore_errors=True)
        return Iteration(
            traced=traced,
            setup_s=t_ready - t_setup,
            wall_s=t_end - t_start,
            specs=len(rows),
            entries=sum(
                run["tlb_misses"]
                for key, run in self.reference.items()
                if key not in stored_keys
            ),
            # Rows delivered plus the worker; peak RSS of both processes.
            peak_rss_mib=rss + report["peak_rss_mib"],
            attempted=len(order) + 1,
            failed=mismatched + len(order) - len(rows) + bool(problems),
            window=(t_start, t_end),
            segments=main["segments"] + worker_ledger["segments"],
            counts=counts,
            problems=problems,
        )


def _stop_child(child: subprocess.Popen) -> str:
    """SIGINT ends a worker or server child cleanly; returns its remaining
    output."""
    child.send_signal(signal.SIGINT)
    try:
        return child.communicate(timeout=30)[0]
    except subprocess.TimeoutExpired:
        child.kill()
        return child.communicate()[0] + " (killed)"


# ---------------------------------------------------------------------------
# stream_checkpointed
# ---------------------------------------------------------------------------


class StreamCheckpointed:
    """Checkpointed ``/streams`` sessions across a server replacement.

    The server runs in a process of its own, as ``repro-tlb serve``
    would, so its replacement starts cold and its peak RSS is its own.
    """

    def __init__(self, ctx: Context) -> None:
        from repro.analysis.experiments import TABLE2_MECHANISMS, ExperimentContext
        from repro.workloads.registry import HIGH_MISS_APPS

        self.ctx = ctx
        experiment = ExperimentContext(scale=SCALE)
        self.specs = [
            experiment.spec(app, mechanism, rows=256, ways=1, slots=2)
            for app in HIGH_MISS_APPS
            for mechanism in TABLE2_MECHANISMS
        ]
        self.finals: list[list[dict | None]] = []

    def _plan(self, totals: list[int]) -> list[list[int]]:
        """Seeded chunk sizes: random cut points, STREAM_CHUNKS per stream."""
        rng = self.ctx.rng
        plans = []
        for total in totals:
            cuts = sorted(rng.sample(range(1, total), STREAM_CHUNKS - 1))
            bounds = [0, *cuts, total]
            plans.append([b - a for a, b in zip(bounds, bounds[1:])])
        return plans

    def _launch(self, store: Path, report: Path, traced: bool):
        """A server process over ``store``: (process, URL, launch-to-listen s)."""
        ctx = self.ctx
        began = time.monotonic()
        server = subprocess.Popen(
            ctx.child("server", str(report), "1" if traced else "0", str(store)),
            env=ctx.env,
            cwd=ctx.root,
            stdout=subprocess.PIPE,
            text=True,
        )
        url = server.stdout.readline().strip()
        elapsed = time.monotonic() - began
        if not url.startswith("http://"):
            _stop_child(server)
            raise RuntimeError(f"server did not start: {url!r}")
        return server, url, elapsed

    def iteration(self, traced: bool) -> Iteration:
        from repro.service import ServiceClient, ServiceError
        from repro.store import ExperimentStore

        ctx = self.ctx
        rng = ctx.rng
        work = ctx.scratch("stream")
        store = work / "store"
        reports = [work / "server-first.json", work / "server-second.json"]
        server, url, first_s = self._launch(store, reports[0], traced)
        client = ServiceClient(url)
        ids = [f"s{index}" for index in range(len(self.specs))]
        latencies: list[float] = []
        finals: list[dict | None] = [None] * len(self.specs)
        attempted = failed = 0
        problems: list[str] = []
        ctx.begin(traced)
        t_start = time.monotonic()
        try:
            totals = []
            for session_id, spec in zip(ids, self.specs):
                attempted += 1
                opened = client.stream_open(spec.to_dict(), session_id=session_id)
                totals.append(opened["total"])
            plans = self._plan(totals)
            for chunk in range(STREAM_CHUNKS):
                if chunk == STREAM_CHUNKS // 2:
                    _stop_child(server)
                    server, url, second_s = self._launch(store, reports[1], traced)
                    client = ServiceClient(url)
                order = list(range(len(ids)))
                rng.shuffle(order)
                for index in order:
                    count = plans[index][chunk]
                    attempted += 1
                    began = time.monotonic()
                    try:
                        reply = client.stream_advance(ids[index], count)
                    except ServiceError as error:
                        failed += 1
                        problems.append(str(error))
                        continue
                    latencies.append(time.monotonic() - began)
                    if reply["advanced"] != count:
                        failed += 1
                        problems.append(f"{ids[index]} advanced {reply['advanced']} of {count}")
                    if chunk == STREAM_CHUNKS - 1:
                        finals[index] = reply["stats"] if reply["finished"] else None
        finally:
            t_end = time.monotonic()
            main = ctx.end()
            _stop_child(server)
        servers = [json.loads(report.read_text()) for report in reports]
        with ExperimentStore(store) as opened:
            bytes_written = opened.stats()["bytes_written"]
        self.finals.append(finals)
        shutil.rmtree(work, ignore_errors=True)
        ledgers = [main] + [
            served["ledger"] or {"segments": [], "counts": {}} for served in servers
        ]
        counts = merge_counts(*(ledger["counts"] for ledger in ledgers))
        counts["store.bytes_written"] = bytes_written
        return Iteration(
            traced=traced,
            # Both launches: the first server's and its replacement's,
            # which also counts in the wall time.
            setup_s=(first_s + second_s) / 2,
            wall_s=t_end - t_start,
            specs=sum(final is not None for final in finals),
            entries=sum(totals),
            peak_rss_mib=max(served["peak_rss_mib"] for served in servers),
            attempted=attempted,
            failed=failed,
            window=(t_start, t_end),
            segments=[segment for ledger in ledgers for segment in ledger["segments"]],
            counts=counts,
            latencies_s=latencies,
            problems=problems,
        )

    def check(self) -> tuple[int, int, list[str]]:
        """Every session's final stats against one ``POST /runs`` batch."""
        from repro.service import ServiceClient

        work = self.ctx.scratch("stream-check")
        server, thread = _start_server(work / "store")
        try:
            runs = ServiceClient(server.url).submit(
                [spec.to_dict() for spec in self.specs]
            )["runs"]
        finally:
            _stop_server(server, thread)
        shutil.rmtree(work, ignore_errors=True)
        attempted = failed = 0
        for finals in self.finals:
            for final, run in zip(finals, runs):
                attempted += 1
                if json.dumps(final, sort_keys=True) != json.dumps(run, sort_keys=True):
                    failed += 1
        problems = [f"{failed} stream results differ from POST /runs"] if failed else []
        return attempted, failed, problems


WORKLOADS = {
    "table2_cold": Table2Cold,
    "sweep_service": SweepService,
    "stream_checkpointed": StreamCheckpointed,
}
