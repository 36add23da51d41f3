"""Subprocess entry points of the benchmark.

``python3 perfbench/child.py table2 OUT TRACE``
    One cold ``repro-tlb table2`` (default scale 0.25, ``engine=auto``,
    no store): time ``import repro``, run the CLI, then write timings,
    a digest of the 224 rows, the Table 2 summary and peak RSS to OUT.
``python3 perfbench/child.py worker OUT TRACE URL TOKEN``
    One ``repro-tlb worker`` loop (``run_worker``) until SIGINT; then
    write peak RSS and, when traced, the ledger to OUT.
``python3 perfbench/child.py server OUT TRACE STORE``
    One service (``make_server``) over the store directory STORE, serving
    until SIGINT; prints its URL once it listens, then writes peak RSS
    and, when traced, the ledger to OUT.
``python3 perfbench/child.py rows OUT SPECS``
    The reference rows: one in-process ``Runner().run`` of the specs in
    the JSON file SPECS, written to OUT.
``python3 perfbench/child.py calibrate``
    Print the median time of a fixed pure-Python loop, which measures
    how fast the host runs the interpreter right now.

With TRACE set to 1 the same wrappers as the main process's are installed
(:mod:`ledger`) and the recorded segments go back in OUT.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import ledger as ledger_mod


def peak_rss_mib() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rows_digest(results) -> str:
    return hashlib.sha256(results.to_json().encode()).hexdigest()


def run_table2_cli(argv: list[str]):
    """Run ``repro-tlb`` on ``argv``, keeping Table 2's rows and summary.

    Returns ``(exit code, ResultSet, summary)``. The rows are caught at
    ``ExperimentContext.run_specs`` and the summary at ``run_table2``,
    one call each, so the CLI runs unchanged.
    """
    from repro.analysis.experiments import ExperimentContext
    from repro.cli import main

    captured: dict = {}
    run_specs = ExperimentContext.run_specs
    run_table2 = ExperimentContext.run_table2

    def keep_rows(self, specs):
        captured["rows"] = run_specs(self, specs)
        return captured["rows"]

    def keep_summary(self, *args, **kwargs):
        captured["summary"] = run_table2(self, *args, **kwargs)
        return captured["summary"]

    ExperimentContext.run_specs = keep_rows
    ExperimentContext.run_table2 = keep_summary
    try:
        code = main(argv)
    finally:
        ExperimentContext.run_specs = run_specs
        ExperimentContext.run_table2 = run_table2
    return code, captured["rows"], captured["summary"]


def table2(out: Path, traced: bool) -> int:
    ledger = ledger_mod.Ledger()
    ledger.enabled = traced
    frame = ledger.enter("startup.import") if traced else None
    import repro  # noqa: F401 - the import is what is timed

    if traced:
        ledger.exit(frame)
    t_ready = time.monotonic()
    if traced:
        ledger.enabled = False
        ledger_mod.install(ledger, "main")
        ledger.enabled = True

    code, rows, summary = run_table2_cli(["table2"])
    sys.stdout.flush()
    t_done = time.monotonic()
    ledger.enabled = False
    report = {
        "code": code,
        "t_ready": t_ready,
        "t_done": t_done,
        "peak_rss_mib": peak_rss_mib(),
        "rows_sha256": rows_digest(rows),
        "rows": [
            {"workload": row.workload, "tlb_misses": row.tlb_misses} for row in rows
        ],
        "summary": summary,
        "ledger": ledger.export() if traced else None,
    }
    out.write_text(json.dumps(report))
    return 0


def _exit_with_parent() -> None:
    """Interrupt this process once the benchmark that started it is gone."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGINT)


def worker(out: Path, traced: bool, url: str, token: str) -> int:
    import repro.sched.worker as worker_mod

    threading.Thread(target=_exit_with_parent, daemon=True).start()
    ledger = ledger_mod.Ledger()
    if traced:
        ledger_mod.install(ledger, "worker")
        ledger.enabled = True
    try:
        code = worker_mod.run_worker(url, token=token)
    finally:
        ledger.enabled = False
        report = {
            "peak_rss_mib": peak_rss_mib(),
            "ledger": ledger.export() if traced else None,
        }
        out.write_text(json.dumps(report))
    return code


def server(out: Path, traced: bool, store: Path) -> int:
    from repro.service.server import make_server

    threading.Thread(target=_exit_with_parent, daemon=True).start()
    ledger = ledger_mod.Ledger()
    if traced:
        ledger_mod.install(ledger, "main")
        ledger.enabled = True
    served = make_server(store)
    thread = threading.Thread(
        target=served.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    print(served.url, flush=True)
    try:
        while True:
            signal.pause()
    except KeyboardInterrupt:
        pass
    finally:
        ledger.enabled = False
        served.shutdown()
        thread.join()
        served.server_close()
        served.service.queue.close()
        served.service.store.close()
        report = {
            "peak_rss_mib": peak_rss_mib(),
            "ledger": ledger.export() if traced else None,
        }
        out.write_text(json.dumps(report))
    return 0


def rows(out: Path, specs_path: Path) -> int:
    from repro import Runner, RunSpec

    specs = [RunSpec.from_dict(raw) for raw in json.loads(specs_path.read_text())]
    results = Runner().run(specs)
    out.write_text(results.to_json())
    return 0


def calibrate() -> int:
    """Print the median time of a fixed interpreter loop (host speed)."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        table: dict[int, int] = {}
        for index in range(150_000):
            table[index % 4093] = table.get(index % 4093, 0) + index
        json.loads(json.dumps(list(range(30_000))))
        times.append(time.perf_counter() - began)
    print(statistics.median(times))
    return 0


def main(argv: list[str]) -> int:
    if argv == ["calibrate"]:
        return calibrate()
    command, out = argv[0], Path(argv[1])
    if command == "table2":
        return table2(out, argv[2] == "1")
    if command == "worker":
        return worker(out, argv[2] == "1", argv[3], argv[4])
    if command == "server":
        return server(out, argv[2] == "1", Path(argv[3]))
    if command == "rows":
        return rows(out, Path(argv[2]))
    raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
