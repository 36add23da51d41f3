"""The repository's benchmark: one command, three default-path workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2_cold --seed 1 --seconds 40 --trace 0

``--workload`` is ``table2_cold``, ``sweep_service`` or
``stream_checkpointed`` (see ``METRICS.md``). Iterations repeat until
``--seconds`` have passed; every output is checked on every iteration.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the run's iterations with tracing off. With ``--trace 1`` iterations
alternate untraced and traced, and the metrics are the per-layer
ledger, means over the traced iterations: self time of each layer's
public calls, counts, and ``trace.unattributed_s``, so the layers sum
to the traced wall time.
A failed output check prints the result with ``correct: false`` and
exits 1.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Iterations a run makes however short ``--seconds`` is.
MIN_ITERATIONS = 3

#: Host-speed reference. The shared host's speed drifts by a fifth and
#: more over minutes, far beyond what a run's median can average out,
#: so the run starts and each iteration is followed by a fixed
#: interpreter loop (``child.py calibrate``, after a short pause so the
#: iteration has wound down). Each iteration's times are reported as if
#: that loop had taken CALIBRATION_S: raw time x CALIBRATION_S / the
#: mean of the loop times just before and just after the iteration.
#: ``host.calibration_ms`` keeps the run's median loop time.
CALIBRATION_S = 0.04

#: Counts that must repeat exactly on every traced iteration (and every
#: run of the same program): a speed-only change leaves them alone.
EXACT_COUNTS = (
    "workloads.refs",
    "sim.filter.misses",
    "run.cache.hit_ratio",
    "store.result_hit_ratio",
    "ckpt.resumes",
    "sched.worker.runner_calls",
    "sim.replay.batched_fraction",
    "paper_error",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(records: list, speeds: list[float]) -> dict:
    """Medians of the untraced iterations, each iteration's times scaled
    by its entry in ``speeds``."""
    plain = [(r, speed) for r, speed in zip(records, speeds) if not r.traced]
    return {
        "setup_s": (median([r.setup_s * speed for r, speed in plain]), "s"),
        "wall_s": (median([r.wall_s * speed for r, speed in plain]), "s"),
        "specs_per_s": (
            median([r.specs / (r.wall_s * speed) for r, speed in plain]), "specs/s"
        ),
        "entries_per_s": (
            median([r.entries / (r.wall_s * speed) for r, speed in plain]),
            "entries/s",
        ),
        "peak_rss_mb": (median([r.peak_rss_mib for r, _ in plain]), "MiB"),
    }


def per_layer(records: list) -> tuple[dict, list[str]]:
    from ledger import attribute, layer_metrics

    traced = [record for record in records if record.traced]
    plain = [record for record in records if not record.traced]
    problems = []
    self_sum: dict[str, float] = {}
    count_sum: dict[str, float] = {}
    unattributed_sum = 0.0
    rows = []
    for record in traced:
        self_times, unattributed = attribute(record.segments, *record.window)
        rows.append(layer_metrics(self_times, unattributed, record.counts, record.wall_s))
        for key, value in self_times.items():
            self_sum[key] = self_sum.get(key, 0.0) + value
        for key, value in record.counts.items():
            count_sum[key] = count_sum.get(key, 0.0) + value
        unattributed_sum += unattributed
    for name in EXACT_COUNTS:
        seen = {row[name][0] for row in rows}
        if len(seen) > 1:
            problems.append(f"{name} differs between iterations: {sorted(seen)}")
    # Means, not medians, over the traced iterations: means add up, so
    # the self times plus the unattributed time still sum to the wall.
    n = len(traced)
    traced_wall = statistics.fmean(record.wall_s for record in traced)
    metrics = layer_metrics(
        {key: value / n for key, value in self_sum.items()},
        unattributed_sum / n,
        {key: value / n for key, value in count_sum.items()},
        traced_wall,
    )
    metrics.update({name: rows[0][name] for name in EXACT_COUNTS})
    metrics["trace.overhead_fraction"] = (
        traced_wall / statistics.fmean(record.wall_s for record in plain) - 1.0,
        "ratio",
    )
    samples = [record.latencies_s for record in plain if record.latencies_s]
    metrics["stream.advance_samples"] = (
        median([len(sample) for sample in samples]), "count"
    )
    metrics["stream.advance_p50_ms"] = (
        median([percentile(sample, 0.5) * 1e3 for sample in samples]), "ms"
    )
    metrics["stream.advance_p90_ms"] = (
        median([percentile(sample, 0.9) * 1e3 for sample in samples]), "ms"
    )
    return metrics, problems


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # A terminated run still stops its servers and worker and removes
    # its work directory: SIGTERM unwinds through the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile the sources first, as an installed package would be:
    # cold processes then import as they would for a user, not compile
    # every module anew (the environment may forbid writing bytecode).
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(ROOT, work, args.seed, expected, bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](ctx)
        records = []
        probes = [ctx.calibrate()]
        minimum = MIN_ITERATIONS + (1 if args.trace else 0)
        deadline = time.monotonic() + args.seconds
        while len(records) < minimum or time.monotonic() < deadline:
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(workload.iteration(traced))
            probes.append(ctx.calibrate())
        calibration = median(probes)
        speeds = [
            CALIBRATION_S * 2 / (before + after)
            for before, after in zip(probes, probes[1:])
        ]
        attempted = sum(record.attempted for record in records)
        failed = sum(record.failed for record in records)
        problems = [p for record in records for p in record.problems]
        if hasattr(workload, "check"):
            more_attempted, more_failed, more_problems = workload.check()
            attempted += more_attempted
            failed += more_failed
            problems += more_problems
        if args.trace:
            metrics, count_problems = per_layer(records)
            problems += count_problems
            for name, value in expected["counts"][args.workload].items():
                if metrics[name][0] != value:
                    problems.append(f"{name} is {metrics[name][0]!r}, expected {value!r}")
            metrics["failed_fraction"] = (failed / attempted, "ratio")
            metrics["host.calibration_ms"] = (calibration * 1e3, "ms")
        else:
            metrics = end_to_end(records, speeds)
            raw = end_to_end(records, [1.0] * len(records))
            print(
                f"raw medians: setup_s {raw['setup_s'][0]:.4f}, "
                f"wall_s {raw['wall_s'][0]:.4f}; calibration loop "
                f"{calibration * 1e3:.2f} ms",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: {len(records)} iterations "
        f"({sum(r.traced for r in records)} traced)",
        file=sys.stderr,
    )
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
