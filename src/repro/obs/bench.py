"""Benchmark history: append-only JSONL records and regression compare.

The smoke benchmark (``benchmarks/smoke.py --history ...``) appends one
schema-versioned line per run to ``benchmarks/results/BENCH_history.jsonl``;
``repro-tlb bench compare`` diffs the newest record against a baseline
window of earlier ones with per-metric tolerances and exits nonzero on
a regression — the perf-regression observatory CI leans on.

Every line carries provenance the *caller* supplies (``git_sha``,
``timestamp``); this module never shells out to git or reads the clock,
so records are reproducible and the diff logic is pure. Comparisons are
only meaningful between records from the same machine — CI therefore
benches twice on one runner and compares with ``--baseline-window 1``
rather than diffing CI wall-clock against a record committed elsewhere.

Three tolerance kinds cover the smoke record's shapes:

- ``higher``: throughput-like, higher is better. Regressed when the
  latest falls more than ``tolerance`` (fractional) below the baseline
  window's mean — ``specs_per_second`` at 0.15 catches a 20% drop.
- ``lower``: latency-like, lower is better; mirrored check.
- ``ceiling``: an absolute budget on the latest value alone (overhead
  fractions); the baseline window is ignored.

Metrics missing from either side are reported as skipped, never
regressed — a record predating a metric must not fail the gate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ObsError

#: Version stamp on every history line.
BENCH_SCHEMA = "repro.bench/v1"

#: Per-metric regression tolerances for the smoke record. Fractional
#: slack for ratio kinds; the absolute budget for ``ceiling`` kinds.
DEFAULT_TOLERANCES: dict[str, dict[str, float | str]] = {
    "specs_per_second": {"kind": "higher", "tolerance": 0.15},
    "stream_entries_per_second": {"kind": "higher", "tolerance": 0.30},
    "warm_start_speedup": {"kind": "higher", "tolerance": 0.40},
    "store_cold_overhead_fraction": {"kind": "ceiling", "tolerance": 0.10},
    "obs_overhead_fraction": {"kind": "ceiling", "tolerance": 0.05},
}


def append_history(
    path: str | Path,
    record: dict[str, Any],
    git_sha: str | None = None,
    timestamp: float | None = None,
) -> dict[str, Any]:
    """Append one benchmark record as a schema-stamped JSONL line.

    ``git_sha`` and ``timestamp`` are provenance the caller passes in
    (CI knows its SHA; a local run can say ``--git-sha $(git
    rev-parse HEAD)``) — deliberately not computed here. Returns the
    full line written.
    """
    line = {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha,
        "timestamp": timestamp,
        "record": dict(record),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """Parse a history file; schema-checked, oldest first.

    Raises :class:`~repro.errors.ObsError` for unreadable JSON or a
    line whose schema stamp is missing/foreign — history is an input
    to a CI gate, so silently skipping corrupt lines could hide the
    very regression the gate exists to catch.
    """
    path = Path(path)
    if not path.exists():
        raise ObsError(f"no benchmark history at {path}")
    records: list[dict[str, Any]] = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{number}: history line is not JSON: {exc}")
        if not isinstance(line, dict) or line.get("schema") != BENCH_SCHEMA:
            raise ObsError(
                f"{path}:{number}: expected schema {BENCH_SCHEMA!r}, "
                f"got {line.get('schema') if isinstance(line, dict) else line!r}"
            )
        if not isinstance(line.get("record"), dict):
            raise ObsError(f"{path}:{number}: history line has no 'record' object")
        records.append(line)
    return records


def compare_history(
    history: list[dict[str, Any]],
    baseline_window: int = 5,
    tolerances: dict[str, dict[str, float | str]] | None = None,
) -> dict[str, Any]:
    """Diff the newest record against the mean of the window before it.

    Returns ``{"regressed": bool, "baseline_runs": n, "metrics": [...]}``
    where each metric entry carries the baseline mean, the latest
    value, the tolerance applied, and its verdict (``ok`` /
    ``regressed`` / ``skipped``). Needs at least two records unless
    every tolerance is a ``ceiling`` (which only reads the latest).
    """
    if tolerances is None:
        tolerances = DEFAULT_TOLERANCES
    if not history:
        raise ObsError("benchmark history is empty; nothing to compare")
    if baseline_window < 1:
        raise ObsError(f"baseline_window must be >= 1, got {baseline_window}")
    latest = history[-1]["record"]
    window = [line["record"] for line in history[-1 - baseline_window:-1]]
    metrics: list[dict[str, Any]] = []
    regressed = False
    for metric, spec in tolerances.items():
        kind = spec["kind"]
        tolerance = float(spec["tolerance"])
        value = latest.get(metric)
        entry: dict[str, Any] = {
            "metric": metric,
            "kind": kind,
            "tolerance": tolerance,
            "latest": value,
            "baseline": None,
            "verdict": "skipped",
        }
        if isinstance(value, (int, float)):
            if kind == "ceiling":
                entry["verdict"] = "regressed" if value > tolerance else "ok"
            else:
                samples = [
                    line[metric]
                    for line in window
                    if isinstance(line.get(metric), (int, float))
                ]
                if samples:
                    baseline = sum(samples) / len(samples)
                    entry["baseline"] = baseline
                    if kind == "higher":
                        bad = value < baseline * (1.0 - tolerance)
                    elif kind == "lower":
                        bad = value > baseline * (1.0 + tolerance)
                    else:
                        raise ObsError(
                            f"tolerance for {metric!r} has unknown kind {kind!r}"
                        )
                    entry["verdict"] = "regressed" if bad else "ok"
        regressed = regressed or entry["verdict"] == "regressed"
        metrics.append(entry)
    return {
        "regressed": regressed,
        "baseline_runs": len(window),
        "latest_git_sha": history[-1].get("git_sha"),
        "metrics": metrics,
    }


def format_compare(report: dict[str, Any]) -> str:
    """Render a compare report as an aligned plain-text table."""
    rows = [("metric", "kind", "baseline", "latest", "tolerance", "verdict")]
    for entry in report["metrics"]:
        rows.append(
            (
                entry["metric"],
                entry["kind"],
                "-" if entry["baseline"] is None else f"{entry['baseline']:.4g}",
                "-" if entry["latest"] is None else f"{entry['latest']:.4g}",
                f"{entry['tolerance']:g}",
                entry["verdict"].upper()
                if entry["verdict"] == "regressed"
                else entry["verdict"],
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    sha = report.get("latest_git_sha")
    lines.append(
        f"baseline: mean of {report['baseline_runs']} prior run(s); "
        f"latest sha: {sha if sha else 'unknown'}; "
        f"{'REGRESSED' if report['regressed'] else 'ok'}"
    )
    return "\n".join(lines)
