"""Regenerate ``expected.json``, the outputs every run is checked against.

Run from the repository root after a change that is meant to alter
simulated statistics (never after a speed-only change)::

    PYTHONPATH=src python3 perfbench/expected.py

Table 2 is computed with the *reference* engine, the oracle, through
the same CLI code path the benchmark times; the benchmark's
``engine=auto`` runs must reproduce its rows, printed table and
``paper_error`` exactly. The exact counts (references generated and
misses filtered per workload) are derived from the same rows.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro.workloads.registry import HIGH_MISS_APPS

from child import rows_digest, run_table2_cli
from workloads import paper_error, sha256

OUT = Path(__file__).resolve().parent / "expected.json"


def stream_counts(rows, apps) -> dict:
    per_app = {row.workload: row for row in rows if row.workload in apps}
    return {
        "workloads.refs": sum(row.total_references for row in per_app.values()),
        "sim.filter.misses": sum(row.tlb_misses for row in per_app.values()),
    }


def main() -> None:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        _, rows, summary = run_table2_cli(["table2", "--engine", "reference"])
    high_miss = stream_counts(rows, set(HIGH_MISS_APPS))
    expected = {
        "table2": {
            "rows_sha256": rows_digest(rows),
            "table_sha256": sha256(printed.getvalue()),
            "paper_error": paper_error(summary),
        },
        "counts": {
            "table2_cold": {
                **stream_counts(rows, {row.workload for row in rows}),
                "paper_error": paper_error(summary),
            },
            "sweep_service": high_miss,
            "stream_checkpointed": high_miss,
        },
    }
    OUT.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(json.dumps(expected, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
