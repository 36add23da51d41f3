"""Benchmark gates: the smoke record's pass/fail verdicts.

``benchmarks/smoke.py`` judges its own record with :data:`SMOKE_GATES`,
one table of ``(field, condition, message)`` rows: every ``*_identical``
byte-identity check, the overload contract and the overhead budgets.
:func:`check_gates` evaluates it and the benchmark exits nonzero on
any failed row, so no CI step re-checks a field by hand.
"""

from __future__ import annotations

import json
import operator
from typing import Any, NamedTuple


class Gate(NamedTuple):
    """One pass/fail row of the smoke record: ``record[field] op bound``."""

    field: str
    op: str
    bound: Any
    message: str


_GATE_OPS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
}


#: Every verdict the smoke benchmark's exit code depends on.
SMOKE_GATES: tuple[Gate, ...] = (
    Gate("engines_identical", "==", True,
         "compiled replay diverged from the reference engine"),
    Gate("parallel_identical", "==", True,
         "process-pool batch diverged from serial (Runner bug)"),
    Gate("store_identical", "==", True,
         "store-backed batch diverged from direct execution"),
    Gate("store_warm_all_hits", "==", True,
         "warm store pass replayed specs (store miss)"),
    # Cold store write-back against the bare batch, both fastest-of-N
    # in one window. The batch is the compiled one-pass engine (~0.09 s
    # for the 84 smoke specs at scale 0.1), a third of the per-spec
    # replay the first 5% budget was set against; the write-back did
    # not change and measures 3-6% of it.
    Gate("store_cold_overhead_fraction", "<=", 0.10,
         "store cold write-back overhead exceeds its budget"),
    Gate("streaming_identical", "==", True,
         "streamed/resumed replay diverged from one-shot"),
    Gate("distributed_identical", "==", True,
         "distributed sweep diverged from serial execution"),
    Gate("load_identical", "==", True,
         "results diverged under admission-control load"),
    Gate("load_clients", ">=", 100,
         "load phase ran too few clients to overload admission"),
    Gate("load_5xx_total", "==", 0,
         "5xx responses under load: overload must shed with 429, never crash"),
    Gate("load_429_missing_retry_after", "==", 0,
         "shed responses lacked a Retry-After header"),
    # Telemetry on against off: the instrumentation tax.
    Gate("obs_overhead_fraction", "<", 0.05,
         "instrumentation overhead breaches its budget"),
)


def check_gates(record: dict[str, Any]) -> list[dict[str, Any]]:
    """Each gate row's verdict on one smoke record, in table order.

    A field that is missing or null fails its row: the benchmark runs
    every phase, so an absent value means a phase did not run.
    """
    verdicts = []
    for gate in SMOKE_GATES:
        value = record.get(gate.field)
        verdicts.append(
            {
                "field": gate.field,
                "condition": f"{gate.op} {json.dumps(gate.bound)}",
                "value": value,
                "passed": value is not None
                and _GATE_OPS[gate.op](value, gate.bound),
                "message": gate.message,
            }
        )
    return verdicts
