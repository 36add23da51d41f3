"""Memory-traffic accounting per mechanism.

The paper's closing argument for DP over RP is traffic, not accuracy:
"RP generates much more memory traffic ranging from anywhere between
2-3 times that for DP" (Section 3.2, citing TR [19]), because each RP
miss spends four memory operations maintaining the recency stack before
fetching its two predictions, while DP only fetches.

:func:`traffic_comparison` measures exactly that: the prefetch-related
memory operations each mechanism induces on the same miss stream,
split into overhead (state maintenance) and fetches (entries brought
into the buffer), with the RP/DP ratio the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.trace import MissTrace
from repro.prefetch.factory import create_prefetcher
from repro.sim.engine import replay


@dataclass(frozen=True)
class TrafficSummary:
    """Prefetch-related memory operations of one mechanism on one app.

    Attributes:
        mechanism: mechanism label.
        overhead_ops: state-maintenance operations (RP pointer writes).
        fetch_ops: entry fetches into the prefetch buffer.
        tlb_misses: misses in the stream (for the per-miss rate).
        accuracy: the prediction accuracy achieved at that cost.
    """

    mechanism: str
    overhead_ops: int
    fetch_ops: int
    tlb_misses: int
    accuracy: float

    @property
    def total_ops(self) -> int:
        return self.overhead_ops + self.fetch_ops

    @property
    def ops_per_miss(self) -> float:
        return self.total_ops / self.tlb_misses if self.tlb_misses else 0.0


def measure_traffic(
    miss_trace: MissTrace,
    mechanism: str,
    rows: int = 256,
    buffer_entries: int = 16,
) -> TrafficSummary:
    """Replay one mechanism and summarize the traffic it induced."""
    stats = replay(
        miss_trace,
        create_prefetcher(mechanism, rows=rows),
        buffer_entries=buffer_entries,
    )
    return TrafficSummary(
        mechanism=stats.mechanism,
        overhead_ops=stats.overhead_memory_ops,
        fetch_ops=stats.prefetch_fetch_ops,
        tlb_misses=stats.tlb_misses,
        accuracy=stats.prediction_accuracy,
    )


def traffic_comparison(
    miss_trace: MissTrace,
    mechanisms: tuple[str, ...] = ("RP", "MP", "DP", "ASP"),
    rows: int = 256,
    buffer_entries: int = 16,
) -> dict[str, TrafficSummary]:
    """Traffic summaries for several mechanisms on one miss stream."""
    return {
        mechanism: measure_traffic(
            miss_trace, mechanism, rows=rows, buffer_entries=buffer_entries
        )
        for mechanism in mechanisms
    }


def rp_to_dp_traffic_ratio(
    miss_trace: MissTrace, rows: int = 256, buffer_entries: int = 16
) -> float:
    """The paper's quoted metric: RP's memory operations over DP's."""
    comparison = traffic_comparison(
        miss_trace, mechanisms=("RP", "DP"), rows=rows,
        buffer_entries=buffer_entries,
    )
    dp_ops = comparison["DP"].total_ops
    if dp_ops == 0:
        return float("inf") if comparison["RP"].total_ops else 0.0
    return comparison["RP"].total_ops / dp_ops


def render_traffic(comparison: dict[str, TrafficSummary]) -> str:
    """Fixed-width table of a traffic comparison."""
    from repro.analysis.ascii_chart import format_table

    rows = [
        [
            summary.mechanism,
            summary.overhead_ops,
            summary.fetch_ops,
            summary.total_ops,
            summary.ops_per_miss,
            summary.accuracy,
        ]
        for summary in comparison.values()
    ]
    return format_table(
        ["Mechanism", "Overhead ops", "Fetch ops", "Total", "Ops/miss", "Accuracy"],
        rows,
    )
