"""Multiprogrammed (context-switching) prefetching study.

The paper's Section 4 lists "prefetching issues in a multiprogrammed
environment (flushing/switching the prefetch tables)" as ongoing work;
this module builds that experiment. Several application traces share
the machine under round-robin scheduling with a fixed reference
quantum. On every context switch the TLB and prefetch buffer are
flushed (distinct address spaces make stale translations useless); the
policy question is what happens to the *prediction* state:

- ``flush`` — on-chip prediction tables are cleared each switch (cheap
  hardware, cold restart every quantum).
- ``shared`` — tables are left alone and processes overwrite each
  other's entries (pollution, but surviving state may still help).
- ``per_process`` — tables are saved/restored per process (an upper
  bound; models per-process table banks or tagged entries).

RP is unaffected by the policy knob: its prediction state lives in each
process's page table, which is inherently per-process — one of the few
structural advantages the paper grants it.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.errors import ConfigurationError
from repro.mem.trace import ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.sim.config import SimulationConfig
from repro.sim.functional import build_mmu
from repro.tlb.mmu import TranslationOutcome

#: Page/PC namespace separation between processes.
_PAGE_STRIDE = 1 << 40
_PC_STRIDE = 1 << 32

FLUSH_POLICIES: tuple[str, ...] = ("flush", "shared", "per_process")


@dataclass(frozen=True)
class MultiprogStats:
    """Outcome of one multiprogrammed run.

    Attributes:
        policy: prediction-state policy used.
        total_references: references across all processes.
        tlb_misses: total TLB misses (includes switch-induced misses).
        pb_hits: misses satisfied by the prefetch buffer.
        context_switches: number of quantum expirations.
    """

    policy: str
    total_references: int
    tlb_misses: int
    pb_hits: int
    context_switches: int

    @property
    def prediction_accuracy(self) -> float:
        return self.pb_hits / self.tlb_misses if self.tlb_misses else 0.0

    @property
    def miss_rate(self) -> float:
        if self.total_references == 0:
            return 0.0
        return self.tlb_misses / self.total_references


def _quantum_segments(
    traces: list[ReferenceTrace], quantum: int
) -> list[tuple[int, int, int]]:
    """Round-robin schedule: list of (process, start_run, end_run).

    Segments are cut at run boundaries once the quantum's reference
    budget is met, so every process advances by roughly ``quantum``
    references per turn.
    """
    cursors = [0] * len(traces)
    counts = [trace.counts.tolist() for trace in traces]
    segments: list[tuple[int, int, int]] = []
    active = set(range(len(traces)))
    while active:
        for process in sorted(active):
            runs = counts[process]
            start = cursors[process]
            if start >= len(runs):
                active.discard(process)
                continue
            taken = 0
            end = start
            while end < len(runs) and taken < quantum:
                taken += runs[end]
                end += 1
            segments.append((process, start, end))
            cursors[process] = end
            if end >= len(runs):
                active.discard(process)
    return segments


def simulate_multiprogrammed(
    traces: list[ReferenceTrace],
    prefetcher_factory,
    policy: str = "flush",
    quantum: int = 50_000,
    config: SimulationConfig | None = None,
) -> MultiprogStats:
    """Run several processes round-robin through one MMU.

    Args:
        traces: one reference trace per process (address spaces are
            automatically disjoint via per-process page/PC offsets).
        prefetcher_factory: zero-argument callable building a fresh
            mechanism (one per process under ``per_process``, one
            shared instance otherwise).
        policy: one of :data:`FLUSH_POLICIES`.
        quantum: references per scheduling quantum.
        config: TLB/buffer configuration (paper defaults).
    """
    if policy not in FLUSH_POLICIES:
        raise ConfigurationError(
            f"policy must be one of {FLUSH_POLICIES}, got {policy!r}"
        )
    if quantum <= 0:
        raise ConfigurationError(f"quantum must be > 0, got {quantum}")
    if not traces:
        raise ConfigurationError("need at least one process trace")
    config = config or SimulationConfig()

    if policy == "per_process":
        prefetchers: list[Prefetcher] = [prefetcher_factory() for _ in traces]
    else:
        shared = prefetcher_factory()
        prefetchers = [shared for _ in traces]

    mmu = build_mmu(prefetchers[0], config)
    per_process_lists = [trace.as_lists() for trace in traces]
    segments = _quantum_segments(traces, quantum)

    measured_misses = 0
    measured_hits = 0
    switches = 0
    previous_process: int | None = None
    for process, start, end in segments:
        if previous_process is not None and process != previous_process:
            switches += 1
            mmu.flush_for_context_switch(flush_prediction_state=policy == "flush")
        mmu.prefetcher = prefetchers[process]
        previous_process = process

        pcs, pages, counts = per_process_lists[process]
        page_base = process * _PAGE_STRIDE
        pc_base = process * _PC_STRIDE
        for index in range(start, end):
            outcome = mmu.translate_run(
                pc_base + pcs[index], page_base + pages[index], counts[index]
            )
            if outcome is not TranslationOutcome.TLB_HIT:
                measured_misses += 1
                if outcome is TranslationOutcome.BUFFER_HIT:
                    measured_hits += 1

    return MultiprogStats(
        policy=policy,
        total_references=int(sum(t.total_references for t in traces)),
        tlb_misses=measured_misses,
        pb_hits=measured_hits,
        context_switches=switches,
    )


def compare_policies(
    traces: list[ReferenceTrace],
    prefetcher_factory,
    quantum: int = 50_000,
    config: SimulationConfig | None = None,
) -> dict[str, MultiprogStats]:
    """Run all three prediction-state policies on the same workload mix."""
    return {
        policy: simulate_multiprogrammed(
            traces, prefetcher_factory, policy=policy, quantum=quantum, config=config
        )
        for policy in FLUSH_POLICIES
    }
