"""DifferentialRunner: execute one spec on both engines, demand equality.

"Bit-identical" here is literal: the full
:class:`~repro.sim.stats.PrefetchRunStats` dataclass — every stored
counter and every ``extra`` annotation — must compare equal field for
field, and whole :class:`~repro.run.results.ResultSet` batches must
serialize to identical JSON. Tolerances would defeat the point: the
compiled engine is only trustworthy if it *is* the reference engine,
observationally.

Every check compares the reference loop with the compiled engine in
each shape it runs in: a single replay (a one-slot kernel at exact
geometry, through :func:`repro.sim.engine.replay`), and the one-pass
batch through :class:`~repro.run.Runner` (every non-reference group
takes it, a group of one included); the direct-trace checks also call
:func:`repro.sim.batchpath.replay_batch` with a duplicated request so
the equivalence-class deduplication is exercised too.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.mem.trace import MissTrace, ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.run import MissStreamCache, ResultSet, Runner, RunSpec
from repro.sim.config import SimulationConfig
from repro.sim.batchpath import replay_batch
from repro.sim.engine import replay
from repro.sim.stats import PrefetchRunStats
from repro.sim.two_phase import filter_tlb, replay_prefetcher


class EngineDivergenceError(AssertionError):
    """The two engines disagreed; the message lists differing fields."""


def assert_identical(
    reference: PrefetchRunStats, compiled: PrefetchRunStats, context: str = ""
) -> None:
    """Raise :class:`EngineDivergenceError` unless stats match exactly."""
    ref_dict = asdict(reference)
    compiled_dict = asdict(compiled)
    if ref_dict == compiled_dict:
        return
    diffs = [
        f"  {name}: reference={ref_dict[name]!r} compiled={compiled_dict[name]!r}"
        for name in ref_dict
        if ref_dict[name] != compiled_dict.get(name, object())
    ]
    where = f" [{context}]" if context else ""
    raise EngineDivergenceError(
        "compiled engine diverged from reference engine" + where + ":\n"
        + "\n".join(diffs)
    )


class DifferentialRunner:
    """Runs identical work through both replay engines and compares.

    Uses a private miss-stream cache so phase 1 (TLB filtering, shared
    by both engines by construction) is paid once per stream while the
    two phase-2 replays stay independent.
    """

    def __init__(self) -> None:
        self.runner = Runner(cache=MissStreamCache())
        self.checked = 0

    def run_both(self, spec: RunSpec) -> tuple[PrefetchRunStats, PrefetchRunStats]:
        """Execute ``spec`` as a single replay on each engine."""
        reference = self.runner.run_one(spec.derive(engine="reference"))
        compiled = self.runner.run_one(spec.derive(engine="auto"))
        return reference, compiled

    def check_spec(self, spec: RunSpec) -> PrefetchRunStats:
        """Assert both engines agree on ``spec``; return the stats."""
        reference, compiled = self.run_both(spec)
        assert_identical(reference, compiled, context=f"spec {spec.label} {spec.key()}")
        (batch,) = self.runner.run([spec.derive(engine="auto")])
        assert_identical(
            reference, batch, context=f"batch spec {spec.label} {spec.key()}"
        )
        self.checked += 1
        return reference

    def check_batch(self, specs: list[RunSpec]) -> ResultSet:
        """Assert whole-batch ResultSets serialize identically."""
        reference = self.runner.run([spec.derive(engine="reference") for spec in specs])
        compiled = self.runner.run([spec.derive(engine="auto") for spec in specs])
        for ref_row, compiled_row in zip(reference, compiled):
            assert_identical(ref_row, compiled_row, context=ref_row.workload)
        if reference.to_json() != compiled.to_json():
            raise EngineDivergenceError(
                "ResultSet JSON differs between engines despite equal rows"
            )
        self.checked += len(specs)
        return reference

    def check_trace(
        self,
        trace: ReferenceTrace,
        prefetcher_factory,
        config: SimulationConfig,
    ) -> PrefetchRunStats:
        """Differential check for an ad-hoc trace (no registry spec).

        ``prefetcher_factory`` must build a *fresh* mechanism per call
        — each engine gets its own instance, exactly as
        :class:`~repro.run.runner.Runner` builds one per run.
        """
        miss_trace = filter_tlb(trace, config.tlb, config.warmup_fraction)
        return self.check_miss_trace(miss_trace, prefetcher_factory, config)

    def check_miss_trace(
        self,
        miss_trace: MissTrace,
        prefetcher_factory,
        config: SimulationConfig,
    ) -> PrefetchRunStats:
        """Differential check replaying an already-filtered stream."""
        reference = replay_prefetcher(
            miss_trace,
            prefetcher_factory(),
            buffer_entries=config.buffer_entries,
            max_prefetches_per_miss=config.max_prefetches_per_miss,
        )
        compiled = replay(
            miss_trace,
            prefetcher_factory(),
            buffer_entries=config.buffer_entries,
            max_prefetches_per_miss=config.max_prefetches_per_miss,
            engine="batch",
        )
        assert_identical(reference, compiled, context=f"trace {miss_trace.name}")
        # The same request twice in one batch: the second slot dedups
        # onto the first's simulation, and both must match reference.
        batch_rows = replay_batch(
            miss_trace,
            [
                (
                    prefetcher_factory(),
                    config.buffer_entries,
                    config.max_prefetches_per_miss,
                )
                for _ in range(2)
            ],
        )
        for slot, row in enumerate(batch_rows):
            assert_identical(
                reference, row, context=f"batch trace {miss_trace.name} slot {slot}"
            )
        self.checked += 1
        return reference


def fresh_factory(builder, *args, **kwargs):
    """A zero-argument factory building a fresh mechanism per call."""

    def factory() -> Prefetcher:
        return builder(*args, **kwargs)

    return factory
