"""The per-experiment orchestrator: one entry point per table/figure.

:class:`ExperimentContext` is a thin experiment-shaped layer over the
unified :class:`~repro.run.runner.Runner`: each ``run_*`` method builds
the declarative :class:`~repro.run.spec.RunSpec` batch for one table or
figure of the paper and executes it through the runner, which owns the
expensive intermediates — filtered TLB miss streams keyed by (app,
scale, TLB shape, page size) in a process-wide cache — so a benchmark
session touching many mechanism configurations filters each workload's
TLB exactly once (the two-phase split that README's "Phase-1 TLB
filter" section describes). Pass ``runner=Runner(workers=N)`` to fan a
whole figure's batch out to a process pool.

Each ``run_*`` method regenerates one experiment of the paper:

===============  ======================================================
``run_table1``   hardware comparison of the mechanisms
``run_figure``   prediction-accuracy bars for one suite (Fig. 7 / 8)
``run_table2``   average + weighted-average accuracy over all 56 apps
``run_table3``   normalized execution cycles, RP vs DP
``run_figure9``  DP sensitivity panels on the 8 high-miss apps
===============  ======================================================
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.analysis import figures
from repro.analysis.ascii_chart import format_table, grouped_bars
from repro.analysis.metrics import (
    accuracy_by_mechanism,
    average_accuracy,
    best_or_within_counts,
    weighted_average_accuracy,
)
from repro.mem.trace import MissTrace
from repro.prefetch.base import Prefetcher
from repro.prefetch.factory import create_prefetcher
from repro.prefetch.null import NullPrefetcher
from repro.run import MechanismSpec, ResultSet, Runner, RunSpec
from repro.sim.config import TLBConfig
from repro.sim.cycle import CycleSimConfig, normalized_cycles, simulate_cycles
from repro.sim.engine import replay
from repro.sim.stats import PrefetchRunStats
from repro.workloads.registry import (
    HIGH_MISS_APPS,
    TABLE3_APPS,
    all_app_names,
    app_names_for_suite,
)

#: The four head-to-head mechanisms of Table 2, in the paper's order.
TABLE2_MECHANISMS: tuple[str, ...] = ("DP", "RP", "ASP", "MP")


class ExperimentContext:
    """Builds experiment batches and executes them through a Runner.

    Args:
        scale: workload volume multiplier (1.0 = the library's full
            trace size; benchmarks default lower for runtime).
        buffer_entries: prefetch buffer size ``b`` (paper default 16).
        runner: the execution backend; defaults to a serial
            :class:`Runner` over the process-wide miss-stream cache.
            Every backend choice lives on the runner: pass
            ``Runner(workers=N)`` for a process pool, ``store=`` for
            resumable sweeps, or ``service_url=`` to replay on a
            scheduler's worker fleet — all return identical rows.
        engine: replay engine stamped on every spec this context
            builds and used by :meth:`run_mechanism` — ``"auto"``
            (default), ``"reference"``, or the compiled-engine aliases
            ``"fast"``/``"batch"``; see :mod:`repro.sim.engine`.
    """

    def __init__(
        self,
        scale: float = 1.0,
        buffer_entries: int = 16,
        runner: Runner | None = None,
        engine: str = "auto",
    ) -> None:
        self.scale = scale
        self.buffer_entries = buffer_entries
        self.runner = runner if runner is not None else Runner()
        self.engine = engine

    def spec(
        self,
        app: str,
        mechanism: str,
        tlb: TLBConfig | None = None,
        buffer_entries: int | None = None,
        **mechanism_params: int,
    ) -> RunSpec:
        """A RunSpec at this context's scale and buffer defaults."""
        return RunSpec(
            workload=app,
            mechanism=MechanismSpec.of(mechanism, **mechanism_params),
            scale=self.scale,
            tlb=tlb if tlb is not None else TLBConfig(),
            buffer_entries=buffer_entries or self.buffer_entries,
            engine=self.engine,
        )

    def run_specs(self, specs: Sequence[RunSpec]) -> ResultSet:
        """Execute a batch through the runner (shared miss streams)."""
        return self.runner.run(specs)

    def miss_trace(self, app: str, tlb: TLBConfig | None = None) -> MissTrace:
        """Filtered miss stream for ``app`` under ``tlb`` (cached)."""
        return self.runner.miss_stream(app, tlb=tlb, scale=self.scale)

    def run_mechanism(
        self,
        app: str,
        prefetcher: Prefetcher,
        tlb: TLBConfig | None = None,
        buffer_entries: int | None = None,
    ) -> PrefetchRunStats:
        """Evaluate one *live* mechanism instance over one app.

        For already-constructed (possibly pre-trained) instances, on
        this context's engine; declarative batches should go through
        :meth:`run_specs`. No code in the package calls it: README's
        "One replay path" section documents it as the library door for
        live instances.
        """
        return replay(
            self.miss_trace(app, tlb),
            prefetcher,
            buffer_entries=buffer_entries or self.buffer_entries,
            engine=self.engine,
        )

    def run_panel(
        self, specs: Sequence[RunSpec], labels: Sequence[tuple[str, str]]
    ) -> dict[str, dict[str, float]]:
        """Execute one batch and pivot it to figure shape.

        ``labels[i]`` is the ``(app, label)`` coordinate of ``specs[i]``;
        returns ``app -> label -> accuracy`` in input order.
        """
        results: dict[str, dict[str, float]] = {}
        for (app, label), stats in zip(labels, self.run_specs(specs)):
            results.setdefault(app, {})[label] = stats.prediction_accuracy
        return results

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------

    def run_table1(self) -> str:
        """Regenerate Table 1: hardware comparison at a glance."""
        mechanisms = [
            create_prefetcher("ASP"),
            create_prefetcher("MP"),
            create_prefetcher("RP"),
            create_prefetcher("DP"),
        ]
        descriptions = [m.describe_hardware() for m in mechanisms]
        headers = [""] + [d.name for d in descriptions]
        rows = [
            ["How many rows?"] + [d.rows for d in descriptions],
            ["Contents of a row"] + [d.row_contents for d in descriptions],
            ["Where is the table?"] + [d.location for d in descriptions],
            ["Indexed by"] + [d.index_source for d in descriptions],
            ["Memory ops per miss"] + [str(d.memory_ops_per_miss) for d in descriptions],
            ["Prefetches per miss"] + [d.max_prefetches for d in descriptions],
        ]
        return format_table(headers, rows)

    # ------------------------------------------------------------------
    # Figures 7 and 8
    # ------------------------------------------------------------------

    def run_figure(
        self,
        apps: Sequence[str],
        configs: Sequence[figures.MechanismConfig] | None = None,
    ) -> dict[str, dict[str, float]]:
        """Prediction accuracy for every (app, mechanism config) bar.

        Returns ``app -> legend label -> accuracy`` in figure order.
        """
        configs = list(configs) if configs is not None else figures.figure7_configs()
        coordinates = [(app, config) for app in apps for config in configs]
        return self.run_panel(
            [
                self.spec(app, config.mechanism, **config.factory_params())
                for app, config in coordinates
            ],
            [(app, config.label) for app, config in coordinates],
        )

    def run_figure7(self) -> dict[str, dict[str, float]]:
        """Figure 7: all SPEC CPU2000 applications."""
        return self.run_figure(app_names_for_suite("spec2000"))

    def run_figure8(self) -> dict[str, dict[str, float]]:
        """Figure 8: MediaBench, Etch and Pointer-Intensive suites."""
        apps = (
            app_names_for_suite("mediabench")
            + app_names_for_suite("etch")
            + app_names_for_suite("ptrdist")
        )
        return self.run_figure(apps)

    def render_figure(
        self, results: dict[str, dict[str, float]], title: str
    ) -> str:
        """Render figure results as grouped ASCII bars."""
        return grouped_bars(results, title=title)

    # ------------------------------------------------------------------
    # Table 2
    # ------------------------------------------------------------------

    def run_table2(
        self, apps: Iterable[str] | None = None, rows: int = 256, slots: int = 2
    ) -> dict[str, dict[str, float]]:
        """Average and weighted-average accuracy per mechanism.

        Returns ``mechanism -> {"average": .., "weighted": ..}`` plus
        the per-mechanism best-or-within counts under ``"best"`` /
        ``"within10"``.
        """
        app_list = list(apps) if apps is not None else all_app_names()
        coordinates = [
            (app, mechanism)
            for app in app_list
            for mechanism in TABLE2_MECHANISMS
        ]
        batch = self.run_specs(
            [
                self.spec(app, mechanism, rows=rows, ways=1, slots=slots)
                for app, mechanism in coordinates
            ]
        )
        runs_by_mechanism: dict[str, list[PrefetchRunStats]] = {}
        for (_, mechanism), stats in zip(coordinates, batch):
            runs_by_mechanism.setdefault(mechanism, []).append(stats)

        summary: dict[str, dict[str, float]] = {}
        all_runs = [run for runs in runs_by_mechanism.values() for run in runs]
        pivot_raw = accuracy_by_mechanism(all_runs)
        # Map configured labels (e.g. "DP,256,D") back to mechanism names.
        pivot: dict[str, dict[str, float]] = {}
        for app, per_label in pivot_raw.items():
            pivot[app] = {}
            for label, acc in per_label.items():
                pivot[app][label.split(",")[0]] = acc
        for mechanism, runs in runs_by_mechanism.items():
            best, within = best_or_within_counts(pivot, mechanism)
            summary[mechanism] = {
                "average": average_accuracy(runs),
                "weighted": weighted_average_accuracy(runs),
                "best": float(best),
                "within10": float(within),
            }
        return summary

    def render_table2(self, summary: dict[str, dict[str, float]]) -> str:
        headers = ["Scheme", "Average (Σp_i)/n", "Weighted Σ(m_i·p_i)/Σm_i", "Best", "Best/within 10%"]
        rows = [
            [
                mechanism,
                summary[mechanism]["average"],
                summary[mechanism]["weighted"],
                int(summary[mechanism]["best"]),
                int(summary[mechanism]["within10"]),
            ]
            for mechanism in TABLE2_MECHANISMS
            if mechanism in summary
        ]
        return format_table(headers, rows, float_format="{:.2f}")

    # ------------------------------------------------------------------
    # Table 3
    # ------------------------------------------------------------------

    def run_table3(
        self, apps: Sequence[str] | None = None, rows: int = 256
    ) -> dict[str, dict[str, float]]:
        """Normalized execution cycles (vs no prefetching) for RP and DP."""
        app_list = list(apps) if apps is not None else list(TABLE3_APPS)
        config = CycleSimConfig(buffer_entries=self.buffer_entries)
        results: dict[str, dict[str, float]] = {}
        for app in app_list:
            miss_trace = self.miss_trace(app)
            baseline = simulate_cycles(miss_trace, NullPrefetcher(), config)
            rp = simulate_cycles(miss_trace, create_prefetcher("RP"), config)
            dp = simulate_cycles(
                miss_trace, create_prefetcher("DP", rows=rows), config
            )
            results[app] = {
                "RP": normalized_cycles(rp, baseline),
                "DP": normalized_cycles(dp, baseline),
            }
        return results

    # ------------------------------------------------------------------
    # Figure 9
    # ------------------------------------------------------------------

    def run_figure9_tables(self) -> dict[str, dict[str, float]]:
        """Panel (a): DP accuracy vs table size and associativity."""
        return self.run_figure(HIGH_MISS_APPS, figures.figure9_table_configs())

    def run_figure9_slots(self) -> dict[str, dict[str, float]]:
        """Panel (b): DP accuracy vs prediction slots ``s``."""
        points = [
            (app, slots) for app in HIGH_MISS_APPS for slots in figures.FIGURE9_SLOTS
        ]
        return self.run_panel(
            [self.spec(app, "DP", rows=256, slots=slots) for app, slots in points],
            [(app, f"s = {slots}") for app, slots in points],
        )

    def run_figure9_buffers(self) -> dict[str, dict[str, float]]:
        """Panel (c): DP accuracy vs prefetch buffer size ``b``."""
        points = [
            (app, entries)
            for app in HIGH_MISS_APPS
            for entries in figures.FIGURE9_BUFFERS
        ]
        return self.run_panel(
            [
                self.spec(app, "DP", buffer_entries=entries, rows=256)
                for app, entries in points
            ],
            [(app, f"b = {entries}") for app, entries in points],
        )

    def run_figure9_tlbs(self) -> dict[str, dict[str, float]]:
        """Panel (d): DP accuracy vs TLB size (fully associative)."""
        points = [
            (app, entries) for app in HIGH_MISS_APPS for entries in figures.FIGURE9_TLBS
        ]
        return self.run_panel(
            [
                self.spec(app, "DP", tlb=TLBConfig(entries=entries), rows=256)
                for app, entries in points
            ],
            [(app, f"{entries}-entry TLB") for app, entries in points],
        )
