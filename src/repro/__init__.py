"""repro — reproduction of "Going the Distance for TLB Prefetching"
(Kandiraju & Sivasubramaniam, ISCA 2002).

The library implements the paper's contribution — Distance Prefetching
— together with every mechanism it compares against (tagged sequential,
arbitrary-stride, Markov, and recency prefetching), the TLB/prefetch-
buffer/page-table substrate they run on, the 56 synthetic application
models standing in for the paper's trace suites, and the simulation and
analysis harnesses that regenerate every table and figure of the
evaluation. See DESIGN.md for the system inventory and EXPERIMENTS.md
for paper-vs-measured results.

Quickstart — simulations are declared as :class:`RunSpec` records and
executed by a :class:`Runner`, which caches each workload's filtered
TLB miss stream process-wide and can fan batches out to worker
processes::

    from repro import Runner, RunSpec

    specs = [
        RunSpec.of("galgel", mech, scale=0.2, rows=256)
        for mech in ("DP", "RP", "ASP", "MP")
    ]
    results = Runner(workers=4).run(specs)   # one TLB filter, 4 replays
    print(results.pivot())                   # workload -> mechanism -> accuracy
    results.save("galgel.json")              # ResultSet round-trips as JSON

The single-run wrappers remain for quick interactive use::

    from repro import DistancePrefetcher, get_trace, evaluate

    trace = get_trace("galgel", scale=0.2)
    stats = evaluate(trace, DistancePrefetcher(rows=256))
    print(stats.prediction_accuracy)
"""

from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher
from repro.core.pc_distance import PCDistancePrefetcher
from repro.core.prediction_table import PredictionTable, SlotList
from repro.errors import (
    ConfigurationError,
    ReproError,
    ResultMergeError,
    SchedulerError,
    StoreError,
    TraceError,
    UnknownPrefetcherError,
    UnknownWorkloadError,
)
from repro.mem.trace import MissTrace, ReferenceTrace
from repro.mem.trace_io import (
    load_miss_trace,
    load_reference_trace,
    save_miss_trace,
    save_reference_trace,
)
from repro.prefetch.base import HardwareDescription, Prefetcher
from repro.prefetch.factory import (
    PREFETCHER_NAMES,
    create_prefetcher,
    default_prefetcher_suite,
)
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher
from repro.run import MechanismSpec, MissStreamCache, ResultSet, Runner, RunSpec
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.cycle import CycleSimConfig, CycleStats, normalized_cycles, simulate_cycles
from repro.sim.engine import ENGINES, resolve_engine
from repro.sim.functional import simulate
from repro.sim.stats import PrefetchRunStats
from repro.sched import JobQueue, SchedulerClient, Worker
from repro.store import STORE_SCHEMA, ExperimentStore
from repro.sim.two_phase import evaluate, filter_tlb, replay_prefetcher
from repro.tlb.mmu import MMU, TranslationOutcome
from repro.tlb.page_table import PageTable, RecencyStack
from repro.tlb.prefetch_buffer import PrefetchBuffer
from repro.tlb.tlb import TLB
from repro.workloads.registry import (
    HIGH_MISS_APPS,
    SUITES,
    TABLE3_APPS,
    all_app_names,
    app_names_for_suite,
    get_app,
    get_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ArbitraryStridePrefetcher",
    "ConfigurationError",
    "CycleSimConfig",
    "CycleStats",
    "DistancePairPrefetcher",
    "DistancePrefetcher",
    "ENGINES",
    "ExperimentStore",
    "HIGH_MISS_APPS",
    "HardwareDescription",
    "MMU",
    "MarkovPrefetcher",
    "MechanismSpec",
    "MissStreamCache",
    "MissTrace",
    "NullPrefetcher",
    "PCDistancePrefetcher",
    "PREFETCHER_NAMES",
    "PageTable",
    "PredictionTable",
    "Prefetcher",
    "PrefetchBuffer",
    "PrefetchRunStats",
    "RecencyPrefetcher",
    "RecencyStack",
    "ReferenceTrace",
    "ReproError",
    "ResultMergeError",
    "ResultSet",
    "RunSpec",
    "Runner",
    "STORE_SCHEMA",
    "SUITES",
    "SequentialPrefetcher",
    "SimulationConfig",
    "SlotList",
    "StoreError",
    "TABLE3_APPS",
    "TLB",
    "TLBConfig",
    "TraceError",
    "TranslationOutcome",
    "UnknownPrefetcherError",
    "UnknownWorkloadError",
    "all_app_names",
    "app_names_for_suite",
    "create_prefetcher",
    "default_prefetcher_suite",
    "evaluate",
    "filter_tlb",
    "get_app",
    "get_trace",
    "load_miss_trace",
    "load_reference_trace",
    "normalized_cycles",
    "replay_prefetcher",
    "resolve_engine",
    "save_miss_trace",
    "save_reference_trace",
    "simulate",
    "simulate_cycles",
    "__version__",
]
