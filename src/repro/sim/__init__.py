"""Simulation engines.

- :mod:`repro.sim.config` — TLB/buffer/warm-up configuration records.
- :mod:`repro.sim.stats` — per-run statistics containers.
- :mod:`repro.sim.functional` — online functional simulation of the
  full MMU pipeline (the sim-cache analogue).
- :mod:`repro.sim.two_phase` — reference two-phase path: filter the
  TLB once per (workload, TLB config), then replay only the miss
  stream per prefetcher. Exactly equivalent to the functional path
  (property-tested) because prefetching cannot change the TLB miss
  stream.
- :mod:`repro.sim.batchpath` — the compiled replay engine: generated
  loops for one-pass batches, single (warm-startable) replays and
  suspendable kernels, bit-identical to the reference replay
  (enforced by ``tests/differential/``).
- :mod:`repro.sim.engine` — engine selection (``auto`` / ``reference``,
  with ``fast`` / ``batch`` as aliases of the compiled engine) shared
  by ``RunSpec``, ``evaluate`` and the CLI.
- :mod:`repro.sim.cycle` — execution-cycle timing model (the
  sim-outorder analogue behind the paper's Table 3).
- :mod:`repro.sim.sweep` — parameter-sweep drivers for the sensitivity
  figures.
- :mod:`repro.sim.multiprog` — multiprogrammed (context-switching)
  simulation, the paper's Section 4 future-work axis.
"""

from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.cycle import CycleSimConfig, CycleStats, simulate_cycles
from repro.sim.batchpath import replay_compiled
from repro.sim.engine import ENGINES, replay, resolve_engine
from repro.sim.functional import simulate
from repro.sim.stats import PrefetchRunStats
from repro.sim.two_phase import filter_tlb, replay_prefetcher

__all__ = [
    "CycleSimConfig",
    "CycleStats",
    "ENGINES",
    "PrefetchRunStats",
    "SimulationConfig",
    "TLBConfig",
    "filter_tlb",
    "replay",
    "replay_compiled",
    "replay_prefetcher",
    "resolve_engine",
    "simulate",
    "simulate_cycles",
]
