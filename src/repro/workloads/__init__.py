"""Synthetic application models standing in for the paper's 56 traces.

The paper drives its evaluation with SimpleScalar/Shade traces of SPEC
CPU2000 (26 apps), MediaBench (20), the Etch desktop traces (5) and the
Pointer-Intensive suite (5). Those binaries and traces are not
reproducible here, so each application is modelled as a composition of
reference-pattern primitives chosen to land it in the behaviour class
the paper reports for it. Each model's ``paper_note`` names the
observation it stands in for, :mod:`repro.workloads.validation` checks
that it lands there, and :mod:`repro.workloads.registry` is the lookup
API.

- :mod:`repro.workloads.patterns` — the pattern primitives (strided
  sweeps, interleaved streams, permutation walks, Markov alternation,
  random walks, hot-set traffic...).
- :mod:`repro.workloads.composer` — :class:`AppSpec` and trace building.
- :mod:`repro.workloads.spec2000`, :mod:`~repro.workloads.mediabench`,
  :mod:`~repro.workloads.etch`, :mod:`~repro.workloads.ptrdist` — the
  per-suite registries.
"""

from repro.workloads.composer import AppSpec, BehaviorClass, build_trace
from repro.workloads.registry import (
    all_app_names,
    app_names_for_suite,
    get_app,
    get_trace,
    SUITES,
)

__all__ = [
    "AppSpec",
    "BehaviorClass",
    "SUITES",
    "all_app_names",
    "app_names_for_suite",
    "build_trace",
    "get_app",
    "get_trace",
]
