"""Unified execution API: declarative specs, shared streams, batches.

This package is the one way to execute simulations:

- :class:`~repro.run.spec.RunSpec` / :class:`~repro.run.spec.MechanismSpec`
  describe a run as frozen, hashable, pickleable data with a stable
  content-addressed :meth:`~repro.run.spec.RunSpec.key`;
- :class:`~repro.run.runner.Runner` executes batches of specs over a
  process-wide miss-stream cache, serially or in a process pool;
- :class:`~repro.run.results.ResultSet` makes the outcome queryable
  (filter / pivot / merge) and persistable (JSON).

The pre-existing entry points (``evaluate``, ``filter_tlb``,
``replay_prefetcher``, ``sweep``, ``ExperimentContext``) remain as thin
layers over this package.
"""

from repro.run.results import DERIVED_FIELDS, STAT_FIELDS, ResultSet
from repro.run.runner import SHARED_CACHE, MissStreamCache, Runner, build_miss_stream
from repro.run.spec import MechanismSpec, RunSpec

__all__ = [
    "DERIVED_FIELDS",
    "MechanismSpec",
    "MissStreamCache",
    "ResultSet",
    "RunSpec",
    "Runner",
    "SHARED_CACHE",
    "STAT_FIELDS",
    "build_miss_stream",
]
