"""Differential-testing harness for the compiled replay engine.

The compiled engine (:mod:`repro.sim.batchpath`) is shippable only
because this package proves it is exactly the engine the paper's
numbers come from: every test executes the same work on the reference
engine and the compiled engine and asserts bit-identical statistics
(and, for suspendable sessions, bit-identical snapshots).

- ``harness`` — the :class:`DifferentialRunner` comparison machinery.
- ``test_curated_grid`` — a curated grid of canonical specs spanning
  every mechanism family × workload family × page size.
- ``test_fuzz`` — seeded, shrinkable randomized trace/spec generators
  (hypothesis) so new scenarios are fuzzed on every run.
- ``test_warm_start`` — trained instances and engine interleavings.
- ``test_compiled_sessions`` — property test of chunked, serialized and
  resumed compiled sessions against reference-trained state.
"""
