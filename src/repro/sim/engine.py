"""Replay-engine selection: the reference oracle or the compiled engine.

Two engines replay mechanisms over a TLB miss stream:

- ``"reference"`` — :func:`repro.sim.two_phase.replay_prefetcher`,
  driving live :class:`~repro.prefetch.base.Prefetcher` /
  :class:`~repro.tlb.prefetch_buffer.PrefetchBuffer` objects. This is
  the authoritative engine: the paper's numbers come from it.
- the compiled engine, :mod:`repro.sim.batchpath` — generated loops,
  bit-identical by contract (and by the ``tests/differential/``
  harness). A :class:`~repro.run.runner.Runner` replays every stream
  group through it as one batch; a single replay (this module's
  :func:`replay`) runs it as a one-class kernel that warm-starts from
  the instance's canonical snapshot and writes the final state back;
  suspendable sessions (:func:`open_replay`) keep the kernel live
  between windows.

``"auto"`` picks the compiled engine whenever the mechanism has a
compiled loop, trained or not, and the reference engine otherwise
(e.g. user-defined subclasses), so ``auto`` is always correct to
request. ``"fast"`` and ``"batch"`` are accepted as aliases that ask
for the compiled engine outright.
"""

from __future__ import annotations

from repro.ckpt.snapshots import BufferSnapshot, MechanismSnapshot, restore_buffer
from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.prefetch.base import Prefetcher
from repro.sim import batchpath
from repro.sim.stats import PrefetchRunStats
from repro.sim.two_phase import ReplayWindow, replay_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer

#: Engine names accepted everywhere an ``engine`` knob appears
#: (``RunSpec``, ``Runner``, ``evaluate``, the CLI).
ENGINES: tuple[str, ...] = ("auto", "reference", "fast", "batch")


def validate_engine(engine: str) -> str:
    """Return ``engine`` or raise the library's configuration error."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return engine


def resolve_engine(prefetcher: Prefetcher, engine: str = "auto") -> str:
    """The concrete engine a replay will use: ``batch`` or ``reference``.

    ``batch`` names the compiled engine. ``auto`` falls back to the
    reference engine only for mechanisms without a compiled loop.
    """
    validate_engine(engine)
    if engine == "reference" or (
        engine == "auto" and not batchpath.supports(prefetcher)
    ):
        return "reference"
    return "batch"


def replay(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
    engine: str = "auto",
) -> PrefetchRunStats:
    """Replay one mechanism over a miss stream on the selected engine.

    The engines are observationally identical: same statistics, and
    both train the given instance (warm or fresh) the same way — any
    sequence of replays leaves the instance with the same canonical
    snapshot regardless of which engine ran each one.
    """
    if resolve_engine(prefetcher, engine) == "batch":
        return batchpath.replay_compiled(
            miss_trace,
            prefetcher,
            buffer_entries=buffer_entries,
            max_prefetches_per_miss=max_prefetches_per_miss,
        )
    return replay_prefetcher(
        miss_trace,
        prefetcher,
        buffer_entries=buffer_entries,
        max_prefetches_per_miss=max_prefetches_per_miss,
    )


def open_replay(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer: BufferSnapshot,
    max_prefetches_per_miss: int = 0,
    pb_hits: int = 0,
    mechanism: MechanismSnapshot | None = None,
) -> "batchpath.ReplayKernel | ReplayWindow":
    """A replay of ``prefetcher`` from ``buffer`` that runs window by window.

    A compiled :class:`~repro.sim.batchpath.ReplayKernel` seeded from
    the two states when the mechanism has a compiled loop, otherwise a
    reference :class:`~repro.sim.two_phase.ReplayWindow` over the
    instance and a buffer restored from ``buffer``. Both expose
    ``run(start, stop)``, ``counters()``, ``snapshot(offset,
    issued_before, overhead_before)`` and ``write_back(prefetcher)``.
    ``mechanism``, a validated snapshot, seeds the kernel in place of
    the instance's own state (only mechanisms with a compiled loop have
    snapshots).
    """
    if batchpath.supports(prefetcher):
        return batchpath.ReplayKernel(
            miss_trace,
            prefetcher,
            buffer,
            max_prefetches_per_miss,
            pb_hits,
            mechanism,
        )
    live = PrefetchBuffer(buffer.capacity)
    restore_buffer(buffer, live)
    return ReplayWindow(miss_trace, prefetcher, live, max_prefetches_per_miss, pb_hits)
