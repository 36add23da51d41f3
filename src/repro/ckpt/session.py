"""Incremental phase-2 replay: one replay, pausable anywhere.

:class:`ReplaySession` is a single replay unrolled into an object: it
holds the miss stream, the mechanism and the prefetch buffer, and
:meth:`advance` replays the next N entries. Mechanisms with a compiled
loop run on a :class:`~repro.sim.batchpath.ReplayKernel` whose state
stays live between advances; others run the reference engine's
per-miss body (:class:`~repro.sim.two_phase.ReplayWindow`) over the
live objects. Either way the warm-up boundary is judged by the global
stream position, so advancing in any chunking produces byte-identical
final statistics to a single-shot replay — the streaming service's
contract, enforced by ``tests/ckpt/test_session.py`` and the
differential suite.

:meth:`snapshot` captures the whole session as a
:class:`SessionSnapshot` (nesting the mechanism and buffer snapshots;
a compiled kernel writes its bytes straight from live state), and
:meth:`ReplaySession.resume` validates one and seeds a live session
from it —
:class:`~repro.ckpt.manager.CheckpointManager` bookmarks runs and
streaming sessions with this pair, so checkpointed runs and evicted or
restarted-away ``/streams`` sessions pick up where they stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from ..errors import CkptError
from ..mem.trace import MissTrace
from ..prefetch.base import Prefetcher
from ..tlb.prefetch_buffer import PrefetchBuffer

if TYPE_CHECKING:  # pragma: no cover - cycle guard (sim imports this package)
    from ..sim.stats import PrefetchRunStats
from .snapshots import (
    BufferSnapshot,
    MechanismSnapshot,
    StateSnapshot,
    restore_buffer,
    snapshot_buffer,
    validate,
)


@dataclass
class SessionSnapshot(StateSnapshot):
    """A paused :class:`ReplaySession`, minus the miss stream itself.

    The stream is content-addressed in the store already (or rebuilt
    deterministically from the spec), so only the *position* is stored;
    nesting the mechanism and buffer snapshots keeps the whole session
    a single blob with a single digest.
    """

    kind: ClassVar[str] = "session"

    offset: int
    pb_hits_measured: int
    issued_before: int
    overhead_before: int
    max_prefetches_per_miss: int
    mechanism: MechanismSnapshot
    buffer: BufferSnapshot


class ReplaySession:
    """A suspendable, resumable phase-2 replay over one miss stream.

    Args:
        miss_trace: the filtered miss stream to replay.
        prefetcher: the mechanism instance to drive. It is trained
            exactly as the reference engine trains it: in place for a
            mechanism without a compiled loop, and when
            :attr:`prefetcher` is read for one with a compiled kernel,
            which owns the live state until then (its family is the
            mechanism's snapshot declaration). Callers that pass a
            throwaway instance and never read it pay no write-back.
        buffer_entries: prefetch-buffer capacity.
        max_prefetches_per_miss: per-miss issue clamp (0 = unlimited).
    """

    def __init__(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer_entries: int = 16,
        max_prefetches_per_miss: int = 0,
    ) -> None:
        self._open(
            miss_trace,
            prefetcher,
            snapshot_buffer(PrefetchBuffer(buffer_entries)),
            max_prefetches_per_miss,
            offset=0,
            pb_hits=0,
            # Counter baselines, exactly as replay_prefetcher takes
            # them: a pre-trained instance reports only this stream.
            issued_before=prefetcher.prefetches_issued,
            overhead_before=prefetcher.overhead_ops_total,
        )

    def _open(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer: BufferSnapshot,
        max_prefetches_per_miss: int,
        offset: int,
        pb_hits: int,
        issued_before: int,
        overhead_before: int,
        mechanism: MechanismSnapshot | None = None,
    ) -> None:
        # Imported lazily: repro.sim imports this package.
        from ..sim.engine import open_replay

        self.miss_trace = miss_trace
        self.max_prefetches_per_miss = max_prefetches_per_miss
        self.offset = offset
        self.issued_before = issued_before
        self.overhead_before = overhead_before
        self._prefetcher = prefetcher
        self._replay = open_replay(
            miss_trace, prefetcher, buffer, max_prefetches_per_miss, pb_hits, mechanism
        )

    @property
    def total(self) -> int:
        """Total miss entries in the stream."""
        return len(self.miss_trace)

    @property
    def remaining(self) -> int:
        """Entries not yet replayed."""
        return self.total - self.offset

    @property
    def finished(self) -> bool:
        """True once every entry has been replayed."""
        return self.offset >= self.total

    @property
    def prefetcher(self) -> Prefetcher:
        """The mechanism instance, trained up to :attr:`offset`.

        This read is where a compiled kernel's state is written back
        into the instance (only when it has advanced since the last
        read); finishing the session writes nothing back.
        """
        self._replay.write_back(self._prefetcher)
        return self._prefetcher

    @property
    def buffer(self) -> PrefetchBuffer:
        """A copy of the prefetch buffer as of :attr:`offset`."""
        snap = self.snapshot().buffer
        buffer = PrefetchBuffer(snap.capacity)
        restore_buffer(snap, buffer)
        return buffer

    @property
    def pb_hits_measured(self) -> int:
        """Prefetch-buffer hits past the warm-up boundary so far."""
        return self._replay.counters()[0]

    def advance(self, count: int | None = None) -> int:
        """Replay up to ``count`` more entries (all remaining if None).

        Returns the number actually advanced. The replay compares the
        *global* stream position with the warm-up boundary, so the
        boundary lands identically under any chunking.
        """
        if count is not None and count < 0:
            raise CkptError(f"advance count must be >= 0, got {count}")
        start = self.offset
        stop = self.total if count is None else min(self.total, start + count)
        if stop > start:
            self._replay.run(start, stop)
            self.offset = stop
        return stop - start

    def stats(self) -> PrefetchRunStats:
        """Statistics over the entries replayed so far.

        Built exactly as :func:`~repro.sim.two_phase.replay_prefetcher`
        builds them; once :attr:`finished`, the result is
        byte-identical to a single-shot replay of the same stream.
        """
        from ..sim.two_phase import replay_stats

        return replay_stats(
            self.miss_trace,
            self._prefetcher.label,
            self._replay.counters(),
            self.issued_before,
            self.overhead_before,
        )

    def snapshot(self) -> SessionSnapshot:
        """Capture the complete session state (stream position included).

        A compiled kernel writes the session blob straight from its live
        state; the snapshot carries those bytes for
        :meth:`~repro.ckpt.snapshots.StateSnapshot.to_bytes` and decodes
        its fields from them only when one is read.
        """
        return self._replay.snapshot(
            self.offset, self.issued_before, self.overhead_before
        )

    @classmethod
    def resume(
        cls,
        snap: SessionSnapshot,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
    ) -> "ReplaySession":
        """Rebuild a live session from a snapshot.

        ``prefetcher`` must be a fresh instance with the captured
        configuration; the snapshot is validated against it
        (:func:`~repro.ckpt.snapshots.validate`) and then seeds the
        compiled kernel directly — the instance itself is trained only
        when :attr:`prefetcher` is read.
        ``miss_trace`` must be the same stream the snapshot was taken
        over — the offset is validated against its length, content
        identity is the caller's (content-addressed store's)
        responsibility.
        """
        if not isinstance(snap, SessionSnapshot):
            raise CkptError(
                f"cannot resume a session from {type(snap).__name__}"
            )
        if not 0 <= snap.offset <= len(miss_trace):
            raise CkptError(
                f"corrupt session snapshot: offset {snap.offset} outside "
                f"stream of {len(miss_trace)} entries"
            )
        validate(snap.mechanism, prefetcher)
        validate(snap.buffer, snap.buffer.capacity)
        session = cls.__new__(cls)
        session._open(
            miss_trace,
            prefetcher,
            snap.buffer,
            snap.max_prefetches_per_miss,
            offset=snap.offset,
            pb_hits=snap.pb_hits_measured,
            issued_before=snap.issued_before,
            overhead_before=snap.overhead_before,
            mechanism=snap.mechanism,
        )
        return session
