"""Checkpoint persistence: content-addressed snapshots and one bookmark.

:class:`CheckpointManager` wraps an
:class:`~repro.store.ExperimentStore` with two facilities:

- **Snapshot blobs**, stored content-addressed: the key *is* the blob
  digest, so identical state is stored once (``ckpt/<digest>.bin``),
  loads verify the address against the content, and the store's LRU GC
  and pinning apply unchanged.
- **Bookmarks** — one JSON record per suspendable replay, pointing at
  its session snapshot by digest (so N bookmarks over the same state
  cost one blob). :class:`~repro.run.runner.Runner` keeps one per
  ``checkpoint_every`` run under :meth:`~CheckpointManager.run_key`
  and clears it on completion; the service keeps one per streaming
  session under :meth:`~CheckpointManager.stream_key`, so an evicted
  or restarted-away session comes back on its next touch.

Both owners go through the same two calls: :meth:`~CheckpointManager.write`
(blob first, then the record) and :meth:`~CheckpointManager.resume`
(record, blob, consistency checks, live session). This module is the
only place the record's layout is built or read.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import CkptError
from .codec import blob_digest
from .session import ReplaySession, SessionSnapshot
from .snapshots import StateSnapshot

if TYPE_CHECKING:  # pragma: no cover - cycle guard (store -> run -> sim)
    from ..mem.trace import MissTrace
    from ..run.spec import RunSpec
    from ..store.store import ExperimentStore

_RUN_PREFIX = "cont:"
_STREAM_PREFIX = "sess:"


@dataclass
class Resumed:
    """What :meth:`CheckpointManager.resume` found under a bookmark.

    ``session`` is the live replay at the bookmarked offset, or
    ``None`` when GC has claimed the snapshot blob ``digest`` (the
    bookmark outlived its state). ``spec`` is the spec the bookmark
    replays and ``tenant`` the owner it was written for.
    """

    digest: str
    session: ReplaySession | None
    spec: "RunSpec | None"
    tenant: str | None


class CheckpointManager:
    """Store-backed persistence for snapshots and resume bookmarks."""

    def __init__(self, store: "ExperimentStore") -> None:
        self.store = store

    # -- content-addressed snapshot blobs ----------------------------------

    def save(self, snapshot: StateSnapshot) -> str:
        """Persist a snapshot; returns its content digest (the key)."""
        blob = snapshot.to_bytes()
        digest = blob_digest(blob)
        self.store.put_ckpt(digest, blob)
        return digest

    def load(self, digest: str) -> StateSnapshot | None:
        """Snapshot stored under ``digest``, or ``None`` if absent/GC'd.

        Verifies the content actually hashes to its address (on top of
        the blob's own integrity trailer), so a corrupted or misfiled
        artifact raises :class:`~repro.errors.CkptError` instead of
        silently resuming from the wrong state.
        """
        blob = self.store.get_ckpt(digest)
        if blob is None:
            return None
        if blob_digest(blob) != digest:
            raise CkptError(
                f"checkpoint {digest} failed content verification: stored "
                f"bytes hash to {blob_digest(blob)}"
            )
        return StateSnapshot.from_bytes(blob)

    def pinned(self, digest: str) -> AbstractContextManager[None]:
        """Pin one snapshot blob against GC for the duration of a read."""
        return self.store.pinned(digest, kind="ckpt")

    # -- bookmarks ----------------------------------------------------------

    @staticmethod
    def run_key(spec_key: str) -> str:
        """Bookmark key of a ``checkpoint_every`` run of ``spec_key``."""
        return _RUN_PREFIX + spec_key

    @staticmethod
    def stream_key(session_key: str) -> str:
        """Bookmark key of the streaming session ``session_key``."""
        return _STREAM_PREFIX + session_key

    def write(
        self,
        key: str,
        spec: "RunSpec",
        session: ReplaySession,
        tenant: str | None = None,
    ) -> str:
        """Bookmark ``session`` (a replay of ``spec``); returns its digest.

        The snapshot blob is stored first (content-addressed), then the
        record pointing at it — so a crash between the two writes
        leaves at worst an orphan blob, never a dangling bookmark. The
        owning ``tenant`` rides in the record, so scoping survives
        eviction and restarts.
        """
        digest = self.save(session.snapshot())
        self._put_record(
            key,
            {
                "spec": spec.to_dict(),
                "spec_key": spec.key(),
                "stream_offset": session.offset,
                "state_digest": digest,
                "tenant": tenant,
            },
        )
        return digest

    def resume(
        self,
        key: str,
        miss_stream_for: Callable[["RunSpec"], "MissTrace"],
        spec: "RunSpec | None" = None,
    ) -> Resumed | None:
        """The live session bookmarked under ``key``, or ``None`` if none.

        ``spec`` is the spec being resumed; when omitted it is read
        from the record. ``miss_stream_for`` supplies the spec's miss
        stream. A bookmark whose blob GC has claimed comes back with
        ``session=None``. Raises :class:`~repro.errors.CkptError` when
        the record is corrupt, points at anything but a session
        snapshot, or disagrees with its snapshot or spec — resuming
        would replay some other run.
        """
        record = self._get_record(key)
        if record is None:
            return None
        digest = record.get("state_digest")
        if not isinstance(digest, str):
            raise CkptError(f"corrupt bookmark {key!r}: no state digest")
        snap = self.load(digest)
        if snap is None:
            return Resumed(digest, None, spec, record.get("tenant"))
        if not isinstance(snap, SessionSnapshot):
            raise CkptError(
                f"bookmark {key!r} points at a {type(snap).__name__}, "
                "not a session snapshot"
            )
        if spec is None:
            # Imported lazily: repro.run builds on this package.
            from ..run.spec import RunSpec

            try:
                spec = RunSpec.from_dict(record.get("spec"))
            except (TypeError, ValueError) as error:
                # The record came from our own store, so a spec that no
                # longer parses is corruption, not a client mistake.
                raise CkptError(f"corrupt bookmark {key!r}: {error}") from error
        checks = (
            ("stream_offset", record.get("stream_offset"), snap.offset),
            ("spec_key", record.get("spec_key"), spec.key()),
            ("buffer capacity", snap.buffer.capacity, spec.buffer_entries),
            (
                "max_prefetches_per_miss",
                snap.max_prefetches_per_miss,
                spec.max_prefetches_per_miss,
            ),
        )
        for name, stored, expected in checks:
            if stored != expected:
                raise CkptError(
                    f"corrupt resume record: {name} is {stored!r}, "
                    f"expected {expected!r}"
                )
        session = ReplaySession.resume(
            snap, miss_stream_for(spec), spec.build_prefetcher()
        )
        return Resumed(digest, session, spec, record.get("tenant"))

    def intact(self, key: str, digest: str | None) -> bool:
        """True when the bookmark ``key`` and the snapshot blob ``digest``
        are both still stored (index-only probes: no read, no counter)."""
        return (
            digest is not None
            and self.store.has_ckpt(key)
            and self.store.has_ckpt(digest)
        )

    def exists(self, key: str) -> bool:
        """True when a (well-formed) bookmark is stored under ``key``."""
        return self._get_record(key) is not None

    def delete(self, key: str) -> bool:
        """Drop a bookmark; True if one existed.

        The snapshot blob itself is left to LRU GC — another bookmark
        may share it.
        """
        return self.store.delete_ckpt(key)

    def session_ids(self) -> list[str]:
        """All bookmarked streaming-session keys, sorted."""
        prefix_len = len(_STREAM_PREFIX)
        return [key[prefix_len:] for key in self.store.ckpt_keys(_STREAM_PREFIX)]

    def _put_record(self, key: str, record: dict) -> None:
        self.store.put_ckpt(
            key, (json.dumps(record, sort_keys=True) + "\n").encode()
        )

    def _get_record(self, key: str) -> dict | None:
        blob = self.store.get_ckpt(key)
        if blob is None:
            return None
        try:
            record = json.loads(blob)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CkptError(f"corrupt checkpoint record {key!r}: {error}") from error
        if not isinstance(record, dict):
            raise CkptError(f"corrupt checkpoint record {key!r}: not an object")
        return record
