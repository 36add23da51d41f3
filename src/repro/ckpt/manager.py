"""Checkpoint persistence: one store artifact per resume bookmark.

:class:`CheckpointManager` wraps an
:class:`~repro.store.ExperimentStore` and keeps one bookmark per
suspendable replay. A bookmark is a single ``ckpt`` artifact under its
own key: the record as one sorted-key JSON line (spec, stream offset,
owning tenant, ``state_digest``), then the session's ``repro.ckpt/v1``
blob. Each write replaces the artifact whole, so a replay holds one
store entry however often it is checkpointed, and a crash can never
leave a record that disagrees with its state.
:class:`~repro.run.runner.Runner` keeps one per ``checkpoint_every``
run under :meth:`~CheckpointManager.run_key` and clears it on
completion; the service keeps one per streaming session under
:meth:`~CheckpointManager.stream_key`, so an evicted or
restarted-away session comes back on its next touch.

Both owners go through the same two calls: :meth:`~CheckpointManager.write`
(one store write) and :meth:`~CheckpointManager.resume` (one read,
consistency checks, live session). Earlier releases stored the record
alone and filed the blob separately under its digest; such a record is
the same layout with nothing after its line. ``resume`` reads its blob
by ``state_digest``, rewrites the bookmark in the current layout, and
then drops the digest entry unless another such record still names it.
This module is the only place the layout is built or read.
"""

from __future__ import annotations

import json
from collections.abc import Callable
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


def _legacy_digest(data: bytes | None) -> str | None:
    """The ``state_digest`` an earlier release's bookmark names, if
    ``data`` is one (a record line with no blob after it)."""
    line, _, blob = (data or b"").partition(b"\n")
    if blob or not line:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record.get("state_digest") if isinstance(record, dict) else None


@dataclass
class Resumed:
    """What :meth:`CheckpointManager.resume` found under a bookmark.

    ``session`` is the live replay at the bookmarked offset, or
    ``None`` when an earlier release's bookmark outlived its separately
    filed snapshot blob ``digest`` (GC claimed it). ``spec`` is the spec
    the bookmark replays and ``tenant`` the owner it was written for.
    """

    digest: str
    session: ReplaySession | None
    spec: "RunSpec | None"
    tenant: str | None


class CheckpointManager:
    """Store-backed persistence for resume bookmarks."""

    def __init__(self, store: "ExperimentStore") -> None:
        self.store = store

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

        One store write of the record line and the snapshot blob,
        replacing whatever ``key`` held. The returned digest is the
        blob's own. The owning ``tenant`` rides in the record, so
        scoping survives eviction and restarts.
        """
        blob = session.snapshot().to_bytes()
        digest = blob_digest(blob)
        record = {
            "spec": spec.to_dict(),
            "spec_key": spec.key(),
            "stream_offset": session.offset,
            "state_digest": digest,
            "tenant": tenant,
        }
        self._put(key, json.dumps(record, sort_keys=True).encode(), blob)
        return digest

    def _put(self, key: str, line: bytes, blob: bytes) -> None:
        """File a bookmark in the current layout: the record line, then
        the blob, as one store entry."""
        self.store.put_ckpt(key, line + b"\n" + blob)

    def resume(
        self,
        key: str,
        miss_stream_for: Callable[["RunSpec"], "MissTrace"],
        spec: "RunSpec | None" = None,
    ) -> Resumed | None:
        """The live session bookmarked under ``key``, or ``None`` if none.

        ``spec`` is the spec being resumed; when omitted it is read
        from the record. ``miss_stream_for`` supplies the spec's miss
        stream. An earlier release's bookmark whose blob GC has claimed
        comes back with ``session=None``. Raises
        :class:`~repro.errors.CkptError` when the record is corrupt, or
        the state does not hash to its ``state_digest``, is not a
        session snapshot, or disagrees with the record or the spec —
        resuming would replay some other run.
        """
        data = self.store.get_ckpt(key)
        if data is None:
            return None
        line, _, blob = data.partition(b"\n")
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CkptError(f"corrupt checkpoint record {key!r}: {error}") from error
        if not isinstance(record, dict):
            raise CkptError(f"corrupt checkpoint record {key!r}: not an object")
        digest = record.get("state_digest")
        if not isinstance(digest, str):
            raise CkptError(f"corrupt bookmark {key!r}: no state digest")
        legacy = not blob
        if legacy:
            # An earlier release's layout: the blob is filed under its digest.
            blob = self.store.get_ckpt(digest)
            if blob is None:
                return Resumed(digest, None, spec, record.get("tenant"))
        if blob_digest(blob) != digest:
            raise CkptError(
                f"checkpoint {key!r} failed content verification: its state "
                f"hashes to {blob_digest(blob)}, not {digest}"
            )
        snap = StateSnapshot.from_bytes(blob)
        if not isinstance(snap, SessionSnapshot):
            raise CkptError(
                f"bookmark {key!r} holds a {type(snap).__name__}, "
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
        if legacy:
            self._migrate(key, line, blob, digest)
        session = ReplaySession.resume(
            snap, miss_stream_for(spec), spec.build_prefetcher()
        )
        return Resumed(digest, session, spec, record.get("tenant"))

    def _migrate(self, key: str, line: bytes, blob: bytes, digest: str) -> None:
        """Rewrite an earlier release's bookmark in the current layout.

        The bookmark is rewritten first, so a crash before the digest
        entry goes leaves a self-contained bookmark. The separately
        filed blob is dropped only when no other earlier-release record
        still names it: two sessions of one spec at one offset share a
        digest, and dropping it under the other would lose its state.
        Nothing else collects that blob, since ``serve`` runs its store
        without a size bound.
        """
        self._put(key, line, blob)
        for entry in self.store.entries("ckpt"):
            other = entry["key"]
            if (
                other != key
                and other.startswith((_RUN_PREFIX, _STREAM_PREFIX))
                and _legacy_digest(self.store.get_ckpt(other)) == digest
            ):
                return
        self.store.delete_ckpt(digest)

    def exists(self, key: str) -> bool:
        """True when a bookmark is stored under ``key`` (index-only
        probe: no read, no counter)."""
        return self.store.has_ckpt(key)

    def delete(self, key: str) -> bool:
        """Drop a bookmark; True if one existed.

        Callers resume a bookmark before they drop it, and that resume
        has already moved an earlier release's bookmark to the current
        layout and dropped its separately filed blob (:meth:`resume`).
        """
        return self.store.delete_ckpt(key)
