"""Versioned, deterministic checkpointing of all mechanism state.

The paper's prefetchers are stateful learners — prediction tables,
recency stacks, TLB and prefetch-buffer contents. This package frees
that state from process memory:

- :mod:`~repro.ckpt.codec` — the ``repro.ckpt/v1`` binary format:
  schema-tagged, digest-trailed, deterministic (identical state ⇒
  identical bytes ⇒ identical digest).
- :mod:`~repro.ckpt.snapshots` — ``StateSnapshot`` dataclasses with
  ``to_bytes()/from_bytes()`` for every prefetcher family plus the
  shared :class:`~repro.core.prediction_table.PredictionTable`,
  :class:`~repro.tlb.tlb.TLB` and
  :class:`~repro.tlb.prefetch_buffer.PrefetchBuffer` substrates.
- :mod:`~repro.ckpt.session` — :class:`ReplaySession`, phase-2 replay
  that can pause after any miss and resume bit-identically.
- :mod:`~repro.ckpt.manager` — :class:`CheckpointManager`, persisting
  snapshots content-addressed in the
  :class:`~repro.store.ExperimentStore` (``ckpt/<digest>.bin``) with
  resume bookmarks for :class:`~repro.run.runner.Runner` continuations
  and service streaming sessions.

The same canonical snapshots seed the compiled replay engine
(:mod:`repro.sim.batchpath`): a kernel starts from a mechanism's and a
buffer's snapshot, keeps that state live across stream windows, and
exports canonical snapshots straight from it — so warm-started
instances, streaming sessions and checkpointed runs all replay at
compiled speed.
"""

from repro.ckpt.codec import CKPT_SCHEMA, blob_digest, decode_blob, encode_blob
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.session import ReplaySession, SessionSnapshot, verify_resume
from repro.ckpt.snapshots import (
    SNAPSHOT_KINDS,
    AdaptiveSequentialSnapshot,
    BufferSnapshot,
    DistancePairSnapshot,
    DistanceSnapshot,
    MarkovSnapshot,
    MechanismSnapshot,
    NullSnapshot,
    PCDistanceSnapshot,
    RecencySnapshot,
    SequentialSnapshot,
    StateSnapshot,
    StrideSnapshot,
    TableSnapshot,
    TLBSnapshot,
    restore_buffer,
    restore_prefetcher,
    restore_table,
    restore_tlb,
    snapshot_buffer,
    snapshot_prefetcher,
    snapshot_table,
    snapshot_tlb,
)

__all__ = [
    "AdaptiveSequentialSnapshot",
    "BufferSnapshot",
    "CKPT_SCHEMA",
    "CheckpointManager",
    "DistancePairSnapshot",
    "DistanceSnapshot",
    "MarkovSnapshot",
    "MechanismSnapshot",
    "NullSnapshot",
    "PCDistanceSnapshot",
    "RecencySnapshot",
    "ReplaySession",
    "SequentialSnapshot",
    "SessionSnapshot",
    "SNAPSHOT_KINDS",
    "StateSnapshot",
    "StrideSnapshot",
    "TLBSnapshot",
    "TableSnapshot",
    "blob_digest",
    "decode_blob",
    "encode_blob",
    "restore_buffer",
    "restore_prefetcher",
    "restore_table",
    "restore_tlb",
    "snapshot_buffer",
    "snapshot_prefetcher",
    "snapshot_table",
    "snapshot_tlb",
    "verify_resume",
]
