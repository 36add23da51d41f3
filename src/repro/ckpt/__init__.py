"""Versioned, deterministic checkpointing of all mechanism state.

The paper's prefetchers are stateful learners — prediction tables,
recency stacks and prefetch-buffer contents. This package frees that
state from process memory (the TLB of phase 1 is never checkpointed:
miss streams are content-addressed and rebuilt, not resumed):

- :mod:`~repro.ckpt.codec` — the ``repro.ckpt/v1`` binary format:
  schema-tagged, digest-trailed, deterministic (identical state ⇒
  identical bytes ⇒ identical digest); the oracle encoder and decoder,
  the template writers and the index-based reader.
- :mod:`~repro.ckpt.snapshots` — ``StateSnapshot`` dataclasses with
  ``to_bytes()/from_bytes()`` for the shared
  :class:`~repro.core.prediction_table.PredictionTable` and
  :class:`~repro.tlb.prefetch_buffer.PrefetchBuffer` substrates, and
  one declared ``MechanismSnapshot`` per prefetcher family (mechanism
  class, configuration fields, live fields, table row codec) that the
  generic ``snapshot_prefetcher``/``validate``/``restore_prefetcher``
  walk. ``validate`` holds every check a restore or a resume makes.
- :mod:`~repro.ckpt.session` — :class:`ReplaySession`, phase-2 replay
  that can pause after any miss and resume bit-identically.
- :mod:`~repro.ckpt.manager` — :class:`CheckpointManager`, owning the
  one resume bookmark: a single
  :class:`~repro.store.ExperimentStore` ``ckpt`` artifact holding the
  record line and the session blob. ``write`` is one store write,
  ``resume`` one read (digest and consistency checks, live session);
  both are shared by :class:`~repro.run.runner.Runner` continuations
  and the service's streaming sessions.

The same canonical snapshots seed the compiled replay engine
(:mod:`repro.sim.batchpath`): a kernel starts from a mechanism's and a
buffer's snapshot, keeps that state live across stream windows, and
writes canonical session blobs straight from it — so warm-started
instances, streaming sessions and checkpointed runs all replay at
compiled speed.
"""

from repro.ckpt.codec import CKPT_SCHEMA, blob_digest, decode_blob, encode_blob
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.session import ReplaySession, SessionSnapshot
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
    restore_buffer,
    restore_prefetcher,
    snapshot_buffer,
    snapshot_prefetcher,
    snapshot_table,
    validate,
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
    "TableSnapshot",
    "blob_digest",
    "decode_blob",
    "encode_blob",
    "restore_buffer",
    "restore_prefetcher",
    "snapshot_buffer",
    "snapshot_prefetcher",
    "snapshot_table",
    "validate",
]
