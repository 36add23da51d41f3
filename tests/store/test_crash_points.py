"""Crash points in the store's one write path.

``ExperimentStore._put`` writes every artifact to a temporary file,
renames it into place, then commits one index transaction. A writer
can die between any two of those steps; these tests stop it there and
reopen the store as a fresh instance, as the next process would:

- **after the tmp write, before the rename** — the key still reads as
  before, and :meth:`gc` sweeps the abandoned temporary once it is
  older than ``_TMP_SWEEP_AGE_SECONDS``;
- **after the rename, before COMMIT** — the index rolls back; a new
  key reads as absent, an existing one as its old row over the new
  bytes (equally valid);
- **partway through a multi-row ``put_results``** — some artifacts
  renamed, some not, no index row committed.

Every key reads as its old state or its new state, never a
:class:`StoreError`. A checkpoint bookmark, whose record and session
state share one artifact, resumes at the offset of whichever state
it reads as; a session whose first bookmark never committed does not
exist. The budget is small by default;
``--hypothesis-profile=ci`` runs the profile's larger one (see
``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import os
import sqlite3
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hypothesis_budget
from repro.ckpt import CheckpointManager, ReplaySession
from repro.mem.trace import MissTrace
from repro.run import MissStreamCache, Runner, RunSpec
from repro.service.server import ExperimentService
from repro.sim.stats import PrefetchRunStats
from repro.store import ExperimentStore
from repro.store.store import _TMP_SWEEP_AGE_SECONDS

KINDS = ("result", "stream", "ckpt")
#: ``rename`` stops the writer at one artifact's ``os.replace``;
#: ``commit`` lets every rename land and refuses the index COMMIT.
POINTS = ("rename", "commit")

_STATS = PrefetchRunStats(
    workload="galgel", mechanism="DP", tlb_label="128e-FA",
    total_references=1000, tlb_misses=100, measured_misses=90, pb_hits=30,
    prefetches_issued=60, buffer_inserted=50, buffer_refreshed=5,
    buffer_evicted_unused=10, overhead_memory_ops=0, prefetch_fetch_ops=60,
)


class _Crash(BaseException):
    """The writer dies here (not an ``Exception``: nothing may absorb it)."""


def _spec(slot: int) -> RunSpec:
    return RunSpec.of("galgel", "DP", scale=0.05, rows=64 * (slot + 1))


def _value(kind: str, slot: int, version: int):
    """Artifact ``slot`` at ``version``; versions differ in content and size."""
    if kind == "result":
        return dataclasses.replace(_STATS, pb_hits=version, extra={"v": "x" * version})
    if kind == "stream":
        pages = np.arange(slot, slot + 4 + version, dtype=np.int64)
        return MissTrace(
            pcs=np.zeros_like(pages), pages=pages,
            evicted=np.full_like(pages, -1), ref_index=np.arange(len(pages)),
            total_references=10 * len(pages), name=f"s{slot}v{version}",
        )
    return f"blob {slot} v{version} ".encode() * (version + 1)


def _key(kind: str, slot: int) -> str:
    return _spec(slot).key() if kind == "result" else f"{kind}-{slot}"


def _put(store: ExperimentStore, kind: str, slots: list[int], version: int) -> None:
    if kind == "result":
        store.put_results((_spec(s), _value(kind, s, version)) for s in slots)
        return
    for slot in slots:
        if kind == "stream":
            store.put_stream(_key(kind, slot), _value(kind, slot, version))
        else:
            store.put_ckpt(_key(kind, slot), _value(kind, slot, version))


def _read(store: ExperimentStore, kind: str, slot: int):
    """A comparable form of the stored value (``None`` when absent)."""
    if kind == "result":
        return store.get_result(_key(kind, slot))
    if kind == "stream":
        stream = store.get_stream(_key(kind, slot))
        return None if stream is None else (stream.name, stream.pages.tolist())
    return store.get_ckpt(_key(kind, slot))


def _expected(kind: str, slot: int, version: int | None):
    if version is None:
        return None
    value = _value(kind, slot, version)
    if kind == "stream":
        return (value.name, value.pages.tolist())
    return value


def _tmp_files(root: Path) -> list[Path]:
    return sorted(root.glob("*/.*.tmp*"))


@contextmanager
def _dying(store, point, at=0):
    """Stop the store's writes at ``point``: before the ``at``-th
    rename, or at the index COMMIT."""
    real_replace = os.replace
    renamed = []

    def replace(src, dst):
        if point == "rename" and len(renamed) == at:
            raise _Crash(f"died before renaming {dst}")
        renamed.append(dst)
        real_replace(src, dst)

    def authorize(action, arg1, *_):
        if point == "commit" and action == sqlite3.SQLITE_TRANSACTION:
            return sqlite3.SQLITE_DENY if arg1 == "COMMIT" else sqlite3.SQLITE_OK
        return sqlite3.SQLITE_OK

    store._db.set_authorizer(authorize)
    try:
        with mock.patch.object(os, "replace", replace):
            yield
    finally:
        store._db.set_authorizer(None)


def _crash(store, kind, slots, point, at) -> None:
    """Run the version-2 write of ``slots`` and stop it at ``point``."""
    with _dying(store, point, at), pytest.raises((_Crash, sqlite3.DatabaseError)):
        _put(store, kind, slots, version=2)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(KINDS))
    # Only put_results writes several artifacts in one call.
    count = draw(st.integers(1, 3)) if kind == "result" else 1
    existing = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    point = draw(st.sampled_from(POINTS))
    at = draw(st.integers(0, count - 1))
    return kind, existing, point, at


@settings(max_examples=hypothesis_budget(20), deadline=None)
@given(scenarios())
# Every crash point for every kind, over a new and an existing key,
# plus a batch that dies partway (the second of three renames).
@example(("result", [False], "rename", 0))
@example(("result", [True], "commit", 0))
@example(("stream", [True], "rename", 0))
@example(("stream", [False], "commit", 0))
@example(("ckpt", [True], "rename", 0))
@example(("ckpt", [False], "commit", 0))
@example(("result", [True, False, True], "rename", 1))
@example(("result", [False, True, True], "commit", 0))
def test_reopened_store_serves_old_or_new_state(scenario):
    kind, existing, point, at = scenario
    slots = list(range(len(existing)))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = ExperimentStore(root)
        old_slots = [slot for slot in slots if existing[slot]]
        _put(store, kind, old_slots, version=1)

        _crash(store, kind, slots, point, at)
        store.close()  # the process is gone

        reopened = ExperimentStore(root)
        for slot in slots:
            old = _expected(kind, slot, 1 if existing[slot] else None)
            new = _expected(kind, slot, 2)
            got = _read(reopened, kind, slot)
            assert got in (old, new), (kind, slot, point, got)
            if point == "rename" and slot >= at:
                assert got == old, "an unrenamed artifact must read as before"

        # Only a writer stopped before a rename leaves a temporary, and
        # gc keeps it while a live writer could still be renaming it.
        leftovers = _tmp_files(root)
        assert len(leftovers) == (1 if point == "rename" else 0)
        reopened.gc()
        assert _tmp_files(root) == leftovers
        stale = time.time() - _TMP_SWEEP_AGE_SECONDS - 1
        for path in leftovers:
            os.utime(path, (stale, stale))
        reopened.gc()
        assert _tmp_files(root) == []

        # The retried write lands whole.
        _put(reopened, kind, slots, version=2)
        for slot in slots:
            assert _read(reopened, kind, slot) == _expected(kind, slot, 2)
        reopened.close()


_SESSION = RunSpec.of("galgel", "DP", scale=0.02, rows=64)


def test_bookmark_dying_before_commit_resumes_at_the_new_offset(tmp_path):
    """An overwrite that renamed its bookmark but never committed leaves
    the old index row over the new bytes. Record and state share those
    bytes, so the next process resumes at the new offset."""
    runner = Runner(cache=MissStreamCache())
    manager = CheckpointManager(ExperimentStore(tmp_path / "store"))
    key = manager.stream_key("s1")
    session = ReplaySession(
        runner.miss_stream_for(_SESSION), _SESSION.build_prefetcher()
    )
    session.advance(100)
    manager.write(key, _SESSION, session)
    session.advance(100)
    with _dying(manager.store, "commit"), pytest.raises(sqlite3.DatabaseError):
        manager.write(key, _SESSION, session)
    manager.store.close()  # the process is gone

    reopened = CheckpointManager(ExperimentStore(tmp_path / "store"))
    resumed = reopened.resume(key, runner.miss_stream_for)
    assert resumed.session.offset == 200
    assert resumed.session.snapshot() == session.snapshot()


@pytest.mark.parametrize("point", POINTS)
def test_first_bookmark_write_dying_leaves_no_session(tmp_path, point):
    """``POST /streams`` dying in its bookmark write leaves nothing: the
    session answers 404 (never 410 or 500), no ckpt entry is stored,
    and the id can be opened again."""
    root = tmp_path / "store"
    store = ExperimentStore(root)
    key = CheckpointManager.stream_key("s1")
    real_put = store.put_ckpt

    def put_ckpt(ckpt_key, blob):
        if ckpt_key != key:
            return real_put(ckpt_key, blob)
        with _dying(store, point):
            return real_put(ckpt_key, blob)

    store.put_ckpt = put_ckpt
    body = {"spec": _SESSION.to_dict(), "session_id": "s1"}
    try:
        status = ExperimentService(store).handle("POST", "/streams", body=body)[0]
    except _Crash:
        status = None  # died mid-request, before any reply
    assert status in (None, 500)
    store.close()  # the process is gone

    reborn = ExperimentService(ExperimentStore(root))
    assert reborn.handle("GET", "/streams/s1/stats")[0] == 404
    assert reborn.handle("POST", "/streams/s1/advance", body={})[0] == 404
    assert reborn.store.stats()["ckpt_entries"] == 0
    assert reborn.handle("POST", "/streams", body=body)[0] == 200
