"""``repro.ckpt/v1`` compatibility: pinned bytes and old bookmark layouts.

Checkpoints are content-addressed and bookmarks name their state by
digest, so the bytes a snapshot encodes to are part of the on-disk
contract. These tests pin the ``sha256`` of ``to_bytes()`` for every
mechanism kind, the prefetch buffer and whole sessions after
one fixed history (a session's digest both as the compiled kernel
writes it and as the oracle encodes the reference engine's state), and resume bookmarks written in the two record
layouts earlier releases stored (run continuations and ``/streams``
sessions) straight into the store.
"""

import hashlib
import json

import pytest

from repro.ckpt import (
    ReplaySession,
    blob_digest,
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.service.server import ExperimentService
from repro.sim.batchpath import ReplayKernel
from repro.sim.two_phase import ReplayWindow
from repro.store import ExperimentStore
from repro.tlb.prefetch_buffer import PrefetchBuffer

SCALE = 0.02


def _events(count=240, seed=2002):
    """A fixed miss history: ``(pc, page, evicted, pb_hit)`` tuples from
    a small LCG over a narrow page range (revisits, evictions, hits)."""
    state = seed
    events = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        page = (state >> 33) % 48
        evicted = (state >> 17) % 60 - 12  # negative values mean "none"
        events.append(((state >> 7) % 5, page, max(evicted, -1), bool(state & 8)))
    return events


def _sha(snapshot):
    return hashlib.sha256(snapshot.to_bytes()).hexdigest()


#: family id -> (mechanism, params, sha256 of the snapshot's bytes)
MECHANISMS = {
    "none": (
        "none", {},
        "59f6a63b9463af8ac53fc5ad07b820f88581990fadb08e1b184ef34e173ebc4a",
    ),
    "SP": (
        "SP", {"degree": 2},
        "ca4480e00c5adac11bcc114289bb04d4366e1d8d22a0d5591318c21921d96160",
    ),
    "SP-adaptive": (
        "SP-adaptive", {},
        "2e8f8c811f853e123536f55f2add311d580d5b18624ee606b523908d7b1053d5",
    ),
    "ASP": (
        "ASP", {"rows": 8, "ways": 2},
        "7d2229cf363ac4f829045b609eeb0400697a40e4e3233b8f900ed46833bfe9ba",
    ),
    "MP": (
        "MP", {"rows": 8},
        "3dfc8b7d90ffac6a0998df2d391696309c761b6a74800eb8919008c994631913",
    ),
    "DP": (
        "DP", {"rows": 8},
        "99765cb1e1b34d544930512576ffc69c45c6950efd31b967dc71d8de4e1f3d0a",
    ),
    "DP-PC": (
        "DP-PC", {"rows": 8, "ways": 2},
        "3a2a3bd982f438c164d81597aa3f08421107ae088b0bb1a5b3fd9e148c8040d8",
    ),
    "DP-2": (
        "DP-2", {"rows": 8, "ways": 2},
        "703cac5e322d888cca657441d003bdcec059c96e31d13a624f2b754121087ff6",
    ),
    "RP": (
        "RP", {},
        "a5c00e3afc62f32bb54cbcd27210a36d79fbd34ae4704cb6bdbb93e95783d6ee",
    ),
    "RP-variant_three": (
        "RP", {"variant_three": 1},
        "4d8ad277ec9e312061099a21d208f071dfa06f47a588b4d91eeddcf16b3bde17",
    ),
}

#: (mechanism, params, entries advanced) -> sha256 of the session's bytes
SESSIONS = {
    "DP": (
        "DP", {"rows": 64}, 700,
        "b78f1f96a7e8590f1373335dd7c98e0a4a9da08f3f9f02c3c442a46658d421b6",
    ),
    "RP": (
        "RP", {}, 700,
        "75da31fbf98101664d109eb1947548aae7fa70d34a432b7466c01301a5f57b41",
    ),
    "ASP": (
        "ASP", {"rows": 16, "ways": 2}, 700,
        "289810f119811bd30c565ff811c72acfb3038c921491bc0a7a9af33da83e0fc8",
    ),
}

BUFFER_SHA = "17d686a3c78931556a1aa84ceb75f78d03e3f79ad4d56e178de681d58cf51c57"


@pytest.mark.parametrize("family", sorted(MECHANISMS))
def test_mechanism_bytes_are_pinned(family):
    name, params, expected = MECHANISMS[family]
    prefetcher = create_prefetcher(name, **params)
    for pc, page, evicted, pb_hit in _events():
        prefetcher.on_miss(pc, page, evicted, pb_hit)
    assert _sha(snapshot_prefetcher(prefetcher)) == expected


def test_buffer_bytes_are_pinned():
    buffer = PrefetchBuffer(6)
    for pc, page, _, pb_hit in _events():
        if pb_hit:
            buffer.lookup_remove(page)
        else:
            buffer.insert(page + pc)
    assert _sha(snapshot_buffer(buffer)) == BUFFER_SHA


@pytest.fixture(scope="module")
def runner():
    return Runner(cache=MissStreamCache())


@pytest.mark.parametrize("family", sorted(SESSIONS))
def test_session_bytes_are_pinned(runner, family):
    name, params, entries, expected = SESSIONS[family]
    spec = RunSpec.of("galgel", name, scale=SCALE, **params)
    stream = runner.miss_stream_for(spec)
    session = ReplaySession(stream, spec.build_prefetcher())
    session.advance(entries)
    # The compiled kernel's session writer...
    assert isinstance(session._replay, ReplayKernel)
    assert _sha(session.snapshot()) == expected
    # ...and the oracle encoding of the reference engine's state.
    window = ReplayWindow(stream, spec.build_prefetcher(), PrefetchBuffer(16))
    window.run(0, entries)
    assert _sha(window.snapshot(entries, 0, 0)) == expected


def _put_layout(store, key, record, session):
    """File a snapshot blob and a bookmark record exactly as earlier
    releases wrote them: the blob under its digest, the record as
    sorted-key JSON plus a newline."""
    blob = session.snapshot().to_bytes()
    record["state_digest"] = blob_digest(blob)
    store.put_ckpt(record["state_digest"], blob)
    store.put_ckpt(key, (json.dumps(record, sort_keys=True) + "\n").encode())


def _paused(runner, spec, entries=900):
    session = ReplaySession(runner.miss_stream_for(spec), spec.build_prefetcher())
    session.advance(entries)
    return session


def test_continuation_layout_resumes_to_the_identical_row(
    tmp_path, runner, monkeypatch
):
    spec = RunSpec.of("galgel", "RP", scale=SCALE)
    plain = runner.run([spec])[0]
    store = ExperimentStore(tmp_path / "store")
    _put_layout(
        store,
        "cont:" + spec.key(),
        {"spec_key": spec.key(), "stream_offset": 900},
        _paused(runner, spec),
    )
    offsets = []
    real_resume = ReplaySession.resume.__func__

    def spying_resume(cls, snap, miss_trace, prefetcher):
        offsets.append(snap.offset)
        return real_resume(cls, snap, miss_trace, prefetcher)

    monkeypatch.setattr(ReplaySession, "resume", classmethod(spying_resume))
    resumed = Runner(
        cache=MissStreamCache(), store=store, checkpoint_every=500
    ).run_one(spec)
    assert offsets == [900]
    assert resumed == plain
    assert not store.has_ckpt("cont:" + spec.key())


def test_session_layout_resumes_to_the_identical_row(tmp_path, runner):
    spec = RunSpec.of("galgel", "DP", scale=SCALE, rows=64)
    store = ExperimentStore(tmp_path / "store")
    service = ExperimentService(store)
    status, one_shot = service.handle(
        "POST", "/runs", body={"specs": [spec.to_dict()]}
    )
    assert status == 200
    _put_layout(
        store,
        "sess:s1",
        {
            "spec": spec.to_dict(),
            "spec_key": spec.key(),
            "stream_offset": 900,
            "tenant": None,
        },
        _paused(runner, spec),
    )
    status, stats = service.handle("GET", "/streams/s1/stats")
    assert status == 200 and stats["offset"] == 900
    status, step = service.handle("POST", "/streams/s1/advance", body={})
    assert status == 200 and step["finished"]
    assert json.dumps(step["stats"], sort_keys=True) == json.dumps(
        one_shot["runs"][0], sort_keys=True
    )
