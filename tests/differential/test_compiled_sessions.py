"""Compiled sessions are the reference engine, chunk by chunk.

Hypothesis draws a mechanism (every family, set-associative and fully
associative tables included), a buffer size, a per-miss clamp, a miss
stream with a warm-up boundary, an optional pre-training stream (run
on either engine), random chunk sizes and random
serialize → ``from_bytes`` → resume points. At every chunk boundary the
session's snapshot must be byte-identical to the state a
reference-trained instance and buffer reach over the same prefix, and
the finished session must report :func:`replay_prefetcher`'s stats and
leave its instance trained exactly like the reference one.

Budget: ``DIFF_FUZZ_EXAMPLES`` when set (the CI budget), else a small
tier-1 default.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    ReplaySession,
    SessionSnapshot,
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.prefetch.factory import create_prefetcher
from repro.sim.engine import replay
from repro.sim.two_phase import ReplayWindow, filter_tlb, replay_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer

from tests.differential.test_fuzz import mechanism_configs, rle_traces, sim_configs

EXAMPLES = int(os.environ.get("DIFF_FUZZ_EXAMPLES", "60"))


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    data=st.data(),
    mechanism=mechanism_configs(),
    trace=rle_traces(),
    config=sim_configs(),
    pretrain=st.none() | rle_traces(),
)
def test_compiled_session_matches_reference_at_every_boundary(
    data, mechanism, trace, config, pretrain
):
    name, params = mechanism
    stream = filter_tlb(trace, config.tlb, config.warmup_fraction)
    cap, clamp = config.buffer_entries, config.max_prefetches_per_miss
    reference_p = create_prefetcher(name, **params)
    one_shot_p = create_prefetcher(name, **params)
    session_p = create_prefetcher(name, **params)
    if pretrain is not None:
        other = filter_tlb(pretrain, config.tlb)
        replay_prefetcher(other, reference_p)
        replay_prefetcher(other, one_shot_p)
        replay(other, session_p, engine=data.draw(st.sampled_from(["reference", "batch"])))
    expected = replay_prefetcher(stream, one_shot_p, cap, clamp)

    window = ReplayWindow(stream, reference_p, PrefetchBuffer(cap), clamp)
    session = ReplaySession(stream, session_p, cap, clamp)
    while not session.finished:
        start = session.offset
        session.advance(data.draw(st.integers(1, 24), label="chunk"))
        window.run(start, session.offset)
        snap = session.snapshot()
        assert snap.mechanism.digest() == snapshot_prefetcher(reference_p).digest()
        assert snap.buffer.digest() == snapshot_buffer(window.buffer).digest()
        assert snap.pb_hits_measured == window.pb_hits
        if data.draw(st.booleans(), label="resume here"):
            session = ReplaySession.resume(
                SessionSnapshot.from_bytes(snap.to_bytes()),
                stream,
                create_prefetcher(name, **params),
            )
    assert session.stats() == expected
    assert (
        snapshot_prefetcher(session.prefetcher).digest()
        == snapshot_prefetcher(one_shot_p).digest()
    )
