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

The session writer is held to the oracle directly: for every compiled
family and kernel table layout, the bytes the kernel writes at every
chunk boundary must equal ``encode_blob`` of the session snapshot built
from the reference engine's instance and buffer, and a session resumed
from those bytes must finish with the one-shot row.

Budget: ``DIFF_FUZZ_EXAMPLES`` when set (the CI budget), else a small
tier-1 default.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.ckpt import (
    ReplaySession,
    SessionSnapshot,
    encode_blob,
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.mem.trace import ReferenceTrace
from repro.prefetch.factory import create_prefetcher
from repro.sim import batchpath
from repro.sim.config import TLBConfig
from repro.sim.engine import replay
from repro.sim.two_phase import ReplayWindow, filter_tlb, replay_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer

from tests.differential.test_fuzz import mechanism_configs, rle_traces, sim_configs

EXAMPLES = int(os.environ.get("DIFF_FUZZ_EXAMPLES", "60"))

#: case -> (mechanism, params): every compiled family, and every table
#: family in every kernel layout it takes (pinned by
#: test_writer_cases_cover_every_layout).
WRITER_CASES = {
    "none": ("none", {}),
    "SP": ("SP", {"degree": 2}),
    "ASP-seq": ("SP-adaptive", {"max_degree": 8, "window": 4}),
    "ASP-stride_dm": ("ASP", {"rows": 8, "ways": 1}),
    "ASP-sets": ("ASP", {"rows": 8, "ways": 2}),
    "MP-dm2": ("MP", {"rows": 8, "ways": 1, "slots": 2}),
    "MP-sets": ("MP", {"rows": 8, "ways": 0, "slots": 2}),
    "DP-dm": ("DP", {"rows": 8, "ways": 1, "slots": 3}),
    "DP-dm2": ("DP", {"rows": 16, "ways": 1, "slots": 2}),
    "DP-sets": ("DP", {"rows": 8, "ways": 2, "slots": 1}),
    "DP-PC-sets": ("DP-PC", {"rows": 16, "ways": 4, "slots": 2}),
    "DP-PC-dm": ("DP-PC", {"rows": 8, "ways": 1, "slots": 1}),
    "DP-2-dm2": ("DP-2", {"rows": 8, "ways": 1, "slots": 2}),
    "DP-2-sets": ("DP-2", {"rows": 8, "ways": 2, "slots": 3}),
    "RP": ("RP", {}),
    "RP-variant_three": ("RP", {"variant_three": 1}),
}

WRITER_EXAMPLES = max(EXAMPLES // 4, 10)


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


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
@settings(max_examples=WRITER_EXAMPLES, deadline=None)
@given(data=st.data(), trace=rle_traces(), config=sim_configs())
def test_writer_bytes_are_the_oracle_encoding(case, data, trace, config):
    name, params = WRITER_CASES[case]
    stream = filter_tlb(trace, config.tlb, config.warmup_fraction)
    cap, clamp = config.buffer_entries, config.max_prefetches_per_miss
    expected = replay_prefetcher(stream, create_prefetcher(name, **params), cap, clamp)
    reference = create_prefetcher(name, **params)
    window = ReplayWindow(stream, reference, PrefetchBuffer(cap), clamp)
    session = ReplaySession(stream, create_prefetcher(name, **params), cap, clamp)
    while True:
        written = session.snapshot().to_bytes()
        oracle = SessionSnapshot(
            offset=session.offset,
            pb_hits_measured=window.pb_hits,
            issued_before=0,
            overhead_before=0,
            max_prefetches_per_miss=clamp,
            mechanism=snapshot_prefetcher(reference),
            buffer=snapshot_buffer(window.buffer),
        )
        assert written == encode_blob("session", oracle.to_payload())
        if session.finished:
            break
        if data.draw(st.booleans(), label="resume here"):
            session = ReplaySession.resume(
                SessionSnapshot.from_bytes(written),
                stream,
                create_prefetcher(name, **params),
            )
        start = session.offset
        session.advance(data.draw(st.integers(1, 24), label="chunk"))
        window.run(start, session.offset)
    assert session.stats() == expected


def test_writer_cases_cover_every_layout():
    """The cases reach every family, RP's two variants, and every table
    layout a kernel runs (kernels never collapse to ``dict``)."""
    stream = filter_tlb(ReferenceTrace([0, 1], [3, 9], [1, 1]), TLBConfig(entries=4))
    reached = set()
    for name, params in WRITER_CASES.values():
        kernel = batchpath.ReplayKernel(
            stream, create_prefetcher(name, **params), snapshot_buffer(PrefetchBuffer(4))
        )
        kind = kernel._family.kind
        if kernel._family.row_codec is not None:
            reached.add((kind, batchpath._layout(kernel._sig)))
        elif kind == "mech.rp":
            reached.add((kind, params.get("variant_three", 0)))
        else:
            reached.add((kind, None))
    assert reached == {
        ("mech.none", None), ("mech.sp", None), ("mech.asp_seq", None),
        ("mech.rp", 0), ("mech.rp", 1),
        ("mech.asp", "stride_dm"), ("mech.asp", "sets"),
        ("mech.mp", "dm2"), ("mech.mp", "sets"),
        ("mech.dp", "dm"), ("mech.dp", "dm2"), ("mech.dp", "sets"),
        ("mech.dp_pc", "dm"), ("mech.dp_pc", "sets"),
        ("mech.dp2", "dm2"), ("mech.dp2", "sets"),
    }
