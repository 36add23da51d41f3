"""Warm-start differential: trained instances on the compiled engine.

The compiled engine *continues* a trained mechanism: a one-slot kernel
seeds its tables from the instance's canonical snapshot and restores
the final state afterwards. These tests demand
full observational equivalence for every mechanism family — identical
statistics on a second stream *and* identical canonical state digests
after any interleaving of engines — plus bit-identity between chunked
:class:`~repro.ckpt.ReplaySession` streaming (with a serialize/resume
round-trip mid-stream) and a one-shot replay.
"""

from __future__ import annotations

import pytest

from repro.ckpt import ReplaySession, SessionSnapshot, snapshot_prefetcher
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner
from repro.sim.engine import replay, resolve_engine
from repro.sim.two_phase import replay_prefetcher

from tests.differential.harness import assert_identical

SCALE = 0.05


def replay_compiled(miss_trace, prefetcher):
    """A single replay forced onto the compiled engine."""
    return replay(miss_trace, prefetcher, engine="batch")


#: Every family the compiled engine replays, with small tables so state
#: actually churns (evictions, LRU promotions) at this trace scale.
FAMILIES: list[tuple[str, dict]] = [
    ("none", {}),
    ("SP", {}),
    ("SP-adaptive", {}),
    ("ASP", {"rows": 64, "ways": 2}),
    ("MP", {"rows": 64}),
    ("DP", {"rows": 64}),
    ("DP-PC", {"rows": 64, "ways": 2}),
    ("DP-2", {"rows": 64, "ways": 2}),
    ("RP", {}),
    ("RP", {"variant_three": 1}),
]

FAMILY_IDS = [
    f"{name}{''.join(f'-{k}{v}' for k, v in params.items())}"
    for name, params in FAMILIES
]


@pytest.fixture(scope="module")
def streams():
    runner = Runner(cache=MissStreamCache())
    return (
        runner.miss_stream("galgel", scale=SCALE),
        runner.miss_stream("eon", scale=SCALE),
    )


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_warm_instances_bit_identical(streams, name, params):
    """Train on stream A, then replay stream B on each engine: the
    warm second replay must agree on stats and on final state."""
    first, second = streams
    ref_p = create_prefetcher(name, **params)
    compiled_p = create_prefetcher(name, **params)
    warm_ref = replay_prefetcher(first, ref_p)
    warm_compiled = replay_compiled(first, compiled_p)
    assert_identical(warm_ref, warm_compiled, context=f"{name} cold run")
    again_ref = replay_prefetcher(second, ref_p)
    again_compiled = replay_compiled(second, compiled_p)
    assert_identical(again_ref, again_compiled, context=f"{name} warm run")
    assert (
        snapshot_prefetcher(ref_p).digest()
        == snapshot_prefetcher(compiled_p).digest()
    ), f"{name}: engines disagree on final canonical state"


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_engine_interleaving_order_is_irrelevant(streams, name, params):
    """compiled-then-reference and reference-then-compiled land on the
    same canonical state as reference-only: engines are interchangeable
    mid-sequence."""
    first, second = streams
    digests = []
    for engines in (
        (replay_prefetcher, replay_prefetcher),
        (replay_compiled, replay_prefetcher),
        (replay_prefetcher, replay_compiled),
        (replay_compiled, replay_compiled),
    ):
        p = create_prefetcher(name, **params)
        engines[0](first, p)
        engines[1](second, p)
        digests.append(snapshot_prefetcher(p).digest())
    assert len(set(digests)) == 1, f"{name}: order-dependent state {digests}"


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_chunked_session_matches_one_shot(streams, name, params):
    """ReplaySession in uneven chunks — serialized to bytes and resumed
    into a fresh instance mid-stream — equals a one-shot replay."""
    stream = streams[0]
    one_shot = replay_prefetcher(stream, create_prefetcher(name, **params))
    session = ReplaySession(stream, create_prefetcher(name, **params))
    chunk_sizes = iter((1, 97, 1024, 7, 400000))
    while not session.finished:
        session.advance(next(chunk_sizes, None))
        blob = session.snapshot().to_bytes()
        snap = SessionSnapshot.from_bytes(blob)
        session = ReplaySession.resume(
            snap, stream, create_prefetcher(name, **params)
        )
    assert_identical(one_shot, session.stats(), context=f"{name} chunked")


def test_auto_resolves_fast_for_trained_instances(streams):
    for name, params in FAMILIES:
        p = create_prefetcher(name, **params)
        replay_prefetcher(streams[0], p)
        assert resolve_engine(p, "auto") == "batch", name
