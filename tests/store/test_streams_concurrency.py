"""Regression: per-session locks ended the ``/streams`` serialization.

Before the per-session entry locks, one service-wide RLock serialized
every streaming request — an advance blocked in checkpointing stalled
*every other* session, and idle-eviction raced restore-on-touch
through the same lock. These tests pin the new contract: one stuck
session blocks only itself, eviction + restore proceed concurrently,
and the final statistics stay byte-identical to a one-shot run.
"""

import json
import threading
import time

import pytest

from repro.service.server import ExperimentService
from repro.store import ExperimentStore

SCALE = 0.02


def _spec_dict(**overrides):
    spec = {"workload": "galgel", "mechanism": "DP", "scale": SCALE,
            "params": {"rows": 64}}
    spec.update(overrides)
    return spec


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


@pytest.fixture
def service(store):
    return ExperimentService(store)


def _one_shot_row(service, spec_dict):
    status, payload = service.handle(
        "POST", "/runs", body={"specs": [spec_dict]}
    )
    assert status == 200
    return payload["runs"][0]


def _open(service, session_id, spec_dict):
    status, opened = service.handle(
        "POST", "/streams", body={"spec": spec_dict, "session_id": session_id}
    )
    assert status == 200
    return opened


def _drain(service, session_id):
    status, step = service.handle(
        "POST", f"/streams/{session_id}/advance", body={}
    )
    assert status == 200 and step["finished"]
    return step


class TestNoCrossSessionBlocking:
    def test_stuck_session_blocks_only_itself(self, service):
        """Two sessions advance while a third holds its lock in a slow
        checkpoint, and a fourth is evicted + restored — all without
        waiting on the stuck one."""
        slow_spec = _spec_dict()
        fast_spec = _spec_dict(workload="swim")
        third_spec = _spec_dict(workload="ammp")
        slow_expected = _one_shot_row(service, slow_spec)
        fast_expected = _one_shot_row(service, fast_spec)
        third_expected = _one_shot_row(service, third_spec)

        _open(service, "slow", slow_spec)
        _open(service, "fast", fast_spec)
        _open(service, "third", third_spec)

        # Make 'slow''s next checkpoint block until released, while it
        # holds its per-session entry lock.
        release = threading.Event()
        entered = threading.Event()
        original = service.ckpt.write
        slow_key = service.ckpt.stream_key("slow")

        def gated(key, spec, session, tenant=None):
            if key == slow_key:
                entered.set()
                assert release.wait(timeout=30), "test deadlock"
            return original(key, spec, session, tenant)

        service.ckpt.write = gated
        slow_result = {}

        def advance_slow():
            slow_result["step"] = _drain(service, "slow")

        stuck = threading.Thread(target=advance_slow)
        stuck.start()
        assert entered.wait(timeout=30)

        try:
            # While 'slow' is wedged mid-checkpoint: 'fast' advances to
            # completion...
            began = time.monotonic()
            fast_step = _drain(service, "fast")
            # ...and 'third' is evicted and restored on touch.
            entry = service._sessions.get_or_create("third")
            entry.touched = time.monotonic() - 10_000.0
            assert service._sessions.evict_idle(300.0) == 1
            status, restored_stats = service.handle(
                "GET", "/streams/third/stats"
            )
            elapsed = time.monotonic() - began
            assert status == 200
            assert restored_stats["offset"] == 0
            third_step = _drain(service, "third")
        finally:
            release.set()
            stuck.join(timeout=60)
        assert "step" in slow_result

        # The wedge held 'slow''s lock for the whole window; had the
        # old global lock still existed, the fast/third work above
        # would have waited the full 30s gate instead of finishing in
        # test time.
        assert elapsed < 20.0
        census = service._sessions.census()
        assert census["evicted"] == 1 and census["restored"] == 1

        # Interleaving and eviction changed nothing: every session's
        # final row is byte-identical to its one-shot run.
        for step, expected in (
            (slow_result["step"], slow_expected),
            (fast_step, fast_expected),
            (third_step, third_expected),
        ):
            assert json.dumps(step["stats"], sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_parallel_advances_on_distinct_sessions(self, service):
        specs = {
            f"s{i}": _spec_dict(params={"rows": 64 + i})
            for i in range(4)
        }
        expected = {
            name: _one_shot_row(service, spec) for name, spec in specs.items()
        }
        for name, spec in specs.items():
            _open(service, name, spec)

        results: dict[str, dict] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()

        def drain(name):
            try:
                step = _drain(service, name)
                with lock:
                    results[name] = step
            except BaseException as exc:  # pragma: no cover - diagnostics
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(name,)) for name in specs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert set(results) == set(specs)
        for name in specs:
            assert json.dumps(
                results[name]["stats"], sort_keys=True
            ) == json.dumps(expected[name], sort_keys=True)

    def test_concurrent_touch_of_an_evicted_session_restores_once(
        self, service
    ):
        spec = _spec_dict()
        _one_shot_row(service, spec)
        _open(service, "s1", spec)
        service.handle("POST", "/streams/s1/advance", body={"count": 100})
        service._sessions.clear()  # evict

        statuses: list[int] = []
        lock = threading.Lock()

        def touch():
            status, _ = service.handle("GET", "/streams/s1/stats")
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=touch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert statuses == [200] * 8
        # The racing touches resolved to ONE restore: the first holder
        # of the fresh entry lock restored, the rest found it live.
        assert service._sessions.census()["restored"] == 1
