"""Span tracing: hierarchy, cross-process context, rendering."""

import pytest

from repro.obs import (
    COLLECTOR,
    Span,
    SpanCollector,
    bind_context,
    current_context,
    drain_spans,
    render_flame,
    set_enabled,
    trace,
)


@pytest.fixture(autouse=True)
def clean_collector():
    COLLECTOR.clear()
    yield
    COLLECTOR.clear()


class TestSpans:
    def test_nested_spans_share_a_trace(self):
        with trace("outer") as outer:
            with trace("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration >= inner.duration >= 0.0

    def test_sibling_spans_share_parent(self):
        with trace("root") as root:
            with trace("a") as a:
                pass
            with trace("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id

    def test_exception_marks_error_and_reraises(self):
        with pytest.raises(RuntimeError):
            with trace("boom") as span:
                raise RuntimeError("nope")
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"
        # The errored span was still recorded.
        assert any(s["name"] == "boom" for s in drain_spans())

    def test_current_context_inside_and_outside(self):
        assert current_context() is None
        with trace("x") as span:
            assert current_context() == f"{span.trace_id}:{span.span_id}"
        assert current_context() is None

    def test_bind_context_adopts_remote_parent(self):
        with bind_context("cafe1234:beef5678"):
            with trace("child") as child:
                pass
        assert child.trace_id == "cafe1234"
        assert child.parent_id == "beef5678"

    def test_bind_context_tolerates_garbage(self):
        ran = False
        for ctx in (None, "", "no-colon", ":::"):
            with bind_context(ctx):
                ran = True
        assert ran

    def test_drain_empties_the_collector(self):
        with trace("a"):
            pass
        spans = drain_spans()
        assert [s["name"] for s in spans] == ["a"]
        assert drain_spans() == []
        assert len(COLLECTOR) == 0

    def test_collector_ingest_round_trips_dicts(self):
        with trace("shipped"):
            pass
        payloads = drain_spans()
        accepted = COLLECTOR.ingest(payloads)
        assert accepted == 1
        trace_id = payloads[0]["trace_id"]
        assert [s.name for s in COLLECTOR.spans(trace_id)] == ["shipped"]

    def test_collector_keeps_only_the_newest_max_spans(self):
        # A long-lived server ingests every worker's pushed spans; the
        # cap is what bounds its memory, whichever path spans take in.
        collector = SpanCollector(max_spans=5)
        for index in range(4):
            collector.record(Span(f"local-{index}", "t", f"l{index}"))
        shipped = [
            Span(f"shipped-{index}", "t", f"s{index}").to_dict()
            for index in range(4)
        ]
        assert collector.ingest(shipped) == 4
        assert [s.name for s in collector.spans()] == [
            "local-3", "shipped-0", "shipped-1", "shipped-2", "shipped-3"
        ]
        collector.record(Span("last", "t", "z"))
        assert [s.name for s in collector.spans()] == [
            "shipped-0", "shipped-1", "shipped-2", "shipped-3", "last"
        ]

    def test_disabled_tracing_records_nothing(self):
        set_enabled(False)
        try:
            with trace("ghost") as span:
                assert current_context() is None
            assert span.span_id == ""
            assert len(COLLECTOR) == 0
        finally:
            set_enabled(True)


class TestFlameRendering:
    def test_tree_shape_and_bars(self):
        spans = [
            Span("sweep", "t", "a", None, 0.0, 1.0).to_dict(),
            Span("http.request", "t", "b", "a", 0.1, 0.4).to_dict(),
            Span("replay", "t", "c", "b", 0.2, 0.2).to_dict(),
        ]
        rendered = render_flame(spans)
        lines = rendered.splitlines()
        assert any(line.startswith("sweep") for line in lines)
        # Children indent under their parents.
        assert any(line.startswith("  http.request") for line in lines)
        assert any(line.startswith("    replay") for line in lines)

    def test_orphans_are_promoted_to_roots(self):
        spans = [Span("lost", "t", "x", "gone", 0.0, 0.5).to_dict()]
        assert "lost" in render_flame(spans)
