"""Ring buffer, durable JSONL sink, and trace analysis/reporting."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import SpanCollector, TraceSink
from repro.obs.report import (
    REPORT_SCHEMA,
    aggregate,
    build_tree,
    collapsed_stacks,
    render_report,
    report_obj,
)
from repro.obs.spans import (
    TRACE_SCHEMA_VERSION,
    Span,
    SpanEvent,
    TraceDecodeError,
    read_trace,
    read_trace_tree,
)


def make_span(span_id, name, parent=None, duration=0.0, scope="main", status="ok"):
    return Span(
        span_id=span_id,
        name=name,
        trace_id="t",
        parent_id=parent,
        duration_s=duration,
        scope=scope,
        status=status,
    )


class TestSpanCollector:
    def test_ring_buffer_evicts_oldest_and_counts_drops(self):
        collector = SpanCollector(capacity=2)
        for i in range(4):
            collector.add(make_span(f"main:{i}", "s"))
        assert len(collector) == 2
        assert collector.stats == {
            "buffered": 2,
            "added": 4,
            "dropped": 2,
            "capacity": 2,
        }
        assert [s.span_id for s in collector.drain()] == ["main:2", "main:3"]
        assert len(collector) == 0

    def test_snapshot_does_not_consume(self):
        collector = SpanCollector()
        collector.add(make_span("main:1", "s"))
        assert len(collector.snapshot()) == 1
        assert len(collector) == 1


class TestTraceSink:
    def test_every_physical_file_is_independently_decodable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, "t-rotate", max_bytes=400)
        spans = [make_span(f"main:{i}", "x" * 30) for i in range(10)]
        for _ in range(4):
            sink.write(spans)
        sink.close()
        assert sink.rotations >= 1
        rotated = sorted(tmp_path.glob("trace.jsonl.*"))
        assert rotated
        total = 0
        for file in [path, *rotated]:
            header, decoded = read_trace(file)
            assert header["trace_id"] == "t-rotate"
            assert header["schema"] == TRACE_SCHEMA_VERSION
            total += len(decoded)
        assert total == sink.spans_written == 40

    def test_rotation_never_overwrites_an_earlier_sinks_files(self, tmp_path):
        """A restarted sink on the same path rotates to the next free number."""
        path = tmp_path / "trace.jsonl"
        spans = [make_span(f"main:{i}", "x" * 30) for i in range(10)]
        for _ in range(2):
            sink = TraceSink(path, "t", max_bytes=400)
            sink.write(spans)
            sink.write(spans)
            sink.close()
        rotated = sorted(tmp_path.glob("trace.jsonl.*"))
        assert [p.name for p in rotated] == [f"trace.jsonl.{n}" for n in (1, 2, 3)]
        total = sum(len(read_trace(file)[1]) for file in [path, *rotated])
        assert total == 40

    def test_write_after_close_is_a_noop(self, tmp_path):
        sink = TraceSink(tmp_path / "t.jsonl", "t")
        sink.close()
        assert sink.write([make_span("main:1", "s")]) == 0


class TestTraceDecode:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(make_span("main:1", "s").encode_line() + "\n")
        with pytest.raises(TraceDecodeError, match="missing trace header"):
            read_trace(path)

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"kind": "header", "schema": 99, "trace_id": "t"}) + "\n")
        with pytest.raises(TraceDecodeError, match="unsupported trace schema"):
            read_trace(path)

    def test_read_trace_tree_merges_sidecars(self, tmp_path):
        main = TraceSink(tmp_path / "t.jsonl", "t", scope="main")
        main.write([make_span("main:1", "root")])
        main.close()
        side = TraceSink(tmp_path / "t.jsonl.worker-0", "t", scope="worker-0")
        side.write([make_span("worker-0:1", "child", parent="main:1", scope="worker-0")])
        side.close()
        header, spans = read_trace_tree(
            [tmp_path / "t.jsonl", tmp_path / "t.jsonl.worker-0"]
        )
        assert header["scope"] == "main"
        assert sorted(s.scope for s in spans) == ["main", "worker-0"]


class TestAnalysis:
    def spans(self):
        # root(1.0s) -> a(0.6) -> b(0.2); a second root-level a(0.1)
        return [
            make_span("main:1", "root", duration=1.0),
            make_span("main:2", "a", parent="main:1", duration=0.6),
            make_span("main:3", "b", parent="main:2", duration=0.2),
            make_span("main:4", "a", parent="main:1", duration=0.1, status="error"),
        ]

    def test_aggregate_self_times_and_errors(self):
        stats = {s.name: s for s in aggregate(self.spans())}
        assert stats["root"].self_s == pytest.approx(0.3)  # 1.0 - 0.6 - 0.1
        assert stats["a"].count == 2
        assert stats["a"].self_s == pytest.approx(0.5)  # (0.6 - 0.2) + 0.1
        assert stats["a"].errors == 1
        assert stats["b"].self_s == pytest.approx(0.2)

    def test_build_tree_merges_by_name_path(self):
        tree = build_tree(self.spans())
        root = tree.children["root"]
        assert root.count == 1
        assert root.children["a"].count == 2
        assert root.children["a"].children["b"].count == 1

    def test_orphan_parents_attach_to_root(self):
        orphan = [make_span("worker-9:1", "lost", parent="gone:42", duration=0.1)]
        tree = build_tree(orphan)
        assert "lost" in tree.children

    def test_collapsed_stacks_are_sorted_and_weighted(self):
        lines = collapsed_stacks(self.spans())
        assert lines == sorted(lines)
        by_stack = dict(line.rsplit(" ", 1) for line in lines)
        assert int(by_stack["root;a"]) == 500000  # 0.5s self in µs
        assert int(by_stack["root;a;b"]) == 200000

    def test_report_obj_schema(self):
        obj = report_obj({"trace_id": "t"}, self.spans())
        assert obj["schema"] == REPORT_SCHEMA
        assert obj["trace_id"] == "t"
        assert obj["spans"] == 4
        assert obj["scopes"] == ["main"]
        assert obj["tree"]["children"][0]["name"] == "root"
        json.dumps(obj)  # must be JSON-serialisable as-is

    def test_render_report_mentions_every_name(self):
        text = render_report({"trace_id": "t"}, self.spans())
        for name in ("root", "a", "b"):
            assert name in text
        assert "4 spans" in text

    def test_report_shows_latest_event_attributes(self):
        early, late = make_span("main:1", "condense.pipeline"), make_span(
            "main:2", "condense.pipeline"
        )
        late.start_s = 1.0
        early.events = [SpanEvent("context.cache_bytes", 0.1, {"total": 10, "csr": 4})]
        late.events = [SpanEvent("context.cache_bytes", 0.1, {"total": 12, "csr": 6})]
        spans = [early, late]
        summary = report_obj({"trace_id": "t"}, spans)["events"]
        assert summary == [
            {"name": "context.cache_bytes", "count": 2, "last": {"total": 12, "csr": 6}}
        ]
        assert report_obj({"trace_id": "t"}, spans[::-1])["events"] == summary
        text = render_report({"trace_id": "t"}, spans)
        assert "context.cache_bytes" in text and "csr=6 total=12" in text

    def test_deterministic_across_span_order(self):
        spans = self.spans()
        forward = report_obj({"trace_id": "t"}, spans)
        backward = report_obj({"trace_id": "t"}, list(reversed(spans)))
        assert forward["names"] == backward["names"]
        assert collapsed_stacks(spans) == collapsed_stacks(list(reversed(spans)))
