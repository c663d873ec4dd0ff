"""Trace analysis: span-tree assembly, per-name statistics, flame export.

Consumed by ``python -m repro trace report``/``flame`` and the tests.  All
aggregation is deterministic: ties break on span name, quantiles use the
nearest-rank method, and tree children render in first-seen order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.spans import Span

__all__ = [
    "REPORT_SCHEMA",
    "NameStats",
    "TreeNode",
    "aggregate",
    "build_tree",
    "collapsed_stacks",
    "event_summary",
    "render_report",
    "report_obj",
]

#: schema tag for ``repro trace report --json`` output
REPORT_SCHEMA = "repro.trace.report.v1"


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(round(q * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class NameStats:
    """Aggregate statistics for one span name across the trace."""

    name: str
    count: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)

    @property
    def p50_s(self) -> float:
        return _quantile(sorted(self.durations), 0.50)

    @property
    def p95_s(self) -> float:
        return _quantile(sorted(self.durations), 0.95)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "errors": self.errors,
            "total_s": round(self.total_s, 9),
            "self_s": round(self.self_s, 9),
            "p50_s": round(self.p50_s, 9),
            "p95_s": round(self.p95_s, 9),
        }


@dataclass
class TreeNode:
    """One name-path node of the merged call tree (children merged by name)."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    children: dict[str, "TreeNode"] = field(default_factory=dict)

    def child(self, name: str) -> "TreeNode":
        node = self.children.get(name)
        if node is None:
            node = TreeNode(name)
            self.children[name] = node
        return node

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": round(self.total_s, 9),
            "self_s": round(self.self_s, 9),
            "children": [child.to_obj() for child in self.children.values()],
        }


def _self_times(spans: list[Span]) -> dict[str, float]:
    """span_id -> duration minus the sum of direct children's durations."""
    child_sum: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_sum[span.parent_id] = child_sum.get(span.parent_id, 0.0) + span.duration_s
    return {
        span.span_id: max(0.0, span.duration_s - child_sum.get(span.span_id, 0.0))
        for span in spans
    }


def aggregate(spans: list[Span]) -> list[NameStats]:
    """Per-name statistics, sorted by descending self time then name."""
    self_s = _self_times(spans)
    stats: dict[str, NameStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, NameStats(span.name))
        entry.count += 1
        entry.total_s += span.duration_s
        entry.self_s += self_s[span.span_id]
        entry.durations.append(span.duration_s)
        if span.status != "ok":
            entry.errors += 1
    return sorted(stats.values(), key=lambda s: (-s.self_s, s.name))


def build_tree(spans: list[Span]) -> TreeNode:
    """The merged name-path call tree under a synthetic root.

    Spans whose parent is absent from the trace (cross-process orphans,
    dropped ring-buffer entries) attach to the root.
    """
    by_id = {span.span_id: span for span in spans}
    self_s = _self_times(spans)

    def path(span: Span) -> list[str]:
        names: list[str] = []
        seen: set[str] = set()
        cursor: Span | None = span
        while cursor is not None and cursor.span_id not in seen:
            seen.add(cursor.span_id)
            names.append(cursor.name)
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
        return list(reversed(names))

    root = TreeNode("<root>")
    for span in spans:
        node = root
        for name in path(span):
            node = node.child(name)
        node.count += 1
        node.total_s += span.duration_s
        node.self_s += self_s[span.span_id]
    return root


def collapsed_stacks(spans: list[Span]) -> list[str]:
    """Flame-graph collapsed-stack lines: ``a;b;c <self_time_us>``.

    Lines are merged by stack and sorted lexically, so the output is
    stable across span orderings; values are integer microseconds of
    *self* time (the collapsed-stack convention).
    """

    def walk(node: TreeNode, prefix: list[str], out: dict[str, int]) -> None:
        stack = prefix + [node.name]
        weight = int(round(node.self_s * 1e6))
        if weight > 0 and node.count:
            key = ";".join(stack)
            out[key] = out.get(key, 0) + weight
        for child in node.children.values():
            walk(child, stack, out)

    root = build_tree(spans)
    merged: dict[str, int] = {}
    for child in root.children.values():
        walk(child, [], merged)
    return [f"{stack} {value}" for stack, value in sorted(merged.items())]


def event_summary(spans: list[Span]) -> list[dict]:
    """Per event name: its count and the attributes of its latest occurrence.

    "Latest" is by start time plus offset, ties broken on span id, so the
    summary does not depend on span order.  Sorted by event name.
    """
    latest: dict[str, tuple[tuple[float, str], dict]] = {}
    counts: dict[str, int] = {}
    for span in spans:
        for event in span.events:
            counts[event.name] = counts.get(event.name, 0) + 1
            stamp = (span.start_s + event.offset_s, span.span_id)
            if event.name not in latest or stamp >= latest[event.name][0]:
                latest[event.name] = (stamp, event.attrs)
    return [
        {"name": name, "count": counts[name], "last": dict(latest[name][1])}
        for name in sorted(counts)
    ]


def report_obj(header: dict, spans: list[Span]) -> dict:
    """The ``--json`` payload (schema v1)."""
    return {
        "schema": REPORT_SCHEMA,
        "trace_id": header.get("trace_id", ""),
        "spans": len(spans),
        "scopes": sorted({span.scope for span in spans}),
        "names": [stats.to_obj() for stats in aggregate(spans)],
        "tree": build_tree(spans).to_obj(),
        "events": event_summary(spans),
    }


def render_report(header: dict, spans: list[Span]) -> str:
    """Human-readable report: self-time call tree, per-name quantiles and
    the latest attributes of each event name."""
    lines = [
        f"trace {header.get('trace_id', '?')} — {len(spans)} spans, "
        f"{len({s.scope for s in spans})} scope(s)",
        "",
        "call tree (count, total, self):",
    ]

    def walk(node: TreeNode, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{node.name:<40s} x{node.count:<6d} "
            f"total {node.total_s * 1e3:9.3f}ms  self {node.self_s * 1e3:9.3f}ms"
        )
        for child in node.children.values():
            walk(child, depth + 1)

    for child in build_tree(spans).children.values():
        walk(child, 1)
    lines += ["", "per span name (self-time ordered):"]
    lines.append(
        f"  {'name':<40s} {'count':>6s} {'total ms':>10s} {'self ms':>10s} "
        f"{'p50 ms':>9s} {'p95 ms':>9s} {'err':>4s}"
    )
    for stats in aggregate(spans):
        lines.append(
            f"  {stats.name:<40s} {stats.count:>6d} {stats.total_s * 1e3:>10.3f} "
            f"{stats.self_s * 1e3:>10.3f} {stats.p50_s * 1e3:>9.3f} "
            f"{stats.p95_s * 1e3:>9.3f} {stats.errors:>4d}"
        )
    events = event_summary(spans)
    if events:
        lines += ["", "events (count, latest attributes):"]
        for entry in events:
            attrs = " ".join(f"{key}={value}" for key, value in sorted(entry["last"].items()))
            lines.append(f"  {entry['name']:<40s} x{entry['count']:<6d} {attrs}")
    return "\n".join(lines)
