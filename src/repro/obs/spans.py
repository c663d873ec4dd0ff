"""Span and event dataclasses plus the JSONL trace codec (schema v1).

A *trace* is a forest of spans: each span names one timed operation, holds
the id of its parent (``None`` for roots), and carries free-form string/
number attributes plus zero-duration :class:`SpanEvent` markers.  Spans are
identified by ``"{scope}:{counter}"`` strings — the scope names the process
role (``main``, ``worker-2``, ``cell-17``) and the counter is a seeded
per-tracer sequence, so ids are deterministic and never derived from wall
clock or RNG state.

On disk a trace is JSON Lines: one ``kind: "header"`` record stamping the
schema version and trace id, followed by one ``kind: "span"`` record per
finished span.  :func:`read_trace` is the single decode path shared by the
CLI (``repro trace report``/``flame``) and the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SERVING_SPAN_SITES",
    "Span",
    "SpanEvent",
    "TraceDecodeError",
    "read_trace",
    "read_trace_tree",
]

#: JSONL trace schema version — bump when the record shape changes.
TRACE_SCHEMA_VERSION = 1

#: Serving-path span names with pre-allocated histogram columns on the
#: shared metrics board (``repro_span_seconds{span=...}``).  Other span
#: names still land in the JSONL trace; only these get Prometheus
#: histograms, because the memmapped board's column set is fixed at create
#: time.
SERVING_SPAN_SITES = (
    "serve.predict",
    "serve.batch_predict",
    "serve.delta",
    "swap.apply",
    "swap.train",
    "swap.canary",
    "swap.build_session",
    "commit.delta",
    "commit.wal_append",
    "commit.publish",
    "commit.fan_out",
)


class TraceDecodeError(ReproError):
    """A trace file is malformed or has an unsupported schema version."""


@dataclass
class SpanEvent:
    """A named, zero-duration marker inside a span (e.g. a memo hit)."""

    name: str
    #: seconds since the owning span started (monotonic clock)
    offset_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj: dict = {"name": self.name, "offset_s": round(self.offset_s, 9)}
        if self.attrs:
            obj["attrs"] = dict(self.attrs)
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "SpanEvent":
        return cls(
            name=str(obj["name"]),
            offset_s=float(obj.get("offset_s", 0.0)),
            attrs=dict(obj.get("attrs", {})),
        )


@dataclass
class Span:
    """One finished, timed operation in a trace tree."""

    span_id: str
    name: str
    trace_id: str
    parent_id: str | None = None
    #: seconds since the tracer's epoch (monotonic clock, per process)
    start_s: float = 0.0
    duration_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    #: process role that produced the span (``main``, ``worker-N``, ...)
    scope: str = "main"
    status: str = "ok"

    def to_obj(self) -> dict:
        """JSON-safe record for the JSONL codec."""
        obj: dict = {
            "kind": "span",
            "span_id": self.span_id,
            "name": self.name,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "scope": self.scope,
            "status": self.status,
        }
        if self.attrs:
            obj["attrs"] = dict(self.attrs)
        if self.events:
            obj["events"] = [event.to_obj() for event in self.events]
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "Span":
        return cls(
            span_id=str(obj["span_id"]),
            name=str(obj["name"]),
            trace_id=str(obj["trace_id"]),
            parent_id=obj.get("parent_id"),
            start_s=float(obj.get("start_s", 0.0)),
            duration_s=float(obj.get("duration_s", 0.0)),
            attrs=dict(obj.get("attrs", {})),
            events=[SpanEvent.from_obj(e) for e in obj.get("events", ())],
            scope=str(obj.get("scope", "main")),
            status=str(obj.get("status", "ok")),
        )

    def encode_line(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))


def header_record(trace_id: str, *, scope: str = "main") -> dict:
    """The first record of every trace file."""
    return {
        "kind": "header",
        "schema": TRACE_SCHEMA_VERSION,
        "trace_id": trace_id,
        "scope": scope,
    }


def read_trace(path: str | Path) -> tuple[dict, list[Span]]:
    """Decode one JSONL trace file into ``(header, spans)``.

    Raises :class:`TraceDecodeError` on a missing/invalid header, an
    unsupported schema version, or an unparseable record.
    """
    path = Path(path)
    header: dict | None = None
    spans: list[Span] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TraceDecodeError(f"cannot read trace file {path}: {exc}") from exc
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceDecodeError(
                f"{path}:{number}: unparseable trace record: {exc}"
            ) from exc
        kind = obj.get("kind")
        if kind == "header":
            if int(obj.get("schema", -1)) != TRACE_SCHEMA_VERSION:
                raise TraceDecodeError(
                    f"{path}:{number}: unsupported trace schema "
                    f"{obj.get('schema')!r} (expected {TRACE_SCHEMA_VERSION})"
                )
            if header is None:
                header = obj
        elif kind == "span":
            try:
                spans.append(Span.from_obj(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceDecodeError(
                    f"{path}:{number}: malformed span record: {exc}"
                ) from exc
        else:
            raise TraceDecodeError(f"{path}:{number}: unknown record kind {kind!r}")
    if header is None:
        raise TraceDecodeError(f"{path}: missing trace header record")
    return header, spans


def read_trace_tree(paths: list[str | Path]) -> tuple[dict, list[Span]]:
    """Merge one or more trace files (main + per-worker sidecars).

    The first file's header wins; all spans are concatenated.  Used by the
    CLI so ``repro trace report run.jsonl`` also picks up
    ``run.jsonl.worker-*`` sidecars when present.
    """
    if not paths:
        raise TraceDecodeError("no trace files to read")
    header, spans = read_trace(paths[0])
    for extra in paths[1:]:
        _, more = read_trace(extra)
        spans.extend(more)
    return header, spans
