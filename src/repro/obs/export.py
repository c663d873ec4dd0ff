"""Trace collection and durable JSONL export.

:class:`SpanCollector` is a bounded ring buffer: finished spans land here
first, so tracing a long-running server cannot grow memory without bound
(the oldest spans are dropped and counted).  :class:`TraceSink` drains the
collector into an append-only JSON Lines file following the repo's
durability idiom — contents are flushed and ``fsync``-ed before every
rotation, the rotated file is renamed with
:func:`~repro.utils.durable.durable_rename` (rename plus parent-directory
fsync), and the fresh live file appears with its header already in place
(:func:`~repro.utils.durable.atomic_write`).

Writes are *batched*: spans accumulate in the ring buffer and hit the file
only when ``flush_every`` spans are pending (or on an explicit
:meth:`TraceSink.flush`/:meth:`TraceSink.close`), keeping the per-span cost
of tracing an async serving path to a deque append.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from pathlib import Path

from repro.obs.spans import Span, header_record
from repro.utils.durable import atomic_write, durable_rename

__all__ = ["SpanCollector", "TraceSink"]

#: default ring-buffer capacity (spans)
DEFAULT_CAPACITY = 65536
#: default pending-span threshold that triggers a sink write
DEFAULT_FLUSH_EVERY = 256
#: default rotation threshold (bytes); 0 disables rotation
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class SpanCollector:
    """Thread-safe bounded buffer of finished spans.

    ``capacity`` bounds memory; once full, the oldest span is evicted and
    ``dropped`` incremented, so a forgotten tracer degrades into a
    fixed-size window instead of an OOM.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._spans: deque[Span] = deque(maxlen=max(1, self.capacity))
        self._lock = threading.Lock()
        self.added = 0
        self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)
            self.added += 1

    def extend(self, spans) -> None:
        for span in spans:
            self.add(span)

    def drain(self) -> list[Span]:
        """Remove and return every buffered span (oldest first)."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    def snapshot(self) -> list[Span]:
        """A copy of the buffered spans without consuming them."""
        with self._lock:
            return list(self._spans)

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "buffered": len(self._spans),
                "added": self.added,
                "dropped": self.dropped,
                "capacity": self.capacity,
            }


class TraceSink:
    """Append-only JSONL trace writer with fsync-on-rotate durability.

    The sink owns its file handle; a header record is written on open (and
    after every rotation) so each physical file is independently decodable
    by :func:`repro.obs.spans.read_trace`.  ``max_bytes`` bounds the live
    file: when exceeded, the current file is fsync-ed, durably renamed to
    ``<path>.<n>``, and a fresh file holding only the header is published
    in its place, so a crash mid-rotation never leaves a headerless file.
    """

    def __init__(
        self,
        path: str | Path,
        trace_id: str,
        *,
        scope: str = "main",
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = Path(path)
        self.trace_id = str(trace_id)
        self.scope = str(scope)
        self.max_bytes = int(max_bytes)
        self.rotations = 0
        self.spans_written = 0
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        if self._handle.tell() == 0:
            self._handle.write(self._header_line())
            self._handle.flush()

    def _header_line(self) -> str:
        record = header_record(self.trace_id, scope=self.scope)
        return json.dumps(record, sort_keys=True) + "\n"

    def write(self, spans) -> int:
        """Append ``spans``; rotate first if the live file is over budget."""
        with self._lock:
            if self._handle.closed:
                return 0
            if self.max_bytes and self._handle.tell() >= self.max_bytes:
                self._rotate_locked()
            for span in spans:
                self._handle.write(span.encode_line() + "\n")
                self.spans_written += 1
            self._handle.flush()
            return self.spans_written

    def _rotate_locked(self) -> None:
        # Contents reach disk before the rename, the rename reaches disk via
        # the directory fsync, and the new live file is published complete
        # with its header — the same sequence as a serving publish.
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self.rotations += 1
        # Numbers already taken — by an earlier sink on this path, or one
        # that crashed mid-rotation — are skipped, never overwritten.
        index = self.rotations
        while (rotated := self.path.with_name(f"{self.path.name}.{index}")).exists():
            index += 1
        durable_rename(self.path, rotated)
        atomic_write(self.path, self._header_line().encode("utf-8"))
        self._handle = open(self.path, "a", encoding="utf-8")

    def flush(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        """Flush, fsync and close the live file (idempotent)."""
        with self._lock:
            if self._handle.closed:
                return
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    @property
    def stats(self) -> dict[str, int]:
        return {
            "spans_written": self.spans_written,
            "rotations": self.rotations,
        }
