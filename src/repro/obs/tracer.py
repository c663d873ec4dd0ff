"""The context-var span stack: no-op-by-default tracing primitives.

Production code is instrumented with three primitives:

``with span("commit.delta", step=3):``
    Times a block and attaches attributes.
``@traced("stream.warm_start_coverage")``
    Times every call of a function.
``event("memo.target_hit")``
    Stamps a zero-duration marker on the innermost open span.

All three are **branch-only no-ops** until a :class:`Tracer` is installed
(:func:`install` / :func:`tracing` / :func:`bootstrap_from_env`): the
disabled fast path is one module-global read and a ``None`` check, no
allocation, no contextvar access — safe to leave on the hottest paths.

Determinism: span ids are ``"{scope}:{n}"`` with ``n`` from a seeded
counter; timing uses the monotonic ``perf_counter`` clock only for
*measurement*, never for ids or control flow, so a traced run's
computational outputs stay byte-identical to an untraced run.

The span stack lives in a :mod:`contextvars` variable, so it is correct
under both threads and asyncio tasks (each task sees its own stack, and a
span opened before an ``await`` is still current after it).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
from contextlib import contextmanager
from time import perf_counter

from repro.obs.export import DEFAULT_FLUSH_EVERY, SpanCollector, TraceSink
from repro.obs.spans import Span, SpanEvent

__all__ = [
    "Tracer",
    "active",
    "bootstrap_from_env",
    "event",
    "install",
    "span",
    "traced",
    "tracing",
    "uninstall",
]

#: environment carrier for cross-process bootstrap (set by ``repro trace
#: record`` so spawned serving workers trace themselves)
ENV_TRACE_FILE = "REPRO_TRACE_FILE"
ENV_TRACE_ID = "REPRO_TRACE_ID"

_CURRENT: contextvars.ContextVar["_SpanHandle | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

_ACTIVE: Tracer | None = None
_GUARD = threading.Lock()


class _NoopSpan:
    """Singleton context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _SpanHandle:
    """An *open* span: context manager that finishes it on exit."""

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start",
        "events",
        "_token",
        "_explicit_parent",
    )

    def __init__(
        self, tracer: "Tracer", name: str, attrs: dict, *, parent: str | None = None
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer.next_span_id()
        self.parent_id: str | None = None
        self.start = 0.0
        self.events: list[SpanEvent] = []
        self._token = None
        self._explicit_parent = parent

    def __enter__(self) -> "_SpanHandle":
        if self._explicit_parent is not None:
            self.parent_id = self._explicit_parent
        else:
            parent = _CURRENT.get()
            self.parent_id = parent.span_id if parent is not None else self.tracer.root_parent
        self._token = _CURRENT.set(self)
        profiler = self.tracer.profiler
        if profiler is not None:
            profiler.on_enter(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = perf_counter() - self.start
        profiler = self.tracer.profiler
        if profiler is not None:
            profiler.on_exit(self)
        if self._token is not None:
            _CURRENT.reset(self._token)
        self.tracer._finish(
            Span(
                span_id=self.span_id,
                name=self.name,
                trace_id=self.tracer.trace_id,
                parent_id=self.parent_id,
                start_s=self.start - self.tracer.epoch,
                duration_s=duration,
                attrs=self.attrs,
                events=self.events,
                scope=self.tracer.scope,
                status="error" if exc_type is not None else "ok",
            )
        )
        return False

    def add_event(self, name: str, attrs: dict) -> None:
        self.events.append(
            SpanEvent(name=name, offset_s=perf_counter() - self.start, attrs=attrs)
        )


class Tracer:
    """One process's tracing session: id allocator + collector + sink.

    Parameters
    ----------
    trace_id:
        Logical trace identity, shared across every process participating
        in one recorded run.  Callers derive it from run parameters (a
        dataset/seed string, a content hash) — never from the clock.
    scope:
        Process-role prefix for span ids (``main``, ``worker-2``,
        ``cell-17``); keeps ids collision-free across processes without
        any coordination.
    collector:
        Ring buffer finished spans land in (a fresh default one if
        omitted).
    sink:
        Optional :class:`~repro.obs.export.TraceSink`; when set, the
        collector is drained into it every ``flush_every`` spans.
    profiler:
        Optional :class:`~repro.obs.profile.SpanProfiler` sampling RSS /
        allocations per span.
    """

    def __init__(
        self,
        trace_id: str,
        *,
        scope: str = "main",
        collector: SpanCollector | None = None,
        sink: TraceSink | None = None,
        profiler=None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        counter_start: int = 1,
    ) -> None:
        self.trace_id = str(trace_id)
        self.scope = str(scope)
        self.collector = collector if collector is not None else SpanCollector()
        self.sink = sink
        self.profiler = profiler
        self.flush_every = max(1, int(flush_every))
        #: parent id adopted by root spans — set when continuing a trace
        #: that began in another process (see :mod:`repro.obs.propagate`)
        self.root_parent: str | None = None
        #: callables invoked with every finished span (metrics bridges)
        self.on_finish: list = []
        self.epoch = perf_counter()
        self._ids = itertools.count(int(counter_start))
        self._id_lock = threading.Lock()
        self._pending = 0

    def next_span_id(self) -> str:
        with self._id_lock:
            return f"{self.scope}:{next(self._ids)}"

    def start_span(
        self, name: str, attrs: dict, *, parent: str | None = None
    ) -> _SpanHandle:
        return _SpanHandle(self, str(name), attrs, parent=parent)

    def _finish(self, span: Span) -> None:
        self.collector.add(span)
        for hook in self.on_finish:
            try:  # a broken metrics bridge must never fail the traced code
                hook(span)
            except Exception:  # reprolint: disable=REP-E601 observability hooks are best-effort side channels
                pass
        if self.sink is not None:
            self._pending += 1
            if self._pending >= self.flush_every:
                self.flush()

    def flush(self) -> None:
        """Drain buffered spans into the sink (no-op without one)."""
        if self.sink is None:
            return
        spans = self.collector.drain()
        self._pending = 0
        if spans:
            self.sink.write(spans)

    def close(self) -> None:
        """Flush and close the sink; the tracer stays usable as buffer-only."""
        if self.sink is not None:
            self.flush()
            self.sink.close()

    def drain_spans(self) -> list[Span]:
        """Consume buffered spans (process-pool workers return these)."""
        return self.collector.drain()

    @property
    def stats(self) -> dict:
        out = dict(self.collector.stats)
        if self.sink is not None:
            out.update(self.sink.stats)
        return out


# --------------------------------------------------------------------------- #
# Process-global installation (mirrors repro.utils.faults)
# --------------------------------------------------------------------------- #
def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process's active tracer (replacing any)."""
    global _ACTIVE
    with _GUARD:
        _ACTIVE = tracer
    return tracer


def uninstall() -> None:
    """Disable tracing; every primitive becomes a branch-only no-op again."""
    global _ACTIVE
    with _GUARD:
        _ACTIVE = None


def active() -> Tracer | None:
    """The installed tracer, or ``None``."""
    return _ACTIVE


def span(name: str, _parent: str | None = None, **attrs):
    """Context manager timing a block — a shared no-op when disabled.

    ``_parent`` overrides the contextvar stack: a request handler that
    decoded a remote :class:`~repro.obs.propagate.TraceContext` passes its
    ``parent_id`` here so the local span attaches under the remote caller.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.start_span(name, attrs, parent=_parent)


def event(name: str, **attrs) -> None:
    """Stamp a zero-duration marker on the innermost open span, if any."""
    if _ACTIVE is None:
        return
    handle = _CURRENT.get()
    if handle is not None:
        handle.add_event(str(name), attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form of :func:`span` (label defaults to the qualname)."""

    def wrap(fn):
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            tracer = _ACTIVE
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.start_span(label, dict(attrs)):
                return fn(*args, **kwargs)

        return inner

    return wrap


@contextmanager
def tracing(
    trace_id: str,
    *,
    scope: str = "main",
    path=None,
    profiler=None,
    flush_every: int = DEFAULT_FLUSH_EVERY,
    export_env: bool = False,
):
    """``with``-scoped tracer install that always flushes and uninstalls.

    ``path`` attaches a JSONL sink; ``export_env=True`` additionally
    exports the trace file/id into the environment so spawned worker
    processes pick the session up via :func:`bootstrap_from_env`.
    """
    sink = TraceSink(path, trace_id, scope=scope) if path is not None else None
    tracer = Tracer(
        trace_id, scope=scope, sink=sink, profiler=profiler, flush_every=flush_every
    )
    exported = False
    if export_env and path is not None:
        os.environ[ENV_TRACE_FILE] = str(path)
        os.environ[ENV_TRACE_ID] = str(trace_id)
        exported = True
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall()
        tracer.close()
        if exported:
            os.environ.pop(ENV_TRACE_FILE, None)
            os.environ.pop(ENV_TRACE_ID, None)


def bootstrap_from_env(scope: str) -> Tracer | None:
    """Install a tracer in a spawned process if the parent exported one.

    Reads ``REPRO_TRACE_FILE``/``REPRO_TRACE_ID``; the child writes its
    spans to the ``<file>.<scope>`` sidecar so concurrent processes never
    interleave writes in one file.  Returns the installed tracer, or
    ``None`` when the environment carries no trace session.
    """
    base = os.environ.get(ENV_TRACE_FILE)
    if not base:
        return None
    trace_id = os.environ.get(ENV_TRACE_ID, "trace")
    path = f"{base}.{scope}"
    sink = TraceSink(path, trace_id, scope=scope)
    return install(Tracer(trace_id, scope=scope, sink=sink))
