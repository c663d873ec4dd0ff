"""Stdlib-only asyncio HTTP endpoint over a :class:`ServingController`.

``python -m repro serve`` starts this server.  The protocol is a minimal
but real HTTP/1.1 with keep-alive and JSON bodies:

``GET /healthz``
    ``{"status": "ok", "version": N, "targets": M}`` — liveness probe.
``GET /stats``
    Engine, batcher and controller counters plus a latency summary
    (:func:`repro.evaluation.timing.summarize_latencies`).
``POST /predict``  body ``{"nodes": [id, ...]}``
    ``{"labels": [...], "version": N}``.  Requests are **coalesced**: the
    handler enqueues the ids and awaits a shared :class:`MicroBatcher`,
    which gathers requests for up to :data:`MAX_WAIT_SECONDS` after the
    first (or until :data:`MAX_BATCH` ids are pending) and answers the
    whole batch with one vectorised
    :meth:`~repro.serving.engine.InferenceSession.predict` call.  Each
    response is stamped with the session version that served it.
``POST /delta``  body: :meth:`repro.streaming.delta.GraphDelta.to_payload`
    Applies the delta through the controller's hot-swap path **in a worker
    thread** — the event loop keeps answering ``/predict`` from the live
    session for the whole duration — and returns the swap report.  Deltas
    are applied one at a time (the controller serialises swaps).
``GET /metrics``
    The same counters in Prometheus text format (see
    :mod:`repro.serving.replicated.metrics` for the exposition format); in
    the replicated tier the page aggregates every process of the pool.

Request bodies are bounded: a ``Content-Length`` beyond ``max_body_bytes``
is answered with ``413`` and a malformed or negative one with ``400`` —
both without reading the body, so an abusive client cannot make the server
buffer unbounded data or hang the connection.  When an admission capacity
is configured, ``/predict`` requests beyond it are shed with ``429``.

Zero-downtime is structural: the batcher always reads the controller's
current session *once per batch*, and the controller publishes a fully
built session with a single attribute store, so every request is answered
by exactly one consistent session — the old one or the new one.

The low-level HTTP helpers (:func:`read_http_request`,
:func:`write_http_response` and the client half, :func:`send_http_request`)
are shared with the replicated worker pool
(:mod:`repro.serving.replicated.pool`), which speaks the same protocol
from its own processes.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import CanaryRejectedError, ReproError, ServingError
from repro.evaluation.timing import summarize_latencies
from repro.obs.propagate import TRACE_HEADER, TraceContext, stamp_delta

if TYPE_CHECKING:
    from repro.serving.hotswap import ServingController

__all__ = [
    "HttpRequestError",
    "MAX_BATCH",
    "MAX_WAIT_SECONDS",
    "MicroBatcher",
    "ROUTES",
    "ServingServer",
    "read_http_request",
    "send_http_request",
    "write_http_response",
]

DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024
#: a batch stops taking queued requests once this many node ids are pending
MAX_BATCH = 256
#: how long a batch waits for more requests after its first one arrives
MAX_WAIT_SECONDS = 0.002
#: every route the server answers, ``/<name>`` -> method, in the order the
#: ``serve`` banners and ``python -m repro list`` show them; ``<method>
#: /<name>`` is answered by ``ServingServer._handle_<name>(body, start)``
ROUTES = {"healthz": "GET", "stats": "GET", "metrics": "GET", "predict": "POST", "delta": "POST"}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpRequestError(Exception):
    """A request that must be answered with an error *before* its body is read.

    Carries the HTTP status to send; the connection is closed afterwards
    because the stream position is no longer trustworthy.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


async def read_http_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
):
    """Parse one HTTP/1.1 request: ``(method, path, body, keep_alive, trace)``.

    ``trace`` is the raw ``x-repro-trace`` header value (or ``None``) — the
    cross-process trace-context carrier decoded by
    :func:`repro.obs.propagate.TraceContext.from_header`.

    Returns ``None`` on a cleanly closed or garbled connection, raises
    :class:`HttpRequestError` for requests that deserve an error response:
    ``400`` for a malformed or negative ``Content-Length``, ``413`` for a
    declared body larger than ``max_body_bytes`` (the body is *not* read —
    the bound is enforced on the declaration, before any buffering).
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _ = line.decode("latin-1").split(" ", 2)
    except ValueError:
        return None
    content_length = 0
    keep_alive = True
    trace = None
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise HttpRequestError(
                    400, f"malformed Content-Length: {value.strip()!r}"
                ) from None
            if content_length < 0:
                raise HttpRequestError(400, "negative Content-Length")
        elif name == "connection" and value.strip().lower() == "close":
            keep_alive = False
        elif name == TRACE_HEADER:
            trace = value.strip() or None
    if content_length > max_body_bytes:
        raise HttpRequestError(
            413,
            f"request body of {content_length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
        )
    body = await reader.readexactly(content_length) if content_length else b""
    return method.upper(), path, body, keep_alive, trace


async def write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | str | bytes,
    keep_alive: bool = True,
) -> None:
    """Send one response; dict payloads are JSON, str/bytes go as plain text.

    Backpressure statuses (``429``/``503``) whose payload carries
    ``retry_after_seconds`` also get a ``Retry-After`` header, so plain HTTP
    clients see the pacing hint without parsing the body.
    """
    retry_after = None
    if isinstance(payload, dict):
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
        if status in (429, 503) and "retry_after_seconds" in payload:
            retry_after = max(1, int(payload["retry_after_seconds"]))
    else:
        body = payload.encode("utf-8") if isinstance(payload, str) else payload
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + (f"Retry-After: {retry_after}\r\n" if retry_after is not None else "")
        + f"Connection: {connection}\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


async def send_http_request(
    host: str, port: int, method: str, path: str, body: bytes, headers: str = ""
) -> bytes:
    """Send one request on a fresh connection and return the raw reply.

    ``headers`` holds extra header lines, each ending in CRLF.  The reply
    is read to EOF; connection errors propagate.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {len(body)}\r\n"
            f"{headers}Connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


class MicroBatcher:
    """Coalesces concurrent prediction requests into vectorised batches.

    The drain loop takes the first queued request, then whatever else is
    queued or arrives within :data:`MAX_WAIT_SECONDS` of it, until
    :data:`MAX_BATCH` ids are pending, and answers the batch at once.
    Requests already queued join without waiting, so a backlog is cut into
    full batches; the wait bounds the latency it adds to a lone request.

    Parameters
    ----------
    get_session:
        Zero-argument callable returning the current
        :class:`~repro.serving.engine.InferenceSession` (read once per
        drained batch, so a whole batch is answered by one session).
    """

    def __init__(self, get_session) -> None:
        self.get_session = get_session
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self.batches_served = 0
        self.requests_served = 0

    def start(self) -> None:
        """Spawn the drain loop on the running event loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> None:
        """Cancel the drain loop."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def submit(self, node_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Enqueue ``node_ids``; resolves to ``(labels, session version)``."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((node_ids, future))
        return await future

    async def _drain(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            pending = int(first[0].size)
            deadline = perf_counter() + MAX_WAIT_SECONDS
            while pending < MAX_BATCH:
                if self._queue.empty():
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                else:
                    item = self._queue.get_nowait()
                batch.append(item)
                pending += int(item[0].size)
            ids = np.concatenate([item[0] for item in batch])
            try:
                with obs.span(
                    "serve.batch_predict", requests=len(batch), ids=int(ids.size)
                ):
                    session = self.get_session()
                    labels = session.predict(ids)
                    version = session.version
            except Exception:
                # Isolate the offender: retry each request on its own so a
                # single bad batch member cannot fail its batch-mates.
                for request_ids, future in batch:
                    try:
                        session = self.get_session()
                        result = (session.predict(request_ids), session.version)
                    except Exception as exc:
                        if not future.done():
                            future.set_exception(exc)
                    else:
                        if not future.done():
                            future.set_result(result)
                continue
            self.batches_served += 1
            self.requests_served += len(batch)
            cursor = 0
            for request_ids, future in batch:
                span = int(request_ids.size)
                if not future.done():
                    future.set_result((labels[cursor : cursor + span], version))
                cursor += span

    @property
    def stats(self) -> dict[str, object]:
        """Batching effectiveness counters."""
        served = self.batches_served
        return {
            "batches": served,
            "requests": self.requests_served,
            "mean_requests_per_batch": (
                round(self.requests_served / served, 3) if served else 0.0
            ),
        }


class ServingServer:
    """Asyncio TCP server speaking minimal HTTP/1.1 over a controller."""

    def __init__(
        self,
        controller: ServingController,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        on_swap=None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        admission_capacity: int = 0,
        metrics=None,
        sock=None,
    ) -> None:
        from repro.serving.replicated.admission import AdmissionGate
        from repro.serving.replicated.metrics import MetricsBoard

        self.controller = controller
        self.host = host
        self.port = int(port)
        #: optional callback invoked (in the swap worker thread) after every
        #: completed hot-swap — ``python -m repro serve`` persists bundles here
        self.on_swap = on_swap
        self.max_body_bytes = int(max_body_bytes)
        #: this process's row of the (possibly shared) metrics board
        if metrics is None:
            self._board = MetricsBoard.in_memory()
            self.metrics = self._board.slot(0)
        else:
            self._board = metrics.board
            self.metrics = metrics
        self.admission = AdmissionGate(admission_capacity, metrics=self.metrics)
        #: optional pre-bound listening socket (the replicated tier binds one
        #: per process with SO_REUSEPORT so the kernel load-balances accepts)
        self.sock = sock
        self.batcher = MicroBatcher(
            # Resolve self.controller dynamically: the replicated tier
            # *replaces* the controller after a quarantine rebuild, and the
            # batcher must follow it rather than pin the constructor's one.
            lambda: self.controller.session,
        )
        self._server: asyncio.AbstractServer | None = None
        self._swap_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-swap"
        )
        self._latencies: list[float] = []
        self.errors = 0

    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``."""
        import os

        self.batcher.start()
        if self.sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self.sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], int(sockname[1])
        self.metrics.mark_up(pid=os.getpid(), version=self.controller.version)
        # Bridge finished spans into the metrics board (repro_span_seconds);
        # hooked per-server so the /metrics page reflects this process.
        tracer = obs.active()
        if tracer is not None and self._observe_span not in tracer.on_finish:
            tracer.on_finish.append(self._observe_span)
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Run until cancelled."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain the batcher, shut the swap worker down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        # shutdown(wait=True) joins any in-flight swap; do the join in a
        # thread so a slow commit can't freeze other tasks on this loop.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._swap_pool.shutdown(wait=True)
        )
        tracer = obs.active()
        if tracer is not None and self._observe_span in tracer.on_finish:
            tracer.on_finish.remove(self._observe_span)
        self.metrics.mark_down()

    def _observe_span(self, span) -> None:
        """on_finish hook: feed span durations into the metrics board."""
        self.metrics.observe_span(span.name, span.duration_s)

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_http_request(
                        reader, max_body_bytes=self.max_body_bytes
                    )
                except HttpRequestError as exc:
                    # The body was never read, so the stream position is
                    # unknown: answer and close instead of hanging.
                    self.errors += 1
                    self.metrics.observe_request("other")
                    self.metrics.observe_response("other", exc.status)
                    await write_http_response(
                        writer, exc.status, {"error": str(exc)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, body, keep_alive, trace = request
                status, payload = await self._route(method, path, body, trace)
                await write_http_response(writer, status, payload, keep_alive)
                if status >= 500 or not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------ #
    @staticmethod
    def _endpoint_of(path: str) -> str:
        name = path.lstrip("/")
        return name if name in ROUTES else "other"

    async def _route(
        self, method: str, path: str, body: bytes, trace: str | None = None
    ) -> tuple[int, dict | str]:
        start = perf_counter()
        endpoint = self._endpoint_of(path)
        self.metrics.observe_request(endpoint)
        self.metrics.heartbeat()
        if endpoint in ("predict", "delta") and obs.active() is not None:
            # Attach the request span under the remote caller's span when the
            # client sent an x-repro-trace header (worker delta forwarding,
            # traced benchmarks); otherwise under this process's root.
            remote = TraceContext.from_header(trace) if trace else None
            with obs.span(
                f"serve.{endpoint}",
                _parent=remote.parent_id if remote is not None else None,
                bytes=len(body),
            ) as handle:
                status, payload = await self._dispatch(method, path, body, start)
                if handle is not None:
                    handle.attrs["status"] = int(status)
        else:
            status, payload = await self._dispatch(method, path, body, start)
        self.metrics.observe_response(
            endpoint,
            status,
            perf_counter() - start if endpoint == "predict" else None,
        )
        return status, payload

    async def _dispatch(
        self, method: str, path: str, body: bytes, start: float
    ) -> tuple[int, dict | str]:
        name = path[1:]
        if path[:1] != "/" or ROUTES.get(name) != method:
            return 404, {"error": f"no route for {method} {path}"}
        try:
            return await getattr(self, f"_handle_{name}")(body, start)
        except CanaryRejectedError as exc:
            # Not a bad request: the delta was valid, the retrained candidate
            # failed the canary gate and was rolled back.  The previous
            # version is still answering.
            self.errors += 1
            return 422, {
                "error": str(exc),
                "rolled_back": True,
                "canary": dict(exc.report),
                "version": self.controller.version,
            }
        except ReproError as exc:
            self.errors += 1
            return 400, {"error": str(exc)}
        except Exception as exc:  # never kill the connection loop silently
            self.errors += 1
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _handle_healthz(self, body: bytes, start: float) -> tuple[int, dict]:
        session = self.controller.session
        return 200, {
            "status": "ok",
            "version": session.version,
            "targets": session.num_targets,
        }

    async def _handle_metrics(self, body: bytes, start: float) -> tuple[int, str]:
        from repro.serving.replicated.metrics import render_prometheus

        return 200, render_prometheus(self._board)

    async def _handle_predict(self, body: bytes, start: float) -> tuple[int, dict]:
        payload = _parse_json(body)
        nodes = payload.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ServingError("predict body must be {'nodes': [id, ...]}")
        try:
            ids = np.asarray(nodes, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ServingError(f"node ids must be integers: {exc}") from exc
        # Validate here, against the current session, so one bad request can
        # never poison the other requests coalesced into its micro-batch.
        # Safe across swaps: the id space only grows (removals tombstone).
        bound = self.controller.session.num_targets
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise ServingError(f"node id out of range: valid ids are 0..{bound - 1}")
        if not self.admission.try_enter():
            obs.event("serve.shed", depth=self.admission.depth)
            return 429, {
                "error": "admission queue full: retry with backoff",
                "depth": self.admission.depth,
            }
        try:
            labels, version = await self.batcher.submit(ids)
        finally:
            self.admission.leave()
        elapsed = perf_counter() - start
        self._latencies.append(elapsed)
        if len(self._latencies) > 100_000:
            del self._latencies[: len(self._latencies) // 2]
        return 200, {
            "labels": labels.tolist(),
            "version": version,
            "latency_ms": round(elapsed * 1e3, 3),
        }

    async def _handle_delta(self, body: bytes, start: float) -> tuple[int, dict]:
        # Workers override this method, so only a server that applies
        # deltas imports the streaming stack.
        from repro.streaming.delta import GraphDelta

        payload = _parse_json(body)
        # Stamp the serve.delta span's context onto the delta metadata: it
        # rides to_payload() into the WAL, so replay spans correlate with
        # the commit that produced them.  No-op while tracing is disabled.
        delta = stamp_delta(GraphDelta.from_payload(payload))
        loop = asyncio.get_running_loop()

        def swap():
            report = self.controller.apply_delta(delta)
            if self.on_swap is not None:
                self.on_swap(report)
            return report

        # run_in_executor does not carry contextvars into the worker thread;
        # copy the context so swap spans stay children of serve.delta.
        call = contextvars.copy_context().run
        report = await loop.run_in_executor(self._swap_pool, call, swap)
        self.metrics.observe_swap(report.swap_seconds)
        self.metrics.set_version(report.version)
        return 200, {
            "step": report.step,
            "mode": report.mode,
            "version": report.version,
            "retrained": report.retrained,
            "dirty_count": report.dirty_count,
            "cache_carried": report.cache_carried,
            "condense_seconds": round(report.condense_seconds, 6),
            "train_seconds": round(report.train_seconds, 6),
            "swap_seconds": round(report.swap_seconds, 6),
        }

    async def _handle_stats(self, body: bytes, start: float) -> tuple[int, dict]:
        return 200, {
            "session": self.controller.session.stats,
            "controller": self.controller.stats,
            "batcher": self.batcher.stats,
            "admission": self.admission.stats,
            "errors": self.errors,
            "latency": summarize_latencies(self._latencies),
        }


def _parse_json(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServingError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServingError("request body must be a JSON object")
    return payload
