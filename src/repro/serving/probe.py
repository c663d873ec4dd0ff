"""The verified live-replay check behind ``serve --selftest`` and ``bench_serving.py``.

A model is served while graph deltas re-condense it, and every
``/predict`` answer must equal the labels of the model version it names.
:func:`verified_reads` runs concurrent readers that send :func:`request` s
and judge every answer by one rule, :meth:`LabelBook.judge`: a 200 that
names a version the book holds, or the live one, with labels byte-equal to
that version's.  The book snapshots the live session when an answer names
it before its ``/delta`` ack arrives.  Readers given a floor also count an
answer older than the version acked when they sent it.  Anything else is
counted in their :class:`Tally`.  :func:`replay` posts a delta schedule
meanwhile, each delta through :func:`commit`, which acks the version a
swap returns.

Examples
--------
>>> import numpy as np
>>> from repro.serving.engine import InferenceSession
>>> logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
>>> session = InferenceSession.from_logits(logits, version=1)
>>> book = LabelBook(lambda: session)
>>> ids = np.array([1, 2])
>>> book.judge(ids, 200, {"version": 1, "labels": [1, 0]}) is None
True
>>> book.judge(ids, 200, {"version": 1, "labels": [1, 1]})
'incorrect'
"""

from __future__ import annotations

import asyncio
import json
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, AsyncIterator, Callable

import numpy as np

from repro.errors import ServingError
from repro.serving.server import send_http_request

if TYPE_CHECKING:
    from repro.serving.engine import InferenceSession

__all__ = ["LabelBook", "Tally", "commit", "replay", "request", "verified_reads"]

#: concurrent ``/predict`` readers
CLIENTS = 8
#: node ids per ``/predict`` request
IDS_PER_REQUEST = 16
#: pre-drawn requests the readers cycle through
ID_POOL = 1024
#: pause before a reader retries a connection error or a non-200
RETRY_PAUSE_SECONDS = 0.02
#: pause after each replayed swap so the readers hit the fresh session
SETTLE_SECONDS = 0.05
#: a request with no reply after this long fails, so a wedged server
#: fails a check instead of hanging it
TIMEOUT_SECONDS = 120.0


async def request(
    host: str, port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict | str]:
    """Send one request on a fresh connection; returns ``(status, body)``.

    A JSON reply is decoded, any other (``/metrics``) comes back as text.
    Raises :class:`ConnectionResetError` when the server closes the
    connection without a reply, and :class:`asyncio.TimeoutError` when no
    reply arrives within :data:`TIMEOUT_SECONDS`.
    """
    body = json.dumps(payload or {}).encode()
    raw = await asyncio.wait_for(send_http_request(host, port, method, path, body), TIMEOUT_SECONDS)
    if not raw:
        raise ConnectionResetError("empty response")
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"application/json" in head:
        return status, json.loads(content or b"{}")
    return status, content.decode("utf-8", "replace")


@dataclass
class Tally:
    """What a set of readers saw.

    Every 200 is *answered* and judged once: it is correct, ``stale`` or
    ``incorrect``.  A read whose every attempt failed is ``dropped``.
    """

    answered: int = 0
    retries: int = 0
    dropped: int = 0
    stale: int = 0
    incorrect: int = 0
    #: seconds per completed exchange, whatever its status
    latencies: list[float] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return self.dropped + self.stale + self.incorrect


class LabelBook:
    """The labels of every version an answer may name, keyed by version.

    ``live`` returns the session serving now.  It is called on every
    lookup, so the book follows a controller the replicated tier replaces
    on a quarantine rebuild.  The session live at construction is recorded
    and acknowledged.
    """

    def __init__(self, live: Callable[[], InferenceSession]) -> None:
        self.live = live
        self.labels: dict[int, np.ndarray] = {}
        #: the newest acknowledged version: the floor of readers given one
        self.acked = 0
        self.ack(live().version)

    def lookup(self, version: int) -> np.ndarray | None:
        """The labels of ``version``: recorded, or snapshotted now if it is live.

        A snapshot is the argmax of the session's logits, past its LRU
        cache, so an answer served from a bad cache carry-over is caught.
        """
        labels = self.labels.get(version)
        if labels is None:
            session = self.live()
            if session.version == version:
                labels = session.argmax_labels(np.arange(session.num_targets))
                self.labels[version] = labels
        return labels

    def ack(self, version: int) -> None:
        """Record a ``/delta``-acknowledged ``version`` and raise the floor to it."""
        if self.lookup(version) is None:
            raise ServingError(f"acknowledged version {version} is neither recorded nor live")
        self.acked = max(self.acked, version)

    def judge(
        self, ids: np.ndarray, status: int | None, reply, *, floor: int | None = None
    ) -> str | None:
        """The one rule: ``None`` for a correct answer, else the :class:`Tally` field it counts in.

        ``status`` is ``None`` for a connection error.  That and a non-200
        are ``"dropped"``; a version below ``floor`` is ``"stale"``; a
        malformed reply, a version neither recorded nor live, or any label
        that differs from the version's is ``"incorrect"``.
        """
        if status != 200:
            return "dropped"
        try:
            version = int(reply["version"])
            labels = [int(label) for label in reply["labels"]]
        except (KeyError, TypeError, ValueError):
            return "incorrect"
        if floor is not None and version < floor:
            return "stale"
        expected = self.lookup(version)
        if expected is None or labels != expected[ids].tolist():
            return "incorrect"
        return None


async def commit(host: str, port: int, book: LabelBook, delta) -> tuple[int, dict]:
    """POST one ``delta`` to ``/delta``; a 200 acks its version in ``book``."""
    status, payload = await request(host, port, "POST", "/delta", delta.to_payload())
    if status == 200:
        book.ack(payload["version"])
    return status, payload


async def replay(
    host: str, port: int, book: LabelBook, schedule, on_swap: Callable[[dict], None]
) -> int:
    """:func:`commit` every delta of ``schedule``; returns how many were not a 200.

    ``on_swap`` gets each acknowledged swap's reply, then the replay pauses
    :data:`SETTLE_SECONDS` so the readers hit the fresh session.
    """
    failures = 0
    for delta in schedule:
        status, payload = await commit(host, port, book, delta)
        if status != 200:
            failures += 1
            continue
        on_swap(payload)
        await asyncio.sleep(SETTLE_SECONDS)
    return failures


@asynccontextmanager
async def verified_reads(
    host: str,
    port: int,
    book: LabelBook,
    *,
    seed: int,
    attempts: int = 1,
    floor: bool = False,
) -> AsyncIterator[Tally]:
    """Run :data:`CLIENTS` closed-loop ``/predict`` readers while the block runs.

    Yields their live :class:`Tally`; the readers stop, each after its read
    in flight, when the block exits.  A read sends :data:`IDS_PER_REQUEST`
    ids drawn by ``seed`` and is judged by :meth:`LabelBook.judge`.  A
    connection error or a non-200 is retried until ``attempts`` tries are
    spent, then the read is dropped.  With ``floor`` the version acked when
    a read is sent is its floor.
    """
    targets = book.live().num_targets
    pool = np.random.default_rng(seed).integers(0, targets, size=(ID_POOL, IDS_PER_REQUEST))
    tally = Tally()
    stop = asyncio.Event()

    async def read(cursor: int) -> None:
        while not stop.is_set():
            ids = pool[cursor % ID_POOL]
            cursor += CLIENTS
            least = book.acked if floor else None
            for attempt in range(1, attempts + 1):
                start = perf_counter()
                try:
                    status, reply = await request(
                        host, port, "POST", "/predict", {"nodes": ids.tolist()}
                    )
                except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                    status, reply = None, None
                else:
                    tally.latencies.append(perf_counter() - start)
                verdict = book.judge(ids, status, reply, floor=least)
                if verdict != "dropped" or attempt == attempts:
                    break
                tally.retries += 1
                await asyncio.sleep(RETRY_PAUSE_SECONDS)
            if verdict != "dropped":
                tally.answered += 1
            if verdict is not None:
                setattr(tally, verdict, getattr(tally, verdict) + 1)

    readers = [asyncio.create_task(read(cursor)) for cursor in range(CLIENTS)]
    try:
        yield tally
    finally:
        stop.set()
        await asyncio.gather(*readers)
