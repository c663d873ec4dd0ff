"""The verified live-replay check: the one rule bites, the readers count it.

The rule tests feed :meth:`LabelBook.judge` one bad answer each and expect
it counted, as ``perfbench/run.py --selftest`` does for the benchmark's own
checks.  The reader tests run :func:`verified_reads` against a stub HTTP
server and a real :class:`ServingServer` over hand-built logits sessions.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import ServingServer
from repro.serving.engine import InferenceSession
from repro.serving import probe
from repro.serving.probe import LabelBook, replay, request, verified_reads
from repro.serving.server import read_http_request, write_http_response

LOGITS = np.random.default_rng(0).normal(size=(40, 3))
IDS = np.array([3, 1, 4, 1, 5, 9])


def session(version: int, logits=LOGITS) -> InferenceSession:
    return InferenceSession.from_logits(logits, version=version)


def labels(logits=LOGITS) -> list[int]:
    return np.argmax(logits[IDS], axis=1).tolist()


class Live:
    """A swappable live session, as a controller's ``session`` attribute is."""

    def __init__(self, first: InferenceSession) -> None:
        self.session = first

    def __call__(self) -> InferenceSession:
        return self.session


class TestRule:
    def test_every_bad_answer_is_counted(self):
        book = LabelBook(Live(session(1)))
        flipped = labels()
        flipped[2] = (flipped[2] + 1) % 3
        cases = {
            "flipped label": (200, {"version": 1, "labels": flipped}, None),
            "version neither recorded nor live": (200, {"version": 7, "labels": labels()}, None),
            "non-200": (503, {"error": "busy"}, None),
            "connection error": (None, None, None),
            "version below the floor": (200, {"version": 1, "labels": labels()}, 2),
            "malformed reply": (200, {"labels": labels()}, None),
            "text reply": (200, "not json", None),
        }
        verdicts = {
            case: book.judge(IDS, status, reply, floor=floor)
            for case, (status, reply, floor) in cases.items()
        }
        assert verdicts == {
            "flipped label": "incorrect",
            "version neither recorded nor live": "incorrect",
            "non-200": "dropped",
            "connection error": "dropped",
            "version below the floor": "stale",
            "malformed reply": "incorrect",
            "text reply": "incorrect",
        }

    def test_a_correct_answer_is_not_counted(self):
        book = LabelBook(Live(session(1)))
        assert book.judge(IDS, 200, {"version": 1, "labels": labels()}) is None
        assert book.judge(IDS, 200, {"version": 1, "labels": labels()}, floor=1) is None

    def test_answer_naming_the_live_version_before_its_ack_is_snapshotted(self):
        live = Live(session(1))
        book = LabelBook(live)
        newer = LOGITS[:, ::-1].copy()  # version 2 answers other labels
        live.session = session(2, newer)
        assert 2 not in book.labels
        assert book.judge(IDS, 200, {"version": 2, "labels": labels(logits=newer)}) is None
        assert np.array_equal(book.labels[2], np.argmax(newer, axis=1))
        # the snapshot, not the live session, judges later answers
        live.session = session(3)
        assert book.judge(IDS, 200, {"version": 2, "labels": labels()}) == "incorrect"
        assert book.judge(IDS, 200, {"version": 2, "labels": labels(logits=newer)}) is None
        book.ack(3)
        assert book.acked == 3
        with pytest.raises(ServingError, match="neither recorded nor live"):
            book.ack(4)


def run_stub(handler, client):
    """Run ``client(host, port)`` against a stub server calling ``handler``."""

    async def scenario():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await client(host, port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(scenario())


def run_reads(book, handler, **reads):
    """Run the readers against ``handler`` for a moment; returns their tally."""

    async def client(host, port):
        async with verified_reads(host, port, book, seed=0, **reads) as tally:
            await asyncio.sleep(0.1)
        return tally

    return run_stub(handler, client)


class TestClient:
    def test_a_request_without_a_reply_times_out(self, monkeypatch):
        monkeypatch.setattr(probe, "TIMEOUT_SECONDS", 0.05)

        async def handler(reader, writer):
            try:
                await read_http_request(reader)
                await asyncio.sleep(1)  # never replies in time
            finally:
                writer.close()

        async def client(host, port):
            with pytest.raises(asyncio.TimeoutError):
                await request(host, port, "GET", "/healthz")

        run_stub(handler, client)

    def test_replay_acks_each_swap_and_counts_the_rest(self, monkeypatch):
        monkeypatch.setattr(probe, "SETTLE_SECONDS", 0.0)
        live = Live(session(1))
        book = LabelBook(live)
        replies = iter([(200, {"version": 2}), (503, {"error": "busy"}), (200, {"version": 3})])

        async def handler(reader, writer):
            await read_http_request(reader)
            status, reply = next(replies)
            live.session = session(reply.get("version", live.session.version))
            await write_http_response(writer, status, reply, keep_alive=False)
            writer.close()

        delta = SimpleNamespace(to_payload=dict)
        swaps = []

        async def client(host, port):
            return await replay(host, port, book, [delta] * 3, swaps.append)

        assert run_stub(handler, client) == 1
        assert [swap["version"] for swap in swaps] == [2, 3]
        assert book.acked == 3 and {1, 2, 3} <= set(book.labels)


class TestReaders:
    @pytest.mark.parametrize("reply", [(503, {"error": "busy"}), None], ids=["503", "reset"])
    def test_failures_past_the_retry_budget_are_dropped(self, reply):
        async def handler(reader, writer):
            await read_http_request(reader)
            if reply is not None:
                await write_http_response(writer, *reply, keep_alive=False)
            writer.close()

        tally = run_reads(LabelBook(Live(session(1))), handler, attempts=3)
        assert tally.dropped >= 1 and tally.answered == 0
        assert tally.retries == 2 * tally.dropped
        assert tally.failures == tally.dropped

    def run_server(self, served: InferenceSession, book: LabelBook, **reads):
        controller = SimpleNamespace(session=served, version=served.version)

        async def scenario():
            server = ServingServer(controller, port=0)
            host, port = await server.start()
            try:
                async with verified_reads(host, port, book, seed=1, **reads) as tally:
                    await asyncio.sleep(0.1)
                status, health = await request(host, port, "GET", "/healthz")
                assert status == 200 and health["version"] == served.version
            finally:
                await server.close()
            return tally

        return asyncio.run(scenario())

    def test_correct_answers_are_answered_and_nothing_else(self):
        served = session(1)
        tally = self.run_server(served, LabelBook(Live(served)))
        assert tally.answered > 0 and len(tally.latencies) == tally.answered
        assert tally.failures == tally.retries == 0

    def test_a_flipped_label_is_incorrect(self):
        class Flipping(InferenceSession):
            def predict(self, node_ids):
                return (super().predict(node_ids) + 1) % 3

        flipping = Flipping.from_logits(LOGITS, version=1)
        tally = self.run_server(flipping, LabelBook(Live(session(1))))
        assert tally.answered > 0 and tally.incorrect == tally.answered

    def test_an_answer_below_the_floor_is_stale(self):
        live = Live(session(1))
        book = LabelBook(live)
        live.session = session(2)
        book.ack(2)
        tally = self.run_server(session(1), book, floor=True)
        assert tally.answered > 0 and tally.stale == tally.answered
        assert tally.incorrect == 0
