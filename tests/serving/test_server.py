"""The asyncio HTTP endpoint and the micro-batcher."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.condenser import FreeHGC
from repro.datasets import load_acm
from repro.models.hetero_sgc import HeteroSGC
from repro.serving import MicroBatcher, ServingController, ServingServer
from repro.serving.probe import request as http
from repro.serving.server import MAX_BATCH, ROUTES
from repro.streaming import GraphDelta


@pytest.fixture(scope="module")
def controller():
    graph = load_acm(scale=0.15, seed=0)
    factory = lambda: HeteroSGC(hidden_dim=16, epochs=25, max_hops=2, seed=0)
    controller = ServingController(
        graph,
        factory,
        model_name="heterosgc",
        ratio=0.3,
        condenser=FreeHGC(max_hops=2),
        seed=0,
        cache_size=256,
    )
    controller.start()
    return controller


def run_with_server(controller, coroutine_factory):
    async def runner():
        server = ServingServer(controller, port=0)
        host, port = await server.start()
        try:
            return await coroutine_factory(server, host, port)
        finally:
            await server.close()

    return asyncio.run(runner())


class TestEndpoints:
    def test_healthz(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/healthz")

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == controller.version

    def test_predict_matches_session(self, controller):
        ids = [0, 5, 17, 3]

        async def scenario(server, host, port):
            return await http(host, port, "POST", "/predict", {"nodes": ids})

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        expected = controller.session.predict(np.asarray(ids))
        assert payload["labels"] == expected.tolist()
        assert payload["version"] == controller.version
        assert payload["latency_ms"] >= 0

    def test_concurrent_predicts_are_coalesced(self, controller):
        async def scenario(server, host, port):
            results = await asyncio.gather(
                *(
                    http(host, port, "POST", "/predict", {"nodes": [i, i + 1]})
                    for i in range(20)
                )
            )
            return results, server.batcher.stats

        results, batcher = run_with_server(controller, scenario)
        for i, (status, payload) in enumerate(results):
            assert status == 200
            expected = controller.session.predict(np.asarray([i, i + 1]))
            assert payload["labels"] == expected.tolist()
        # at least some coalescing must have happened
        assert batcher["batches"] < batcher["requests"]

    def test_delta_endpoint_swaps(self, controller):
        graph = controller.graph
        coo = graph.adjacency["paper-term"].tocoo()
        delta = GraphDelta(
            remove_edges={"paper-term": (coo.row[:2], coo.col[:2])}, step=9
        )
        before = controller.version

        async def scenario(server, host, port):
            status, swap = await http(host, port, "POST", "/delta", delta.to_payload())
            predict = await http(host, port, "POST", "/predict", {"nodes": [0, 1]})
            return status, swap, predict

        status, swap, (p_status, p_payload) = run_with_server(controller, scenario)
        assert status == 200
        assert swap["version"] == before + 1
        assert swap["step"] == 9
        assert p_status == 200 and p_payload["version"] == before + 1

    def test_stats_endpoint(self, controller):
        async def scenario(server, host, port):
            await http(host, port, "POST", "/predict", {"nodes": [1, 2, 3]})
            return await http(host, port, "GET", "/stats")

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        assert payload["session"]["version"] == controller.version
        assert payload["latency"]["count"] >= 1
        assert payload["batcher"]["requests"] >= 1

    def test_unknown_route_404(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/nope")

        status, payload = run_with_server(controller, scenario)
        assert status == 404 and "error" in payload

    def test_every_route_answers_only_its_own_method(self, controller):
        # ROUTES is the list the serve banners and `list` print
        other = {"GET": "POST", "POST": "GET"}
        bodies = {"predict": {"nodes": [0]}, "delta": {"add_nodes": {"no-such-type": [[0.0]]}}}

        async def scenario(server, host, port):
            statuses = {}
            for name, method in ROUTES.items():
                right, _ = await http(host, port, method, f"/{name}", bodies.get(name))
                wrong, _ = await http(host, port, other[method], f"/{name}", bodies.get(name))
                statuses[name] = (right, wrong)
            return statuses

        statuses = run_with_server(controller, scenario)
        # the delta names an unknown node type: a 400 from its own handler
        assert statuses == {name: (400 if name == "delta" else 200, 404) for name in ROUTES}

    def test_bad_json_400(self, controller):
        async def scenario(server, host, port):
            body = b"{not json"
            return await raw_request(
                host, port,
                f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
                f"\r\nConnection: close\r\n\r\n".encode(),
                body,
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_out_of_range_node_400(self, controller):
        async def scenario(server, host, port):
            return await http(
                host, port, "POST", "/predict", {"nodes": [10**7]}
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_bad_request_does_not_poison_batch_mates(self, controller):
        """A request with an invalid id coalesced into the same micro-batch
        window as valid requests must fail alone."""

        async def scenario(server, host, port):
            return await asyncio.gather(
                http(host, port, "POST", "/predict", {"nodes": [0, 1]}),
                http(host, port, "POST", "/predict", {"nodes": [10**7]}),
                http(host, port, "POST", "/predict", {"nodes": [2]}),
            )

        (ok1, p1), (bad, pbad), (ok2, p2) = run_with_server(controller, scenario)
        assert bad == 400 and "error" in pbad
        assert ok1 == 200 and ok2 == 200
        assert p1["labels"] == controller.session.predict(np.array([0, 1])).tolist()
        assert p2["labels"] == controller.session.predict(np.array([2])).tolist()

    def test_empty_nodes_400(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "POST", "/predict", {"nodes": []})

        status, _ = run_with_server(controller, scenario)
        assert status == 400

    def test_keep_alive_multiple_requests_one_connection(self, controller):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            statuses = []
            for _ in range(3):
                body = json.dumps({"nodes": [0]}).encode()
                writer.write(
                    f"POST /predict HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                payload = json.loads(await reader.readexactly(length))
                statuses.append((int(head.split(b" ", 2)[1]), payload))
            writer.close()
            return statuses

        statuses = run_with_server(controller, scenario)
        assert [s for s, _ in statuses] == [200, 200, 200]


class TestMicroBatcherUnit:
    def test_splits_batch_results_correctly(self, controller):
        session = controller.session

        async def scenario():
            batcher = MicroBatcher(lambda: session)
            batcher.start()
            try:
                results = await asyncio.gather(
                    batcher.submit(np.array([0, 1, 2])),
                    batcher.submit(np.array([3])),
                    batcher.submit(np.array([4, 5])),
                )
            finally:
                await batcher.stop()
            return results, batcher

        results, batcher = asyncio.run(scenario())
        flat = np.concatenate([labels for labels, _ in results])
        expected = session.predict(np.arange(6))
        assert np.array_equal(flat, expected)
        # all three were queued before the drain woke: one batch answers them
        assert batcher.batches_served == 1

    def test_request_arriving_within_the_wait_joins_the_batch(self, controller):
        session = controller.session

        async def scenario():
            batcher = MicroBatcher(lambda: session)
            batcher.start()
            try:
                await asyncio.sleep(0)  # let the drain loop block on the queue
                first = asyncio.ensure_future(batcher.submit(np.array([3])))
                await asyncio.sleep(0)  # the drain loop takes it and waits for more
                await asyncio.sleep(0)
                assert not first.done()
                results = await asyncio.gather(first, batcher.submit(np.array([7])))
            finally:
                await batcher.stop()
            return results, batcher.batches_served

        results, batches = asyncio.run(scenario())
        assert batches == 1
        for (labels, version), node in zip(results, (3, 7)):
            assert labels.tolist() == session.predict(np.array([node])).tolist()
            assert version == session.version

    def test_queued_requests_split_into_full_batches(self, controller):
        session = controller.session
        ids = np.arange(300) % session.num_targets
        batch_sizes = []

        class RecordingSession:
            version = session.version

            def predict(self, batch_ids):
                batch_sizes.append(int(batch_ids.size))
                return session.predict(batch_ids)

        recording = RecordingSession()

        async def scenario():
            batcher = MicroBatcher(lambda: recording)
            batcher.start()
            try:
                return await asyncio.gather(
                    *(batcher.submit(ids[i : i + 1]) for i in range(ids.size))
                )
            finally:
                await batcher.stop()

        results = asyncio.run(scenario())
        assert batch_sizes == [MAX_BATCH, ids.size - MAX_BATCH] == [256, 44]
        flat = np.concatenate([labels for labels, _ in results])
        serial = np.concatenate([session.predict(ids[i : i + 1]) for i in range(ids.size)])
        assert np.array_equal(flat, serial)

    def test_errors_propagate_to_submitters(self, controller):
        async def scenario():
            batcher = MicroBatcher(lambda: controller.session)
            batcher.start()
            try:
                with pytest.raises(Exception):
                    await batcher.submit(np.array([10**8]))  # out of range
            finally:
                await batcher.stop()

        asyncio.run(scenario())


async def raw_request(host, port, head: bytes, body: bytes = b"") -> tuple[int, dict]:
    """Send hand-crafted HTTP bytes; returns (status, decoded json body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head_bytes, _, response_body = raw.partition(b"\r\n\r\n")
    return int(head_bytes.split(b" ", 2)[1]), json.loads(response_body or b"{}")


class TestRequestBounds:
    """The body-size and Content-Length robustness contract."""

    def test_oversized_declared_body_is_413(self, controller):
        async def scenario(server, host, port):
            server.max_body_bytes = 64
            body = b"x" * 1000
            return await raw_request(
                host, port,
                f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
                f"\r\nConnection: close\r\n\r\n".encode(),
                body,
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 413 and "error" in payload

    def test_413_answers_before_reading_the_body(self, controller):
        """The bound is enforced on the *declaration*: the response arrives
        even though the promised body is never sent."""

        async def scenario(server, host, port):
            server.max_body_bytes = 64
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 99999999\r\n\r\n"  # body intentionally absent
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return int(raw.split(b" ", 2)[1])

        assert run_with_server(controller, scenario) == 413

    def test_malformed_content_length_is_400(self, controller):
        async def scenario(server, host, port):
            return await raw_request(
                host, port,
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: banana\r\nConnection: close\r\n\r\n",
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_negative_content_length_is_400(self, controller):
        async def scenario(server, host, port):
            return await raw_request(
                host, port,
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -5\r\nConnection: close\r\n\r\n",
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_connection_closes_after_bad_request(self, controller):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: nope\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()  # EOF: server must close, not keep-alive
            writer.close()
            return raw

        raw = run_with_server(controller, scenario)
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"Connection: close" in raw

    def test_within_bound_body_still_served(self, controller):
        async def scenario(server, host, port):
            server.max_body_bytes = 4096
            return await http(host, port, "POST", "/predict", {"nodes": [0, 1]})

        status, payload = run_with_server(controller, scenario)
        assert status == 200 and len(payload["labels"]) == 2


class TestAdmissionAndMetrics:
    def test_predict_sheds_with_429_beyond_capacity(self, controller):
        async def scenario(server, host, port):
            server.admission.capacity = 1
            # Hold the one admitted request inside the batcher until the
            # other eleven have been shed against the single slot.
            release = asyncio.Event()
            submit = server.batcher.submit

            async def held_submit(ids):
                await release.wait()
                return await submit(ids)

            async def release_once_all_shed():
                # bounded, so a gate that never sheds fails the asserts below
                deadline = asyncio.get_running_loop().time() + 30
                while server.admission.shed < 11 and asyncio.get_running_loop().time() < deadline:
                    await asyncio.sleep(0.001)
                release.set()

            server.batcher.submit = held_submit
            results, _ = await asyncio.gather(
                asyncio.gather(
                    *(http(host, port, "POST", "/predict", {"nodes": [i]}) for i in range(12))
                ),
                release_once_all_shed(),
            )
            return results, server.admission.stats

        results, stats = run_with_server(controller, scenario)
        statuses = [status for status, _ in results]
        assert stats["shed"] == 11
        assert statuses.count(429) == 11 and statuses.count(200) == 1
        for status, payload in results:
            if status == 429:
                assert "error" in payload

    def test_metrics_endpoint_serves_prometheus_text(self, controller):
        async def scenario(server, host, port):
            await http(host, port, "POST", "/predict", {"nodes": [0]})
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = run_with_server(controller, scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n", 1)[0]
        assert b"text/plain" in head
        page = body.decode()
        assert 'repro_requests_total{endpoint="predict"} 1' in page
        assert 'repro_replica_up{slot="0",role="coordinator"} 1' in page

    def test_stats_reports_admission(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/stats")

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        assert payload["admission"]["capacity"] == 0
        assert payload["admission"]["shed"] == 0
