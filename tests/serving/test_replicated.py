"""The replicated tier: publish/mmap layout, WAL recovery, live worker pool."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.condenser import FreeHGC
from repro.datasets import load_acm
from repro.errors import ReproError, ServingError, WALError
from repro.models.hetero_sgc import HeteroSGC
from repro.serving import ServingController
from repro.serving.replicated import ReplicatedConfig, ReplicatedServer, recover_from_wal
from repro.serving.replicated.pool import (
    current_version,
    publish_version,
    published_session,
    set_current,
)
from repro.streaming import GraphDelta
from repro.streaming.incremental import graphs_equal


def make_controller_factory(*, scale=0.12, seed=0, ratio=0.3):
    def make_controller(graph=None):
        if graph is None:
            graph = load_acm(scale=scale, seed=seed)
        return ServingController(
            graph,
            lambda: HeteroSGC(hidden_dim=16, epochs=20, max_hops=2, seed=seed),
            model_name="heterosgc",
            ratio=ratio,
            condenser=FreeHGC(max_hops=2),
            seed=seed,
            cache_size=128,
        )

    return make_controller


def churn_delta(graph, step, count=3):
    coo = graph.adjacency["paper-term"].tocoo()
    lo = (step - 1) * count
    return GraphDelta(
        remove_edges={"paper-term": (coo.row[lo : lo + count], coo.col[lo : lo + count])},
        step=step,
    )


class TestPublishedVersions:
    def test_publish_and_mmap_roundtrip(self, tmp_path):
        controller = make_controller_factory()(None)
        controller.start()
        session = controller.session
        publish_version(
            tmp_path,
            version=controller.version,
            bundle=controller.export_bundle(),
            logits=session._logits,
        )
        set_current(tmp_path, controller.version)
        version, vdir = current_version(tmp_path)
        assert version == controller.version and vdir.is_dir()
        replica = published_session(tmp_path, cache_size=64)
        assert isinstance(replica._logits, np.memmap)
        ids = np.arange(session.num_targets)
        assert np.array_equal(replica.predict(ids), session.predict(ids))
        assert replica.version == session.version

    def test_missing_current_raises(self, tmp_path):
        with pytest.raises(ServingError):
            published_session(tmp_path)

    def test_incomplete_version_dir_raises(self, tmp_path):
        (tmp_path / "versions" / "v000001").mkdir(parents=True)
        with pytest.raises(ServingError):
            published_session(tmp_path, version=1)


class TestWALRecovery:
    def assert_bundles_identical(self, left, right):
        assert left.model_name == right.model_name
        assert json.dumps(left.state, sort_keys=True, default=str) == json.dumps(
            right.state, sort_keys=True, default=str
        )
        assert set(left.weights) == set(right.weights)
        for name in left.weights:
            assert np.array_equal(
                np.asarray(left.weights[name]), np.asarray(right.weights[name])
            ), name
        assert graphs_equal(left.condensed, right.condensed)

    def test_replay_from_genesis_restores_byte_identical_state(self, tmp_path):
        factory = make_controller_factory()
        genesis = {"dataset": "acm", "scale": 0.12, "seed": 0}
        controller, wal, report = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path,
            make_controller=factory, genesis_config=genesis,
        )
        assert report["mode"] == "cold"
        for step in (1, 2):
            delta = churn_delta(controller.graph, step)
            wal.append_delta(delta)
            controller.apply_delta(delta)
        wal.close()
        expected_bundle = controller.export_bundle()
        ids = np.arange(controller.session.num_targets)
        expected_labels = controller.session.predict(ids)
        expected_version = controller.version

        recovered, wal2, report2 = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path,
            make_controller=factory, genesis_config=genesis,
        )
        wal2.close()
        assert report2["mode"] == "genesis" and report2["deltas_replayed"] == 2
        assert recovered.version == expected_version
        self.assert_bundles_identical(recovered.export_bundle(), expected_bundle)
        assert np.array_equal(recovered.session.predict(ids), expected_labels)

    def test_recovery_survives_torn_tail(self, tmp_path):
        factory = make_controller_factory()
        controller, wal, _ = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path, make_controller=factory,
        )
        delta = churn_delta(controller.graph, 1)
        wal.append_delta(delta)
        controller.apply_delta(delta)
        wal.close()
        with open(tmp_path / "wal.log", "ab") as handle:
            handle.write(b"\x42\x00\x00")  # simulated crash mid-append
        recovered, wal2, report = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path, make_controller=factory,
        )
        wal2.close()
        assert report["deltas_replayed"] == 1
        assert recovered.version == controller.version

    def test_genesis_mismatch_refuses_replay(self, tmp_path):
        factory = make_controller_factory()
        _, wal, _ = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path,
            make_controller=factory, genesis_config={"dataset": "acm", "seed": 0},
        )
        wal.close()
        with pytest.raises(WALError):
            recover_from_wal(
                tmp_path / "wal.log", root=tmp_path,
                make_controller=factory, genesis_config={"dataset": "acm", "seed": 7},
            )

    def test_snapshot_recovery_matches_live_state(self, tmp_path):
        factory = make_controller_factory()
        genesis = {"dataset": "acm"}

        async def run():
            config = ReplicatedConfig(
                root=tmp_path, port=0, workers=1, snapshot_every=1
            )
            server = ReplicatedServer(factory, config=config, genesis=genesis)
            host, port = await server.start()
            delta = churn_delta(server.controller.graph, 1)
            report, _ = await server.commit_delta(delta)
            expected = server.controller.export_bundle()
            ids = np.arange(server.controller.session.num_targets)
            labels = server.controller.session.predict(ids)
            version = server.controller.version
            await server.close()
            return expected, ids, labels, version

        expected, ids, labels, version = asyncio.run(run())
        recovered, wal, report = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path,
            make_controller=factory, genesis_config=genesis,
        )
        wal.close()
        assert report["mode"] == "snapshot" and report["deltas_replayed"] == 0
        assert recovered.version == version
        self.assert_bundles_identical(recovered.export_bundle(), expected)
        assert np.array_equal(recovered.session.predict(ids), labels)

    def test_rejected_delta_never_enters_the_wal(self, tmp_path):
        """A delta that fails validation must be refused *before* the WAL
        append: otherwise the client sees a 4xx but replay-on-boot trips
        over the poisoned record and the tier can never come back up."""
        factory = make_controller_factory()
        genesis = {"dataset": "acm"}

        async def run():
            config = ReplicatedConfig(root=tmp_path, port=0, workers=1)
            server = ReplicatedServer(factory, config=config, genesis=genesis)
            await server.start()
            good = churn_delta(server.controller.graph, 1)
            await server.commit_delta(good)
            with pytest.raises(ReproError):
                await server.commit_delta(
                    GraphDelta(remove_edges={"nope": ([0], [1])}, step=2)
                )
            version = server.controller.version
            committed = server.deltas_committed
            await server.close()
            return version, committed

        version, committed = asyncio.run(run())
        assert committed == 1
        recovered, wal, report = recover_from_wal(
            tmp_path / "wal.log", root=tmp_path,
            make_controller=factory, genesis_config=genesis,
        )
        wal.close()
        assert report["deltas_replayed"] == 1
        assert recovered.version == version


# ---------------------------------------------------------------------- #
# Live pool integration (spawns real worker processes)
# ---------------------------------------------------------------------- #
async def http(host, port, method, path, payload=None):
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload or {}).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, response_body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"application/json" in head:
        return status, json.loads(response_body or b"{}")
    return status, response_body.decode()


async def wait_for(predicate, *, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestLivePool:
    def test_full_tier(self, tmp_path):
        """One scenario, end to end, to pay the worker spawn cost once:
        registration, forwarded deltas with acks, version propagation,
        worker kill + respawn, and the aggregated /metrics page."""

        async def scenario():
            config = ReplicatedConfig(
                root=tmp_path, port=0, workers=2,
                batch_window_seconds=0.001,
            )
            server = ReplicatedServer(
                make_controller_factory(), config=config,
                genesis={"dataset": "acm", "scale": 0.12, "seed": 0},
            )
            host, port = await server.start()
            try:
                await wait_for(
                    lambda: len(server._links) == 2,
                    message="both workers to register",
                )
                ids = list(range(8))
                expected = server.controller.session.predict(np.asarray(ids)).tolist()

                # The shared port answers /healthz and correct predictions.
                status, payload = await http(host, port, "GET", "/healthz")
                assert status == 200 and payload["status"] == "ok"
                for _ in range(6):  # several connections: kernel spreads them
                    status, payload = await http(
                        host, port, "POST", "/predict", {"nodes": ids}
                    )
                    assert status == 200
                    assert payload["labels"] == expected
                    assert payload["version"] == server.controller.version

                # A delta commits once, acks both workers, bumps every reply.
                before = server.controller.version
                delta = churn_delta(server.controller.graph, 1)
                status, swap = await http(
                    host, port, "POST", "/delta", delta.to_payload()
                )
                assert status == 200
                assert swap["version"] == before + 1
                assert swap["acked_workers"] == 2
                new_expected = server.controller.session.predict(
                    np.asarray(ids)
                ).tolist()
                for _ in range(6):
                    status, payload = await http(
                        host, port, "POST", "/predict", {"nodes": ids}
                    )
                    assert status == 200
                    assert payload["version"] == before + 1  # never stale
                    assert payload["labels"] == new_expected

                # Kill one worker: the supervisor respawns it onto CURRENT.
                victim = server.pool._processes[1]
                os.kill(victim.pid, signal.SIGKILL)
                await wait_for(
                    lambda: server.pool.respawns >= 1,
                    message="supervisor respawn",
                )
                await wait_for(
                    lambda: len(server._links) == 2,
                    message="respawned worker to register",
                )
                status, payload = await http(
                    host, port, "POST", "/predict", {"nodes": ids}
                )
                assert status == 200 and payload["version"] == before + 1

                # A second delta still acks two workers (one of them respawned).
                delta2 = churn_delta(server.controller.graph, 2)
                status, swap2 = await http(
                    host, port, "POST", "/delta", delta2.to_payload()
                )
                assert status == 200 and swap2["acked_workers"] == 2

                # The shared port may route /stats to any replica; the
                # coordinator's admin listener always answers with its view.
                status, stats = await http(
                    "127.0.0.1", server.admin_port, "GET", "/stats"
                )
                assert status == 200
                assert stats["replicated"]["deltas_committed"] == 2
                assert stats["replicated"]["respawns"] >= 1
                status, page = await http(host, port, "GET", "/metrics")
                assert status == 200
                assert 'repro_replica_up{slot="0",role="coordinator"} 1' in page
                assert "repro_swaps_total" in page
            finally:
                await server.close()

        asyncio.run(scenario())
