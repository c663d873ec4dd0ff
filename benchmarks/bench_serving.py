"""Serving benchmark: byte-identity, ≥5× micro-batching and zero-drop hot-swap.

Run with ``--replicated`` to benchmark the multi-process tier instead
(:mod:`repro.serving.replicated`): aggregate throughput of an
``SO_REUSEPORT`` worker pool vs a single process, zero dropped / zero
stale-versioned responses across a worker ``SIGKILL`` mid delta-replay,
and byte-identical WAL recovery after ``kill -9`` of the coordinator.

A load generator drives the full serving stack
(:mod:`repro.serving`) on a synthetic ACM-shaped HIN and enforces three
gates on every invocation:

* **byte-identity** — batched prediction through the engine must be
  byte-identical to one-at-a-time prediction *and* to the model's offline
  ``predict`` on the live graph.  Always enforced.
* **throughput** — with ≥ ``QUEUE_DEPTH`` (default 2048) queued requests,
  the micro-batched path must answer at least ``SPEEDUP_FACTOR``× (5×) the
  unbatched one-request-per-call throughput, both measured on cache-less
  sessions so the LRU cannot flatter either side.  Always enforced (the
  ratio is Python-dispatch overhead, not graph-size dependent).
* **hot-swap correctness** — the real asyncio HTTP server answers a
  sustained stream of concurrent predictions while a delta schedule is
  replayed through ``POST /delta`` (incremental condensation → optional
  retrain → atomic session swap).  Every response must carry a known
  session version and labels byte-equal to that version's offline forward;
  zero dropped or incorrect responses is a hard gate.

Latency of the served requests is reported as p50/p95/p99 through
:func:`repro.evaluation.timing.summarize_latencies` and persisted with the
throughput numbers to ``BENCH_serving.json`` (committed baseline; the CI
``serving-smoke`` job regenerates it at ``REPRO_BENCH_SCALE=0.1`` and
uploads it as an artifact).

Environment knobs: ``REPRO_BENCH_SCALE``, ``REPRO_BENCH_EPOCHS``,
``REPRO_BENCH_SERVE_STEPS`` (delta steps, default 5),
``REPRO_BENCH_SERVE_QUEUE`` (queued requests for the throughput gate,
default 2048).

Run directly (``PYTHONPATH=src python benchmarks/bench_serving.py``); it is
deliberately not named ``test_*`` so the tier-1 suite stays fast.

Replicated-mode knobs: ``--workers N`` (default 4), ``--phases
throughput,kill,recovery`` (default all three; add ``chaos`` with
``--inject-faults`` for the self-healing drill: canary rollback, poison
quarantine, publish repair, crash-loop backoff, bit-rot fallback, and a
converged byte-identical recovery, all gated),
``REPRO_BENCH_MIN_AGG_SPEEDUP`` (default 2.5; the throughput gate is
reported but not enforced on hosts with fewer than 6 CPUs, where a
multi-process speedup is physically unavailable).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np

from benchmarks.common import EPOCHS, SCALE, emit, emit_json
from repro.datasets.base import NodeTypeSpec, RelationSpec, SyntheticHINConfig
from repro.datasets.generators import generate_delta_schedule, generate_hin
from repro.evaluation.timing import summarize_latencies
from repro.runner.plan import ServeConfig
from repro.serving import InferenceSession, ServingController, ServingServer
from repro.serving.server import MAX_BATCH

SPEEDUP_FACTOR = 5.0
QUEUE_DEPTH = int(os.environ.get("REPRO_BENCH_SERVE_QUEUE", "2048"))
STEPS = int(os.environ.get("REPRO_BENCH_SERVE_STEPS", "5"))
RATIO = 0.05
MAX_HOPS = 2
#: concurrent client tasks hammering /predict during the hot-swap replay
CLIENTS = 8
#: node ids per /predict request in the hot-swap phase
IDS_PER_REQUEST = 16


def serving_config() -> SyntheticHINConfig:
    """ACM-shaped HIN sized so the target pool is ≥2k at scale 1."""
    return SyntheticHINConfig(
        name="acm-serve",
        target_type="paper",
        num_classes=3,
        node_types=(
            NodeTypeSpec("paper", count=2000, feature_dim=16),
            NodeTypeSpec("author", count=2600, feature_dim=16),
            NodeTypeSpec("subject", count=40, feature_dim=8),
            NodeTypeSpec("term", count=1100, feature_dim=8),
        ),
        relations=(
            RelationSpec("paper-cite-paper", "paper", "paper", avg_degree=4.0, affinity=0.8),
            RelationSpec("paper-author", "paper", "author", avg_degree=4.0, affinity=0.8),
            RelationSpec("paper-subject", "paper", "subject", avg_degree=1.5, affinity=0.9),
            RelationSpec("paper-term", "paper", "term", avg_degree=4.0, affinity=0.7),
        ),
        train_fraction=0.9,
        val_fraction=0.05,
    )


def identity_gate(controller: ServingController, ids: np.ndarray) -> None:
    """Batched == serial == offline forward, byte for byte (raises on fail)."""
    batched_session = InferenceSession(
        controller._model, controller.graph, version=100, cache_size=0
    )
    serial_session = InferenceSession(
        controller._model, controller.graph, version=101, cache_size=0
    )
    batched = batched_session.predict(ids)
    serial = np.array([serial_session.predict_one(int(i)) for i in ids], dtype=np.int64)
    if not np.array_equal(batched, serial):
        raise AssertionError("batched prediction differs from one-at-a-time")
    offline = controller._model.predict(controller.graph)
    if not np.array_equal(batched, offline[ids]):
        raise AssertionError("engine prediction differs from offline forward")
    cached = controller.session.predict(ids)
    if not np.array_equal(cached, batched):
        raise AssertionError("LRU-cached prediction differs from uncached")


def throughput_gate(controller: ServingController, num_targets: int, rng) -> dict:
    """Measure unbatched vs micro-batched throughput on cache-less sessions."""
    queue = rng.integers(0, num_targets, size=QUEUE_DEPTH).astype(np.int64)
    unbatched_session = InferenceSession(
        controller._model, controller.graph, version=102, cache_size=0
    )
    batched_session = InferenceSession(
        controller._model, controller.graph, version=103, cache_size=0
    )
    singles = [np.asarray([i]) for i in queue.tolist()]

    start = time.perf_counter()
    unbatched_out = [unbatched_session.predict(one) for one in singles]
    unbatched_seconds = time.perf_counter() - start

    chunks = [queue[i : i + MAX_BATCH] for i in range(0, queue.size, MAX_BATCH)]
    start = time.perf_counter()
    batched_out = [batched_session.predict(chunk) for chunk in chunks]
    batched_seconds = time.perf_counter() - start

    if not np.array_equal(np.concatenate(unbatched_out), np.concatenate(batched_out)):
        raise AssertionError("throughput phases disagree on labels")
    return {
        "queued_requests": int(queue.size),
        "unbatched_seconds": unbatched_seconds,
        "batched_seconds": batched_seconds,
        "unbatched_rps": queue.size / unbatched_seconds,
        "batched_rps": queue.size / batched_seconds,
        "speedup": unbatched_seconds / batched_seconds,
    }


async def hotswap_gate(controller: ServingController, seed: int) -> dict:
    """Concurrent load through the real server during a delta replay."""
    server = ServingServer(controller, port=0)
    host, port = await server.start()
    num_targets = controller.session.num_targets
    all_ids = np.arange(num_targets, dtype=np.int64)

    def snapshot() -> np.ndarray:
        # straight from the logits: also catches bad LRU carry-over
        return np.argmax(controller.session.logits(all_ids), axis=-1)

    expected: dict[int, np.ndarray] = {controller.version: snapshot()}
    schedule = generate_delta_schedule(
        controller.graph,
        steps=STEPS,
        seed=seed,
        edge_churn=0.0005,
        relations=("paper-term",),
    )
    failures = 0
    answered = 0
    latencies: list[float] = []
    stop = asyncio.Event()
    rng = np.random.default_rng(seed + 1)
    # pre-draw ids so client tasks do no RNG work in the hot loop
    id_pool = rng.integers(0, num_targets, size=(4096, IDS_PER_REQUEST)).astype(np.int64)

    async def request(method: str, path: str, payload: dict) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps(payload).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, response_body = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(response_body or b"{}")

    async def client(worker: int) -> None:
        nonlocal failures, answered
        cursor = worker
        while not stop.is_set():
            ids = id_pool[cursor % id_pool.shape[0]]
            cursor += CLIENTS
            start = time.perf_counter()
            try:
                status, payload = await request(
                    "POST", "/predict", {"nodes": ids.tolist()}
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                failures += 1
                continue
            latencies.append(time.perf_counter() - start)
            answered += 1
            if status != 200:
                failures += 1
                continue
            version = payload["version"]
            reference = expected.get(version)
            if reference is None and version == controller.version:
                reference = snapshot()
                expected[version] = reference
            if reference is None or not np.array_equal(
                np.asarray(payload["labels"]), reference[ids]
            ):
                failures += 1

    clients = [asyncio.create_task(client(i)) for i in range(CLIENTS)]
    swaps = []
    load_start = time.perf_counter()
    for delta in schedule:
        status, payload = await request("POST", "/delta", delta.to_payload())
        if status != 200:
            failures += 1
            continue
        expected.setdefault(payload["version"], snapshot())
        swaps.append(payload)
        print(
            f"swap {payload['step']}: version {payload['version']} "
            f"mode={payload['mode']} retrained={payload['retrained']} "
            f"dirty={payload['dirty_count']} carried={payload['cache_carried']} "
            f"swap {payload['swap_seconds']:.3f}s "
            f"({answered} requests answered so far)",
            flush=True,
        )
        # keep the load going a moment on the fresh session
        await asyncio.sleep(0.05)
    load_seconds = time.perf_counter() - load_start
    stop.set()
    await asyncio.gather(*clients, return_exceptions=True)
    _, stats = await request("GET", "/stats", {})
    await server.close()
    return {
        "requests": answered,
        "failures": failures,
        "swaps": swaps,
        "load_seconds": load_seconds,
        "served_rps": answered / load_seconds if load_seconds else 0.0,
        "latency": summarize_latencies(latencies),
        "batcher": stats.get("batcher", {}),
        "server_errors": stats.get("errors", 0),
    }


# --------------------------------------------------------------------- #
# Replicated tier (--replicated)
# --------------------------------------------------------------------- #
MIN_AGG_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_AGG_SPEEDUP", "2.5"))
#: below this many CPUs a multi-process speedup is physically unavailable,
#: so the throughput gate is reported but not enforced
SPEEDUP_GATE_MIN_CPUS = 6
LOAD_PROCS = int(os.environ.get("REPRO_BENCH_LOAD_PROCS", "4"))
LOAD_SECONDS = float(os.environ.get("REPRO_BENCH_LOAD_SECONDS", "2.0"))
GENESIS = {"benchmark": "bench_serving", "shape": "acm-serve", "seed": 7}


#: the served deployment every phase builds; the graph is the bench's own
#: ``acm-serve`` HIN, so the dataset name is only a label
BENCH_SERVE = ServeConfig(
    dataset="acm-serve", ratio=RATIO, max_hops=MAX_HOPS, model="heterosgc", epochs=EPOCHS
)


def _make_bench_controller(graph=None, canary=None) -> ServingController:
    """The deterministic controller shared by every tier process."""
    if graph is None:
        graph = generate_hin(serving_config(), scale=SCALE, seed=7)
    return BENCH_SERVE.build_controller(graph, canary=canary)


def _chaos_controller(graph=None) -> ServingController:
    """The chaos drill's controller: the bench recipe plus a canary gate.

    ``min_consistency=0.0`` keeps the gate in blow-up-detection mode (the
    finite check) — the drill *forces* a rejection through the
    ``canary.force_reject`` site rather than degrading a real model, and a
    consistency floor would make legitimate retrains flaky.
    """
    from repro.serving import CanaryConfig

    return _make_bench_controller(
        graph, canary=CanaryConfig(size=32, min_consistency=0.0, seed=7)
    )


def _tier_main(root: str, workers: int, port_file: str, snapshot_every: int) -> None:
    """Child-process entry: serve a tier (or one plain server) until killed."""
    import asyncio

    from repro.serving.replicated import ReplicatedConfig, ReplicatedServer

    async def run() -> None:
        if workers == 0:
            controller = _make_bench_controller()
            controller.start()
            server = ServingServer(controller, port=0)
        else:
            server = ReplicatedServer(
                _make_bench_controller,
                config=ReplicatedConfig(
                    root=root, port=0, workers=workers,
                    snapshot_every=snapshot_every,
                ),
                genesis=GENESIS,
            )
        host, port = await server.start()
        Path(port_file).write_text(
            json.dumps({"host": host, "port": port, "pid": os.getpid()})
        )
        await server.serve_forever()

    asyncio.run(run())


def _load_main(host: str, port: int, duration: float, counter_queue) -> None:
    """Load-client entry: hammer /predict over keep-alive until the deadline."""
    import http.client

    deadline = time.monotonic() + duration
    answered = 0
    body = json.dumps({"nodes": list(range(8))})
    headers = {"Content-Type": "application/json"}
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=5)
            # reconnect every 200 requests so the kernel re-balances the
            # connection across the SO_REUSEPORT acceptors
            for _ in range(200):
                if time.monotonic() >= deadline:
                    break
                conn.request("POST", "/predict", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    answered += 1
            conn.close()
        except OSError:
            time.sleep(0.01)
    counter_queue.put(answered)


def _spawn_tier(ctx, root: Path, workers: int, *, snapshot_every: int = 0):
    """Start a tier subprocess; return ``(process, host, port, tier_pid)``."""
    root.mkdir(parents=True, exist_ok=True)
    port_file = root / f"port-{workers}.json"
    port_file.unlink(missing_ok=True)
    proc = ctx.Process(
        target=_tier_main,
        args=(str(root), workers, str(port_file), snapshot_every),
        daemon=False,  # the tier has children of its own
    )
    proc.start()
    deadline = time.monotonic() + 180
    while not port_file.exists() or not port_file.read_text().strip():
        if time.monotonic() > deadline or not proc.is_alive():
            raise RuntimeError("tier subprocess failed to start")
        time.sleep(0.1)
    info = json.loads(port_file.read_text())
    return proc, info["host"], info["port"], info["pid"]


def _measure_aggregate_rps(ctx, host: str, port: int) -> float:
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_load_main, args=(host, port, LOAD_SECONDS, queue))
        for _ in range(LOAD_PROCS)
    ]
    start = time.monotonic()
    for proc in procs:
        proc.start()
    total = sum(queue.get(timeout=LOAD_SECONDS * 10 + 60) for _ in procs)
    for proc in procs:
        proc.join()
    return total / max(time.monotonic() - start, 1e-9)


def _stop_tier(proc) -> None:
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=10)
    if proc.is_alive():
        proc.kill()
        proc.join()


def replicated_throughput_phase(ctx, root: Path, workers: int) -> dict:
    """Aggregate /predict throughput: single process vs a worker pool."""
    proc, host, port, _ = _spawn_tier(ctx, root / "baseline", 0)
    try:
        baseline_rps = _measure_aggregate_rps(ctx, host, port)
    finally:
        _stop_tier(proc)
    print(f"single-process baseline: {baseline_rps:.0f} rps "
          f"({LOAD_PROCS} client processes, {LOAD_SECONDS:g}s)")

    proc, host, port, _ = _spawn_tier(ctx, root / "pool", workers)
    try:
        replicated_rps = _measure_aggregate_rps(ctx, host, port)
    finally:
        _stop_tier(proc)
    speedup = replicated_rps / max(baseline_rps, 1e-9)
    print(f"replicated tier ({workers} workers + coordinator): "
          f"{replicated_rps:.0f} rps ({speedup:.2f}x aggregate)")
    return {
        "workers": workers,
        "load_processes": LOAD_PROCS,
        "load_seconds": LOAD_SECONDS,
        "baseline_rps": baseline_rps,
        "replicated_rps": replicated_rps,
        "aggregate_speedup": speedup,
        "cpus": os.cpu_count(),
        "gate_enforced": (os.cpu_count() or 1) >= SPEEDUP_GATE_MIN_CPUS,
    }


async def replicated_kill_phase(workers: int) -> dict:
    """Worker SIGKILL mid delta-replay: zero dropped, zero stale responses.

    The tier runs in-process (the benchmark is the coordinator) so the
    authoritative session is at hand for expected labels and worker pids
    are known for the kill.  Clients retry on connection resets — a killed
    worker's in-flight sockets die — and a logical request only counts as
    *dropped* when its retries are exhausted.  *Stale* means a response
    carries a version older than one whose ``/delta`` had already been
    acknowledged when the request was sent.

    ``respawn_s`` is the time from the ``SIGKILL`` until the killed slot's
    new worker has registered and every slot is registered again: the
    worker's whole start, paid on every respawn.  It includes up to one
    0.25 s supervisor tick before the death is noticed.
    """
    import signal as _signal
    import tempfile

    from repro.serving.replicated import ReplicatedConfig, ReplicatedServer

    tmp = tempfile.mkdtemp(prefix="bench-repl-kill-")
    server = ReplicatedServer(
        _make_bench_controller,
        config=ReplicatedConfig(root=tmp, port=0, workers=workers),
        genesis=GENESIS,
    )
    host, port = await server.start()
    deadline = time.monotonic() + 60
    while len(server._links) < workers:
        if time.monotonic() > deadline:
            raise RuntimeError("workers failed to register")
        await asyncio.sleep(0.05)

    controller = server.controller
    num_targets = controller.session.num_targets
    all_ids = np.arange(num_targets, dtype=np.int64)

    def snapshot() -> np.ndarray:
        return np.argmax(controller.session.logits(all_ids), axis=-1)

    expected: dict[int, np.ndarray] = {controller.version: snapshot()}
    acked_floor = controller.version
    schedule = generate_delta_schedule(
        controller.graph, steps=4, seed=29,
        edge_churn=0.0005, relations=("paper-term",),
    )
    answered = 0
    dropped = 0
    stale = 0
    incorrect = 0
    retries = 0
    stop = asyncio.Event()
    rng = np.random.default_rng(31)
    id_pool = rng.integers(0, num_targets, size=(1024, IDS_PER_REQUEST)).astype(np.int64)

    async def request(
        method: str, path: str, payload: dict, *, to: tuple[str, int] = (host, port)
    ) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(*to)
        body = json.dumps(payload).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        if not raw:
            raise ConnectionResetError("empty response")
        head, _, response_body = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(response_body or b"{}")

    async def client(worker: int) -> None:
        nonlocal answered, dropped, stale, incorrect, retries
        cursor = worker
        while not stop.is_set():
            ids = id_pool[cursor % id_pool.shape[0]]
            cursor += CLIENTS
            floor = acked_floor  # committed before this request started
            for attempt in range(30):
                try:
                    status, payload = await request(
                        "POST", "/predict", {"nodes": ids.tolist()}
                    )
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    retries += 1
                    await asyncio.sleep(0.02)
                    continue
                if status != 200:
                    retries += 1
                    await asyncio.sleep(0.02)
                    continue
                answered += 1
                version = payload["version"]
                if version < floor:
                    stale += 1
                reference = expected.get(version)
                if reference is not None and not np.array_equal(
                    np.asarray(payload["labels"]), reference[ids]
                ):
                    incorrect += 1
                break
            else:
                dropped += 1

    async def registered_again(killed_at: float) -> float:
        while True:
            link = server._links.get(1)
            if len(server._links) == workers and link is not None and link.pid != killed_pid:
                return time.perf_counter() - killed_at
            await asyncio.sleep(0.005)

    clients = [asyncio.create_task(client(i)) for i in range(CLIENTS)]
    killed_pid = None
    try:
        for index, delta in enumerate(schedule):
            if index == 2:
                # mid-replay: SIGKILL one worker while load is in flight
                victim = server.pool._processes[1]
                killed_pid = victim.pid
                os.kill(victim.pid, _signal.SIGKILL)
                respawned = asyncio.create_task(registered_again(time.perf_counter()))
            # Deltas go to the coordinator's loopback admin listener (the
            # handler workers forward to): on the shared SO_REUSEPORT port
            # the kernel can queue this connection on the just-killed
            # worker's socket, which then resets it.
            status, payload = await request(
                "POST", "/delta", delta.to_payload(), to=("127.0.0.1", server.admin_port)
            )
            if status != 200:
                raise RuntimeError(f"delta {index} failed: {payload}")
            expected[payload["version"]] = snapshot()
            acked_floor = payload["version"]
            print(f"delta {index}: version {payload['version']} "
                  f"acked_workers={payload['acked_workers']}"
                  + (" (worker killed)" if index == 2 else ""))
            await asyncio.sleep(0.2)
        try:
            respawn_s = await asyncio.wait_for(respawned, timeout=60)
        except asyncio.TimeoutError:
            raise RuntimeError("killed worker was not respawned") from None
        respawns = server.pool.respawns
    finally:
        stop.set()
        await asyncio.gather(*clients, return_exceptions=True)
        await server.close()
    return {
        "workers": workers,
        "deltas": len(schedule),
        "killed_pid": killed_pid,
        "answered": answered,
        "retries": retries,
        "dropped": dropped,
        "stale": stale,
        "incorrect": incorrect,
        "respawns": respawns,
        "respawn_s": respawn_s,
    }


def replicated_recovery_phase(ctx, root: Path, workers: int) -> dict:
    """``kill -9`` the coordinator; WAL replay must restore byte-identical
    model state and identical predictions for the full query set."""
    from repro.serving.artifacts import load_bundle
    from repro.serving.replicated.pool import current_version
    from repro.streaming.incremental import graphs_equal

    # The mirror: same recipe, same deltas — what the tier *must* recover to.
    mirror = _make_bench_controller()
    mirror.start()
    schedule = generate_delta_schedule(
        mirror.graph, steps=4, seed=43, edge_churn=0.0005, relations=("paper-term",),
    )

    tier_root = root / "recovery"
    proc, host, port, tier_pid = _spawn_tier(ctx, tier_root, workers, snapshot_every=2)
    try:
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=120)
        for delta in schedule:
            mirror.apply_delta(delta)
            conn.request(
                "POST", "/delta", body=json.dumps(delta.to_payload()),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                raise RuntimeError(f"delta failed: {payload}")
        conn.close()
        assert payload["version"] == mirror.version, "tier/mirror diverged pre-kill"
    finally:
        print(f"kill -9 coordinator (pid {tier_pid}) after {len(schedule)} deltas")
        os.kill(tier_pid, 9)
        proc.join(timeout=30)

    restart_start = time.monotonic()
    proc, host, port, _ = _spawn_tier(ctx, tier_root, workers, snapshot_every=2)
    recovery_seconds = time.monotonic() - restart_start
    try:
        import http.client

        all_ids = np.arange(mirror.session.num_targets, dtype=np.int64)
        expected_labels = mirror.session.predict(all_ids)
        conn = http.client.HTTPConnection(host, port, timeout=120)
        conn.request(
            "POST", "/predict",
            body=json.dumps({"nodes": all_ids.tolist()}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        if response.status != 200:
            raise RuntimeError(f"post-recovery predict failed: {payload}")
        predictions_identical = payload["labels"] == expected_labels.tolist()
        version_identical = payload["version"] == mirror.version

        # byte-identity of the recovered, re-published bundle
        version, vdir = current_version(tier_root)
        recovered = load_bundle(vdir / "bundle")
        reference = mirror.export_bundle()
        weights_identical = set(recovered.weights) == set(reference.weights) and all(
            np.asarray(recovered.weights[name]).tobytes()
            == np.asarray(reference.weights[name]).tobytes()
            for name in reference.weights
        )
        state_identical = json.dumps(
            recovered.state, sort_keys=True, default=str
        ) == json.dumps(reference.state, sort_keys=True, default=str)
        condensed_identical = graphs_equal(recovered.condensed, reference.condensed)
    finally:
        _stop_tier(proc)
    return {
        "workers": workers,
        "deltas": len(schedule),
        "recovery_seconds": recovery_seconds,
        "recovered_version": version,
        "expected_version": mirror.version,
        "version_identical": version_identical,
        "predictions_identical": predictions_identical,
        "weights_byte_identical": weights_identical,
        "state_identical": state_identical,
        "condensed_identical": condensed_identical,
    }


async def replicated_chaos_phase(workers: int) -> dict:
    """Adversarial chaos drill: every self-healing path fires, under load.

    Five failures strike a live tier while concurrent clients hammer
    ``/predict``: a canary-rejected swap, a poison-delta commit, a publish
    corrupted between manifest and meta, a crash-looping worker slot, and
    post-publish bit rot on the ``CURRENT`` version directory.  Gates:

    * **zero dropped** — every logical request is answered within its retry
      budget;
    * **zero garbage** — every answer carries a *published* version and
      labels byte-equal to that version's snapshot (a degraded worker
      serving last-good is fine; an unknown version or wrong labels is not);
    * **converged recovery** — a fresh boot from the surviving WAL replays
      with ``quarantined_now == 0`` (poisoned records skip without work)
      and restores state byte-identical to a mirror controller that applied
      only the surviving deltas.

    All fault fires, quarantines and fallbacks must land on the shared
    metrics board so the coordinator's ``/metrics`` page tells the story.
    """
    import signal as _signal
    import tempfile

    from repro.serving.replicated import (
        ReplicatedConfig,
        ReplicatedServer,
        read_deadletter,
        recover_from_wal,
    )
    from repro.serving.replicated.pool import current_version
    from repro.utils import faults
    from repro.utils.faults import FaultInjector

    tmp = Path(tempfile.mkdtemp(prefix="bench-repl-chaos-"))
    injector = FaultInjector(seed=11)
    faults.install(injector)
    server = ReplicatedServer(
        _chaos_controller,
        config=ReplicatedConfig(root=tmp, port=0, workers=workers),
        genesis=GENESIS,
    )
    host, port = await server.start()
    deadline = time.monotonic() + 60
    while len(server._links) < workers:
        if time.monotonic() > deadline:
            raise RuntimeError("workers failed to register")
        await asyncio.sleep(0.05)

    def snapshot() -> np.ndarray:
        session = server.controller.session
        ids = np.arange(session.num_targets, dtype=np.int64)
        return np.argmax(session.logits(ids), axis=-1)

    num_targets = server.controller.session.num_targets
    expected: dict[int, np.ndarray] = {server.controller.version: snapshot()}
    schedule = generate_delta_schedule(
        server.controller.graph, steps=4, seed=53,
        edge_churn=0.0005, relations=("paper-term",),
    )
    answered = 0
    dropped = 0
    garbage = 0
    retries = 0
    stop = asyncio.Event()
    rng = np.random.default_rng(59)
    id_pool = rng.integers(0, num_targets, size=(1024, IDS_PER_REQUEST)).astype(np.int64)

    async def raw_request(method: str, path: str, body: bytes) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        if not raw:
            raise ConnectionResetError("empty response")
        head, _, payload = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), payload

    async def request(method: str, path: str, payload: dict) -> tuple[int, dict]:
        status, body = await raw_request(method, path, json.dumps(payload).encode())
        return status, json.loads(body or b"{}")

    async def client(worker: int) -> None:
        nonlocal answered, dropped, garbage, retries
        cursor = worker
        while not stop.is_set():
            ids = id_pool[cursor % id_pool.shape[0]]
            cursor += CLIENTS
            for _ in range(50):
                try:
                    status, payload = await request(
                        "POST", "/predict", {"nodes": ids.tolist()}
                    )
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    retries += 1
                    await asyncio.sleep(0.02)
                    continue
                if status != 200:
                    retries += 1
                    await asyncio.sleep(0.02)
                    continue
                answered += 1
                # Zero-garbage contract: a degraded (last-good) version is
                # acceptable, but the labels must byte-match the snapshot of
                # whichever version the response claims.  A version not yet
                # in `expected` is a swap racing the /delta ack — resolve it
                # against the live controller, like the hotswap gate does.
                version = payload["version"]
                reference = expected.get(version)
                if reference is None and version == server.controller.version:
                    reference = expected[version] = snapshot()
                if reference is not None and not np.array_equal(
                    np.asarray(payload["labels"]), reference[ids]
                ):
                    garbage += 1
                break
            else:
                dropped += 1

    async def commit(delta) -> dict:
        status, payload = await request("POST", "/delta", delta.to_payload())
        if status != 200:
            raise RuntimeError(f"clean delta failed: {payload}")
        expected[payload["version"]] = snapshot()
        return payload

    clients = [asyncio.create_task(client(i)) for i in range(CLIENTS)]
    try:
        # -- clean prefix: two deltas the recovered state must preserve ---- #
        await commit(schedule[0])
        await commit(schedule[1])

        # -- segment 1: canary-rejected swap rolls back ------------------- #
        # A standalone delta (not part of the surviving chain): the rebuild
        # rolls its effects back entirely, so schedule[2] still validates.
        reject_delta = generate_delta_schedule(
            server.controller.graph, steps=1, seed=77,
            edge_churn=0.0005, relations=("paper-term",),
        )[0]
        injector.plan("canary.force_reject", every=1, limit=1)
        status, payload = await request("POST", "/delta", reject_delta.to_payload())
        if status != 422 or not payload.get("rolled_back"):
            raise RuntimeError(f"canary rejection not surfaced: {status} {payload}")
        print(
            f"rollback: canary rejected the candidate "
            f"({'; '.join(payload['canary'].get('reasons', []))}); "
            f"version {payload['version']} kept serving",
            flush=True,
        )

        # -- segment 2: poison delta quarantined to the dead letter ------- #
        poison_delta = generate_delta_schedule(
            server.controller.graph, steps=1, seed=79,
            edge_churn=0.0005, relations=("paper-term",),
        )[0]
        injector.plan("hotswap.poison_commit", every=1, limit=1)
        status, payload = await request("POST", "/delta", poison_delta.to_payload())
        if status != 422 or not payload.get("quarantined"):
            raise RuntimeError(f"poison delta not quarantined: {status} {payload}")
        print(
            f"quarantine: poison delta dead-lettered "
            f"(fingerprint={payload['fingerprint']}); "
            f"rolled back to version {payload['version']}",
            flush=True,
        )

        # -- segment 3: corrupt publish is caught and repaired in place --- #
        injector.plan("publish.corrupt_file", every=1, limit=1)
        await commit(schedule[2])
        if server.publish_repairs != 1:
            raise RuntimeError(
                f"corrupt publish not repaired (repairs={server.publish_repairs})"
            )
        print(
            "repair: publish failed its own manifest check and was "
            "republished in place",
            flush=True,
        )

        # -- segment 4: crash-looping worker slot, bounded respawns ------- #
        injector.plan("pool.crash_loop", every=1, limit=2)
        victim = min(
            slot for slot, proc in server.pool._processes.items() if proc.is_alive()
        )
        os.kill(server.pool._processes[victim].pid, _signal.SIGKILL)
        deadline = time.monotonic() + 60
        while (
            injector.fires.get("pool.crash_loop", 0) < 2
            or len(server._links) < workers
        ):
            if time.monotonic() > deadline:
                raise RuntimeError("crash-looping slot did not recover")
            await asyncio.sleep(0.05)
        print(
            f"crash loop: slot {victim} burned "
            f"{injector.fires['pool.crash_loop']} instant-crash spawns under "
            f"backoff, then recovered",
            flush=True,
        )

        # -- segment 5: bit rot on CURRENT; respawned worker serves last-good
        await commit(schedule[3])
        fallbacks_before = int(
            server.board.column("integrity_fallbacks_total").sum()
        )
        version, vdir = current_version(tmp)
        with open(vdir / "logits.npy", "r+b") as handle:
            handle.seek(128)
            byte = handle.read(1)
            handle.seek(128)
            handle.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
        victim = min(
            slot for slot, proc in server.pool._processes.items() if proc.is_alive()
        )
        os.kill(server.pool._processes[victim].pid, _signal.SIGKILL)
        deadline = time.monotonic() + 60
        while (
            int(server.board.column("integrity_fallbacks_total").sum())
            <= fallbacks_before
            or len(server._links) < workers
        ):
            if time.monotonic() > deadline:
                raise RuntimeError("bit-rotted publish did not trigger a fallback")
            await asyncio.sleep(0.05)
        worker_fallbacks = (
            int(server.board.column("integrity_fallbacks_total").sum())
            - fallbacks_before
        )
        print(
            f"integrity: version {version} bit-rotted on disk; respawned "
            f"worker verified, fell back to last-good ({worker_fallbacks} "
            f"fallback(s))",
            flush=True,
        )
        await asyncio.sleep(0.5)  # let clients exercise the degraded worker
    finally:
        stop.set()
        await asyncio.gather(*clients, return_exceptions=True)

    # -- the /metrics page must tell the whole story ----------------------- #
    status, metrics_body = await raw_request("GET", "/metrics", b"")
    metrics_page = metrics_body.decode("utf-8", "replace")
    for needle in (
        "repro_quarantined_deltas_total 2",
        "repro_canary_rejections_total 1",
        'repro_fault_fires_total{site="canary.force_reject"} 1',
        'repro_fault_fires_total{site="hotswap.poison_commit"} 1',
        'repro_fault_fires_total{site="publish.corrupt_file"} 1',
        'repro_fault_fires_total{site="pool.crash_loop"} 2',
    ):
        if needle not in metrics_page:
            raise RuntimeError(f"/metrics is missing {needle!r}")
    metrics_ok = status == 200

    wal_path = server.config.wal_path
    deadletter = read_deadletter(wal_path)
    stats = dict(server.stats)
    respawns = int(stats["respawns"])
    await server.close()
    faults.uninstall()

    # -- converged recovery: boot two is quarantine-free and byte-identical #
    mirror = _chaos_controller()
    mirror.start()
    for delta in schedule:
        mirror.apply_delta(delta)
    controller, wal, recovery = recover_from_wal(
        wal_path, root=tmp, make_controller=_chaos_controller,
        genesis_config=GENESIS,
    )
    try:
        all_ids = np.arange(mirror.session.num_targets, dtype=np.int64)
        predictions_identical = bool(
            np.array_equal(
                controller.session.predict(all_ids), mirror.session.predict(all_ids)
            )
        )
        recovered = controller.export_bundle()
        reference = mirror.export_bundle()
        weights_identical = set(recovered.weights) == set(reference.weights) and all(
            np.asarray(recovered.weights[name]).tobytes()
            == np.asarray(reference.weights[name]).tobytes()
            for name in reference.weights
        )
        version_identical = controller.version == mirror.version
    finally:
        wal.close()
    print(
        f"recovery: mode={recovery['mode']} "
        f"deltas_replayed={recovery['deltas_replayed']} "
        f"quarantined={recovery['quarantined']} "
        f"quarantined_now={recovery['quarantined_now']} "
        f"weights byte-identical={weights_identical}",
        flush=True,
    )
    return {
        "workers": workers,
        "deltas_committed": len(schedule),
        "answered": answered,
        "retries": retries,
        "dropped": dropped,
        "garbage": garbage,
        "respawns": respawns,
        "quarantined": int(stats["quarantined"]),
        "canary_rejections": int(stats["canary_rejections"]),
        "publish_repairs": int(stats["publish_repairs"]),
        "worker_integrity_fallbacks": worker_fallbacks,
        "deadletter_entries": len(deadletter),
        "deadletter_reasons": sorted({str(e.get("reason")) for e in deadletter}),
        "fault_fires": dict(injector.fires),
        "metrics_page_ok": metrics_ok,
        "recovery": {
            "mode": recovery["mode"],
            "deltas_replayed": recovery["deltas_replayed"],
            "quarantined": recovery["quarantined"],
            "quarantined_now": recovery["quarantined_now"],
            "version_identical": version_identical,
            "predictions_identical": predictions_identical,
            "weights_byte_identical": weights_identical,
        },
    }


def _read_baseline() -> dict:
    """The current BENCH_serving.json, minus provenance (emit_json re-stamps).

    Both entry points rewrite the whole file but own disjoint sections —
    the plain run keeps an existing ``replicated`` section and vice versa —
    so either benchmark can be re-run alone without losing the other's
    committed baseline."""
    from benchmarks.common import load_baseline

    payload = load_baseline("BENCH_serving.json")
    payload.pop("provenance", None)
    return payload


def replicated_main(workers: int, phases: set[str], inject_faults: bool = False) -> int:
    import multiprocessing
    import tempfile

    ctx = multiprocessing.get_context("spawn")
    root = Path(tempfile.mkdtemp(prefix="bench-replicated-"))
    result: dict = {"workers": workers, "scale": SCALE, "phases": sorted(phases)}
    failures: list[str] = []

    if "throughput" in phases:
        throughput = replicated_throughput_phase(ctx, root, workers)
        result["throughput"] = throughput
        if throughput["aggregate_speedup"] < MIN_AGG_SPEEDUP:
            if throughput["gate_enforced"]:
                failures.append(
                    f"aggregate throughput {throughput['aggregate_speedup']:.2f}x "
                    f"< {MIN_AGG_SPEEDUP:g}x at {workers} workers"
                )
            else:
                print(
                    f"note: {throughput['aggregate_speedup']:.2f}x < "
                    f"{MIN_AGG_SPEEDUP:g}x but only {throughput['cpus']} CPUs "
                    f"(gate needs >= {SPEEDUP_GATE_MIN_CPUS}): reported, not enforced"
                )

    if "kill" in phases:
        kill = asyncio.run(replicated_kill_phase(workers))
        result["worker_kill"] = kill
        print(
            f"worker-kill: {kill['answered']} answered, {kill['retries']} retried, "
            f"{kill['dropped']} dropped, {kill['stale']} stale, "
            f"{kill['incorrect']} incorrect, {kill['respawns']} respawns, "
            f"respawned worker registered {kill['respawn_s']:.3f}s after the kill"
        )
        if kill["dropped"] or kill["stale"] or kill["incorrect"]:
            failures.append(
                f"worker-kill gate: dropped={kill['dropped']} "
                f"stale={kill['stale']} incorrect={kill['incorrect']}"
            )
        if kill["answered"] == 0:
            failures.append("worker-kill gate: no responses answered")

    if "recovery" in phases:
        recovery = replicated_recovery_phase(ctx, root, min(workers, 2))
        result["coordinator_recovery"] = recovery
        print(
            f"recovery: version {recovery['recovered_version']} restored in "
            f"{recovery['recovery_seconds']:.2f}s, "
            f"weights byte-identical={recovery['weights_byte_identical']}, "
            f"predictions identical={recovery['predictions_identical']}"
        )
        for key in (
            "version_identical", "predictions_identical",
            "weights_byte_identical", "state_identical", "condensed_identical",
        ):
            if not recovery[key]:
                failures.append(f"recovery gate: {key} is False")

    if "chaos" in phases:
        if not inject_faults:
            raise SystemExit("the chaos phase requires --inject-faults")
        chaos = asyncio.run(replicated_chaos_phase(min(workers, 2)))
        result["chaos"] = chaos
        print(
            f"chaos: {chaos['answered']} answered, {chaos['retries']} retried, "
            f"{chaos['dropped']} dropped, {chaos['garbage']} garbage, "
            f"{chaos['quarantined']} quarantined, "
            f"{chaos['canary_rejections']} canary rejections, "
            f"{chaos['publish_repairs']} publish repairs, "
            f"{chaos['respawns']} respawns"
        )
        if chaos["dropped"] or chaos["garbage"]:
            failures.append(
                f"chaos gate: dropped={chaos['dropped']} garbage={chaos['garbage']}"
            )
        if chaos["answered"] == 0:
            failures.append("chaos gate: no responses answered")
        if chaos["quarantined"] != 2 or chaos["deadletter_entries"] != 2:
            failures.append(
                f"chaos gate: quarantined={chaos['quarantined']} "
                f"deadletter={chaos['deadletter_entries']} (expected 2/2)"
            )
        if chaos["canary_rejections"] != 1:
            failures.append(
                f"chaos gate: canary_rejections={chaos['canary_rejections']} != 1"
            )
        recovery = chaos["recovery"]
        if recovery["quarantined_now"] != 0:
            failures.append(
                "chaos gate: recovery re-quarantined "
                f"{recovery['quarantined_now']} record(s) on the second boot"
            )
        for key in (
            "version_identical", "predictions_identical", "weights_byte_identical",
        ):
            if not recovery[key]:
                failures.append(f"chaos gate: recovery {key} is False")

    payload = _read_baseline()
    # Merge by phase: a partial run (--phases chaos) refreshes only its own
    # phase keys and leaves the committed numbers of the others in place.
    merged = payload.get("replicated")
    merged = dict(merged) if isinstance(merged, dict) else {}
    merged.update(result)
    merged["phases"] = sorted(set(merged.get("phases", ())) | phases)
    payload["replicated"] = merged
    if "chaos" in result:
        # Gate baseline: runner.gates derives the matrix's canary-rejections
        # threshold from the top-level "chaos" section.
        payload["chaos"] = dict(result["chaos"])
    emit_json(payload, "BENCH_serving.json")
    if failures:
        for failure in failures:
            print(f"error: {failure}")
        return 1
    print("replicated gates passed")
    return 0


def main() -> int:
    graph = generate_hin(serving_config(), scale=SCALE, seed=7)
    num_targets = graph.num_nodes[graph.schema.target_type]
    controller = _make_bench_controller(graph)
    start = time.perf_counter()
    controller.start()
    cold_seconds = time.perf_counter() - start
    print(
        f"cold start (condense + train) {cold_seconds:.2f}s, "
        f"{num_targets} target nodes",
        flush=True,
    )

    rng = np.random.default_rng(3)
    ids = rng.permutation(num_targets).astype(np.int64)
    identity_gate(controller, ids)
    print("byte-identity gate passed (batched == serial == offline forward)")

    throughput = throughput_gate(controller, num_targets, rng)
    print(
        f"throughput: unbatched {throughput['unbatched_rps']:.0f} rps, "
        f"micro-batched {throughput['batched_rps']:.0f} rps "
        f"({throughput['speedup']:.1f}x) over {throughput['queued_requests']} requests"
    )

    swap_outcome = asyncio.run(hotswap_gate(controller, seed=23))
    latency = swap_outcome["latency"]
    print(
        f"hot-swap: {swap_outcome['requests']} concurrent requests, "
        f"{swap_outcome['failures']} failures, "
        f"p50={latency['p50'] * 1e3:.2f}ms p95={latency['p95'] * 1e3:.2f}ms "
        f"p99={latency['p99'] * 1e3:.2f}ms"
    )

    rows = [
        {
            "phase": "unbatched",
            "requests": throughput["queued_requests"],
            "rps": f"{throughput['unbatched_rps']:.0f}",
            "note": "one engine call per request (cache off)",
        },
        {
            "phase": "micro-batched",
            "requests": throughput["queued_requests"],
            "rps": f"{throughput['batched_rps']:.0f}",
            "note": f"batches of {MAX_BATCH} (cache off), {throughput['speedup']:.1f}x",
        },
        {
            "phase": "served (hot-swap)",
            "requests": swap_outcome["requests"],
            "rps": f"{swap_outcome['served_rps']:.0f}",
            "note": (
                f"p50 {latency['p50'] * 1e3:.2f}ms / p95 {latency['p95'] * 1e3:.2f}ms "
                f"/ p99 {latency['p99'] * 1e3:.2f}ms, {swap_outcome['failures']} failures"
            ),
        },
    ]
    emit(
        f"Online serving — acm-serve scale {SCALE:g} ({num_targets} target nodes)",
        rows,
        "serving.txt",
        paper_note=(
            "Production-motivated extension (ROADMAP): the paper trains on the "
            "condensed graph; this harness persists that model, serves it over "
            "HTTP with micro-batching, and hot-swaps it as streaming deltas "
            "re-condense the graph — with zero dropped or incorrect responses."
        ),
    )
    single_process = {
            "scale": SCALE,
            "target_nodes": num_targets,
            "cold_start_seconds": cold_seconds,
            "byte_identical": True,
            "throughput": {
                key: value for key, value in throughput.items()
            },
            "hotswap": {
                "steps": STEPS,
                "requests": swap_outcome["requests"],
                "failures": swap_outcome["failures"],
                "served_rps": swap_outcome["served_rps"],
                "retrains": sum(1 for s in swap_outcome["swaps"] if s["retrained"]),
                "latency_ms": {
                    key: value * 1e3 if key != "count" else value
                    for key, value in latency.items()
                },
                "batcher": swap_outcome["batcher"],
            },
    }
    existing = _read_baseline()  # keep any --replicated sections already there
    for key in ("replicated", "chaos"):
        if key in existing:
            single_process[key] = existing[key]
    emit_json(single_process, "BENCH_serving.json")

    if throughput["speedup"] < SPEEDUP_FACTOR:
        print(
            f"error: throughput gate failed — {throughput['speedup']:.2f}x < "
            f"{SPEEDUP_FACTOR:.1f}x at {throughput['queued_requests']} queued requests"
        )
        return 1
    print(f"throughput gate passed (>= {SPEEDUP_FACTOR:.1f}x)")
    if swap_outcome["failures"] or swap_outcome["requests"] == 0:
        print(
            f"error: hot-swap gate failed — {swap_outcome['failures']} "
            f"failed/incorrect responses over {swap_outcome['requests']} requests"
        )
        return 1
    print("hot-swap gate passed (zero dropped/incorrect responses)")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicated", action="store_true",
                        help="benchmark the multi-process replicated tier "
                             "instead of the single-process server")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for --replicated (default: 4)")
    parser.add_argument("--phases", default="throughput,kill,recovery",
                        help="comma-separated subset of replicated phases "
                             "(throughput,kill,recovery,chaos; default runs "
                             "the first three)")
    parser.add_argument("--inject-faults", action="store_true",
                        help="allow the chaos phase to install deterministic "
                             "fault plans (required for --phases chaos)")
    cli_args = parser.parse_args()
    if cli_args.replicated:
        wanted = {p.strip() for p in cli_args.phases.split(",") if p.strip()}
        unknown = wanted - {"throughput", "kill", "recovery", "chaos"}
        if unknown:
            parser.error(f"unknown phases: {', '.join(sorted(unknown))}")
        if "chaos" in wanted and not cli_args.inject_faults:
            parser.error("--phases chaos requires --inject-faults")
        sys.exit(replicated_main(cli_args.workers, wanted, cli_args.inject_faults))
    sys.exit(main())
