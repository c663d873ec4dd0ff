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
  retrain → atomic session swap); zero dropped or incorrect responses is a
  hard gate.

Every load phase here, like ``python -m repro serve --selftest``, runs the
one check of :mod:`repro.serving.probe`: an answer is correct when it is a
200 that names a version the label book recorded, or the live one, with
labels byte-equal to that version's.  The worker-kill phase adds a floor
(no answer older than the last version acked before it was sent).  Every
phase posts its deltas through ``probe.commit``, which acks the version a
swap returns in the label book.

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
from typing import TYPE_CHECKING

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np

from benchmarks.common import EPOCHS, SCALE, emit, emit_json

# The library is imported inside the functions that use it: ``spawn`` re-runs
# this module's top level in every worker the replicated tier starts, and a
# worker needs none of it.
if TYPE_CHECKING:
    from repro.datasets.base import SyntheticHINConfig
    from repro.serving import ServingController

SPEEDUP_FACTOR = 5.0
QUEUE_DEPTH = int(os.environ.get("REPRO_BENCH_SERVE_QUEUE", "2048"))
STEPS = int(os.environ.get("REPRO_BENCH_SERVE_STEPS", "5"))
RATIO = 0.05
MAX_HOPS = 2


def serving_config() -> SyntheticHINConfig:
    """ACM-shaped HIN sized so the target pool is ≥2k at scale 1."""
    from repro.datasets.base import NodeTypeSpec, RelationSpec, SyntheticHINConfig

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


def _deltas(graph, steps: int, seed: int) -> list:
    """Every replay's schedule: 0.05% of ``paper-term`` edges churned per step."""
    from repro.datasets.generators import generate_delta_schedule

    return generate_delta_schedule(
        graph, steps=steps, seed=seed, edge_churn=0.0005, relations=("paper-term",)
    )


def identity_gate(controller: ServingController, ids: np.ndarray) -> None:
    """Batched == serial == offline forward, byte for byte (raises on fail)."""
    from repro.serving import InferenceSession

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
    from repro.serving import InferenceSession
    from repro.serving.server import MAX_BATCH

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
    """Verified concurrent load through the real server during a delta replay."""
    from repro.evaluation.timing import summarize_latencies
    from repro.serving import ServingServer
    from repro.serving.probe import LabelBook, replay, request, verified_reads

    server = ServingServer(controller, port=0)
    host, port = await server.start()
    book = LabelBook(lambda: controller.session)
    schedule = _deltas(controller.graph, STEPS, seed=seed)
    swaps = []

    def on_swap(payload: dict) -> None:
        swaps.append(payload)
        print(
            f"swap {payload['step']}: version {payload['version']} "
            f"mode={payload['mode']} retrained={payload['retrained']} "
            f"dirty={payload['dirty_count']} carried={payload['cache_carried']} "
            f"swap {payload['swap_seconds']:.3f}s "
            f"({tally.answered} requests answered so far)",
            flush=True,
        )

    load_start = time.perf_counter()
    async with verified_reads(host, port, book, seed=seed + 1) as tally:
        failures = await replay(host, port, book, schedule, on_swap)
        load_seconds = time.perf_counter() - load_start
    _, stats = await request(host, port, "GET", "/stats")
    await server.close()
    return {
        "requests": tally.answered,
        "failures": failures + tally.failures,
        "swaps": swaps,
        "served_rps": tally.answered / load_seconds if load_seconds else 0.0,
        "latency": summarize_latencies(tally.latencies),
        "batcher": stats.get("batcher", {}),
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


def _make_bench_controller(graph=None, canary=None) -> ServingController:
    """The deterministic controller shared by every tier process.

    The graph is the bench's own ``acm-serve`` HIN, so the served config's
    dataset name is only a label.
    """
    from repro.datasets.generators import generate_hin
    from repro.runner.plan import ServeConfig

    if graph is None:
        graph = generate_hin(serving_config(), scale=SCALE, seed=7)
    serve = ServeConfig(
        dataset="acm-serve", ratio=RATIO, max_hops=MAX_HOPS, model="heterosgc", epochs=EPOCHS
    )
    return serve.build_controller(graph, canary=canary)


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
    """Child-process entry: serve a tier (or one plain server) until SIGTERM
    closes it or SIGKILL stops it."""
    import asyncio
    import signal

    from repro.serving import ServingServer
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
        # SIGTERM (_stop_tier) closes the tier, which stops every worker,
        # booting ones included, so none outlives the run's root.
        serving = asyncio.ensure_future(server.serve_forever())
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, serving.cancel)
        try:
            await serving
        except asyncio.CancelledError:
            pass
        await server.close()

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


async def _until(ready, failure: str) -> float:
    """Poll ``ready()`` until it holds; returns the seconds that took, or raises past 60 s."""
    start = time.perf_counter()
    while not ready():
        if time.perf_counter() - start > 60:
            raise RuntimeError(failure)
        await asyncio.sleep(0.005)
    return time.perf_counter() - start


async def _start_tier(make_controller, workers: int, root: Path):
    """Start an in-process tier under ``root``; returns ``(server, host, port)``
    once every worker has registered."""
    from repro.serving.replicated import ReplicatedConfig, ReplicatedServer

    server = ReplicatedServer(
        make_controller,
        config=ReplicatedConfig(root=root, port=0, workers=workers),
        genesis=GENESIS,
    )
    host, port = await server.start()
    await _until(lambda: len(server._links) == workers, "workers failed to register")
    return server, host, port


async def replicated_kill_phase(workers: int, root: Path) -> dict:
    """Worker SIGKILL mid delta-replay: zero dropped, zero stale responses.

    The tier runs in-process (the benchmark is the coordinator) so the
    authoritative session is at hand for the label book and worker pids
    are known for the kill.  The readers try each read up to 30 times (a
    killed worker's sockets reset) and take the acked version as their
    floor (:func:`repro.serving.probe.verified_reads`).

    ``respawn_s`` is the time from the ``SIGKILL`` until the killed slot's
    new worker has registered and every slot is registered again: the
    worker's whole start, paid on every respawn.  It includes up to one
    0.25 s supervisor tick before the death is noticed.
    """
    import signal as _signal

    from repro.serving.probe import LabelBook, commit, verified_reads

    server, host, port = await _start_tier(_make_bench_controller, workers, root / "kill")
    book = LabelBook(lambda: server.controller.session)
    schedule = _deltas(server.controller.graph, 4, seed=29)

    def registered_again() -> bool:
        link = server._links.get(1)
        return len(server._links) == workers and link is not None and link.pid != killed_pid

    killed_pid = None
    try:
        async with verified_reads(host, port, book, seed=31, attempts=30, floor=True) as tally:
            for index, delta in enumerate(schedule):
                if index == 2:
                    # mid-replay: SIGKILL one worker while load is in flight
                    victim = server.pool._processes[1]
                    killed_pid = victim.pid
                    os.kill(victim.pid, _signal.SIGKILL)
                    respawned = asyncio.create_task(
                        _until(registered_again, "killed worker was not respawned")
                    )
                # Deltas go to the coordinator's loopback admin listener (the
                # handler workers forward to): on the shared SO_REUSEPORT port
                # the kernel can queue this connection on the just-killed
                # worker's socket, which then resets it.
                status, payload = await commit("127.0.0.1", server.admin_port, book, delta)
                if status != 200:
                    raise RuntimeError(f"delta {index} failed: {payload}")
                print(f"delta {index}: version {payload['version']} "
                      f"acked_workers={payload['acked_workers']}"
                      + (" (worker killed)" if index == 2 else ""))
                await asyncio.sleep(0.2)
            respawn_s = await respawned
            respawns = server.pool.respawns
    finally:
        await server.close()
    return {
        "workers": workers,
        "deltas": len(schedule),
        "killed_pid": killed_pid,
        "answered": tally.answered,
        "retries": tally.retries,
        "dropped": tally.dropped,
        "stale": tally.stale,
        "incorrect": tally.incorrect,
        "respawns": respawns,
        "respawn_s": respawn_s,
    }


def _weights_identical(recovered, reference) -> bool:
    """Do two model bundles hold the same weight arrays, byte for byte?"""
    return set(recovered.weights) == set(reference.weights) and all(
        np.asarray(recovered.weights[name]).tobytes()
        == np.asarray(reference.weights[name]).tobytes()
        for name in reference.weights
    )


def replicated_recovery_phase(ctx, root: Path, workers: int) -> dict:
    """``kill -9`` the coordinator; WAL replay must restore byte-identical
    model state and identical predictions for the full query set."""
    from repro.serving.artifacts import load_bundle
    from repro.serving.probe import request
    from repro.serving.replicated.pool import current_version
    from repro.streaming.incremental import graphs_equal

    # The mirror: same recipe, same deltas — what the tier *must* recover to.
    mirror = _make_bench_controller()
    mirror.start()
    schedule = _deltas(mirror.graph, 4, seed=43)

    tier_root = root / "recovery"
    proc, host, port, tier_pid = _spawn_tier(ctx, tier_root, workers, snapshot_every=2)
    try:
        for delta in schedule:
            mirror.apply_delta(delta)
            status, payload = asyncio.run(
                request(host, port, "POST", "/delta", delta.to_payload())
            )
            if status != 200:
                raise RuntimeError(f"delta failed: {payload}")
        assert payload["version"] == mirror.version, "tier/mirror diverged pre-kill"
    finally:
        print(f"kill -9 coordinator (pid {tier_pid}) after {len(schedule)} deltas")
        os.kill(tier_pid, 9)
        proc.join(timeout=30)

    restart_start = time.monotonic()
    proc, host, port, _ = _spawn_tier(ctx, tier_root, workers, snapshot_every=2)
    recovery_seconds = time.monotonic() - restart_start
    try:
        all_ids = np.arange(mirror.session.num_targets, dtype=np.int64)
        expected_labels = mirror.session.predict(all_ids)
        status, payload = asyncio.run(
            request(host, port, "POST", "/predict", {"nodes": all_ids.tolist()})
        )
        if status != 200:
            raise RuntimeError(f"post-recovery predict failed: {payload}")
        predictions_identical = payload["labels"] == expected_labels.tolist()
        version_identical = payload["version"] == mirror.version

        # byte-identity of the recovered, re-published bundle
        version, vdir = current_version(tier_root)
        recovered = load_bundle(vdir / "bundle")
        reference = mirror.export_bundle()
        weights_identical = _weights_identical(recovered, reference)
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


async def replicated_chaos_phase(workers: int, root: Path) -> dict:
    """Adversarial chaos drill: every self-healing path fires, under load.

    Five failures strike a live tier while concurrent clients hammer
    ``/predict``: a canary-rejected swap, a poison-delta commit, a publish
    corrupted between manifest and meta, a crash-looping worker slot, and
    post-publish bit rot on the ``CURRENT`` version directory.  Gates:

    * **zero dropped** — every logical request is answered within its retry
      budget;
    * **zero garbage** — no answer is incorrect by ``LabelBook.judge``
      (readers take no floor: a degraded worker serving last-good is fine);
    * **converged recovery** — a fresh boot from the surviving WAL replays
      with ``quarantined_now == 0`` (poisoned records skip without work)
      and restores state byte-identical to a mirror controller that applied
      only the surviving deltas.

    All fault fires, quarantines and fallbacks must land on the shared
    metrics board so the coordinator's ``/metrics`` page tells the story.
    """
    import signal as _signal

    from repro.serving.probe import LabelBook, commit, request, verified_reads
    from repro.serving.replicated import read_deadletter, recover_from_wal
    from repro.serving.replicated.pool import current_version
    from repro.utils import faults
    from repro.utils.faults import FaultInjector

    injector = FaultInjector(seed=11)
    faults.install(injector)
    server, host, port = await _start_tier(_chaos_controller, workers, root / "chaos")
    tmp = server.config.root_path
    book = LabelBook(lambda: server.controller.session)
    schedule = _deltas(server.controller.graph, 4, seed=53)

    async def commit_clean(delta) -> None:
        status, payload = await commit(host, port, book, delta)
        if status != 200:
            raise RuntimeError(f"clean delta failed: {payload}")

    def kill_a_worker() -> int:
        victim = min(slot for slot, proc in server.pool._processes.items() if proc.is_alive())
        os.kill(server.pool._processes[victim].pid, _signal.SIGKILL)
        return victim

    def fallbacks() -> int:
        return int(server.board.column("integrity_fallbacks_total").sum())

    async with verified_reads(host, port, book, seed=59, attempts=50) as tally:
        # -- clean prefix: two deltas the recovered state must preserve ---- #
        await commit_clean(schedule[0])
        await commit_clean(schedule[1])

        # -- segment 1: canary-rejected swap rolls back ------------------- #
        # A standalone delta (not part of the surviving chain): the rebuild
        # rolls its effects back entirely, so schedule[2] still validates.
        (reject_delta,) = _deltas(server.controller.graph, 1, seed=77)
        injector.plan("canary.force_reject", every=1, limit=1)
        status, payload = await commit(host, port, book, reject_delta)
        if status != 422 or not payload.get("rolled_back"):
            raise RuntimeError(f"canary rejection not surfaced: {status} {payload}")
        print(
            f"rollback: canary rejected the candidate "
            f"({'; '.join(payload['canary'].get('reasons', []))}); "
            f"version {payload['version']} kept serving",
            flush=True,
        )

        # -- segment 2: poison delta quarantined to the dead letter ------- #
        (poison_delta,) = _deltas(server.controller.graph, 1, seed=79)
        injector.plan("hotswap.poison_commit", every=1, limit=1)
        status, payload = await commit(host, port, book, poison_delta)
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
        await commit_clean(schedule[2])
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
        victim = kill_a_worker()
        await _until(
            lambda: (
                injector.fires.get("pool.crash_loop", 0) >= 2 and len(server._links) == workers
            ),
            "crash-looping slot did not recover",
        )
        print(
            f"crash loop: slot {victim} burned "
            f"{injector.fires['pool.crash_loop']} instant-crash spawns under "
            f"backoff, then recovered",
            flush=True,
        )

        # -- segment 5: bit rot on CURRENT; respawned worker serves last-good
        await commit_clean(schedule[3])
        fallbacks_before = fallbacks()
        version, vdir = current_version(tmp)
        with open(vdir / "logits.npy", "r+b") as handle:
            handle.seek(128)
            byte = handle.read(1)
            handle.seek(128)
            handle.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
        kill_a_worker()
        await _until(
            lambda: fallbacks() > fallbacks_before and len(server._links) == workers,
            "bit-rotted publish did not trigger a fallback",
        )
        worker_fallbacks = fallbacks() - fallbacks_before
        print(
            f"integrity: version {version} bit-rotted on disk; respawned "
            f"worker verified, fell back to last-good ({worker_fallbacks} "
            f"fallback(s))",
            flush=True,
        )
        await asyncio.sleep(0.5)  # let the readers exercise the degraded worker

    # -- the /metrics page must tell the whole story ----------------------- #
    status, metrics_page = await request(host, port, "GET", "/metrics")
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
        weights_identical = _weights_identical(recovered, reference)
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
        "answered": tally.answered,
        "retries": tally.retries,
        "dropped": tally.dropped,
        "garbage": tally.incorrect,
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


def replicated_main(workers: int, phases: set[str]) -> int:
    """Run the replicated ``phases`` under one temporary root, removed on every
    exit path once they are done: each tier's WAL, metrics board and
    published versions live below it."""
    import tempfile

    with tempfile.TemporaryDirectory(
        prefix="bench-replicated-", ignore_cleanup_errors=True
    ) as root:
        return _replicated_phases(workers, phases, Path(root))


def _replicated_phases(workers: int, phases: set[str], root: Path) -> int:
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
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
        kill = asyncio.run(replicated_kill_phase(workers, root))
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
        chaos = asyncio.run(replicated_chaos_phase(min(workers, 2), root))
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
    from repro.datasets.generators import generate_hin
    from repro.serving.server import MAX_BATCH

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
        sys.exit(replicated_main(cli_args.workers, wanted))
    sys.exit(main())
