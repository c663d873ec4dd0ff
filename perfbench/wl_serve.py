"""``serve-read`` and ``serve-swap``: ``python -m repro serve`` over HTTP.

Both drive the server only through its command line and HTTP endpoints,
with every tuning flag at its default.  ``serve-read`` sends reads alone;
``serve-swap`` runs the replicated tier and sends a seeded delta schedule
back to back beside one reader.  Expected outputs come from an in-process
mirror built from the same ``ServeConfig``; the traced run replays the
layer calls in-process, one after another.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_delta, check_logits, check_read
from harness import (
    ROOT,
    LayerRecorder,
    Ledger,
    median,
    metric,
    own_cpu_seconds,
    scratch_dir,
    summarize,
)
from httpload import HttpConnection, ReadLoop, ServerProcess, connect_to, id_batches

SERVE_ARGS = ["--dataset", "acm", "--scale", "1", "--ratio", "0.05", "--port", "0"]
SETUP_REPEATS = 3
READ_CONNECTIONS = 2
#: ids per /predict request in the accuracy pass over the test split
ACCURACY_CHUNK = 256
#: cap on in-process predict calls timed by the traced run
PREDICT_CALLS = 20000


def _serve_config(**extra):
    from repro.runner.plan import ServeConfig

    return ServeConfig(dataset="acm", scale=1.0, ratio=0.05, port=0, **extra)


@dataclass
class Mirror:
    """In-process copy of the server's state, built the way the server builds it."""

    config: object
    graph: object
    factory: object
    incremental: object
    condensed: object
    model: object
    session: object
    epochs: list = field(default_factory=list)


def build_mirror(config, recorder: LayerRecorder) -> Mirror:
    from repro.core import FreeHGC
    from repro.datasets import load_dataset
    from repro.evaluation.pipeline import make_model_factory
    from repro.serving import InferenceSession
    from repro.streaming import IncrementalCondenser

    max_hops = config.resolved_max_hops()
    with recorder.span("datasets.load"):
        graph = load_dataset(config.dataset, scale=config.scale, seed=config.seed)
    factory = make_model_factory(
        config.model,
        hidden_dim=config.hidden_dim,
        epochs=config.epochs,
        max_hops=max_hops,
        seed=config.seed,
    )
    incremental = IncrementalCondenser(
        graph,
        condenser=FreeHGC(max_hops=max_hops),
        ratio=config.ratio,
        recondense_threshold=config.recondense_threshold,
        seed=config.seed,
    )
    condensed = incremental.condense()
    model = factory()
    with recorder.span("nn.fit"):
        result = model.fit(condensed)
    with recorder.span("serving.engine.session_build"):
        session = InferenceSession(
            model, graph, version=1, cache_size=config.cache_size,
            context=incremental.context,
        )
    return Mirror(
        config, graph, factory, incremental, condensed, model, session, [result.epochs_run]
    )


def _spawn(args, tmp: Path, ready_role: str, setup_times: list) -> ServerProcess:
    """Spawn the server ``SETUP_REPEATS`` times; the last one stays up."""
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        root = tmp / f"s{index}"
        server = ServerProcess(args(root), root, ready_role=ready_role)
        try:
            setup_times.append(server.start())
        except BaseException:
            server.stop()
            raise
    return server


def _verify_reads(loops, labels_for, ledger: Ledger) -> list[float]:
    """Check every read; returns the client-seen seconds of each."""
    latencies = []
    for loop in loops:
        for ids, status, body, seconds in loop.samples:
            ledger.record(check_read(ids, status, body, labels_for))
            latencies.append(seconds)
    return latencies


def _stats_layers(stats: dict) -> dict:
    cache = stats["session"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serving.server.batch_size": metric(
            stats["batcher"]["mean_requests_per_batch"], "count"
        ),
        "serving.server.latency_p50_ms": metric(stats["latency"]["p50"] * 1e3, "ms"),
        "serving.engine.cache_hit_ratio": metric(
            cache["hits"] / lookups if lookups else 0.0, "fraction"
        ),
    }


def _predict_stream(make_session, targets: int, seed: int, calls: int, recorder):
    """Time ``InferenceSession.predict`` in-process over the first read stream.

    One untraced pass and one traced pass, each on a fresh session so both
    start from a cold cache; returns the traced per-call median in µs, the
    untraced one, and whether both passes returned the same labels.
    """
    batches = id_batches(seed, 0, targets)
    stream = [np.asarray(next(batches)) for _ in range(calls)]
    untraced, plain = [], []
    session = make_session()
    for ids in stream:
        begin = perf_counter()
        plain.append(session.predict(ids))
        untraced.append(perf_counter() - begin)
    session = make_session()
    identical = True
    with recorder.tracing():
        for ids, expected in zip(stream, plain):
            with recorder.span("serving.engine.predict"):
                labels = session.predict(ids)
            identical = identical and np.array_equal(labels, expected)
    traced_us = recorder.median_s("serving.engine.predict") * 1e6
    return traced_us, median(untraced) * 1e6, identical


def _accuracy_pass(port: int, graph, labels_for, ledger: Ledger) -> float:
    """Served labels of the whole test split, checked, scored against the truth."""
    test = np.asarray(graph.splits.test)
    served = []
    conn = HttpConnection(port)
    try:
        for start in range(0, test.size, ACCURACY_CHUNK):
            ids = test[start:start + ACCURACY_CHUNK].tolist()
            try:
                status, body = conn.request(
                    "POST", "/predict", json.dumps({"nodes": ids}).encode()
                )
            except OSError as exc:
                ledger.record(f"/predict connection error: {exc}")
                return float("nan")
            problem = check_read(ids, status, body, labels_for)
            ledger.record(problem)
            if problem is not None:
                return float("nan")
            served.extend(json.loads(body)["labels"])
    finally:
        conn.close()
    return float(np.mean(np.asarray(served) == graph.labels[test]))


# ---------------------------------------------------------------------- #
# serve-read
# ---------------------------------------------------------------------- #
def run_read(*, seed: int, seconds: float, trace: bool, ledger: Ledger) -> tuple[dict, dict]:
    from repro import obs

    recorder = LayerRecorder(obs)
    config = _serve_config()
    with recorder.tracing() if trace else nullcontext():
        mirror = build_mirror(config, recorder)
    targets = mirror.session.num_targets
    expected = mirror.session.argmax_labels(np.arange(targets))
    published = {1: expected}

    setup_times: list[float] = []
    with scratch_dir() as tmp:
        server = _spawn(lambda root: SERVE_ARGS, tmp, "single", setup_times)
        conns = []
        try:
            stop = threading.Event()
            conns = [connect_to(server.port, "single") for _ in range(READ_CONNECTIONS)]
            loops = [
                ReadLoop(conn, id_batches(seed, index, targets), stop)
                for index, conn in enumerate(conns)
            ]
            cpu_client, cpu_server = own_cpu_seconds(), server.cpu_seconds()
            begin = perf_counter()
            for loop in loops:
                loop.start()
            time.sleep(seconds)
            stop.set()
            for loop in loops:
                loop.join()
            wall = perf_counter() - begin
            cpu_client = (own_cpu_seconds() - cpu_client) / wall
            cpu_server = (server.cpu_seconds() - cpu_server) / wall
            status, stats = conns[0].get_json("/stats")
            if status != 200:
                ledger.record(f"GET /stats answered {status}")
            accuracy = _accuracy_pass(server.port, mirror.graph, published.get, ledger)
            peak_rss = server.peak_rss_mb()
        finally:
            for conn in conns:
                conn.close()
            server.stop()

    latencies = _verify_reads(loops, published.get, ledger)
    completed = len(latencies)
    read = summarize(latencies, 1e3)
    report = {
        "timings": {
            "setup_s (spawn to first 200)": summarize(setup_times),
            "read_ms (/predict, client-seen)": read,
        },
        "read_rps": completed / wall,
        "client_cpu_share": cpu_client,
        "server_cpu_share": cpu_server,
        "server_stats": stats,
        "gated_as": {
            "setup_s": f"median of {len(setup_times)} spawns",
            "accuracy": "served labels of the test split",
            "latency_p50_ms": f"read_p50_ms, n={completed}",
            "throughput_per_s": f"read_rps, n={completed}",
        },
    }
    if not trace:
        return {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "accuracy": metric(accuracy, "fraction"),
            "latency_p50_ms": metric(read["p50"], "ms"),
            "throughput_per_s": metric(completed / wall, "1/s"),
        }, report

    from repro.serving import InferenceSession

    def fresh_session():
        return InferenceSession(
            mirror.model, mirror.graph, version=1, cache_size=config.cache_size,
            context=mirror.incremental.context,
        )

    traced_us, untraced_us, identical = _predict_stream(
        fresh_session, targets, seed, min(completed, PREDICT_CALLS), recorder
    )
    ledger.record(None if identical else "traced predict labels differ from untraced")
    report["tracing_overhead_us"] = {"predict": traced_us - untraced_us}
    layers = {
        **_mirror_layers(recorder, mirror),
        **_stats_layers(stats),
        "serving.engine.predict_us": metric(traced_us, "us"),
    }
    return layers, report


def _mirror_layers(recorder: LayerRecorder, mirror: Mirror) -> dict:
    return {
        "datasets.load_s": metric(recorder.median_s("datasets.load"), "s"),
        "nn.fit_s": metric(recorder.median_s("nn.fit"), "s"),
        "nn.epochs": metric(median(mirror.epochs), "count"),
        "serving.engine.session_build_s": metric(
            recorder.median_s("serving.engine.session_build"), "s"
        ),
    }


# ---------------------------------------------------------------------- #
# serve-swap
# ---------------------------------------------------------------------- #
#: schedule length per second of run: more deltas than the run can send
DELTAS_PER_SECOND = 20
#: figures that change with every swap (the coordinator's RSS grows, each
#: version has its own accuracy) are taken over this many swaps, so a run
#: that fits in more swaps does not move them
FIXED_SWAPS = 8


class _PublishedLabels:
    """Labels of every version the tier published, read back from its root."""

    def __init__(self, root: Path, cache_size: int) -> None:
        self.root = root
        self.cache_size = cache_size
        self._labels: dict[int, np.ndarray | None] = {}

    def logits(self, version: int) -> np.ndarray | None:
        from repro.errors import ReproError
        from repro.serving.replicated import published_session

        try:
            session = published_session(
                self.root, version=version, cache_size=self.cache_size, fallback=False
            )
        except (OSError, ValueError, ReproError):
            return None
        return session.logits(np.arange(session.num_targets))

    def __call__(self, version: int) -> np.ndarray | None:
        if version not in self._labels:
            logits = self.logits(version)
            self._labels[version] = None if logits is None else np.argmax(logits, axis=-1)
        return self._labels[version]


def _mean_accuracy(published: "_PublishedLabels", last: int, graph) -> float:
    """Test accuracy of versions 1..``last``, averaged: what readers got."""
    test = np.asarray(graph.splits.test)
    scores = []
    for version in range(1, last + 1):
        labels = published(version)
        if labels is None:
            return float("nan")
        scores.append(float(np.mean(labels[test] == graph.labels[test])))
    return float(np.mean(scores))


def run_swap(*, seed: int, seconds: float, trace: bool, ledger: Ledger) -> tuple[dict, dict]:
    from repro import obs
    from repro.datasets import generate_delta_schedule, load_dataset

    recorder = LayerRecorder(obs)
    config = _serve_config(workers=1, wal="wal")
    graph = load_dataset(config.dataset, scale=config.scale, seed=config.seed)
    schedule = generate_delta_schedule(
        graph,
        steps=max(16, int(seconds * DELTAS_PER_SECOND)),
        seed=seed,
        edge_churn=0.002,
        relations=("paper-author",),
    )
    payloads = [json.dumps(delta.to_payload()).encode() for delta in schedule]
    targets = graph.num_nodes[graph.schema.target_type]

    def args(root: Path) -> list[str]:
        # Relative to the server's working directory (the checkout): the
        # control socket under the WAL's directory stays short.
        return SERVE_ARGS + ["--workers", "1", "--wal", str((root / "wal").relative_to(ROOT))]

    setup_times: list[float] = []
    with scratch_dir() as tmp:
        server = _spawn(args, tmp, "worker", setup_times)
        root = tmp / f"s{SETUP_REPEATS - 1}"
        conns = []
        sampler = None
        try:
            stop = threading.Event()
            reader_conn = connect_to(server.port, "worker")
            conns.append(reader_conn)
            writer = connect_to(server.port, "coordinator")
            conns.append(writer)
            reader = ReadLoop(reader_conn, id_batches(seed, 0, targets), stop)
            if trace:
                sampler = CacheSampler(connect_to(server.port, "worker"), stop)
                conns.append(sampler.conn)
            cpu_client, cpu_server = own_cpu_seconds(), server.cpu_seconds()
            replies = []
            peak_rss = None
            begin = perf_counter()
            for thread in (reader, sampler):
                if thread is not None:
                    thread.start()
            try:
                for payload in payloads:
                    if perf_counter() - begin >= seconds:
                        break
                    sent = perf_counter()
                    try:
                        status, body = writer.request("POST", "/delta", payload)
                    except OSError as exc:
                        replies.append((None, str(exc).encode(), perf_counter() - sent))
                        break
                    replies.append((status, body, perf_counter() - sent))
                    if len(replies) == FIXED_SWAPS:
                        peak_rss = server.peak_rss_mb()
            finally:
                wall = perf_counter() - begin
                stop.set()
                for thread in (reader, sampler):
                    if thread is not None:
                        thread.join()
            cpu_client = (own_cpu_seconds() - cpu_client) / wall
            cpu_server = (server.cpu_seconds() - cpu_server) / wall
            status, worker_stats = reader_conn.get_json("/stats")
            if status != 200:
                ledger.record(f"worker GET /stats answered {status}")
            if peak_rss is None:
                peak_rss = server.peak_rss_mb()
        finally:
            for conn in conns:
                conn.close()
            server.stop()

        for index, (status, body, _) in enumerate(replies):
            ledger.record(check_delta(status, body, 2 + index, workers=1))
        published = _PublishedLabels(root, config.cache_size)
        latencies = _verify_reads([reader], published, ledger)
        accuracy = _mean_accuracy(published, 1 + min(len(replies), FIXED_SWAPS), graph)
        swap_times = [seconds for _, _, seconds in replies]
        retrained = [
            bool(json.loads(body).get("retrained")) for status, body, _ in replies
            if status == 200
        ]
        read = summarize(latencies, 1e3)
        report = {
            "timings": {
                "setup_s (spawn to first worker 200)": summarize(setup_times),
                "read_ms (/predict, client-seen)": read,
                "swap_s (/delta, client-seen)": summarize(swap_times),
            },
            "deltas_acknowledged": len(replies),
            "retrained": sum(retrained),
            "client_cpu_share": cpu_client,
            "server_cpu_share": cpu_server,
            "worker_stats": worker_stats,
            "gated_as": {
                "setup_s": f"median of {len(setup_times)} spawns",
                "peak_rss_mb": f"after {min(len(replies), FIXED_SWAPS)} swaps",
                "accuracy": f"mean over the first {1 + min(len(replies), FIXED_SWAPS)} versions",
                "latency_p50_ms": f"read_p50_ms, n={len(latencies)}",
                "throughput_per_s": f"1 / swap_s median, n={len(replies)}",
            },
        }
        if not trace:
            return {
                "setup_s": metric(median(setup_times), "s"),
                "peak_rss_mb": metric(peak_rss, "MB"),
                "accuracy": metric(accuracy, "fraction"),
                "latency_p50_ms": metric(read["p50"], "ms"),
                # Deltas one writer completes per second at the median swap
                # time: the median keeps one slow swap from moving the run.
                "throughput_per_s": metric(1.0 / median(swap_times), "1/s"),
            }, report

        from repro.serving.replicated import published_session

        sent = [json.loads(payload) for payload in payloads[: len(replies)]]
        untraced = _replay(
            build_mirror(config, recorder), sent, tmp / "plain", published, recorder, ledger
        )
        with recorder.tracing():
            mirror = build_mirror(config, recorder)
            traced = _replay(mirror, sent, tmp / "traced", published, recorder, ledger)
        traced_us, untraced_us, identical = _predict_stream(
            lambda: published_session(
                tmp / "traced", version=1 + len(sent), cache_size=config.cache_size,
                fallback=False,
            ),
            targets,
            seed,
            min(len(latencies), PREDICT_CALLS),
            recorder,
        )
    ledger.record(None if identical else "traced predict labels differ from untraced")
    report["tracing_overhead_s"] = {"swap_s": median(traced) - median(untraced)}
    report["tracing_overhead_us"] = {"predict": traced_us - untraced_us}
    report["replay_per_delta_s"] = median(traced)
    layers = {
        **_mirror_layers(recorder, mirror),
        **_stats_layers(worker_stats),
        "serving.engine.cache_hit_ratio": metric(sampler.hit_ratio(), "fraction"),
        "serving.engine.predict_us": metric(traced_us, "us"),
        "serving.replicated.wal_append_s": metric(
            recorder.median_s("serving.replicated.wal_append"), "s"
        ),
        "streaming.step_s": metric(recorder.median_s("streaming.step"), "s"),
        "serving.replicated.publish_s": metric(
            recorder.median_s("serving.replicated.publish"), "s"
        ),
        "serving.replicated.open_s": metric(
            recorder.median_s("serving.replicated.open"), "s"
        ),
        "swap.retrained_share": metric(
            sum(retrained) / len(retrained) if retrained else 0.0, "fraction"
        ),
    }
    return layers, report


class CacheSampler(threading.Thread):
    """Polls the worker's ``/stats`` and keeps each version's last cache counters.

    A swap replaces the worker's session, and with it the LRU cache and its
    counters, so the hit ratio of a run is summed over every version seen.
    """

    INTERVAL = 0.05

    def __init__(self, conn, stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.conn = conn
        self.stop_event = stop
        self.counters: dict[int, tuple[int, int]] = {}

    def run(self) -> None:
        while not self.stop_event.wait(self.INTERVAL):
            try:
                status, stats = self.conn.get_json("/stats")
            except (OSError, ValueError):
                return
            if status == 200:
                session = stats["session"]
                cache = session["cache"]
                self.counters[int(session["version"])] = (cache["hits"], cache["misses"])

    def hit_ratio(self) -> float:
        hits = sum(hit for hit, _ in self.counters.values())
        lookups = hits + sum(miss for _, miss in self.counters.values())
        return hits / lookups if lookups else 0.0


def _replay(mirror: Mirror, payloads, root: Path, published, recorder, ledger) -> list[float]:
    """The commit pipeline in-process, one call per layer and delta.

    WAL append, incremental step, retrain when the condensed graph changed,
    session build, publish + ``CURRENT``, and the worker's verified open,
    each under its own span when a tracer is installed.  Every version's
    logits must equal what the tier published, byte for byte.  Returns the
    seconds each delta took through the whole pipeline.
    """
    from repro import registry
    from repro.serving import InferenceSession, ModelBundle
    from repro.serving.replicated import DeltaWAL, published_session
    from repro.serving.replicated.pool import publish_version, set_current
    from repro.streaming import GraphDelta, graphs_equal

    config = mirror.config
    name = registry.models.canonical(config.model)
    session, model, condensed = mirror.session, mirror.model, mirror.condensed
    everything = np.arange(session.num_targets)
    seconds = []
    wal = DeltaWAL(root / "wal")
    try:
        wal.append_genesis({"dataset": config.dataset, "scale": config.scale})
        version = 1
        begin = None
        while True:
            logits = session.logits(everything)
            with recorder.span("serving.replicated.publish", version=version):
                publish_version(
                    root,
                    version=version,
                    bundle=ModelBundle.from_model(
                        name, model, condensed, metadata={"version": version}
                    ),
                    logits=logits,
                )
                set_current(root, version)
            with recorder.span("serving.replicated.open", version=version):
                opened = published_session(
                    root, version=version, cache_size=config.cache_size, fallback=False
                )
            if begin is not None:
                seconds.append(perf_counter() - begin)
            served = published.logits(version)
            problem = (
                f"version {version} was never published by the tier"
                if served is None else check_logits(logits, served, version)
            )
            if problem is None:
                problem = check_logits(opened.logits(everything), served, version)
            ledger.record(problem)
            if version > len(payloads):
                return seconds
            delta = GraphDelta.from_payload(payloads[version - 1])
            begin = perf_counter()
            with recorder.span("serving.replicated.wal_append"):
                wal.append_delta(delta)
            with recorder.span("streaming.step"):
                step = mirror.incremental.step(delta)
            if not graphs_equal(step.condensed, condensed):
                model = mirror.factory()
                with recorder.span("nn.fit"):
                    result = model.fit(step.condensed)
                mirror.epochs.append(result.epochs_run)
            condensed = step.condensed
            version += 1
            with recorder.span("serving.engine.session_build", version=version):
                session = InferenceSession(
                    model, mirror.graph, version=version,
                    cache_size=config.cache_size, context=mirror.incremental.context,
                )
    finally:
        wal.close()
