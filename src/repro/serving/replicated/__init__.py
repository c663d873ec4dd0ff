"""Replicated multi-process serving: durable deltas, shared state, one writer.

The single-process server (:mod:`repro.serving.server`) caps throughput at
one core and loses every applied :class:`~repro.streaming.delta.GraphDelta`
on restart.  This package removes both limits:

* :mod:`repro.serving.replicated.wal` — an append-only, fsync-on-commit
  write-ahead log of GraphDeltas (the ``to_payload`` JSON wire format,
  CRC-framed) with periodic snapshot checkpoints; replay-on-boot truncates
  a torn final record and restores byte-identical model state;
* :mod:`repro.serving.replicated.metrics` — a memory-mapped counter board
  every process in the pool increments lock-free and any process can render
  as a Prometheus ``/metrics`` page;
* :mod:`repro.serving.replicated.admission` — bounded admission with
  load-shedding (HTTP 429) so saturation degrades into fast rejections
  instead of unbounded queues;
* :mod:`repro.serving.replicated.pool` — N predictor worker processes, each
  running the existing :class:`~repro.serving.engine.InferenceSession` over
  *memory-mapped* published model state (a
  :func:`~repro.serving.artifacts.publish_version` directory: the bundle
  plus the pre-computed logits), all accepting on one ``SO_REUSEPORT``
  socket;
* :mod:`repro.serving.replicated.coordinator` — the single writer: it
  applies each delta exactly once through
  :class:`~repro.serving.hotswap.ServingController`, commits it to the WAL,
  publishes the new version directory atomically and fans out swap notices,
  acknowledging the delta only after every live worker serves the new
  version.

``python -m repro serve --workers N --wal PATH`` starts the whole tier;
``benchmarks/bench_serving.py --replicated`` gates it (throughput scaling,
worker-kill survival, coordinator kill -9 + WAL replay byte-identity).
"""

from repro.serving.replicated.admission import AdmissionGate
from repro.serving.replicated.coordinator import (
    ReplicatedConfig,
    ReplicatedServer,
    recover_from_wal,
)
from repro.serving.replicated.metrics import MetricsBoard, render_prometheus
from repro.serving.replicated.pool import WorkerPool, published_session
from repro.serving.replicated.wal import (
    DeltaWAL,
    WALRecord,
    deadletter_path,
    read_deadletter,
    read_wal,
)

__all__ = [
    "AdmissionGate",
    "DeltaWAL",
    "MetricsBoard",
    "ReplicatedConfig",
    "ReplicatedServer",
    "WALRecord",
    "WorkerPool",
    "deadletter_path",
    "published_session",
    "read_deadletter",
    "read_wal",
    "recover_from_wal",
    "render_prometheus",
]
