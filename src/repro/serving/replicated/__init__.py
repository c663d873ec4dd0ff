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

from repro._lazy import lazy_exports

# Resolved on first access (PEP 562): importing the worker module must not
# pull in the coordinator, which imports the whole controller stack.
_EXPORTS = {
    "repro.serving.replicated.admission": ("AdmissionGate",),
    "repro.serving.replicated.coordinator": (
        "ReplicatedConfig",
        "ReplicatedServer",
        "recover_from_wal",
    ),
    "repro.serving.replicated.metrics": ("MetricsBoard", "render_prometheus"),
    "repro.serving.replicated.pool": ("WorkerPool", "published_session"),
    "repro.serving.replicated.wal": (
        "DeltaWAL",
        "WALRecord",
        "deadletter_path",
        "read_deadletter",
        "read_wal",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
