"""Online inference serving for condensed-graph models.

The paper's pitch is that a condensed graph is cheap enough to train and
*deploy* on; this package is the deployment layer.  It turns a condensed
graph kept fresh by :mod:`repro.streaming` into low-latency predictions:

* :mod:`repro.serving.artifacts` — :class:`ModelBundle` (trained weights +
  propagation state + the condensed graph, stored as a directory of raw
  ``.npy`` files) and the published version-dir layout both tiers persist
  models in (``versions/vNNNNNN/`` + ``CURRENT``);
* :mod:`repro.serving.engine` — :class:`InferenceSession`, the
  micro-batched prediction engine: propagated features are pre-computed
  once per model epoch, batched prediction is byte-identical to
  one-at-a-time, and an LRU label cache absorbs hot nodes;
* :mod:`repro.serving.hotswap` — :class:`ServingController`, which applies
  :class:`~repro.streaming.delta.GraphDelta` s through the incremental
  condenser, retrains only when the condensed graph actually changed, and
  atomically swaps sessions with dirty-set-driven cache carry-over;
* :mod:`repro.serving.server` — a stdlib-only asyncio HTTP endpoint
  (``python -m repro serve``) that coalesces concurrent requests into
  vectorised batches and hot-swaps in the background with zero dropped
  requests;
* :mod:`repro.serving.integrity` — per-file SHA-256 manifests for every
  published version directory, verified before load with last-good
  fallback;
* :mod:`repro.serving.canary` — the swap gate: candidates are scored on a
  pinned canary query set and rejected (previous version keeps serving)
  when they regress.

``benchmarks/bench_serving.py`` gates the whole stack: batched == serial
byte-identity, a >=5x batched-over-unbatched throughput floor, and a
zero-error hot-swap under concurrent load.
"""

from repro.serving.artifacts import (
    BUNDLE_FORMAT,
    ModelBundle,
    last_good_version,
    load_bundle,
    save_bundle,
    verify_version_dir,
)
from repro.serving.canary import CanaryConfig, CanaryReport
from repro.serving.engine import InferenceSession, LRUCache
from repro.serving.hotswap import ServingController, SwapReport
from repro.serving.integrity import write_manifest
from repro.serving.server import MicroBatcher, ServingServer

__all__ = [
    "BUNDLE_FORMAT",
    "CanaryConfig",
    "CanaryReport",
    "InferenceSession",
    "LRUCache",
    "MicroBatcher",
    "ModelBundle",
    "ServingController",
    "ServingServer",
    "SwapReport",
    "last_good_version",
    "load_bundle",
    "save_bundle",
    "verify_version_dir",
    "write_manifest",
]
