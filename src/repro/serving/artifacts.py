"""Model bundles and the published version-dir layout of both serving tiers.

A *bundle* is everything the serving layer needs to answer predictions
without re-running condensation or training:

* the trained model's weights (``Module.state_dict`` arrays),
* its **propagation state** (:meth:`repro.models.base.HGNNClassifier.
  export_propagation_state`: hyper-parameter config, consumed feature keys
  and dimensions, class count),
* the condensed graph the weights were trained on (embedded with the
  :func:`repro.hetero.io.graph_to_arrays` codec under a ``graph__`` prefix),
* free-form provenance metadata (dataset, ratio, accuracy, stream step).

On disk a bundle is a directory of raw ``.npy`` files plus a ``header.json``
(format version, model, state, metadata, and the array-key → file-name
manifest), built with :func:`~repro.utils.durable.atomic_dir` so a reader
sees the whole bundle or none of it.  Raw ``.npy`` files can be
memory-mapped, which is what lets every worker of the replicated tier share
one page-cache copy of the published arrays.

Published versions
------------------
Both tiers persist models as *published version directories* under a root:
the replicated tier's WAL directory, or one lineage per
:meth:`~repro.runner.plan.ServeConfig.bundle_key` under
``serve --bundle-store`` (:func:`lineage_dir`)::

    <root>/versions/v000007/
        bundle/          # the ModelBundle directory above
        logits.npy       # the session's pre-computed logits
        manifest.json    # SHA-256 of every payload file (serving.integrity)
        meta.json        # {"version": 7, "targets": N, "classes": C}
    <root>/CURRENT       # {"version": 7, "dir": "versions/v000007"}

This module is the one that knows that layout.  ``meta.json`` is written
last, so a directory without it is an unfinished publish; the manifest
makes a damaged one detectable, and :func:`last_good_version` finds the
newest version that still verifies.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import registry
from repro.errors import IntegrityError, ServingError
from repro.serving import integrity
from repro.utils import faults
from repro.utils.durable import atomic_dir, atomic_write, sync_dir

if TYPE_CHECKING:
    from repro.hetero.graph import HeteroGraph
    from repro.models.base import HGNNClassifier

__all__ = [
    "BUNDLE_FORMAT",
    "BundleLineage",
    "ModelBundle",
    "current_version",
    "last_good_version",
    "lineage_dir",
    "load_bundle",
    "publish_version",
    "published_bundle",
    "published_logits",
    "published_versions",
    "save_bundle",
    "set_current",
    "verify_version_dir",
    "version_dir",
]

#: bump when the bundle layout changes incompatibly
BUNDLE_FORMAT = 1

_GRAPH_PREFIX = "graph__"
_WEIGHT_PREFIX = "weight__"
_HEADER = "header.json"

_VERSIONS = "versions"
_CURRENT = "CURRENT"
_META = "meta.json"
_BUNDLE = "bundle"
_LOGITS = "logits.npy"


@dataclass
class ModelBundle:
    """A deployable (model, condensed graph) pair plus provenance."""

    model_name: str
    state: dict[str, object]
    weights: dict[str, np.ndarray]
    condensed: HeteroGraph
    metadata: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_model(
        cls,
        model_name: str,
        model: HGNNClassifier,
        condensed: HeteroGraph,
        *,
        metadata: dict[str, object] | None = None,
    ) -> "ModelBundle":
        """Capture a fitted ``model`` (and the graph it trained on)."""
        canonical = registry.models.canonical(model_name)
        module = model._require_fitted()
        return cls(
            model_name=canonical,
            state=model.export_propagation_state(),
            weights=module.state_dict(),
            condensed=condensed,
            metadata=dict(metadata or {}),
        )

    def build_model(self) -> HGNNClassifier:
        """Reconstruct the fitted classifier (byte-identical predictions)."""
        model_cls = registry.models.get(self.model_name)
        config = dict(self.state.get("config", {}))
        model = model_cls(**config)
        model.restore_state(self.state, self.weights)
        return model


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    return buffer.getvalue()


def save_bundle(bundle: ModelBundle, path: str | Path) -> Path:
    """Write ``bundle`` as directory ``path``, atomically.

    Array keys (which may contain characters unsafe for filenames) map to
    ``a0000.npy``-style names through the manifest inside ``header.json``.
    An existing bundle at ``path`` is replaced only once the new one is
    durable (see :func:`~repro.utils.durable.atomic_dir`).
    """
    # The graph codec brings SciPy; workers only ever open published logits.
    from repro.hetero.io import graph_to_arrays, json_default

    arrays: dict[str, np.ndarray] = {
        f"{_WEIGHT_PREFIX}{name}": np.asarray(value, dtype=np.float64)
        for name, value in bundle.weights.items()
    }
    arrays.update(graph_to_arrays(bundle.condensed, prefix=_GRAPH_PREFIX))
    files: dict[str, bytes] = {}
    manifest: dict[str, str] = {}
    for index, key in enumerate(sorted(arrays)):
        filename = f"a{index:04d}.npy"
        manifest[key] = filename
        files[filename] = _npy_bytes(arrays[key])
    header = {
        "format": BUNDLE_FORMAT,
        "model": bundle.model_name,
        "state": bundle.state,
        "metadata": bundle.metadata,
        "manifest": manifest,
    }
    files[_HEADER] = json.dumps(
        header, sort_keys=True, indent=1, default=json_default
    ).encode("utf-8")
    return atomic_dir(path, files)


def load_bundle(path: str | Path) -> ModelBundle:
    """Load a bundle written by :func:`save_bundle`.

    Raises :class:`~repro.errors.ServingError` when ``path`` is not a bundle
    directory (a missing path, a legacy ``.npz`` archive, a foreign file),
    when its header is unreadable, or when its format version is newer than
    this library understands.
    """
    from repro.hetero.io import graph_from_arrays

    path = Path(path)
    header_path = path / _HEADER
    if not header_path.is_file():
        raise ServingError(f"{path} is not a model bundle directory (no {_HEADER})")
    try:
        header = json.loads(header_path.read_text())
        fmt = int(header.get("format", -1))
        if fmt > BUNDLE_FORMAT or fmt < 1:
            raise ServingError(
                f"bundle {path} has format {fmt}; this library supports "
                f"<= {BUNDLE_FORMAT}"
            )
        data = {
            str(key): np.load(path / str(name), allow_pickle=False)
            for key, name in dict(header["manifest"]).items()
        }
        return ModelBundle(
            model_name=str(header["model"]),
            state=dict(header["state"]),
            weights={
                key[len(_WEIGHT_PREFIX) :]: value
                for key, value in data.items()
                if key.startswith(_WEIGHT_PREFIX)
            },
            condensed=graph_from_arrays(data, prefix=_GRAPH_PREFIX),
            metadata=dict(header.get("metadata", {})),
        )
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ServingError(f"failed to read model bundle {path}: {exc}") from exc


# ---------------------------------------------------------------------- #
# Published version directories
# ---------------------------------------------------------------------- #
def version_dir(root: str | Path, version: int) -> Path:
    """``<root>/versions/vNNNNNN``: where ``version`` is (or will be) published."""
    return Path(root) / _VERSIONS / f"v{int(version):06d}"


def lineage_dir(store: str | Path, key: str) -> Path:
    """The publish root of bundle lineage ``key`` under a bundle store.

    The name is filesystem-safe and distinct per key: the readable part is
    sanitised, and a digest of the exact key keeps keys that sanitise alike
    apart.

    >>> lineage_dir("store", "acm:heterosgc:r0.1").name
    'acm_heterosgc_r0.1-2897db4202ca'
    """
    readable = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)[:64]
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    return Path(store) / f"{readable}-{digest}"


def published_versions(root: str | Path) -> list[tuple[int, Path]]:
    """``(version, dir)`` of every version dir under ``root``, newest first.

    Complete or not: a cold start publishes above all of them, so it never
    overwrites a directory an earlier run left behind.
    """
    versions: list[tuple[int, Path]] = []
    parent = Path(root) / _VERSIONS
    if parent.is_dir():
        for entry in parent.iterdir():
            if entry.is_dir() and entry.name.startswith("v"):
                try:
                    versions.append((int(entry.name[1:]), entry))
                except ValueError:
                    continue
    return sorted(versions, reverse=True)


def publish_version(
    root: str | Path,
    *,
    version: int,
    bundle: ModelBundle,
    logits: np.ndarray,
) -> Path:
    """Write one version directory (bundle + logits + manifest + meta).

    Write order is the integrity contract: payload files first, then
    ``manifest.json`` with their SHA-256 digests, then ``meta.json`` — so a
    directory missing meta is an unfinished publish (never pointed to by
    ``CURRENT``) and a directory whose bytes don't match its manifest is a
    corrupt one (detected by :func:`verify_version_dir` before any load).
    The ``publish.corrupt_file`` / ``publish.truncate_manifest`` fault sites
    strike between manifest and meta, the window real partial writes land
    in.  Every file is written with :mod:`repro.utils.durable`, and the
    ``versions`` directory is fsynced last, so the publish survives power
    loss, not just process death.
    """
    vdir = version_dir(root, version)
    vdir.mkdir(parents=True, exist_ok=True)
    save_bundle(bundle, vdir / _BUNDLE)
    atomic_write(vdir / _LOGITS, _npy_bytes(logits))
    integrity.write_manifest(vdir)
    corrupt = faults.fire("publish.corrupt_file")
    if corrupt is not None:
        # Fault site: damage a published payload file *after* its digest
        # was recorded — the shape of bit rot or a torn write.
        needle = str(corrupt.get("filename", _LOGITS))
        victims = [p for p in sorted(vdir.rglob("*")) if p.is_file() and needle in p.name]
        for victim in victims[:1]:
            with open(victim, "r+b") as handle:
                handle.seek(int(corrupt.get("flip_at", 0)))
                byte = handle.read(1)
                handle.seek(int(corrupt.get("flip_at", 0)))
                handle.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
    truncate = faults.fire("publish.truncate_manifest")
    if truncate is not None:
        # Fault site: tear the manifest itself mid-write.
        manifest_path = vdir / integrity.MANIFEST_NAME
        size = manifest_path.stat().st_size
        keep = int(truncate.get("keep_bytes", size // 2))
        with open(manifest_path, "r+b") as handle:
            handle.truncate(max(0, min(keep, size)))
    meta = {
        "version": int(version),
        "targets": int(logits.shape[0]),
        "classes": int(logits.shape[1]),
    }
    atomic_write(vdir / _META, json.dumps(meta, sort_keys=True).encode("utf-8"))
    sync_dir(vdir.parent)
    return vdir


def set_current(root: str | Path, version: int) -> None:
    """Atomically point ``CURRENT`` at ``version`` (replace, never truncate).

    The root directory is fsynced after the rename: without it the rename
    is atomic against process death but not power loss, and a rebooted
    machine could come back pointing at the *previous* version of an
    already-acknowledged publish.
    """
    pointer = {
        "version": int(version),
        "dir": version_dir("", version).as_posix(),
    }
    atomic_write(
        Path(root) / _CURRENT, json.dumps(pointer, sort_keys=True).encode("utf-8")
    )


def current_version(root: str | Path) -> tuple[int, Path]:
    """``(version, version dir)`` that ``CURRENT`` points to."""
    root = Path(root)
    pointer_path = root / _CURRENT
    if not pointer_path.exists():
        raise ServingError(f"no published version under {root} (missing {_CURRENT})")
    pointer = json.loads(pointer_path.read_text())
    return int(pointer["version"]), root / str(pointer["dir"])


def verify_version_dir(vdir: str | Path) -> dict:
    """Full trust check for a published version dir: complete AND verified.

    ``meta.json`` present (the publish completed) and every manifest-listed
    file digest-matches.  This is what loaders call before mmap'ing.
    """
    vdir = Path(vdir)
    if not (vdir / _META).is_file():
        raise IntegrityError(f"incomplete publish (no {_META}): {vdir}")
    return integrity.verify_manifest(vdir)


def last_good_version(
    root: str | Path, *, below: int | None = None, exclude: tuple = ()
) -> tuple[int, Path]:
    """Newest published version under ``root`` that passes verification.

    Scans ``<root>/versions/v*`` newest-first, skipping versions in
    ``exclude`` and (when ``below`` is given) any version ``>= below``.
    Raises :class:`ServingError` when nothing verifiable remains — at that
    point there is genuinely nothing safe to serve.
    """
    excluded = {int(v) for v in exclude}
    for number, vdir in published_versions(root):
        if number in excluded or (below is not None and number >= below):
            continue
        try:
            verify_version_dir(vdir)
        except IntegrityError:
            continue
        return number, vdir
    raise ServingError(f"no verifiable published version under {root}")


def published_logits(vdir: str | Path) -> tuple[int, np.ndarray]:
    """``(version, logits)`` of a published dir; the logits are mmapped read-only."""
    vdir = Path(vdir)
    meta = json.loads((vdir / _META).read_text())
    logits = np.load(vdir / _LOGITS, mmap_mode="r", allow_pickle=False)
    return int(meta["version"]), logits


def published_bundle(vdir: str | Path) -> ModelBundle:
    """The :class:`ModelBundle` a published version dir holds."""
    return load_bundle(Path(vdir) / _BUNDLE)


class BundleLineage:
    """``serve --bundle-store``: warm-start from, and publish to, one lineage.

    Each bundle key owns one lineage of published version dirs under the
    store (:func:`lineage_dir`).  Its version numbers only ever grow, so no
    run overwrites an earlier one: a warm start adopts the stored version
    and a cold start publishes above every stored dir, complete or not.
    With ``store=None`` the controller simply starts cold and nothing is
    persisted.  The lineage is read on construction; ``log`` reports an
    unusable stored bundle there, and every start and publish later.
    """

    def __init__(self, store, key: str, controller, *, metadata: dict, log) -> None:
        self.key = key
        self.root = lineage_dir(store, key) if store else None
        self.controller = controller
        self._metadata = dict(metadata)
        self._log = log
        self._published = published_versions(self.root) if self.root is not None else []
        self._stored: tuple[int, ModelBundle] | None = None
        if self._published:
            try:
                stored_version, vdir = current_version(self.root)
                verify_version_dir(vdir)
                self._stored = (stored_version, published_bundle(vdir))
            except ServingError as exc:
                log(f"stored bundle unusable ({exc}); starting cold")

    def start(self) -> None:
        """Start the controller, warm when the stored bundle still matches its
        fresh condensation; a cold start is published at once."""
        controller = self.controller
        controller.start(warm_bundle=self._stored[1] if self._stored else None)
        if controller.warm_started:
            controller.adopt_version(self._stored[0])
            self._log("warm-started from stored bundle")
            return
        if self._published:
            controller.adopt_version(self._published[0][0] + 1)
        self._log("cold start: trained a fresh model")
        self.persist()

    def persist(self, swap_report=None) -> None:
        """Publish the serving model as the lineage's current version.

        Used as the server's ``on_swap``: a swap that did not retrain leaves
        the weights, and so the stored version, current.
        """
        if self.root is None or (swap_report is not None and not swap_report.retrained):
            return
        metadata = dict(self._metadata)
        if swap_report is not None:
            metadata["step"] = swap_report.step
        version = self.controller.version
        publish_version(
            self.root,
            version=version,
            bundle=self.controller.export_bundle(metadata=metadata),
            logits=self.controller.session._logits,
        )
        set_current(self.root, version)
        self._log(f"persisted bundle {self.key!r} version {version}")
