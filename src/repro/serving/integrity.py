"""Published-artifact integrity: per-file SHA-256 manifests.

A published version directory is only trustworthy if every byte in it is the
byte the publisher wrote: a truncated ``logits.npy`` memory-maps happily and
serves garbage labels with a straight face.  This module makes corruption
*detectable* — every publish writes a ``manifest.json`` with per-file SHA-256
digests **before** the ``meta.json`` completion marker — and
:mod:`repro.serving.artifacts` makes it *survivable*: loaders verify the
manifest (:func:`~repro.serving.artifacts.verify_version_dir`) and fall back
to the newest version that still verifies
(:func:`~repro.serving.artifacts.last_good_version`) instead of serving a
corrupt one.

It is shared by every artifact path in the serving tier: every publish
(:func:`repro.serving.artifacts.publish_version` writes the manifest, and the
coordinator self-verifies it), worker session loads
(:func:`repro.serving.replicated.pool.published_session` verifies before
mmap), and WAL snapshot replay (which trusts a snapshot's version dir only
once it verifies).

Two fault sites live in the publish path so corruption is deterministically
injectable: ``publish.corrupt_file`` flips bytes in a freshly published file
after its digest was recorded, and ``publish.truncate_manifest`` tears the
manifest itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import IntegrityError
from repro.utils.durable import atomic_write, is_temp

__all__ = [
    "MANIFEST_NAME",
    "file_digest",
    "write_manifest",
    "read_manifest",
    "verify_manifest",
]

#: manifest filename inside a published version directory
MANIFEST_NAME = "manifest.json"

#: files excluded from the manifest: the manifest itself, and ``meta.json``
#: which is the publish-completion marker written *after* the manifest
_UNLISTED = (MANIFEST_NAME, "meta.json")

_CHUNK = 1 << 20


def file_digest(path: Path | str) -> str:
    """SHA-256 hex digest of ``path``, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _listed_files(vdir: Path) -> list[Path]:
    # Temp names are a crashed write's leftovers, never payload: listing one
    # would make the next publish of this dir fail its own verification.
    return [
        path
        for path in sorted(vdir.rglob("*"))
        if path.is_file()
        and path.name not in _UNLISTED
        and not any(is_temp(part) for part in path.relative_to(vdir).parts)
    ]


def write_manifest(vdir: Path | str) -> dict:
    """Digest every payload file under ``vdir`` and write ``manifest.json``.

    Must run *before* the ``meta.json`` completion marker is written: a
    version directory with meta but no (valid) manifest is indistinguishable
    from tampering and is refused by
    :func:`~repro.serving.artifacts.verify_version_dir`.  Temp files of an
    unfinished write are skipped, and the manifest itself is written with
    :func:`~repro.utils.durable.atomic_write`.
    """
    vdir = Path(vdir)
    files = {
        path.relative_to(vdir).as_posix(): file_digest(path)
        for path in _listed_files(vdir)
    }
    manifest = {"algorithm": "sha256", "files": files}
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    atomic_write(vdir / MANIFEST_NAME, payload)
    return manifest


def read_manifest(vdir: Path | str) -> dict:
    """Parse ``manifest.json`` under ``vdir``; :class:`IntegrityError` if bad."""
    path = Path(vdir) / MANIFEST_NAME
    if not path.is_file():
        raise IntegrityError(f"no manifest in version dir: {vdir}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise IntegrityError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("files"), dict):
        raise IntegrityError(f"malformed manifest {path}")
    return manifest


def verify_manifest(vdir: Path | str) -> dict:
    """Verify every file listed in ``vdir``'s manifest against its digest.

    Raises :class:`IntegrityError` naming each missing or mismatched file;
    returns the parsed manifest on success.  Files *not* listed (added after
    publish) do not fail verification — the manifest pins what the publisher
    wrote, not the directory's closure.
    """
    vdir = Path(vdir)
    manifest = read_manifest(vdir)
    bad: list[str] = []
    for rel, expected in sorted(manifest["files"].items()):
        path = vdir / rel
        if not path.is_file():
            bad.append(f"{rel}: missing")
        elif file_digest(path) != expected:
            bad.append(f"{rel}: digest mismatch")
    if bad:
        raise IntegrityError(f"version dir {vdir} failed verification: {'; '.join(bad)}")
    return manifest
