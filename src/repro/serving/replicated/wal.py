"""Durable write-ahead log of :class:`~repro.streaming.delta.GraphDelta` s.

The WAL is the serving tier's source of truth for *what happened to the
graph*: every delta is committed here — flushed and ``fsync`` ed — before
its effects are acknowledged to any client, so a crash at any instant loses
nothing that was acked.  Because condensation and training are
deterministic (the property the incremental/serving layers already gate on
byte-identity), replaying the log from the recorded starting point
reconstructs the coordinator's exact model state, bit for bit.

Record framing
--------------
Each record is a CRC-framed JSON object::

    <4-byte LE payload length> <4-byte LE crc32(payload)> <payload UTF-8 JSON>

Four record kinds appear in a log:

``genesis``
    First record of every log: the deterministic recipe for the *base*
    state (dataset, scale, seed, ratio, model hyper-parameters).  Replay
    without a snapshot starts here.
``delta``
    One committed :meth:`GraphDelta.to_payload` in arrival order.
``snapshot``
    A checkpoint: paths (relative to the log) of a saved live-graph archive
    and of the published version directory that holds the model at that
    point, both durable *before* the record is appended.  The record carries
    the graph's SHA-256; replay resumes from the newest snapshot whose graph
    still matches it and whose version dir passes
    :func:`~repro.serving.artifacts.verify_version_dir`, and only re-applies
    the deltas logged after it.
``poison``
    A quarantine marker: the ``delta`` record at ``target_offset`` crashed
    its commit and must be skipped on replay.  The full payload and the
    exception fingerprint live in the dead-letter sidecar
    (``wal.path + ".deadletter"``, JSONL); the WAL itself only records the
    skip so that replay-on-boot converges deterministically instead of
    crash-looping on the same record forever.

Torn-write recovery
-------------------
``fsync`` makes completed appends durable, but the append itself can still
be interrupted (kill -9, power loss) leaving a partial frame at the end of
the file.  :func:`read_wal` detects exactly that case — the file ends
before the framed payload completes, or the final complete frame fails its
CRC — and, in repair mode, truncates the log back to the last good record.
A bad frame *followed by more data* is not a tear; it is corruption, and
raises :class:`~repro.errors.WALError` rather than silently dropping
acknowledged history.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import IntegrityError, WALError
from repro.serving.artifacts import verify_version_dir
from repro.serving.integrity import file_digest
from repro.streaming.delta import GraphDelta
from repro.utils import faults
from repro.utils.durable import sync_dir

__all__ = [
    "WALRecord",
    "DeltaWAL",
    "read_wal",
    "plan_replay",
    "plan_replay_records",
    "deadletter_path",
    "read_deadletter",
]

_HEADER = struct.Struct("<II")
#: sanity bound on one record; a length field beyond this is corruption
_MAX_RECORD_BYTES = 256 * 1024 * 1024

KIND_GENESIS = "genesis"
KIND_DELTA = "delta"
KIND_SNAPSHOT = "snapshot"
KIND_POISON = "poison"


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record plus its byte offset in the file."""

    kind: str
    payload: dict
    offset: int

    def delta(self) -> GraphDelta:
        """The delta carried by a ``delta`` record."""
        if self.kind != KIND_DELTA:
            raise WALError(f"record at offset {self.offset} is {self.kind!r}, not a delta")
        return GraphDelta.from_payload(self.payload["delta"])


def _encode(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


class DeltaWAL:
    """Append-only, fsync-on-commit GraphDelta log.

    Use :meth:`DeltaWAL.open` to (re)open an existing log on boot — it
    repairs a torn trailing record and returns the surviving records — and
    the ``append_*`` methods to commit new ones.  Every append is flushed
    and ``os.fsync`` ed before returning.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        self._file = open(self.path, "ab")
        if not existed:
            # Make the new directory entry itself durable, not just the bytes.
            sync_dir(self.path.parent)
        self.appended = 0

    @classmethod
    def open(cls, path: str | Path) -> tuple["DeltaWAL", list[WALRecord]]:
        """Open ``path`` for appending, repairing a torn tail first.

        Returns the writer positioned at the end of the last good record
        together with every surviving record in order.
        """
        path = Path(path)
        records: list[WALRecord] = []
        if path.exists():
            records = read_wal(path, repair=True)
        wal = cls(path)
        return wal, records

    # ------------------------------------------------------------------ #
    def append(self, payload: dict) -> int:
        """Commit one record; returns its byte offset once durable."""
        kind = payload.get("kind")
        if kind not in (KIND_GENESIS, KIND_DELTA, KIND_SNAPSHOT, KIND_POISON):
            raise WALError(f"refusing to append record of unknown kind {kind!r}")
        offset = self._file.tell()
        encoded = _encode(payload)
        action = faults.fire("wal.torn_tail")
        if action is not None:
            # Simulate a crash mid-write: a durable *prefix* of the frame —
            # the exact torn tail read_wal(repair=True) must truncate away.
            keep = int(action.get("keep_bytes", len(encoded) // 2))
            keep = max(1, min(keep, len(encoded) - 1))
            self._file.write(encoded[:keep])
            self._file.flush()
            os.fsync(self._file.fileno())
            raise faults.InjectedFault(
                f"wal.torn_tail: wrote {keep}/{len(encoded)} bytes at offset {offset}"
            )
        self._file.write(encoded)
        self._file.flush()
        os.fsync(self._file.fileno())
        self.appended += 1
        return offset

    def append_genesis(self, config: dict) -> int:
        """Record the deterministic recipe of the base state (first record)."""
        return self.append({"kind": KIND_GENESIS, "config": dict(config)})

    def append_delta(self, delta: GraphDelta) -> int:
        """Commit ``delta`` (the ``to_payload`` JSON wire format)."""
        return self.append({"kind": KIND_DELTA, "delta": delta.to_payload()})

    def append_snapshot(
        self,
        *,
        step: int,
        version: int,
        graph_path: str,
        bundle_path: str,
        deltas_applied: int,
        graph_sha256: str | None = None,
    ) -> int:
        """Record a checkpoint whose files were already written durably.

        ``bundle_path`` is the published version dir holding the model.
        Replay verifies it, and the graph against ``graph_sha256`` when
        given, and falls back to an older snapshot (or genesis) when either
        fails — a half-written checkpoint must not poison recovery.
        """
        payload = {
            "kind": KIND_SNAPSHOT,
            "step": int(step),
            "version": int(version),
            "graph_path": str(graph_path),
            "bundle_path": str(bundle_path),
            "deltas_applied": int(deltas_applied),
        }
        if graph_sha256 is not None:
            payload["graph_sha256"] = str(graph_sha256)
        return self.append(payload)

    def append_poison(
        self, *, target_offset: int, reason: str, fingerprint: str
    ) -> int:
        """Mark the delta record at ``target_offset`` as quarantined."""
        return self.append(
            {
                "kind": KIND_POISON,
                "target_offset": int(target_offset),
                "reason": str(reason),
                "fingerprint": str(fingerprint),
            }
        )

    def quarantine(
        self, record: WALRecord, error: BaseException, *, reason: str = "exception"
    ) -> dict:
        """Dead-letter ``record`` and mark it poisoned, in that order.

        The sidecar entry (payload + exception fingerprint) is written and
        fsynced *before* the ``poison`` record commits: if we crash between
        the two, the worst case is a duplicate dead-letter line on the next
        boot, never a silently skipped record with no forensic trail.
        Returns the JSON-safe sidecar entry.
        """
        entry = {
            "offset": int(record.offset),
            "reason": str(reason),
            "error": f"{type(error).__name__}: {error}",
            "fingerprint": exception_fingerprint(error),
            "payload": record.payload,
        }
        sidecar = deadletter_path(self.path)
        with open(sidecar, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.append_poison(
            target_offset=record.offset,
            reason=reason,
            fingerprint=entry["fingerprint"],
        )
        return entry

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "DeltaWAL":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeltaWAL(path={str(self.path)!r}, appended={self.appended})"


def read_wal(path: str | Path, *, repair: bool = False) -> list[WALRecord]:
    """Decode every record of the log at ``path``.

    A *torn tail* — the file ends inside a frame, or the final frame fails
    its CRC — is truncated away when ``repair=True`` and raises
    :class:`~repro.errors.WALError` otherwise.  A bad frame followed by
    more data always raises: that is body corruption, and dropping
    acknowledged records silently is the one thing a WAL must never do.
    """
    path = Path(path)
    raw = path.read_bytes()
    records: list[WALRecord] = []
    offset = 0
    torn_at: int | None = None
    torn_reason = ""
    while offset < len(raw):
        header = raw[offset : offset + _HEADER.size]
        if len(header) < _HEADER.size:
            torn_at, torn_reason = offset, "incomplete frame header"
            break
        length, crc = _HEADER.unpack(header)
        if length > _MAX_RECORD_BYTES:
            raise WALError(
                f"{path}: frame at offset {offset} declares {length} bytes "
                f"(> {_MAX_RECORD_BYTES}); the log is corrupt"
            )
        body = raw[offset + _HEADER.size : offset + _HEADER.size + length]
        end = offset + _HEADER.size + length
        if len(body) < length:
            torn_at, torn_reason = offset, "frame shorter than declared length"
            break
        if zlib.crc32(body) != crc:
            if end >= len(raw):
                torn_at, torn_reason = offset, "CRC mismatch on final record"
                break
            raise WALError(
                f"{path}: CRC mismatch at offset {offset} with "
                f"{len(raw) - end} bytes following — log body is corrupt"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if end >= len(raw):
                torn_at, torn_reason = offset, f"undecodable final record ({exc})"
                break
            raise WALError(f"{path}: undecodable record at offset {offset}: {exc}") from exc
        if not isinstance(payload, dict) or "kind" not in payload:
            raise WALError(f"{path}: record at offset {offset} has no kind")
        records.append(WALRecord(str(payload["kind"]), payload, offset))
        offset = end
    if torn_at is not None:
        if not repair:
            raise WALError(
                f"{path}: torn record at offset {torn_at} ({torn_reason}); "
                "open with repair=True to truncate it"
            )
        with open(path, "r+b") as handle:
            handle.truncate(torn_at)
            handle.flush()
            os.fsync(handle.fileno())
    return records


def exception_fingerprint(error: BaseException) -> str:
    """Short stable hash identifying an exception type + message."""
    digest = hashlib.sha256(
        f"{type(error).__name__}:{error}".encode("utf-8", "replace")
    )
    return digest.hexdigest()[:16]


def deadletter_path(wal_path: str | Path) -> Path:
    """The dead-letter sidecar next to a WAL: ``wal.path + ".deadletter"``."""
    wal_path = Path(wal_path)
    return wal_path.with_name(wal_path.name + ".deadletter")


def read_deadletter(wal_path: str | Path) -> list[dict]:
    """Decode the dead-letter sidecar's JSONL entries (``[]`` when absent)."""
    sidecar = deadletter_path(wal_path)
    if not sidecar.exists():
        return []
    entries: list[dict] = []
    for line in sidecar.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def _snapshot_verifies(record: WALRecord, root: Path) -> bool:
    graph_path = root / str(record.payload["graph_path"])
    if not graph_path.is_file():
        return False
    expected = record.payload.get("graph_sha256")
    if expected is not None and file_digest(graph_path) != expected:
        return False
    try:
        # A record from before version-dir snapshots names an .npz bundle,
        # which cannot verify: replay falls back to an older snapshot or
        # genesis, and the log still holds every delta.
        verify_version_dir(root / str(record.payload["bundle_path"]))
    except IntegrityError:
        return False
    return True


def plan_replay_records(
    records: list[WALRecord], *, root: str | Path
) -> tuple[dict | None, WALRecord | None, list[WALRecord], frozenset]:
    """Full replay plan: ``(genesis, snapshot, delta records, poisoned offsets)``.

    The snapshot is the newest one whose graph (path relative to ``root``,
    the WAL's directory) still matches its recorded digest and whose version
    dir still verifies.  The delta records are exactly the ones logged after
    it (after genesis when no snapshot is usable), in commit order, minus
    every record named by a ``poison`` marker — quarantined deltas are skipped
    deterministically no matter when their marker was appended.
    """
    root = Path(root)
    genesis: dict | None = None
    for record in records:
        if record.kind == KIND_GENESIS:
            genesis = dict(record.payload.get("config", {}))
            break
    poisoned = frozenset(
        int(record.payload["target_offset"])
        for record in records
        if record.kind == KIND_POISON
    )
    snapshot: WALRecord | None = None
    for record in reversed(records):
        if record.kind == KIND_SNAPSHOT and _snapshot_verifies(record, root):
            snapshot = record
            break
    deltas: list[WALRecord] = []
    start = snapshot.offset if snapshot is not None else -1
    for record in records:
        if (
            record.kind == KIND_DELTA
            and record.offset > start
            and record.offset not in poisoned
        ):
            deltas.append(record)
    return genesis, snapshot, deltas, poisoned


def plan_replay(
    records: list[WALRecord], *, root: str | Path
) -> tuple[dict | None, WALRecord | None, list[GraphDelta]]:
    """Split a decoded log into ``(genesis config, snapshot, deltas to apply)``.

    Compatibility wrapper over :func:`plan_replay_records` returning decoded
    :class:`GraphDelta` s instead of raw records.
    """
    genesis, snapshot, delta_records, _ = plan_replay_records(records, root=root)
    return genesis, snapshot, [record.delta() for record in delta_records]
