"""The replicated tier's single writer: WAL commit, publish, swap fan-out.

One :class:`ReplicatedServer` owns the whole deployment:

* the :class:`~repro.serving.hotswap.ServingController` (graph, condenser,
  model) — every delta is applied exactly once, here;
* the :class:`~repro.serving.replicated.wal.DeltaWAL` — a delta is durable
  *before* its effects are applied or acknowledged;
* the published version directories and the ``CURRENT`` pointer
  (:mod:`~repro.serving.artifacts`);
* the unix-socket control channel workers register on, and the
  :class:`~repro.serving.replicated.pool.WorkerPool` supervisor that
  respawns killed workers.

Commit pipeline of one ``POST /delta`` (serialised by an asyncio lock)::

    WAL append (fsync)  →  controller.apply_delta  →  publish version dir
    →  flip CURRENT  →  fan out swap notices  →  await worker acks
    →  (periodic snapshot)  →  answer the client

``CURRENT`` flips *before* the fan-out so a worker respawned at any moment
loads a version at least as new as every acked delta; the acks guarantee no
registered worker answers with a stale version after the client sees the
delta response.

Boot (:meth:`ReplicatedServer.start`) spawns the worker pool *before*
recovery, so each worker's interpreter start overlaps the coordinator's
condense and train on another CPU.  A worker's hello is answered only
after the boot version is published and ``CURRENT`` names it; the
worker's import closure is kept free of SciPy and the model stack so that
its start finishes first.

Recovery (:func:`recover_from_wal`) is pure replay: rebuild the base state
from the genesis recipe (or restore the newest usable snapshot's graph and
the bundle of the version dir it names) and re-apply the logged deltas.
Condensation and training are deterministic, so the recovered model state
is byte-identical to what the crashed process had — the property
``benchmarks/bench_serving.py --replicated`` gates on.

Self-healing (this PR's layer over the pipeline):

* a delta whose ``apply_delta`` raises is **quarantined** — dead-lettered
  with its payload and exception fingerprint, marked ``poison`` in the WAL
  so replay skips it forever — and the controller is rebuilt from the WAL,
  so the answered 422 leaves the exact pre-delta state serving;
* a candidate that fails the canary gate
  (:class:`~repro.errors.CanaryRejectedError`) takes the same quarantine +
  rebuild path: rollback is *replay without the record*, which keeps the
  online state byte-identical to what the next boot would recover;
* replay itself runs the same quarantine loop, so a poison record already
  in the log cannot crash-loop recovery — each pass quarantines at most
  one more delta and the loop converges;
* every publish is verified against its manifest before ``CURRENT`` can
  point at it, and repaired (republished once) when the bytes are bad.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import io
import json
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import (
    CanaryRejectedError,
    IntegrityError,
    PoisonDeltaError,
    ServingError,
    WALError,
)
from repro.hetero.graph import HeteroGraph
from repro.hetero.io import graph_to_arrays, load_graph
from repro.obs.propagate import extract_delta, stamp_delta
from repro.serving.artifacts import (
    publish_version,
    published_bundle,
    set_current,
    verify_version_dir,
    version_dir,
)
from repro.serving.hotswap import ServingController, SwapReport
from repro.serving.server import (
    DEFAULT_MAX_BODY_BYTES,
    ServingServer,
    _parse_json,
)
from repro.serving.replicated.pool import WorkerPool, make_listen_socket
from repro.serving.replicated.wal import (
    KIND_DELTA,
    KIND_POISON,
    DeltaWAL,
    WALRecord,
    plan_replay_records,
    read_wal,
)
from repro.streaming.delta import GraphDelta
from repro.utils import faults
from repro.utils.durable import atomic_write

__all__ = ["ReplicatedConfig", "ReplicatedServer", "recover_from_wal"]


@dataclass(frozen=True)
class ReplicatedConfig:
    """Deployment shape of one replicated serving tier.

    ``root`` holds everything durable (WAL, snapshots, published versions,
    the shared metrics board, the control socket); ``workers`` predictor
    processes join the coordinator on one ``SO_REUSEPORT`` port.
    """

    root: str | Path
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    #: append a snapshot record every N committed deltas (0 disables)
    snapshot_every: int = 0
    #: per-process admission capacity for /predict (0 = no shedding)
    max_pending: int = 0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    cache_size: int = 4096
    #: how long the commit waits for each worker's swap ack
    ack_timeout_seconds: float = 15.0
    wal_filename: str = "wal.log"
    #: JSON-safe fault-plan specs (see ``FaultInjector.from_specs``) shipped
    #: to every worker — injectors are per-process, so chaos plans targeting
    #: worker-side sites must be rebuilt inside each spawned worker
    worker_fault_plans: tuple = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError(f"workers must be >= 1, got {self.workers}")
        if self.snapshot_every < 0:
            raise ServingError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.max_pending < 0:
            raise ServingError(f"max_pending must be >= 0, got {self.max_pending}")
        if self.max_body_bytes < 1:
            raise ServingError(f"max_body_bytes must be >= 1, got {self.max_body_bytes}")
        if self.ack_timeout_seconds <= 0:
            raise ServingError("ack_timeout_seconds must be > 0")

    @property
    def root_path(self) -> Path:
        return Path(self.root)

    @property
    def wal_path(self) -> Path:
        return self.root_path / self.wal_filename

    @property
    def board_path(self) -> Path:
        return self.root_path / "metrics.board"

    @property
    def control_path(self) -> Path:
        return self.root_path / "control.sock"


def _replay_plan(
    wal: DeltaWAL,
    records: list[WALRecord],
    *,
    root: Path,
    make_controller: Callable[[HeteroGraph | None], ServingController],
    genesis_config: dict | None = None,
) -> tuple[ServingController, dict]:
    """Quarantine-convergent replay of a decoded log.

    Builds the base state (snapshot or genesis) and re-applies the
    non-poisoned deltas.  A delta that *crashes* its replay is quarantined
    — dead-lettered and marked ``poison`` — and the whole replay restarts
    without it.  Each pass removes at least one delta, so the loop
    terminates; a log full of poison converges to the base state instead of
    crash-looping the process.  Returns ``(started controller, report)``.
    """
    records = list(records)
    quarantined_now = 0
    while True:
        genesis, snapshot, delta_records, poisoned = plan_replay_records(
            records, root=root
        )
        if genesis is None:
            raise WALError(f"{wal.path}: log has records but no genesis")
        if genesis_config is not None and dict(genesis_config) != genesis:
            raise WALError(
                f"{wal.path}: genesis config mismatch — the log was started "
                f"with {genesis}, this deployment asks for {dict(genesis_config)}; "
                "replaying these deltas into a different base state would "
                "corrupt the model"
            )
        if snapshot is not None:
            graph = load_graph(root / str(snapshot.payload["graph_path"]))
            bundle = published_bundle(root / str(snapshot.payload["bundle_path"]))
            controller = make_controller(graph)
            controller.start(warm_bundle=bundle)
            controller.adopt_version(int(snapshot.payload["version"]))
            mode = "snapshot"
            snapshot_version = int(snapshot.payload["version"])
        else:
            controller = make_controller(None)
            controller.start()
            mode = "genesis"
            snapshot_version = None
        crashed: tuple[WALRecord, Exception] | None = None
        applied = 0
        for record in delta_records:
            rec_delta = record.delta()
            # The WAL record carries the original commit's trace context in
            # the delta metadata: parent the replay span to it, so a traced
            # recovery renders under the commit that logged the record.
            ctx = extract_delta(rec_delta)
            try:
                with obs.span(
                    "replay.apply_delta",
                    _parent=ctx.parent_id if ctx is not None else None,
                    step=int(rec_delta.step),
                ):
                    controller.apply_delta(rec_delta)
            except Exception as exc:
                crashed = (record, exc)
                break
            applied += 1
        if crashed is None:
            return controller, {
                "mode": mode,
                "deltas_replayed": applied,
                "snapshot_version": snapshot_version,
                "deltas_logged": sum(1 for r in records if r.kind == KIND_DELTA),
                "quarantined": len(poisoned),
                "quarantined_now": quarantined_now,
            }
        record, error = crashed
        wal.quarantine(record, error, reason="replay")
        quarantined_now += 1
        # Reflect the just-appended poison marker without re-reading the
        # file; the next plan_replay_records pass skips the record.
        records.append(
            WALRecord(
                KIND_POISON,
                {"kind": KIND_POISON, "target_offset": record.offset},
                -1,
            )
        )


def recover_from_wal(
    wal_path: str | Path,
    *,
    root: str | Path,
    make_controller: Callable[[HeteroGraph | None], ServingController],
    genesis_config: dict | None = None,
) -> tuple[ServingController, DeltaWAL, dict]:
    """Open (repairing a torn tail) and replay the WAL at ``wal_path``.

    ``make_controller(graph)`` builds the deployment's controller: around
    the given live graph when restoring a snapshot, or around the
    deterministic base state when called with ``None``.

    An empty/new log records ``genesis_config`` as its first record; an
    existing log's genesis is checked against it — replaying deltas into a
    *different* base state would silently produce garbage, so a mismatch
    raises :class:`~repro.errors.WALError`.

    Replay is the quarantine-convergent loop of :func:`_replay_plan`: a
    delta that crashes recovery is dead-lettered and poisoned rather than
    crash-looping the boot, and a record poisoned on a *previous* boot is
    skipped without any work (``quarantined_now`` is 0 on the second boot).

    Returns ``(started controller, open WAL, recovery report)``; the report
    says which path ran (``cold`` / ``genesis`` / ``snapshot``), how many
    deltas were re-applied, and how much quarantine work happened
    (``quarantined`` total vs ``quarantined_now`` this boot).
    """
    root = Path(root)
    wal, records = DeltaWAL.open(wal_path)
    try:
        if not records:
            wal.append_genesis(dict(genesis_config or {}))
            controller = make_controller(None)
            controller.start()
            return controller, wal, {
                "mode": "cold",
                "deltas_replayed": 0,
                "snapshot_version": None,
                "deltas_logged": 0,
                "quarantined": 0,
                "quarantined_now": 0,
            }
        controller, report = _replay_plan(
            wal,
            records,
            root=root,
            make_controller=make_controller,
            genesis_config=genesis_config,
        )
        return controller, wal, report
    except BaseException:
        wal.close()
        raise


class _CoordinatorHTTP(ServingServer):
    """The coordinator's HTTP endpoint: deltas go through the commit pipeline."""

    def __init__(self, replicated: "ReplicatedServer", controller, **kwargs) -> None:
        super().__init__(controller, **kwargs)
        self.replicated = replicated

    async def _handle_delta(self, body: bytes, start: float) -> tuple[int, dict]:
        delta = GraphDelta.from_payload(_parse_json(body))
        try:
            report, acked = await self.replicated.commit_delta(delta)
        except CanaryRejectedError as exc:
            # The candidate was rejected and the record quarantined; the
            # controller was rebuilt, so the previous version is answering.
            return 422, {
                "error": str(exc),
                "rolled_back": True,
                "quarantined": True,
                "canary": dict(exc.report),
                "version": self.replicated.controller.version,
            }
        except PoisonDeltaError as exc:
            entry = dict(exc.entry or {})
            return 422, {
                "error": str(exc),
                "rolled_back": True,
                "quarantined": True,
                "fingerprint": entry.get("fingerprint"),
                "version": self.replicated.controller.version,
            }
        self.metrics.observe_swap(report.swap_seconds)
        self.metrics.set_version(report.version)
        return 200, {
            "step": report.step,
            "mode": report.mode,
            "version": report.version,
            "retrained": report.retrained,
            "dirty_count": report.dirty_count,
            "cache_carried": report.cache_carried,
            "condense_seconds": round(report.condense_seconds, 6),
            "train_seconds": round(report.train_seconds, 6),
            "swap_seconds": round(report.swap_seconds, 6),
            "acked_workers": acked,
        }

    async def _handle_stats(self, body: bytes, start: float) -> tuple[int, dict]:
        status, payload = await super()._handle_stats(body, start)
        payload["replicated"] = self.replicated.stats
        return status, payload


@dataclass
class _WorkerLink:
    """One registered worker's control connection."""

    slot: int
    pid: int
    writer: asyncio.StreamWriter
    acks: asyncio.Queue = field(default_factory=asyncio.Queue)


class ReplicatedServer:
    """Coordinator + durable WAL + supervised mmap-shared worker pool.

    Parameters
    ----------
    make_controller:
        ``(graph | None) -> ServingController`` factory (see
        :func:`recover_from_wal`).  Must be deterministic for ``None``.
    config:
        The :class:`ReplicatedConfig` deployment shape.
    genesis:
        JSON-safe recipe of the base state, recorded as the WAL's first
        record and checked on every recovery.
    """

    def __init__(
        self,
        make_controller: Callable[[HeteroGraph | None], ServingController],
        *,
        config: ReplicatedConfig,
        genesis: dict | None = None,
    ) -> None:
        self.make_controller = make_controller
        self.config = config
        self.genesis = dict(genesis or {})
        self.controller: ServingController | None = None
        self.wal: DeltaWAL | None = None
        self.pool: WorkerPool | None = None
        self.board = None
        self.http: _CoordinatorHTTP | None = None
        self.recovery: dict | None = None
        self.host = config.host
        self.port = int(config.port)
        self.admin_port = 0
        self.deltas_committed = 0
        self.quarantined = 0
        self.canary_rejections = 0
        #: swap acks answered with an older (last-good) version: degraded
        #: workers that verified-and-fell-back rather than going silent
        self.fallback_acks = 0
        #: publishes whose manifest check failed and were rewritten in place
        self.publish_repairs = 0
        self._since_snapshot = 0
        self._delta_lock = asyncio.Lock()
        self._links: dict[int, _WorkerLink] = {}
        self._control_server: asyncio.AbstractServer | None = None
        self._admin_server: asyncio.AbstractServer | None = None
        self._supervisor: asyncio.Task | None = None
        #: set once the boot version is published; workers get no welcome
        #: before it (see :meth:`start`)
        self._booted = asyncio.Event()
        self._booted_at: float | None = None

    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Boot the tier and return its ``(host, port)``.

        The worker pool spawns *before* recovery, so each worker's
        interpreter start overlaps the coordinator's condense and train:

        1. the metrics board and the fault sink;
        2. the control server, the HTTP socket and the admin socket, bound
           but not yet serving, so every worker option is known;
        3. the pool spawns; a worker that is ready says hello and waits;
        4. WAL recovery, the boot publish and ``CURRENT``;
        5. the boot event: only now does a worker get its welcome, so none
           reads ``CURRENT`` before it names the boot version;
        6. the HTTP and admin servers, then the supervisor.

        When a step raises, the pool is stopped and every socket closed
        before the error propagates, so a refused recovery (say, a genesis
        mismatch) leaves no live worker and no bound port behind.
        """
        from repro.serving.replicated.metrics import MetricsBoard

        cfg = self.config
        root = cfg.root_path
        root.mkdir(parents=True, exist_ok=True)
        self.board = MetricsBoard.create(cfg.board_path, slots=cfg.workers + 1)
        slot0 = self.board.slot(0)
        # Surface this process's fault fires on the shared board so a chaos
        # run's /metrics reports fires per site across the whole deployment.
        injector = faults.active()
        if injector is not None and injector.sink is None:
            injector.sink = slot0.observe_fault

        sockets: list[socket.socket] = []
        try:
            cfg.control_path.unlink(missing_ok=True)
            self._control_server = await asyncio.start_unix_server(
                self._handle_control, path=str(cfg.control_path)
            )
            http_sock = make_listen_socket(cfg.host, cfg.port)
            sockets.append(http_sock)
            self.host, self.port = http_sock.getsockname()[:2]
            # Loopback admin listener: where workers forward POST /delta to.
            admin_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sockets.append(admin_sock)
            admin_sock.bind(("127.0.0.1", 0))
            self.admin_port = int(admin_sock.getsockname()[1])

            self.pool = WorkerPool(
                workers=cfg.workers, options=self._worker_options(), metrics=slot0
            )
            self.pool.start()

            with obs.span("boot.recover") as recover_span:
                # reprolint: disable-next=REP-A401 boot path: the loop serves no requests until start() returns
                controller, wal, recovery = recover_from_wal(
                    cfg.wal_path,
                    root=root,
                    make_controller=self.make_controller,
                    genesis_config=self.genesis,
                )
                if recover_span is not None:
                    recover_span.attrs["mode"] = recovery["mode"]
            self.controller, self.wal, self.recovery = controller, wal, recovery
            self.deltas_committed = int(recovery["deltas_logged"])
            self.quarantined = int(recovery.get("quarantined", 0))
            if recovery.get("quarantined_now"):
                slot0.observe_quarantine(int(recovery["quarantined_now"]))
            with obs.span("boot.publish", version=int(controller.version)):
                self._publish(controller.version)
                set_current(root, controller.version)  # reprolint: disable=REP-A401 boot path: the loop serves no requests until start() returns
            self._booted_at = time.monotonic()
            self._booted.set()

            self.http = _CoordinatorHTTP(
                self,
                controller,
                host=self.host,
                port=self.port,
                sock=http_sock,
                max_body_bytes=cfg.max_body_bytes,
                admission_capacity=cfg.max_pending,
                metrics=slot0,
            )
            await self.http.start()
            self._admin_server = await asyncio.start_server(
                self.http._handle_connection, sock=admin_sock
            )
            self._supervisor = asyncio.create_task(self.pool.supervise())
        except BaseException:
            try:
                await self.close()
            finally:
                for sock in sockets:  # a no-op for those a server closed
                    sock.close()
            raise
        return self.host, self.port

    def _worker_options(self) -> dict:
        cfg = self.config
        return {
            "root": str(cfg.root_path),
            "board": str(cfg.board_path),
            "control": str(cfg.control_path),
            "host": self.host,
            "port": self.port,
            "admin_port": self.admin_port,
            "cache_size": cfg.cache_size,
            "max_body_bytes": cfg.max_body_bytes,
            "max_pending": cfg.max_pending,
            "fault_plans": [dict(spec) for spec in cfg.worker_fault_plans],
        }

    def _publish(self, version: int) -> None:
        """Publish ``version`` and verify it before anyone can load it.

        ``publish_version`` writes the manifest itself; re-verifying here
        catches bytes damaged *during* the publish (torn write, bit flip —
        or the ``publish.*`` fault sites).  One in-place republish repairs
        it; a publish that still fails its own manifest raises rather than
        letting ``CURRENT`` ever point at garbage.
        """
        assert self.controller is not None
        session = self.controller.session

        def write() -> Path:
            return publish_version(
                self.config.root_path,
                version=version,
                bundle=self.controller.export_bundle(),
                logits=session._logits,
            )

        vdir = write()
        try:
            verify_version_dir(vdir)
        except IntegrityError:
            self.publish_repairs += 1
            if self.http is not None:
                self.http.metrics.observe_integrity_fallback()
            vdir = write()
            verify_version_dir(vdir)

    # ------------------------------------------------------------------ #
    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        link: _WorkerLink | None = None
        try:
            hello = json.loads(await reader.readline())
            if hello.get("type") != "hello":
                return
            slot = int(hello["slot"])
            with obs.span("pool.register", slot=slot) as span:
                # Workers spawn before recovery: the welcome waits for the
                # boot publish, so no worker reads an older CURRENT.
                await self._booted.wait()
                if self._booted_at is None:
                    return  # close() after a failed start woke us
                link = _WorkerLink(slot=slot, pid=int(hello.get("pid", 0)), writer=writer)
                self._links[slot] = link
                assert self.controller is not None
                writer.write(
                    json.dumps(
                        {"type": "welcome", "version": self.controller.version}
                    ).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
                if span is not None:
                    # The hello stamp is the worker's time.monotonic():
                    # CLOCK_MONOTONIC, one clock for every process on the
                    # host.  Positive: the worker was ready before the boot
                    # publish; negative: it said hello that long after it.
                    sent = float(hello.get("sent", self._booted_at))
                    span.attrs["waited_s"] = round(self._booted_at - sent, 6)
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = json.loads(line)
                if message.get("type") == "ack":
                    # The full ack dict: workers report both the version they
                    # loaded and the one requested, so an integrity fallback
                    # (loaded < requested) is distinguishable from silence.
                    link.acks.put_nowait(message)
        except (json.JSONDecodeError, ValueError, ConnectionResetError):
            pass
        finally:
            if link is not None and self._links.get(link.slot) is link:
                del self._links[link.slot]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _fan_out(self, version: int) -> int:
        """Notify every registered worker; returns how many acked in time.

        Workers that die mid-swap drop off the control channel and are not
        waited for (the supervisor respawns them onto ``CURRENT``, which
        already points at ``version``).
        """
        action = faults.fire("coordinator.delay_ack")
        if action is not None:
            # Fault site: a slow swap-ack round trip.  The sleep happens
            # *inside* the commit's ack wait, so it eats into the
            # ack_timeout_seconds deadline exactly like network delay would.
            await asyncio.sleep(float(action.get("seconds", 0.05)))
        notified: list[_WorkerLink] = []
        message = json.dumps({"type": "swap", "version": int(version)}).encode("utf-8") + b"\n"
        for link in list(self._links.values()):
            try:
                link.writer.write(message)
                await link.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                continue
            notified.append(link)
        acked = 0
        deadline = asyncio.get_running_loop().time() + self.config.ack_timeout_seconds
        for link in notified:
            while True:
                if self._links.get(link.slot) is not link:
                    break  # worker died mid-swap; respawn loads CURRENT
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    # Registered but silent past the deadline: the worker is
                    # wedged, not dead — liveness supervision will never
                    # replace it, so do it here instead of stalling every
                    # future commit on the same slot.
                    if self.pool is not None:
                        self.pool.respawn_slot(link.slot)
                    break
                try:
                    ack = await asyncio.wait_for(
                        link.acks.get(), timeout=min(remaining, 0.1)
                    )
                except asyncio.TimeoutError:
                    continue
                if isinstance(ack, dict):
                    ack_version = int(ack.get("version", -1))
                    requested = int(ack.get("requested", ack_version))
                else:  # bare-int acks from older workers / tests
                    ack_version = requested = int(ack)
                if ack_version >= version:
                    acked += 1
                    break
                if requested >= version:
                    # The worker answered, but with last-good: it verified
                    # the published dir, found garbage, and fell back.
                    # Degraded — a respawn would reread the same bad bytes.
                    self.fallback_acks += 1
                    break
        return acked

    async def commit_delta(self, delta: GraphDelta) -> tuple[SwapReport, int]:
        """The single-writer commit pipeline (see module docstring)."""
        assert self.controller is not None and self.wal is not None
        assert self.http is not None
        loop = asyncio.get_running_loop()
        async with self._delta_lock:
            with obs.span("commit.delta", step=int(delta.step)):
                # Stamp the commit span's context onto the delta so the WAL
                # record carries it — replay parents its spans to this commit.
                # No-op (and byte-identical records) while tracing is disabled.
                delta = stamp_delta(delta)

                def commit() -> SwapReport:
                    # Reject before logging: only deltas that can apply to the
                    # live graph may enter the WAL, so replay never trips over a
                    # record whose client was already refused.
                    delta.validate_against(self.controller.graph)
                    # Durable first: an acked delta must survive any crash after
                    # this line; a crash before it means the client saw no ack.
                    with obs.span("commit.wal_append"):
                        offset = self.wal.append_delta(delta)
                    try:
                        report = self.controller.apply_delta(delta)
                    except CanaryRejectedError as exc:
                        # Canary rollback: quarantine the record and rebuild
                        # from the WAL, so the live state is byte-identical to
                        # what the next boot would recover (replay skips the
                        # poisoned record too).
                        self._quarantine(offset, delta, exc, reason="canary")
                        self._rebuild_controller()
                        raise
                    except Exception as exc:
                        entry = self._quarantine(offset, delta, exc, reason="exception")
                        self._rebuild_controller()
                        raise PoisonDeltaError(
                            f"delta step {delta.step} poisoned its commit "
                            f"({type(exc).__name__}: {exc}); quarantined to the "
                            "dead-letter sidecar and rolled back",
                            entry=entry,
                        ) from exc
                    with obs.span("commit.publish", version=int(report.version)):
                        self._publish(report.version)
                    return report

                # copy_context: run_in_executor does not carry contextvars into
                # the swap thread, and the commit spans must stay children of
                # commit.delta.
                call = contextvars.copy_context().run
                report = await loop.run_in_executor(self.http._swap_pool, call, commit)
                # The CURRENT pointer publish fsyncs twice; off the loop so
                # in-flight predictions don't stall behind a slow disk.
                await loop.run_in_executor(
                    self.http._swap_pool,
                    lambda: set_current(self.config.root_path, report.version),
                )
                self.deltas_committed += 1
                self._since_snapshot += 1
                with obs.span("commit.fan_out", version=int(report.version)) as fan_span:
                    acked = await self._fan_out(report.version)
                    if fan_span is not None:
                        fan_span.attrs["acked"] = int(acked)
                if (
                    self.config.snapshot_every
                    and self._since_snapshot >= self.config.snapshot_every
                ):
                    with obs.span("commit.snapshot", version=int(report.version)):
                        await loop.run_in_executor(
                            self.http._swap_pool,
                            contextvars.copy_context().run,
                            lambda: self._write_snapshot(report),
                        )
                    self._since_snapshot = 0
                return report, acked

    def _quarantine(
        self, offset: int, delta: GraphDelta, error: Exception, *, reason: str
    ) -> dict:
        """Dead-letter the delta record at ``offset`` and count it."""
        assert self.wal is not None
        record = WALRecord(
            KIND_DELTA, {"kind": KIND_DELTA, "delta": delta.to_payload()}, offset
        )
        entry = self.wal.quarantine(record, error, reason=reason)
        self.quarantined += 1
        if reason == "canary":
            self.canary_rejections += 1
        if self.http is not None:
            self.http.metrics.observe_quarantine()
            if reason == "canary":
                self.http.metrics.observe_canary_rejection()
        return entry

    def _rebuild_controller(self) -> None:
        """Replace the live controller with a fresh WAL replay.

        Runs after a quarantine: the old controller's graph may hold the
        poisoned delta's partial effects, and replay-without-the-record is
        the only rollback that provably matches the next boot.  Readers are
        never interrupted — the HTTP layer resolves ``controller.session``
        per batch, so in-flight requests finish on the old session and the
        next batch sees the rebuilt one.
        """
        assert self.wal is not None
        records = read_wal(self.wal.path)
        controller, report = _replay_plan(
            self.wal,
            records,
            root=self.config.root_path,
            make_controller=self.make_controller,
            genesis_config=self.genesis,
        )
        self.quarantined += int(report.get("quarantined_now", 0))
        self.controller = controller
        if self.http is not None:
            self.http.controller = controller
            self.http.metrics.set_version(controller.version)

    def _write_snapshot(self, report: SwapReport) -> None:
        """Checkpoint the live graph, then log the snapshot record.

        The model needs no second copy: the record points at the version
        dir this commit already published and verified.  The graph is
        written durably (fsync, rename, directory fsync) *before* the WAL
        record that carries its digest commits, so replay can verify the
        checkpoint it is about to trust and fall back when the bytes rotted.
        """
        assert self.controller is not None and self.wal is not None
        root = self.config.root_path
        graph_rel = f"snapshots/snap-{report.version:06d}-graph.npz"
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **graph_to_arrays(self.controller.graph))
        graph = buffer.getvalue()
        (root / "snapshots").mkdir(exist_ok=True)
        atomic_write(root / graph_rel, graph)
        self.wal.append_snapshot(
            step=report.step,
            version=report.version,
            graph_path=graph_rel,
            bundle_path=version_dir("", report.version).as_posix(),
            deltas_applied=self.deltas_committed,
            graph_sha256=hashlib.sha256(graph).hexdigest(),
        )

    # ------------------------------------------------------------------ #
    async def serve_forever(self) -> None:
        """Run until cancelled."""
        assert self.http is not None, "call start() first"
        await self.http.serve_forever()

    async def close(self) -> None:
        """Stop the pool, listeners and WAL (reverse of :meth:`start`)."""
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self.pool is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.pool.stop)
            self.pool = None
        # Wake control handlers still waiting for a boot that failed, so the
        # control server can close their connections.
        self._booted.set()
        for server in (self._admin_server, self._control_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._admin_server = self._control_server = None
        if self.http is not None:
            await self.http.close()
            self.http = None
        if self.wal is not None:
            self.wal.close()
            self.wal = None
        self.config.control_path.unlink(missing_ok=True)

    @property
    def stats(self) -> dict[str, object]:
        """Coordinator-level counters, surfaced under ``/stats``."""
        alive = self.pool.alive() if self.pool is not None else {}
        return {
            "role": "coordinator",
            "workers": self.config.workers,
            "workers_alive": sum(1 for ok in alive.values() if ok),
            "workers_registered": len(self._links),
            "respawns": self.pool.respawns if self.pool is not None else 0,
            "crash_looping": self.pool.crash_looping() if self.pool is not None else [],
            "deltas_committed": self.deltas_committed,
            "quarantined": self.quarantined,
            "canary_rejections": self.canary_rejections,
            "fallback_acks": self.fallback_acks,
            "publish_repairs": self.publish_repairs,
            "recovery": dict(self.recovery or {}),
        }
