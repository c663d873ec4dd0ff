"""The mmap-shared predictor worker pool.

Replication model
-----------------
The coordinator is the only process that condenses, trains or mutates the
graph.  After every committed delta it *publishes* the new model epoch as a
version directory and flips the ``CURRENT`` pointer to it
(:func:`~repro.serving.artifacts.publish_version` /
:func:`~repro.serving.artifacts.set_current`, which own the on-disk layout).

Workers never run the model: :func:`published_session` opens ``logits.npy``
with ``np.load(mmap_mode="r")`` and wraps it in
:meth:`~repro.serving.engine.InferenceSession.from_logits`, so serving a
prediction is a row-gather + ``argmax`` over pages the kernel shares across
the whole pool — N workers cost one physical copy of the model state.

All processes (coordinator + workers) listen on the *same* TCP port via
``SO_REUSEPORT``; the kernel load-balances incoming connections, so adding
workers scales accepted connections without a userspace proxy.

Swap protocol (no stale version after ack)
------------------------------------------
Each worker holds a unix-socket control connection to the coordinator:

1. worker connects and sends ``hello`` — *then* loads ``CURRENT`` and only
   after that starts accepting traffic (so a version published before the
   worker registered is always picked up);
2. on every committed delta the coordinator flips ``CURRENT`` first, then
   fans out a ``swap`` notice to every registered worker;
3. the worker atomically republishes its session (a single attribute
   store) **before** sending ``ack``;
4. the coordinator answers the ``/delta`` request only after every live
   worker acked, so a response observed after the delta ack can never
   carry a stale version.

A worker whose control connection drops exits (its supervisor respawns it);
a respawned worker re-runs step 1 and therefore starts on the newest
version.  ``POST /delta`` hitting a worker is forwarded to the
coordinator's loopback admin listener — clients never need to know which
process accepted their connection.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import socket
import sys
import time
from pathlib import Path

from repro import obs
from repro.errors import IntegrityError, ServingError
from repro.obs.propagate import inject_headers
# publish_version, set_current and current_version are re-exported as part
# of this module's public surface.
from repro.serving.artifacts import (
    current_version,
    last_good_version,
    publish_version,
    published_logits,
    set_current,
    verify_version_dir,
    version_dir,
)
from repro.utils import faults
from repro.serving.engine import InferenceSession
from repro.serving.server import (
    DEFAULT_MAX_BODY_BYTES,
    ServingServer,
    send_http_request,
)

__all__ = [
    "WorkerPool",
    "make_listen_socket",
    "published_session",
    "publish_version",
    "current_version",
    "set_current",
    "forward_delta",
    "backoff_delays",
]


def make_listen_socket(host: str, port: int) -> socket.socket:
    """A bound TCP socket with ``SO_REUSEPORT`` (not yet listening).

    Every process of the pool binds its own socket to the same address;
    the kernel distributes incoming connections across them.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - linux CI
            raise ServingError(
                "the replicated pool needs SO_REUSEPORT, which this platform lacks"
            )
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, int(port)))
    except BaseException:
        sock.close()
        raise
    return sock


def _open_session(vdir: Path, *, cache_size: int) -> InferenceSession:
    version, logits = published_logits(vdir)
    return InferenceSession.from_logits(logits, version=version, cache_size=cache_size)


def published_session(
    root: str | Path,
    *,
    version: int | None = None,
    cache_size: int = 4096,
    fallback: bool = True,
) -> InferenceSession:
    """Open a published version's logits (mmapped) as an
    :class:`~repro.serving.engine.InferenceSession`.

    ``version=None`` follows the ``CURRENT`` pointer; an explicit version
    opens that directory (the swap notice path).  The directory's manifest
    is verified before mmap; a corrupt or incomplete publish falls back to
    the newest version that *does* verify (``fallback=False`` raises the
    :class:`~repro.errors.IntegrityError` instead).  Callers detect a
    fallback by comparing ``session.version`` to what they asked for.
    """
    if version is None:
        version, vdir = current_version(root)
    else:
        vdir = version_dir(root, version)
    try:
        verify_version_dir(vdir)
    except IntegrityError:
        if not fallback:
            raise
        # Serve the newest verifiable version rather than garbage bytes.
        _, vdir = last_good_version(root, exclude=(int(version),))
    return _open_session(vdir, cache_size=cache_size)


# ---------------------------------------------------------------------- #
# The worker process
# ---------------------------------------------------------------------- #
class _SessionProxy:
    """Duck-typed stand-in for ``ServingController`` in a read-only worker.

    Provides exactly the surface :class:`ServingServer` reads (``session``,
    ``version``, ``stats``); :meth:`publish` is the worker's atomic swap.
    """

    def __init__(self, session: InferenceSession | None = None) -> None:
        self._session = session
        self.swaps = 0

    @property
    def session(self) -> InferenceSession:
        if self._session is None:
            raise ServingError("worker has not loaded a published session yet")
        return self._session

    @property
    def version(self) -> int:
        return self.session.version

    @property
    def stats(self) -> dict[str, object]:
        return {"role": "worker", "version": self.version, "swaps": self.swaps}

    def publish(self, session: InferenceSession) -> None:
        # Single attribute store: readers see the old or the new session.
        self._session = session
        self.swaps += 1


class WorkerServer(ServingServer):
    """A worker's HTTP endpoint: local predictions, deltas forwarded."""

    def __init__(self, proxy: _SessionProxy, *, root: Path, admin_port: int, **kwargs) -> None:
        super().__init__(proxy, **kwargs)
        self.proxy = proxy
        self.root = Path(root)
        self.admin_port = int(admin_port)

    async def _handle_delta(self, body: bytes, start: float) -> tuple[int, dict]:
        # Workers are read-only replicas: the coordinator is the single
        # writer, reachable on its loopback admin listener.
        return await forward_delta("127.0.0.1", self.admin_port, body)


#: forward_delta retry policy: bounded, exponential, jittered
FORWARD_ATTEMPTS = 4
FORWARD_BASE_DELAY = 0.05
FORWARD_MAX_DELAY = 1.0
FORWARD_JITTER = 0.25


def backoff_delays(
    attempts: int,
    *,
    base: float = FORWARD_BASE_DELAY,
    cap: float = FORWARD_MAX_DELAY,
    jitter: float = FORWARD_JITTER,
    seed: int = 0,
) -> tuple[float, ...]:
    """The sleep schedule between ``attempts`` retries: capped exponential
    with deterministic jitter.

    Delay ``i`` is ``min(cap, base * 2**i) * (1 + jitter * u_i)`` with
    ``u_i`` drawn from a seeded uniform [0, 1).  With ``jitter <= 1`` the
    pre-cap schedule stays strictly monotone (the jittered value never
    reaches the next doubling), so retries always spread out — the property
    the backoff tests pin — while distinct seeds desynchronise a pool of
    workers hammering a recovering coordinator.
    """
    rng = random.Random(int(seed))
    delays = []
    for index in range(max(0, int(attempts))):
        delays.append(min(float(cap), float(base) * (2.0**index)) * (1.0 + float(jitter) * rng.random()))
    return tuple(delays)


async def forward_delta(
    host: str,
    port: int,
    body: bytes,
    *,
    attempts: int = FORWARD_ATTEMPTS,
    base_delay: float = FORWARD_BASE_DELAY,
    max_delay: float = FORWARD_MAX_DELAY,
    jitter: float = FORWARD_JITTER,
    seed: int | None = None,
) -> tuple[int, dict]:
    """Relay a ``POST /delta`` body to the coordinator; returns (status, json).

    Connection failures are retried up to ``attempts`` times with
    :func:`backoff_delays` sleeps in between — a coordinator mid-respawn
    looks exactly like a refused connection, and a bounded retry absorbs
    it.  When every attempt fails the worker answers a structured *degraded*
    503 (``degraded``/``attempts``/``retry_after_seconds``) and keeps
    serving reads: losing the writer never takes down the read path.
    """
    if seed is None:
        seed = os.getpid()
    delays = backoff_delays(
        max(0, attempts - 1), base=base_delay, cap=max_delay, jitter=jitter, seed=seed
    )
    failure: dict = {"error": "coordinator unreachable"}
    # Carry the worker's serve.delta span across the hop: the coordinator's
    # read_http_request decodes this header and parents commit.delta to it.
    trace_headers = "".join(
        f"{name}: {value}\r\n" for name, value in inject_headers().items()
    )
    for attempt in range(max(1, attempts)):
        if attempt:
            await asyncio.sleep(delays[attempt - 1])
        try:
            raw = await send_http_request(host, port, "POST", "/delta", body, trace_headers)
        except OSError as exc:
            failure = {"error": f"coordinator unreachable: {exc}"}
            continue
        head, _, payload = raw.partition(b"\r\n\r\n")
        try:
            status = int(head.split(b" ", 2)[1])
            decoded = json.loads(payload.decode("utf-8") or "{}")
        except (IndexError, ValueError, json.JSONDecodeError):
            return 502, {"error": "unparseable coordinator response"}
        return status, decoded
    failure.update(
        {
            "degraded": True,
            "attempts": int(attempts),
            "retry_after_seconds": max(1, int(round(max_delay))),
        }
    )
    return 503, failure


def _control_line(message: dict) -> bytes:
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


async def _worker_async(slot: int, options: dict) -> None:
    from repro.serving.replicated.metrics import MetricsBoard

    root = Path(options["root"])
    board = MetricsBoard.attach(options["board"])
    metrics = board.slot(slot)
    proxy = _SessionProxy()

    # Injectors are per-process: a chaos plan targeting worker-side sites is
    # shipped as JSON specs and rebuilt here, with fires surfaced through
    # this worker's row of the shared board (coordinator /metrics sees them).
    plans = options.get("fault_plans") or ()
    if plans:
        injector = faults.FaultInjector.from_specs(
            plans, seed=int(options.get("fault_seed", slot))
        )
        injector.sink = metrics.observe_fault
        faults.install(injector)

    # Register on the control channel BEFORE loading a session or serving:
    # any version committed after this handshake will be fanned out to us,
    # and CURRENT (read next) covers everything committed before it.  The
    # welcome comes only once the coordinator's boot version is published;
    # ``sent`` lets its trace tell how long this worker was ready before.
    reader, writer = await asyncio.open_unix_connection(options["control"])
    writer.write(
        _control_line(
            {"type": "hello", "slot": slot, "pid": os.getpid(), "sent": time.monotonic()}
        )
    )
    await writer.drain()
    welcome = json.loads(await reader.readline())
    if welcome.get("type") != "welcome":  # pragma: no cover - defensive
        raise ServingError(f"unexpected control greeting: {welcome}")

    cache_size = int(options.get("cache_size", 4096))
    wanted, _ = current_version(root)
    # reprolint: disable-next=REP-A401 boot path: the worker server is not listening yet
    session = published_session(root, cache_size=cache_size)
    if session.version != wanted:
        # CURRENT points at a corrupt publish: serve last-good, stale beats
        # garbage.  The next committed version swaps us back in sync.
        metrics.observe_integrity_fallback()
    proxy.publish(session)
    sock = make_listen_socket(options["host"], int(options["port"]))
    server = WorkerServer(
        proxy,
        root=root,
        admin_port=int(options["admin_port"]),
        host=options["host"],
        port=int(options["port"]),
        sock=sock,
        max_body_bytes=int(options.get("max_body_bytes", DEFAULT_MAX_BODY_BYTES)),
        admission_capacity=int(options.get("max_pending", 0)),
        metrics=metrics,
    )
    await server.start()
    try:
        while True:
            line = await reader.readline()
            if not line:
                break  # coordinator gone: exit, the next one respawns us
            message = json.loads(line)
            kind = message.get("type")
            if kind == "swap":
                version = int(message["version"])
                # Digest verification + np.load off the loop: in-flight
                # /predict requests keep draining against the old session
                # while the new one loads.
                loop = asyncio.get_running_loop()
                with obs.span("swap.build_session", version=version):
                    session = await loop.run_in_executor(
                        None,
                        lambda: published_session(
                            root, version=version, cache_size=cache_size
                        ),
                    )
                if session.version != version:
                    # Requested version failed verification; we loaded
                    # last-good.  Ack with what we actually serve so the
                    # coordinator can tell "degraded but alive" (don't
                    # respawn: a fresh process would hit the same bytes)
                    # from "unresponsive" (respawn).
                    metrics.observe_integrity_fallback()
                proxy.publish(session)  # before the ack: never stale after it
                metrics.set_version(session.version)
                writer.write(
                    _control_line(
                        {
                            "type": "ack",
                            "slot": slot,
                            "version": session.version,
                            "requested": version,
                        }
                    )
                )
                await writer.drain()
            elif kind == "stop":
                break
    finally:
        await server.close()
        writer.close()


def _worker_main(slot: int, options: dict) -> None:
    """Spawn entry point of one predictor worker process."""
    # Pick up a trace session exported by the parent (``repro trace record``):
    # spans land in the ``<file>.worker-<slot>`` sidecar.
    tracer = obs.bootstrap_from_env(f"worker-{slot}")
    try:
        asyncio.run(_worker_async(slot, options))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    except (ConnectionRefusedError, ConnectionResetError, FileNotFoundError):
        # The coordinator died while this worker was still booting (its
        # control socket is gone).  There is nothing to serve and nobody to
        # report to — exit quietly; a live coordinator respawns workers.
        pass
    finally:
        if tracer is not None:
            obs.uninstall()
            tracer.close()


def _crash_main(slot: int, options: dict) -> None:
    """``pool.crash_loop`` fault body: a worker that dies the instant it boots."""
    sys.exit(1)


# ---------------------------------------------------------------------- #
# Supervision (runs inside the coordinator)
# ---------------------------------------------------------------------- #
class WorkerPool:
    """Spawns N worker processes and respawns any that die.

    Workers are ``spawn``-context processes (no inherited locks or event
    loops); each one re-reads its state from the published version
    directories, which is what makes respawn-after-kill safe.
    """

    #: supervise backoff: first respawn is immediate, then delays double
    BACKOFF_BASE = 0.25
    BACKOFF_CAP = 5.0
    #: a worker alive this long clears its slot's backoff history
    BACKOFF_RESET_AFTER = 10.0

    def __init__(self, *, workers: int, options: dict, metrics=None) -> None:
        if workers < 1:
            raise ServingError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = int(workers)
        self.options = dict(options)
        self.metrics = metrics
        self._context = multiprocessing.get_context("spawn")
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._stopping = False
        self.respawns = 0
        # per-slot crash-loop state: current backoff delay, earliest next
        # respawn (monotonic time), and when the live process was spawned
        self._backoff: dict[int, float] = {}
        self._not_before: dict[int, float] = {}
        self._spawned_at: dict[int, float] = {}

    def start(self) -> None:
        """Launch every worker (slots ``1..workers``; slot 0 is the coordinator)."""
        for slot in range(1, self.workers + 1):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        target = _worker_main
        if faults.fire("pool.crash_loop") is not None:
            # Fault site: this spawn produces a worker that exits at boot,
            # turning the slot into a genuine crash loop until the plan's
            # limit runs out.
            target = _crash_main
        process = self._context.Process(
            target=target,
            args=(slot, self.options),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        process.start()
        self._processes[slot] = process
        self._spawned_at[slot] = time.monotonic()

    def alive(self) -> dict[int, bool]:
        """Liveness per slot."""
        return {slot: proc.is_alive() for slot, proc in self._processes.items()}

    def _maybe_inject_kill(self) -> int | None:
        """``pool.worker_kill`` fault site: SIGKILL one live worker.

        The kill is indistinguishable from a real crash — the same
        supervise tick (or the next) notices the dead process and respawns
        it onto ``CURRENT``.  The action's ``slot`` key picks the victim;
        an absent or dead slot falls back to the lowest live one.
        """
        action = faults.fire("pool.worker_kill")
        if action is None:
            return None
        live = sorted(
            slot for slot, proc in self._processes.items() if proc.is_alive()
        )
        if not live:
            return None
        slot = action.get("slot")
        if slot not in live:
            slot = live[0]
        self._processes[slot].kill()
        self._processes[slot].join(timeout=5.0)
        return slot

    def respawn_slot(self, slot: int) -> None:
        """Kill (if needed) and relaunch one slot — the ack-timeout path.

        A worker that registered but stopped answering swap notices is
        wedged, not dead; ``is_alive`` supervision will never touch it, so
        the coordinator calls this to replace it outright.
        """
        process = self._processes.get(slot)
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        self._spawn(slot)
        self.respawns += 1

    def _observe_dead(self, slot: int, now: float) -> bool:
        """Backoff bookkeeping for a dead slot; True when it may respawn now.

        First death respawns immediately; each subsequent death within
        :attr:`BACKOFF_RESET_AFTER` of its spawn doubles the slot's delay up
        to :attr:`BACKOFF_CAP`, so a worker that dies at boot costs a
        bounded fork/exec rate instead of a hot loop.
        """
        if now < self._not_before.get(slot, 0.0):
            return False
        lived = now - self._spawned_at.get(slot, now)
        if lived >= self.BACKOFF_RESET_AFTER:
            self._backoff.pop(slot, None)
        previous = self._backoff.get(slot)
        delay = (
            0.0
            if previous is None
            else min(self.BACKOFF_CAP, max(self.BACKOFF_BASE, previous * 2.0))
        )
        self._backoff[slot] = delay if previous is not None else self.BACKOFF_BASE
        self._not_before[slot] = now + delay
        return True

    def crash_looping(self) -> list[int]:
        """Slots currently held in (non-trivial) crash-loop backoff."""
        return sorted(
            slot
            for slot, delay in self._backoff.items()
            if delay > self.BACKOFF_BASE
        )

    async def supervise(self, *, interval: float = 0.25) -> None:
        """Respawn dead workers (with per-slot backoff) until :meth:`stop`."""
        while not self._stopping:
            self._maybe_inject_kill()
            now = time.monotonic()
            for slot, process in list(self._processes.items()):
                if process.is_alive():
                    if now - self._spawned_at.get(slot, now) >= self.BACKOFF_RESET_AFTER:
                        self._backoff.pop(slot, None)
                    continue
                if not self._stopping and self._observe_dead(slot, now):
                    process.join(timeout=0)
                    self._spawn(slot)
                    self.respawns += 1
            if self.metrics is not None:
                self.metrics.set_crash_looping(len(self.crash_looping()))
            await asyncio.sleep(interval)

    def stop(self, *, timeout: float = 5.0) -> None:
        """Terminate every worker and wait for the processes to exit."""
        self._stopping = True
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=timeout)
        self._processes.clear()
