"""Load generation against ``python -m repro serve`` over HTTP.

A keep-alive HTTP/1.1 client, the server subprocess with its teardown, and
the closed-loop ``/predict`` reader.  The server runs in its own process
group, so its replicated workers can be found and are always stopped.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import ROOT, SRC, BenchError, proc_cpu_seconds, proc_status_kb

_CONTENT_LENGTH = re.compile(rb"(?im)^content-length:\s*(\d+)\s*$")
_LISTENING = re.compile(r"on http://[^\s:]+:(\d+)")


class HttpConnection:
    """One keep-alive connection with one request in flight at a time."""

    def __init__(self, port: int, *, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request; returns ``(status, body)``.  Raises OSError."""
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        try:
            status = int(head.split(b" ", 2)[1])
        except (IndexError, ValueError):
            raise ConnectionError(f"malformed status line {head[:60]!r}") from None
        match = _CONTENT_LENGTH.search(head)
        length = int(match.group(1)) if match else 0
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        payload, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, payload

    def get_json(self, path: str) -> tuple[int, dict]:
        status, payload = self.request("GET", path)
        return status, json.loads(payload)

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        self.sock.close()


def role_of(stats: dict) -> str:
    """Which process of the tier answered a ``GET /stats``."""
    if "replicated" in stats:
        return "coordinator"
    if stats.get("controller", {}).get("role") == "worker":
        return "worker"
    return "single"


def connect_to(port: int, role: str, *, attempts: int = 400) -> HttpConnection:
    """A connection that landed on a process of the given role.

    Every process of the replicated tier listens on the same port, and the
    kernel spreads connections over them by address hash, so a fresh
    connection is tried until one lands where it should.  Pinning keeps each
    run on the same code path.
    """
    for _ in range(attempts):
        conn = HttpConnection(port)
        try:
            status, stats = conn.get_json("/stats")
        except (OSError, ValueError):
            conn.close()
            time.sleep(0.005)
            continue
        if status == 200 and role_of(stats) == role:
            return conn
        conn.close()
        time.sleep(0.005)
    raise BenchError(f"no connection reached a {role} process in {attempts} tries")


class ServerProcess:
    """``python -m repro serve ...`` in its own process group.

    ``start`` returns the seconds from spawn until the tier answers: the
    first ``GET /stats`` with status 200 that a process of ``ready_role``
    answers.  ``stop`` ends every process of the group on every exit path.
    """

    def __init__(self, args: list[str], logdir: Path, *, ready_role: str = "single") -> None:
        self.args = list(args)
        self.logdir = Path(logdir)
        self.ready_role = ready_role
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, *, timeout: float = 120.0) -> float:
        self.logdir.mkdir(parents=True, exist_ok=True)
        log_path = self.logdir / "server.log"
        self._log = open(log_path, "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        begin = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *self.args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = begin + timeout
        while self.port is None:
            self._check_alive(log_path)
            match = _LISTENING.search(log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
            elif perf_counter() > deadline:
                raise BenchError(f"server did not report its port within {timeout:.0f}s")
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(log_path)
            try:
                conn = connect_to(self.port, self.ready_role, attempts=1)
            except (OSError, BenchError):
                if perf_counter() > deadline:
                    raise BenchError(f"server was not ready within {timeout:.0f}s") from None
                time.sleep(0.005)
                continue
            elapsed = perf_counter() - begin
            conn.close()
            return elapsed

    def _check_alive(self, log_path: Path) -> None:
        if self.process.poll() is not None:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"server exited with {self.process.returncode}:\n{tail}")

    # ------------------------------------------------------------------ #
    def members(self) -> list[int]:
        """Live (non-zombie) pids of the server's process group."""
        if self.process is None:
            return []
        pgid = self.process.pid
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                pids.append(int(entry))
        return sorted(pids)

    def working_pids(self) -> list[int]:
        """The server and its predictor workers (not multiprocessing's helper)."""
        pids = []
        for pid in self.members():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue
            if pid == self.process.pid or b"spawn_main" in cmdline:
                pids.append(pid)
        return pids

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS of the server and its workers."""
        return sum(proc_status_kb(pid, "VmHWM") for pid in self.working_pids()) / 1024.0

    def cpu_seconds(self) -> float:
        total = 0.0
        for pid in self.members():
            try:
                total += proc_cpu_seconds(pid)
            except OSError:
                pass
        return total

    def stop(self) -> None:
        """Interrupt the server, then kill whatever of its group is left.

        The kill runs even when the graceful wait is itself interrupted.
        """
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                self._kill_group()
            finally:
                if self._log is not None:
                    self._log.close()
                    self._log = None
                self.process = None

    def _kill_group(self) -> None:
        deadline = perf_counter() + 15
        while self.members():
            if perf_counter() > deadline:
                raise BenchError(f"server processes {self.members()} survived SIGKILL")
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            time.sleep(0.05)
        self.process.wait(timeout=15)


def id_batches(seed: int, stream: int, targets: int, size: int = 16, chunk: int = 1024):
    """Endless seeded stream of ``size``-id batches drawn uniformly."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield from rng.integers(0, targets, size=(chunk, size)).tolist()


class ReadLoop(threading.Thread):
    """One keep-alive connection POSTing ``/predict`` in a closed loop.

    Replies are kept raw and decoded after the run, so the load generator
    spends as little CPU as it can while measuring.
    """

    def __init__(self, conn: HttpConnection, batches, stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.conn = conn
        self.batches = batches
        self.stop_event = stop
        #: (ids, status, body, seconds); status None marks a connection error
        self.samples: list[tuple[list[int], int | None, bytes, float]] = []

    def run(self) -> None:
        for ids in self.batches:
            if self.stop_event.is_set():
                return
            body = json.dumps({"nodes": ids}).encode()
            begin = perf_counter()
            try:
                status, payload = self.conn.request("POST", "/predict", body)
            except OSError as exc:
                self.samples.append((ids, None, str(exc).encode(), perf_counter() - begin))
                return
            self.samples.append((ids, status, payload, perf_counter() - begin))
