"""Deterministic fault injection for tests and matrix cells.

Production fault tolerance is only as trustworthy as the faults it was
tested against, and "kill a worker by hand and eyeball the logs" does not
scale to a scenario matrix.  This module provides a tiny, deterministic
fault-injection layer: production code declares *sites* (named points where
a fault could strike) by calling :func:`fire`, and tests or matrix cells
*plan* which invocations of which sites actually fail.  With no injector
installed every site is a no-op costing one global read, so the hooks are
safe to leave in hot-ish control paths.

Wired sites
-----------
``wal.torn_tail``
    :meth:`repro.serving.replicated.wal.DeltaWAL.append` writes only a
    prefix of the framed record, fsyncs it, and raises
    :class:`InjectedFault` — exactly the on-disk state a ``kill -9`` mid
    ``write`` leaves behind.  Action key ``keep_bytes`` bounds the prefix.
``pool.worker_kill``
    :meth:`repro.serving.replicated.pool.WorkerPool.supervise` SIGKILLs one
    live worker (action key ``slot`` picks which; defaults to the lowest
    live slot) and lets its own respawn path recover it.
``coordinator.delay_ack``
    :meth:`repro.serving.replicated.coordinator.ReplicatedServer._fan_out`
    sleeps ``seconds`` before notifying workers, modelling a slow swap-ack
    round trip against the commit's ack deadline.
``hotswap.delay_publish``
    :meth:`repro.serving.hotswap.ServingController.apply_delta` sleeps
    ``seconds`` just before publishing the new session, widening the
    hot-swap window that concurrent readers race against.
``publish.corrupt_file``
    :func:`repro.serving.artifacts.publish_version` flips bytes in a
    freshly published file *after* its manifest digest was recorded — the
    on-disk shape of a partial write or bit rot.  Action keys: ``filename``
    (substring selecting the victim file, default ``logits.npy``),
    ``flip_at`` (byte offset, default 0).
``publish.truncate_manifest``
    :func:`repro.serving.artifacts.publish_version` truncates the
    just-written ``manifest.json`` to ``keep_bytes`` (default half), so
    verification sees an unparseable manifest rather than a clean one.
``hotswap.poison_commit``
    :meth:`repro.serving.hotswap.ServingController.apply_delta` raises
    :class:`InjectedFault` before touching any state — a delta whose commit
    deterministically crashes.  The replicated tier quarantines the WAL
    record to the dead-letter sidecar and rebuilds.
``canary.force_reject``
    :func:`repro.serving.canary.evaluate_candidate` records a forced-failure
    check, so canary rejection (and the coordinator's rollback path behind
    it) is drivable without actually degrading a model.
``pool.crash_loop``
    :meth:`repro.serving.replicated.pool.WorkerPool._spawn` launches an
    instantly-exiting process instead of a real worker — a worker that dies
    at boot, exercising the supervisor's per-slot crash-loop backoff.

Determinism
-----------
A plan fires on exact invocation counts (``at=``), on a period
(``every=``), or on a seeded coin flip (``probability=``).  All three are
deterministic functions of the injector's ``seed`` and the site's own
invocation counter — re-running the same code with the same seed replays
the same faults, which is what lets a matrix cell's result be cached and
compared.  Injection is per-process: spawned worker processes do not
inherit the parent's injector.

Examples
--------
>>> from repro.utils import faults
>>> injector = faults.FaultInjector(seed=7)
>>> _ = injector.plan("demo.site", at=(2,), note="boom")
>>> with faults.injected(injector):
...     [faults.fire("demo.site") for _ in range(3)]
[None, {'note': 'boom'}, None]
>>> faults.fire("demo.site") is None  # nothing installed any more
True
"""

from __future__ import annotations

import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultInjector",
    "install",
    "uninstall",
    "active",
    "fire",
    "injected",
]

#: sites currently wired into production code (documentation, not a gate —
#: tests may plan arbitrary site names of their own)
KNOWN_SITES = (
    "wal.torn_tail",
    "pool.worker_kill",
    "coordinator.delay_ack",
    "hotswap.delay_publish",
    "publish.corrupt_file",
    "publish.truncate_manifest",
    "hotswap.poison_commit",
    "canary.force_reject",
    "pool.crash_loop",
)


class InjectedFault(ReproError, RuntimeError):
    """Raised by a site whose planned fault simulates a crash."""


@dataclass
class FaultRule:
    """One planned fault: *when* a site fires and *what* it returns."""

    site: str
    action: dict
    at: frozenset = field(default_factory=frozenset)
    every: int = 0
    probability: float = 0.0
    limit: int = 0
    fired: int = 0
    _rng: random.Random | None = None

    def matches(self, invocation: int) -> bool:
        """Does this rule fire on the ``invocation``-th (1-based) call?"""
        if self.limit and self.fired >= self.limit:
            return False
        if self.at:
            return invocation in self.at
        if self.every:
            return invocation % self.every == 0
        if self.probability:
            assert self._rng is not None
            return self._rng.random() < self.probability
        return True  # unconditional: every invocation


class FaultInjector:
    """A seeded collection of :class:`FaultRule` s, one counter per site.

    Thread-safe: the serving tier fires sites from the event loop, swap
    worker threads and the supervisor concurrently.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._rules: dict[str, list[FaultRule]] = {}
        #: per-site invocation counts (every ``fire``, matched or not)
        self.invocations: dict[str, int] = {}
        #: per-site counts of invocations that returned an action
        self.fires: dict[str, int] = {}
        #: optional ``callable(site)`` invoked once per fire.  The in-process
        #: counters above are invisible outside this process; serving servers
        #: point the sink at their shared-metrics-board row
        #: (``SlotMetrics.observe_fault``) so multi-process chaos runs report
        #: fires per site in ``/metrics``.
        self.sink = None

    def plan(
        self,
        site: str,
        *,
        at: tuple = (),
        every: int = 0,
        probability: float = 0.0,
        limit: int = 0,
        **action: object,
    ) -> FaultRule:
        """Register a fault at ``site``; ``**action`` is what :meth:`fire` returns.

        Exactly one of ``at`` (1-based invocation numbers), ``every``
        (period) or ``probability`` (seeded coin flip) selects invocations;
        none of them means *every* invocation.  ``limit`` caps total fires.
        """
        given = sum([bool(at), bool(every), bool(probability > 0.0)])
        if given > 1:
            raise ValueError("plan() takes at most one of at=, every=, probability=")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        rule = FaultRule(
            site=str(site),
            action=dict(action),
            at=frozenset(int(i) for i in at),
            every=int(every),
            probability=float(probability),
            limit=int(limit),
        )
        if rule.probability:
            # Per-rule deterministic stream: seed x site x rule index.
            index = len(self._rules.get(rule.site, ()))
            rule._rng = random.Random(
                (self.seed << 32) ^ zlib.crc32(rule.site.encode("utf-8")) ^ index
            )
        with self._lock:
            self._rules.setdefault(rule.site, []).append(rule)
        return rule

    def fire(self, site: str) -> dict | None:
        """Advance ``site``'s counter; return the matching action, if any."""
        action = None
        with self._lock:
            count = self.invocations.get(site, 0) + 1
            self.invocations[site] = count
            for rule in self._rules.get(site, ()):
                if rule.matches(count):
                    rule.fired += 1
                    self.fires[site] = self.fires.get(site, 0) + 1
                    action = dict(rule.action)
                    break
        if action is not None and self.sink is not None:
            try:  # a broken sink must never turn a planned fault into a crash
                self.sink(site)
            except Exception:  # reprolint: disable=REP-E601 metrics sink is best-effort; the fault action must still fire
                pass
        return action

    @classmethod
    def from_specs(cls, specs, *, seed: int = 0) -> "FaultInjector":
        """Build an injector from JSON-safe plan specs.

        Each spec is ``{"site": ..., "at"/"every"/"probability"/"limit": ...,
        "action": {...}}`` — the picklable form the coordinator ships to
        spawned worker processes (injectors themselves are per-process and do
        not cross ``spawn``).
        """
        injector = cls(seed=seed)
        for spec in specs:
            spec = dict(spec)
            injector.plan(
                spec["site"],
                at=tuple(spec.get("at", ())),
                every=int(spec.get("every", 0)),
                probability=float(spec.get("probability", 0.0)),
                limit=int(spec.get("limit", 0)),
                **dict(spec.get("action", {})),
            )
        return injector

    @property
    def stats(self) -> dict[str, dict[str, int]]:
        """JSON-safe ``{"invocations": ..., "fires": ...}`` counters."""
        with self._lock:
            return {
                "invocations": dict(self.invocations),
                "fires": dict(self.fires),
            }


# --------------------------------------------------------------------------- #
# Process-global installation
# --------------------------------------------------------------------------- #
_ACTIVE: FaultInjector | None = None
_GUARD = threading.Lock()


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process's active injector (replacing any)."""
    global _ACTIVE
    with _GUARD:
        _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Deactivate fault injection; every site becomes a no-op again."""
    global _ACTIVE
    with _GUARD:
        _ACTIVE = None


def active() -> FaultInjector | None:
    """The installed injector, or ``None``."""
    return _ACTIVE


def fire(site: str) -> dict | None:
    """Production-side hook: the planned action for ``site``, or ``None``."""
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.fire(site)


@contextmanager
def injected(injector: FaultInjector):
    """``with``-scoped :func:`install` that always uninstalls on exit."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
