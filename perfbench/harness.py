"""Plumbing shared by the benchmark workloads.

Statistics, provenance, memory probes, failure accounting, span recording
through ``repro.obs``, scratch directories and the result printer.  Nothing
here knows about a particular workload.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: every file a run writes lives under here and is removed when the run ends
SCRATCH = ROOT / ".bench_tmp"


class BenchError(Exception):
    """The benchmark could not run (as opposed to a check that failed)."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(values, scale: float = 1.0) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    summary = {"n": n, "p50": median(values) * scale, "max": max(values) * scale}
    for pct in _TAILS:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= 10:
            summary["tail"] = {
                "pct": pct,
                "value": percentile(values, pct) * scale,
                "beyond": beyond,
            }
            break
    return summary


# ---------------------------------------------------------------------- #
# Memory and CPU probes (Linux /proc)
# ---------------------------------------------------------------------- #
def proc_status_kb(pid, field: str) -> int:
    """A ``VmHWM``/``VmRSS``-style field of ``/proc/<pid>/status`` in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field}")


def reset_peak_rss() -> bool:
    """Reset this process's high-water RSS to its current RSS, if allowed.

    Free heap pages go back to the system first (glibc only), so the next
    peak counts memory newly touched, not memory the allocator kept.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def proc_cpu_seconds(pid) -> float:
    """User + system CPU seconds of one process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


# ---------------------------------------------------------------------- #
# Failure accounting
# ---------------------------------------------------------------------- #
class Ledger:
    """Operations attempted and failed, with the first few failure reasons.

    An operation is a request, a delta or a condensation.  It fails on an
    error status, a connection error, a wrong label or version, or a failed
    identity check; an operation fails at most once however many checks it
    breaks.
    """

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        """Count one operation; ``problem`` is None when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < self.KEEP:
                self.reasons.append(problem)


# ---------------------------------------------------------------------- #
# Per-layer spans
# ---------------------------------------------------------------------- #
class LayerRecorder:
    """Times calls into the layers with spans recorded through ``repro.obs``.

    The spans are opened here, around public calls, one after another; the
    program's own spans nest inside them but are not read.  Durations are
    captured by an ``on_finish`` hook, so a full ring buffer cannot drop them.
    """

    PREFIX = "bench."

    def __init__(self, obs) -> None:
        self.obs = obs
        self.durations: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def tracing(self):
        with self.obs.tracing("perfbench") as tracer:
            tracer.on_finish.append(self._on_finish)
            yield

    def span(self, layer: str, **attrs):
        return self.obs.span(self.PREFIX + layer, **attrs)

    def _on_finish(self, span) -> None:
        if span.name.startswith(self.PREFIX):
            self.durations[span.name[len(self.PREFIX):]].append(span.duration_s)

    def median_s(self, layer: str) -> float:
        if not self.durations.get(layer):
            raise BenchError(f"no span was recorded for layer {layer!r}")
        return median(self.durations[layer])


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def _git_revision() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    # A checkout nested in some other repository must not report that one.
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({
                line.split()[-1] for line in handle
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": _git_revision(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------- #
# Scratch directories
# ---------------------------------------------------------------------- #
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@contextmanager
def scratch_dir():
    """A fresh directory under the checkout, removed on every exit path.

    Directories left by a run that was killed outright (its pid is gone)
    are swept first, so back-to-back runs never see a predecessor's files.
    """
    SCRATCH.mkdir(exist_ok=True)
    for stale in SCRATCH.iterdir():
        owner = stale.name.split("-", 1)[0]
        if owner.isdigit() and not _pid_alive(int(owner)):
            shutil.rmtree(stale, ignore_errors=True)
    path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(workload: str, trace: bool, ledger: Ledger, metrics: dict, report: dict) -> bool:
    """Print the report lines, then the one-line result; returns correctness."""
    correct = ledger.failed == 0
    notes = report.get("gated_as", {})
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload}  {name} = {entry['value']:.6g} {entry['unit']}{note}")
    for name, summary in report.get("timings", {}).items():
        tail = summary.get("tail")
        tail_text = (
            f", p{tail['pct']:g} {tail['value']:.6g} ({tail['beyond']} beyond)"
            if tail else ", too few samples for a tail"
        )
        print(f"{workload}  {name}: p50 {summary['p50']:.6g}{tail_text}, n={summary['n']}")
    print(f"{workload}  attempted {ledger.attempted}, failed {ledger.failed}")
    for reason in ledger.reasons:
        print(f"{workload}  FAILED: {reason}")
    report = {"workload": workload, "trace": trace, "failures": ledger.reasons, **report}
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return correct
