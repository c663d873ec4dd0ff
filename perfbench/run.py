"""The repo benchmark: one command per workload, end-to-end or per-layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload condense-acm4 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Workloads, all at the paper's settings and every server flag at its default:

``condense-acm4``
    Cold ``FreeHGC(max_hops=3).condense`` of ``acm`` at scale 4, ratio
    0.024, repeated for the run; then one SeHGNN fitted on the condensed
    graph and tested on the full graph.
``serve-read``
    ``python -m repro serve --dataset acm --scale 1 --ratio 0.05 --port 0``
    under two keep-alive connections POSTing ``/predict`` in a closed loop,
    16 ids per request drawn by the seed.
``serve-swap``
    The same server as the replicated tier (``--workers 1 --wal ...``): one
    connection reads as above while another POSTs a seeded delta schedule
    back to back.

``--trace 0`` prints the end-to-end metrics.  Every workload reports every
one, so each is defined per workload:

================  =================  ==================  ===================
metric            condense-acm4      serve-read          serve-swap
================  =================  ==================  ===================
setup_s           dataset load       spawn to first 200  spawn to a worker's
                                                         first 200
peak_rss_mb       this process       the server          coordinator+worker,
                                                         after 8 swaps
accuracy          SeHGNN, test set   served test labels  mean over versions
                                                         1 to 9
latency_p50_ms    cold condense()    /predict            /predict
throughput_per_s  condense() per s   /predict per s      1 / median /delta
================  =================  ==================  ===================

The lines before the result also give each timing's median, its highest
percentile with ten samples beyond it and its sample count (``read_p99``,
``swap_s``, ...), plus provenance and the load generator's CPU share.

``--trace 1`` runs the same workload and prints the per-layer metrics,
timed by spans recorded through ``repro.obs`` around calls the benchmark
makes one after another; a layer the workload does not drive reads 0.
Every run checks its outputs; any failed check makes ``correct`` false and
the exit status 1.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import traceback

from harness import ROOT, BenchError, Ledger, emit, import_repro, metric, provenance

WORKLOADS = ("condense-acm4", "serve-read", "serve-swap")


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool) -> bool:
    import_repro()
    import wl_condense
    import wl_serve

    runner = {
        "condense-acm4": wl_condense.run,
        "serve-read": wl_serve.run_read,
        "serve-swap": wl_serve.run_swap,
    }[name]
    ledger = Ledger()
    metrics, report = runner(seed=seed, seconds=seconds, trace=trace, ledger=ledger)
    declared = _declared("per_layer" if trace else "end_to_end")
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise BenchError(f"metrics {unknown} are not declared in BENCHMARK.json")
    for layer, unit in declared.items():
        if trace:
            metrics.setdefault(layer, metric(0.0, unit))
        elif layer not in metrics:
            raise BenchError(f"workload {name} did not measure {layer}")
        if metrics[layer]["unit"] != unit:
            raise BenchError(f"{layer} is in {metrics[layer]['unit']}, declared {unit}")
        if not math.isfinite(metrics[layer]["value"]):
            ledger.record(f"{layer} is not a finite number")
            metrics[layer]["value"] = 0.0
    report["provenance"] = provenance(seed)
    return emit(name, trace, ledger, {key: metrics[key] for key in declared}, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every output check a bad output and expect it to fail")
    args = parser.parse_args(argv)
    # A parent that ignores SIGINT (a background job) would pass that on to
    # the servers this run spawns, and they would then ignore the SIGINT
    # that shuts them down cleanly.  A handler here resets it for them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        if args.selftest:
            import_repro()
            from checks import selftest

            missed = selftest()
            for case in missed:
                print(f"selftest: NOT caught: {case}")
            return 1 if missed else 0
        if args.workload is None:
            parser.error("--workload is required")
        correct = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
        return 0 if correct else 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception:  # any crash: report it and exit without a result line
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
