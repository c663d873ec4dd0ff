"""The ``python -m repro`` command line.

Eight subcommands drive the planner/executor/store/serving stack end to end:

``sweep``
    Table III-style ratio sweep: every (method, ratio) cell plus the
    whole-graph reference, rendered as an aligned text table.
``generalize``
    Table IV-style grid: every method's condensed graph trains every model;
    condensation is shared across the models of a row.
``stream``
    Replay an evolving-graph delta schedule through incremental
    condensation, optionally verifying byte-identity per step.
``serve``
    Online inference endpoint: micro-batched predictions over HTTP with
    zero-downtime hot-swap on streaming deltas (``docs/serving.md``).
``matrix``
    Scenario matrix: {dataset × scale × churn regime × serving load} cells
    run resumably through the artifact store, each verified for
    byte-identity and checked against regression gates derived from the
    committed ``BENCH_*.json`` baselines (``docs/testing.md``).
``report``
    Render rows from a store's artifacts without running anything.
``lint``
    The ``reprolint`` static-analysis pass: AST rules encoding the repo's
    determinism, durability, cache-guard and async/process-safety
    invariants (``docs/linting.md``).
``list``
    Show every registered dataset, condenser, model and stage strategy,
    plus the serving components (``--json`` for machine-readable output).

Runs are **resumable**: completed cells land in the artifact store (default
``./runs``) keyed by a content hash of the cell, and re-invoking the same
command skips them.  ``--workers N`` fans independent cells out over N
processes without changing any reported number (see
:mod:`repro.runner.executor`).

Example::

    python -m repro sweep --dataset acm --ratios 0.01,0.05 --workers 4
    python -m repro report --store runs --markdown
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, Sequence

from repro import registry
from repro.errors import ReproError
from repro.evaluation.pipeline import ExperimentConfig
from repro.evaluation.protocol import MethodEvaluation
from repro.evaluation.reporting import (
    format_markdown_table,
    format_table,
    sweep_columns,
    write_report,
)
from repro.evaluation.timing import Stopwatch
from repro.runner.cache import ArtifactStore
from repro.runner.executor import CellOutcome, execute_plan
from repro.runner.gates import derive_matrix_gates
from repro.runner.matrix import MatrixConfig, consolidate, plan_matrix
from repro.runner.plan import (
    ExperimentPlan,
    GeneralizationConfig,
    ServeConfig,
    StreamConfig,
    assemble_generalization_rows,
    plan_generalization,
    plan_ratio_sweep,
)

__all__ = ["main", "build_parser"]


def _csv(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return items


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in _csv(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}: {exc}") from exc


#: Every option that sets a config field, declared once and keyed by that
#: field (its argparse ``dest``).  No default is written here:
#: :func:`_add_options` reads each from the subcommand's config dataclass.
_OPTIONS: dict[str, tuple[str, dict]] = {
    # the experiment group, shared by every subcommand whose config has the field
    "dataset": ("--dataset", dict(help="registered dataset name (see `list`)")),
    "ratio": ("--ratio", dict(type=float, help="condensation ratio")),
    "scale": ("--scale", dict(type=float, help="synthetic graph size multiplier")),
    "seed": ("--seed", dict(type=int, help="schedule, condensation and training seed")),
    "max_hops": ("--max-hops", dict(
        type=int, metavar="K",
        help="meta-path hop limit (default: the dataset's paper value, capped at 3)")),
    "model": ("--model", dict(help="evaluation model trained on the condensed graph")),
    "hidden_dim": ("--hidden-dim", dict(type=int, help="evaluation-model hidden dimension")),
    "epochs": ("--epochs", dict(type=int, help="evaluation-model training epochs")),
    "recondense_threshold": ("--recondense-threshold", dict(
        type=float, help="edge fraction above which a step recondenses from scratch")),
    # trials
    "seeds": ("--seeds", dict(type=int, metavar="N", help="repeated trials per cell")),
    "base_seed": ("--base-seed", dict(type=int, help="root random seed")),
    "fast_optimization": ("--paper-loops", dict(
        action="store_false",
        help="use paper-scale optimisation loops for GCond/HGCond (slow)")),
    "methods": ("--methods", dict(type=_csv, metavar="M1,M2,...", help="condenser names")),
    "models": ("--models", dict(type=_csv, metavar="M1,M2,...", help="evaluation models")),
    "include_whole": ("--no-whole", dict(
        action="store_false", help="skip the whole-graph reference row")),
    # delta replay
    "steps": ("--steps", dict(type=int, help="delta steps to replay")),
    "verify_every": ("--verify-every", dict(
        type=int, metavar="N",
        help="every N steps, recondense fully and check the incremental result is "
             "byte-identical; 0 checks never in stream, the final step in matrix")),
    "eval_every": ("--eval-every", dict(
        type=int, metavar="N",
        help="every N steps, train a model on the condensed graph and report "
             "full-graph test accuracy (0 = off)")),
    "edge_churn": ("--edge-churn", dict(
        type=float, help="per-step churned edge fraction per relation")),
    "relations": ("--relations", dict(
        type=_csv, metavar="R1,R2,...", help="relations to churn (default: all)")),
    "node_arrival_every": ("--arrivals-every", dict(
        type=int, metavar="N", help="insert nodes every N steps (0 = disabled)")),
    "arrival_count": ("--arrival-count", dict(
        type=int, help="nodes inserted per type per arrival step")),
    "removal_every": ("--removals-every", dict(
        type=int, metavar="N", help="tombstone nodes every N steps (0 = disabled)")),
    "removal_count": ("--removal-count", dict(
        type=int, help="nodes tombstoned per type per removal step")),
    # serving
    "host": ("--host", dict(help="bind address")),
    "port": ("--port", dict(type=int, help="TCP port; 0 picks an ephemeral port")),
    "cache_size": ("--cache-size", dict(
        type=int, help="LRU prediction-cache capacity, 0 disables")),
    "bundle_store": ("--bundle-store", dict(
        metavar="DIR",
        help="published-version store: warm-start from the stored bundle and "
             "publish one after cold start and every retrain")),
    "workers": ("--workers", dict(
        type=int, metavar="N",
        help="run the replicated tier: N predictor worker processes sharing the "
             "port via SO_REUSEPORT, plus a coordinator owning all writes "
             "(0 = single process)")),
    "wal": ("--wal", dict(
        metavar="PATH",
        help="write-ahead log file for the replicated tier; its parent directory "
             "holds published model versions, snapshots and the shared metrics "
             "board (required when --workers > 0)")),
    "snapshot_every": ("--snapshot-every", dict(
        type=int, metavar="N",
        help="checkpoint a model snapshot into the WAL every N committed deltas, "
             "bounding replay time after a crash (0 = never, replay from genesis)")),
    "max_pending": ("--max-pending", dict(
        type=int, metavar="N",
        help="per-process admission limit: shed /predict with 429 beyond N "
             "in-flight requests (0 = unbounded)")),
    "max_body_bytes": ("--max-body-bytes", dict(
        type=int, help="reject request bodies larger than this with 413")),
    # matrix axes
    "datasets": ("--datasets", dict(
        type=_csv, metavar="D1,D2,...", help="registered dataset names")),
    "scales": ("--scales", dict(
        type=_csv_floats, metavar="S1,S2,...", help="graph size multipliers")),
    "regimes": ("--regimes", dict(
        type=_csv, metavar="R1,R2,...", help="churn regimes")),
    "loads": ("--loads", dict(
        type=_csv, metavar="L1,L2,...", help="serving loads: none, light, heavy")),
    "inject_faults": ("--inject-faults", dict(
        action="store_true",
        help="install the deterministic fault injector in serving-load cells")),
}

#: the experiment group: every subcommand takes the ones its config has
_EXPERIMENT = (
    "dataset", "ratio", "scale", "seed", "max_hops", "model", "hidden_dim",
    "epochs", "recondense_threshold",
)

#: the output group, not config-backed
_OUTPUT_OPTIONS: dict[str, tuple[str, dict]] = {
    "markdown": ("--markdown", dict(action="store_true", help="render a Markdown table")),
    "no_timings": ("--no-timings", dict(
        action="store_true", help="omit wall-clock columns (byte-stable across runs)")),
    "output": ("--output", dict(metavar="PATH", help="also write the table to PATH")),
    "quiet": ("--quiet", dict(action="store_true", help="suppress progress lines")),
}


def _add_options(parser, title: str, config: type, names: Sequence[str]):
    """Add the named :data:`_OPTIONS` of ``config`` as one argument group.

    A field without a default makes its option required; otherwise the
    field's default is the option's, shown in the help.
    """
    group = parser.add_argument_group(title)
    defaults = {spec.name: spec.default for spec in fields(config)}
    for name in names:
        flag, kwargs = _OPTIONS[name]
        kwargs = dict(kwargs, dest=name)
        if defaults[name] is MISSING:
            kwargs["required"] = True
        else:
            kwargs["default"] = defaults[name]
            if defaults[name] is not None and "action" not in kwargs:
                kwargs["help"] += " (default: %(default)s)"
        group.add_argument(flag, **kwargs)
    return group


def _add_experiment_options(parser, config: type, *extra: str):
    """The experiment group: the shared options ``config`` has, then ``extra``."""
    names = {spec.name for spec in fields(config)}
    return _add_options(
        parser, "experiment", config, [n for n in _EXPERIMENT if n in names] + list(extra)
    )


def _add_output_options(parser, names: Sequence[str] = tuple(_OUTPUT_OPTIONS)) -> None:
    out = parser.add_argument_group("output")
    for name in names:
        flag, kwargs = _OUTPUT_OPTIONS[name]
        out.add_argument(flag, **kwargs)


def _add_store_option(group) -> None:
    group.add_argument("--store", default="runs", metavar="DIR",
                       help="artifact store directory (default: %(default)s)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    run = parser.add_argument_group("run control")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes (default: %(default)s, serial)")
    _add_store_option(run)
    run.add_argument("--no-store", action="store_true",
                     help="disable the artifact store (no caching, no resume)")
    run.add_argument("--force", action="store_true",
                     help="re-run cells even when the store already has them")
    _add_output_options(parser)


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span-tree trace of this run to PATH (JSONL; inspect "
             "with `python -m repro trace report PATH`)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel, resumable reproduction runner for the FreeHGC paper tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        help="Table III ratio sweep: (method, ratio) grid + whole-graph reference",
    )
    exp = _add_experiment_options(
        sweep, ExperimentConfig,
        "seeds", "base_seed", "fast_optimization", "methods", "include_whole",
    )
    exp.add_argument("--ratios", type=_csv_floats, default=None, metavar="R1,R2,...",
                     help="condensation ratios (default: the dataset's paper ratios)")
    _add_run_options(sweep)
    _add_trace_option(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    generalize = sub.add_parser(
        "generalize",
        help="Table IV grid: each method's condensed graph trains every model",
    )
    _add_experiment_options(
        generalize, GeneralizationConfig,
        "seeds", "base_seed", "fast_optimization", "methods", "models",
    )
    _add_run_options(generalize)
    generalize.set_defaults(func=_cmd_generalize)

    stream = sub.add_parser(
        "stream",
        help="replay an evolving-graph delta schedule through incremental condensation",
    )
    _add_experiment_options(stream, StreamConfig, "steps", "verify_every", "eval_every")
    _add_options(stream, "delta schedule", StreamConfig, (
        "edge_churn", "relations", "node_arrival_every", "arrival_count",
        "removal_every", "removal_count",
    ))
    _add_output_options(stream)
    _add_trace_option(stream)
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="online inference endpoint with micro-batching and hot-swap on deltas",
    )
    _add_experiment_options(serve, ServeConfig)
    srv = _add_options(serve, "serving", ServeConfig, (
        "host", "port", "cache_size", "bundle_store",
    ))
    srv.add_argument("--selftest", type=int, default=0, metavar="STEPS",
                     help="do not serve: replay STEPS deltas against an "
                          "in-process server under concurrent load, verify "
                          "every response, then exit (0 = disabled)")
    _add_options(serve, "replication", ServeConfig, (
        "workers", "wal", "snapshot_every", "max_pending", "max_body_bytes",
    ))
    _add_output_options(serve, ("quiet",))
    _add_trace_option(serve)
    serve.set_defaults(func=_cmd_serve)

    matrix = sub.add_parser(
        "matrix",
        help="run the scenario matrix: datasets x scales x churn regimes x loads",
    )
    _add_options(matrix, "matrix axes", MatrixConfig, ("datasets", "scales", "regimes", "loads"))
    _add_experiment_options(matrix, MatrixConfig, "steps", "verify_every", "inject_faults")
    gating = matrix.add_argument_group("regression gates")
    gating.add_argument("--baselines", default=".", metavar="DIR",
                        help="directory holding the committed BENCH_*.json baselines "
                             "(default: %(default)s)")
    gating.add_argument("--no-gates", action="store_true",
                        help="skip baseline-derived regression gates")
    _add_run_options(matrix)
    _add_trace_option(matrix)
    matrix.set_defaults(func=_cmd_matrix)

    report = sub.add_parser("report", help="render stored artifacts as a table, running nothing")
    _add_store_option(report)
    report.add_argument("--dataset", default=None, help="only rows for this dataset")
    _add_output_options(report, ("markdown", "no_timings", "output"))
    report.set_defaults(func=_cmd_report)
    lint = sub.add_parser(
        "lint",
        help="run the repo-invariant static-analysis pass (reprolint)",
        description=(
            "reprolint: AST rules encoding the repo's determinism, durability, "
            "cache-guard and async/process-safety invariants (docs/linting.md). "
            "Exit 0 when clean, 1 on non-baselined findings."
        ),
    )
    lint.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                      help="files/directories to lint (default: src)")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule ids/aliases (default: all rules)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline of grandfathered findings "
                           "(default: tools/reprolint_baseline.json when present)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable report (stable schema)")
    lint.add_argument("--stats", action="store_true",
                      help="per-rule finding/baselined/suppression counts")
    lint.add_argument("--selftest", action="store_true",
                      help="prove every rule fires on its bad fixture and stays "
                           "silent on the good one")
    lint.add_argument("--list-rules", action="store_true",
                      help="show the rule catalogue with invariants")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to cover current findings "
                           "(new entries get TODO reasons to fill in)")
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace",
        help="record and inspect span-tree traces (docs/observability.md)",
        description=(
            "End-to-end tracing: `trace record -- <command>` runs any repro "
            "subcommand with the tracer installed (spawned workers write "
            "per-process sidecar files next to the main trace), `trace "
            "report` aggregates the span forest, `trace flame` emits "
            "collapsed stacks for flamegraph.pl / speedscope."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser(
        "record", help="run another repro command with tracing enabled"
    )
    record.add_argument("--out", default="trace.jsonl", metavar="PATH",
                        help="trace JSONL output file (default: %(default)s)")
    record.add_argument("--trace-id", default=None,
                        help="trace id (default: derived from the recorded command)")
    record.add_argument("--profile", action="store_true",
                        help="also sample RSS (and stamp deltas) per span")
    record.add_argument("--json", action="store_true",
                        help="print the aggregate report as JSON after the run")
    record.add_argument("argv", nargs=argparse.REMAINDER, metavar="-- COMMAND ...",
                        help="the repro command to record, after `--`")
    record.set_defaults(func=_cmd_trace_record)
    trace_report = trace_sub.add_parser(
        "report", help="aggregate + span-tree view of a recorded trace"
    )
    trace_report.add_argument("path",
                              help="trace JSONL file (worker sidecars `<path>.*` are merged)")
    trace_report.add_argument("--json", action="store_true",
                              help="emit the machine-readable report "
                                   "(schema repro.trace.report.v1)")
    trace_report.set_defaults(func=_cmd_trace_report)
    flame = trace_sub.add_parser(
        "flame", help="collapsed-stack output for flamegraph.pl / speedscope"
    )
    flame.add_argument("path",
                       help="trace JSONL file (worker sidecars `<path>.*` are merged)")
    flame.add_argument("--output", metavar="PATH",
                       help="write collapsed stacks to PATH instead of stdout")
    flame.set_defaults(func=_cmd_trace_flame)

    list_cmd = sub.add_parser("list", help="list registered components")
    list_cmd.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=(
            "all", "datasets", "condensers", "models",
            "target-stages", "other-stages", "serving", "lint",
        ),
        help="which registry to list (default: %(default)s)",
    )
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the listing as one machine-readable JSON object",
    )
    list_cmd.set_defaults(func=_cmd_list)

    return parser


# ---------------------------------------------------------------------- #
# Subcommand implementations
# ---------------------------------------------------------------------- #
def _progress_printer(quiet: bool) -> Callable[[CellOutcome, int, int], None] | None:
    if quiet:
        return None
    done = [0]

    def progress(outcome: CellOutcome, index: int, total: int) -> None:
        done[0] += 1
        status = "cached" if outcome.cached else f"ran {outcome.elapsed_s:.2f}s"
        print(f"[{done[0]}/{total}] {outcome.cell.label()}  {status}", flush=True)

    return progress


@contextmanager
def _maybe_trace(args: argparse.Namespace):
    """Install a tracer around a subcommand when it was given ``--trace``.

    The trace id is derived from the command's own parameters (never the
    clock), and the file/id are exported into the environment so spawned
    worker processes join the session via
    :func:`repro.obs.bootstrap_from_env`.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from repro import obs

    dataset = getattr(args, "dataset", None) or ",".join(
        str(d) for d in (getattr(args, "datasets", None) or ())
    ) or "run"
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = getattr(args, "base_seed", 0)
    trace_id = f"{args.command}-{dataset}-s{seed}"
    with obs.tracing(trace_id, path=path, export_env=True):
        yield
    if not getattr(args, "quiet", False):
        print(f"trace written to {path}", flush=True)


def _trace_paths(base: str | Path) -> list[Path]:
    """The main trace file plus every sidecar next to it.

    Sidecars are ``<base>.<scope>`` (per-process) and ``<base>.<n>``
    (rotation) files; all carry the same trace and merge into one forest.
    Temp files of an unfinished rotation are not part of the trace, and a
    rotation that crashed before recreating ``<base>`` leaves its spans in
    the sidecars.
    """
    from repro.utils.durable import is_temp

    base = Path(base)
    sidecars = sorted(
        p for p in base.parent.glob(f"{base.name}.*") if p.is_file() and not is_temp(p.name)
    )
    paths = [base, *sidecars] if base.exists() else sidecars
    if not paths:
        raise ReproError(f"no trace file at {base}")
    return paths


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.spans import read_trace_tree

    argv = list(args.argv)
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        raise ReproError(
            "trace record needs a command to record, e.g. "
            "`trace record --out run.jsonl -- stream --dataset acm --ratio 0.2`"
        )
    if argv[0] == "trace":
        raise ReproError("trace record cannot record the trace command itself")
    try:
        inner = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    profiler = None
    if args.profile:
        from repro.obs.profile import SpanProfiler

        profiler = SpanProfiler()
    trace_id = args.trace_id or f"repro-{argv[0]}"
    with obs.tracing(trace_id, path=args.out, profiler=profiler, export_env=True):
        code = inner.func(inner)
    header, spans = read_trace_tree(_trace_paths(args.out))
    if args.json:
        import json

        from repro.obs.report import report_obj

        print(json.dumps(report_obj(header, spans), indent=2, sort_keys=True))
    else:
        print(f"recorded {len(spans)} spans (trace {header['trace_id']!r}) to {args.out}")
    return code


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.spans import read_trace_tree

    header, spans = read_trace_tree(_trace_paths(args.path))
    if args.json:
        import json

        from repro.obs.report import report_obj

        print(json.dumps(report_obj(header, spans), indent=2, sort_keys=True))
    else:
        from repro.obs.report import render_report

        print(render_report(header, spans))
    return 0


def _cmd_trace_flame(args: argparse.Namespace) -> int:
    from repro.obs.report import collapsed_stacks
    from repro.obs.spans import read_trace_tree

    _, spans = read_trace_tree(_trace_paths(args.path))
    text = "\n".join(collapsed_stacks(spans)) + "\n"
    if args.output:
        write_report(text, args.output)
    else:
        print(text, end="")
    return 0


def _config(cls: type, args: argparse.Namespace, **values: object):
    """Build config ``cls`` from the parsed options named like its fields;
    ``values`` take precedence."""
    names = {spec.name for spec in fields(cls)}
    return cls(**{**{k: v for k, v in vars(args).items() if k in names}, **values})


def _render(rows: Sequence[dict], args: argparse.Namespace, *, title: str,
            columns: Sequence[str] | None = None) -> str:
    if args.markdown:
        text = format_markdown_table(rows, columns=columns)
        if title:
            text = f"**{title}**\n\n{text}"
    else:
        text = format_table(rows, columns=columns, title=title)
    print(text)
    if args.output:
        write_report(text, args.output)
    return text


def _run_plan(plan: ExperimentPlan, args: argparse.Namespace) -> list[CellOutcome]:
    """Execute ``plan`` under the run-control options and print the summary."""
    watch = Stopwatch()
    with watch.measure("run"):
        outcomes = execute_plan(
            plan,
            workers=args.workers,
            store=None if args.no_store else args.store,
            force=args.force,
            progress=_progress_printer(args.quiet),
        )
    if not args.quiet:
        cached = sum(1 for o in outcomes if o.cached)
        print(
            f"{len(outcomes)} cells: {cached} cached, {len(outcomes) - cached} executed "
            f"in {watch.get('run'):.2f}s\n"
        )
    return outcomes


def _cmd_sweep(args: argparse.Namespace) -> int:
    ratios = args.ratios or tuple(registry.datasets.get(args.dataset).paper_ratios)
    outcomes = _run_plan(plan_ratio_sweep(_config(ExperimentConfig, args, ratios=ratios)), args)
    _render(
        [outcome.result.as_row() for outcome in outcomes],
        args,
        title=f"Ratio sweep — {args.dataset} ({args.model} test model)",
        columns=sweep_columns(include_timings=not args.no_timings),
    )
    return 0


def _cmd_generalize(args: argparse.Namespace) -> int:
    config = _config(GeneralizationConfig, args)
    plan = plan_generalization(config)
    outcomes = _run_plan(plan, args)
    evaluations = {key: o.result for key, o in zip(plan.keys(), outcomes)}
    rows = assemble_generalization_rows(config, evaluations, plan=plan)
    _render(
        rows,
        args,
        title=f"Generalization — {args.dataset} @ ratio {args.ratio:g}",
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.condenser import FreeHGC
    from repro.datasets.generators import generate_delta_schedule
    from repro.evaluation.pipeline import make_model_factory
    from repro.evaluation.protocol import train_on_condensed
    from repro.streaming import IncrementalCondenser, replay, summarize

    config = _config(StreamConfig, args)
    entry = registry.datasets.get(config.dataset)
    graph = entry.loader(scale=config.scale, seed=config.seed)
    max_hops = config.resolved_max_hops()
    schedule = generate_delta_schedule(
        graph,
        steps=config.steps,
        seed=config.seed,
        edge_churn=config.edge_churn,
        relations=config.relations,
        node_arrival_every=config.node_arrival_every,
        arrival_count=config.arrival_count,
        removal_every=config.removal_every,
        removal_count=config.removal_count,
    )
    incremental = IncrementalCondenser(
        graph,
        condenser=FreeHGC(max_hops=max_hops),
        ratio=config.ratio,
        recondense_threshold=config.recondense_threshold,
        seed=config.seed,
    )
    model_factory = None
    if config.eval_every:
        model_factory = make_model_factory(
            config.model,
            hidden_dim=config.hidden_dim,
            epochs=config.epochs,
            max_hops=max_hops,
            seed=config.seed,
        )

    def quality(condensed) -> str:
        if model_factory is None:
            return ""
        model, _ = train_on_condensed(condensed, model_factory, incremental.graph)
        return f"{model.evaluate(incremental.graph):.4f}"

    watch = Stopwatch()
    with watch.measure("cold"):
        base = incremental.condense()
    rows: list[dict] = [
        {
            "step": 0,
            "mode": "full",
            "step_s": f"{watch.get('cold'):.3f}",
            "drift": 0,
            "accuracy": quality(base),
        }
    ]
    if not args.quiet:
        print(f"step 0: cold condensation in {watch.get('cold'):.3f}s", flush=True)
    records = []
    for record in replay(incremental, schedule, verify_every=config.verify_every):
        records.append(record)
        verified = {None: "", True: "identical", False: "MISMATCH"}[record.identical]
        apply_report = record.apply_report
        rows.append(
            {
                "step": record.step,
                "mode": record.mode,
                "edges±": f"+{apply_report.edges_added}/-{apply_report.edges_removed}",
                "nodes±": f"+{apply_report.nodes_added}/-{apply_report.nodes_removed}",
                "delta%": f"{100.0 * record.edge_fraction:.2f}",
                "step_s": f"{record.step_seconds:.3f}",
                "drift": record.selection_drift,
                "verified": verified,
                "full_s": "" if record.full_seconds is None else f"{record.full_seconds:.3f}",
                "accuracy": (
                    quality(record.condensed)
                    if config.eval_every and record.step % config.eval_every == 0
                    else ""
                ),
            }
        )
        if not args.quiet:
            extra = f"  [{verified}]" if verified else ""
            print(
                f"step {record.step}: {record.mode} in "
                f"{record.step_seconds:.3f}s drift={record.selection_drift}{extra}",
                flush=True,
            )

    if not args.quiet:
        median_step, median_full, _ = summarize(records)
        summary = f"{len(schedule)} steps"
        if median_step is not None:
            summary += f", median incremental step {median_step:.3f}s"
        if median_full is not None:
            summary += f", median full recondense {median_full:.3f}s"
        memo = incremental.selection_memo.stats
        summary += (
            f" (coverage hits {memo['hits']}, warm starts {memo['warm_starts']}, "
            f"misses {memo['misses']})"
        )
        print(summary + "\n")
    columns = ("step", "mode", "edges±", "nodes±", "delta%", "drift", "verified", "accuracy")
    if not args.no_timings:
        columns = columns[:5] + ("step_s", "full_s") + columns[5:]
    _render(
        rows,
        args,
        title=f"Streaming condensation — {config.dataset} @ ratio {config.ratio:g}",
        columns=[c for c in columns if any(str(row.get(c, "")) for row in rows)],
    )
    return 1 if any(record.identical is False for record in records) else 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    import json as _json

    plan = plan_matrix(_config(MatrixConfig, args))
    gates = () if args.no_gates else derive_matrix_gates(args.baselines)
    if not args.quiet:
        print(f"matrix: {len(plan)} cells ({plan.description}), "
              f"{len(gates)} baseline gates", flush=True)
    report = consolidate(_run_plan(plan, args), gates)

    rows = []
    for entry in report["cells"]:
        cell, result = entry["cell"], entry["result"]
        modes = result.get("modes", {})
        latency = result.get("latency_ms", {})
        speedup = result.get("speedup")
        rows.append(
            {
                "dataset": cell["dataset"],
                "scale": f"{cell['scale']:g}",
                "regime": cell["regime"],
                "load": cell["load"],
                "full/incr": f"{modes.get('full', 0)}/{modes.get('incremental', 0)}",
                "dirty_max": result.get("dirty_targets_max", 0),
                "delta%max": f"{100.0 * result.get('max_edge_fraction', 0.0):.2f}",
                "speedup": "" if speedup is None else f"{speedup:.2f}x",
                "p95_ms": "" if not latency else f"{latency.get('p95', 0.0):.2f}",
                "faults": sum(result.get("fault_fires", {}).values()) or "",
                "verified": (
                    "MISMATCH"
                    if result.get("mismatches")
                    else ("identical" if result.get("verified_checkpoints") else "")
                ),
                "gates": (
                    "FAIL:" + ",".join(entry["failed_gates"])
                    if entry["failed_gates"]
                    else "ok"
                ),
            }
        )
    columns = ("dataset", "scale", "regime", "load", "full/incr", "dirty_max",
               "delta%max", "speedup", "p95_ms", "faults", "verified", "gates")
    if args.no_timings:
        columns = tuple(c for c in columns if c not in ("speedup", "p95_ms"))
    _render(
        rows,
        args,
        title=f"Scenario matrix — {len(plan)} cells",
        columns=[c for c in columns if any(str(row.get(c, "")) for row in rows)],
    )
    if not args.no_store:
        report_path = Path(args.store) / "matrix_report.json"
        report_path.write_text(_json.dumps(report, indent=2, sort_keys=True) + "\n")
        if not args.quiet:
            print(f"wrote {report_path}")
    summary = report["summary"]
    if not args.quiet:
        print(
            f"matrix summary: {summary['total']} cells "
            f"({summary['cached']} cached), "
            f"{summary['verified_checkpoints']} checkpoints verified, "
            f"{summary['mismatches']} mismatches, "
            f"{summary['gate_failures']} gate failures"
        )
    return 0 if summary["passed"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving import ServingServer
    from repro.serving.artifacts import BundleLineage

    config = _config(ServeConfig, args)

    def log(message: str) -> None:
        if not args.quiet:
            print(message, flush=True)

    if config.workers > 0:
        if args.selftest:
            raise ReproError("--selftest runs in-process; drop --workers")
        return _serve_replicated(config, log)

    controller = config.build_controller()
    lineage = BundleLineage(
        config.bundle_store,
        config.bundle_key(),
        controller,
        metadata={"dataset": config.dataset, "ratio": config.ratio, "seed": config.seed},
        log=log,
    )
    log(f"condensing {config.dataset} @ ratio {config.ratio:g} and training {config.model}...")
    lineage.start()
    server = ServingServer(
        controller,
        host=config.host,
        port=config.port,
        # selftest deltas are synthetic: persisting their bundles would
        # shadow the cold-start bundle the next deployment warm-starts from
        on_swap=None if args.selftest else lineage.persist,
    )
    if args.selftest:
        return asyncio.run(_serve_selftest(server, controller, config, args.selftest, log))

    async def run() -> None:
        host, port = await server.start()
        log(f"serving {config.dataset} on http://{host}:{port} "
            f"(endpoints: /healthz /stats /predict /delta)")
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log("interrupted: shutting down")
    return 0


def _serve_replicated(config: ServeConfig, log) -> int:
    """``serve --workers N --wal PATH``: the multi-process replicated tier.

    One coordinator process (this one) owns the WAL and all delta writes;
    ``N`` spawned workers answer ``/predict`` from memory-mapped published
    model versions, all sharing ``config.port`` via ``SO_REUSEPORT``.
    """
    import asyncio

    server = config.replicated_server()
    wal = Path(config.wal)

    async def run() -> None:
        log(f"recovering from WAL {wal} (condense + train on cold start)...")
        host, port = await server.start()
        recovery = server.recovery
        log(f"recovery: mode={recovery['mode']} "
            f"deltas_replayed={recovery['deltas_replayed']} "
            f"quarantined={recovery.get('quarantined', 0)} "
            f"quarantined_now={recovery.get('quarantined_now', 0)} "
            f"version={server.controller.version}")
        if recovery.get("quarantined_now"):
            log(f"quarantine: {recovery['quarantined_now']} poison delta(s) "
                f"dead-lettered during this boot (see {wal}.deadletter)")
        log(f"serving {config.dataset} on http://{host}:{port} with "
            f"{config.workers} workers "
            "(endpoints: /healthz /stats /predict /delta /metrics)")
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log("interrupted: shutting down")
    return 0


async def _serve_selftest(server, controller, config: ServeConfig, steps: int, log) -> int:
    """In-process smoke: concurrent predictions during a live delta replay.

    Every response is verified against a per-version snapshot of the
    session's own predictions, so a response served mid-swap must match
    either the old or the new model — exactly, and stamped with the right
    version.  Returns a non-zero exit code on any dropped or incorrect
    response.
    """
    import asyncio
    import json as _json

    import numpy as np

    from repro.datasets.generators import generate_delta_schedule

    host, port = await server.start()
    log(f"selftest server on http://{host}:{port}")
    num_targets = controller.session.num_targets
    all_ids = np.arange(num_targets, dtype=np.int64)
    def snapshot() -> "np.ndarray":
        # Reference labels straight from the logits, bypassing the LRU
        # cache, so the selftest also catches bad cache carry-over.
        return np.argmax(controller.session.logits(all_ids), axis=-1)

    expected = {controller.version: snapshot()}
    rng = np.random.default_rng(config.seed + 17)
    schedule = generate_delta_schedule(
        controller.graph, steps=steps, seed=config.seed + 1, edge_churn=0.005
    )
    failures = 0
    answered = 0

    async def request(method: str, path: str, payload: dict | None = None) -> dict:
        reader, writer = await asyncio.open_connection(host, port)
        body = _json.dumps(payload or {}).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, response_body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return {"http_status": status, "body": _json.loads(response_body or b"{}")}

    async def verified_predict() -> None:
        nonlocal failures, answered
        ids = rng.choice(num_targets, size=min(16, num_targets), replace=False)
        response = await request("POST", "/predict", {"nodes": ids.tolist()})
        answered += 1
        if response["http_status"] != 200:
            failures += 1
            return
        version = response["body"]["version"]
        reference = expected.get(version)
        if reference is None and version == controller.version:
            # A swap can land between our done() check and this response;
            # snapshot the (deterministic) new session lazily.
            reference = snapshot()
            expected[version] = reference
        if reference is None or not np.array_equal(
            np.asarray(response["body"]["labels"]), reference[ids]
        ):
            failures += 1

    health = await request("GET", "/healthz")
    if health["http_status"] != 200 or health["body"].get("status") != "ok":
        failures += 1
    for delta in schedule:
        swap_task = asyncio.create_task(
            request("POST", "/delta", delta.to_payload())
        )
        while not swap_task.done():
            await asyncio.gather(*(verified_predict() for _ in range(8)))
        swap = await swap_task
        if swap["http_status"] != 200:
            failures += 1
            continue
        swapped = swap["body"]
        expected.setdefault(swapped["version"], snapshot())
        log(
            f"step {swapped['step']}: version {swapped['version']} "
            f"retrained={swapped['retrained']} dirty={swapped['dirty_count']} "
            f"({answered} verified requests so far)"
        )
        await asyncio.gather(*(verified_predict() for _ in range(8)))
    stats = await request("GET", "/stats")
    await server.close()
    latency = stats["body"].get("latency", {})
    log(
        f"selftest: {answered} requests, {failures} failures, "
        f"p50={latency.get('p50', 0) * 1e3:.2f}ms p95={latency.get('p95', 0) * 1e3:.2f}ms"
    )
    if failures:
        print(f"error: serving selftest had {failures} failed/incorrect responses",
              file=sys.stderr)
        return 1
    return 0


def _dataset_key(name: str) -> str:
    """Alias-aware comparison key: canonical registry name, else lower-case."""
    try:
        return registry.datasets.canonical(name)
    except ReproError:
        return name.strip().lower()


def _cmd_report(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    records = store.records()
    if not records:
        print(f"(no artifacts under {store.root})")
        return 0
    wanted = _dataset_key(args.dataset) if args.dataset else None
    rows = []
    for record in records:
        cell = record.get("cell", {})
        if wanted is not None and _dataset_key(str(cell.get("dataset", ""))) != wanted:
            continue
        evaluation = MethodEvaluation.from_dict(record["result"])
        row = evaluation.as_row()
        row["model"] = cell.get("model", "")
        rows.append(row)
    rows.sort(
        key=lambda row: (
            str(row["dataset"]),
            float(row["ratio"]),
            str(row["method"]),
            str(row["model"]),
        )
    )
    columns = sweep_columns(include_timings=not args.no_timings) + ("model",)
    _render(rows, args, title=f"Stored artifacts — {store.path}", columns=columns)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.lint import run_lint, selftest
    from repro.lint.report import render_human, render_json, render_stats
    from repro.lint.rules import resolve_rules

    rule_names = None
    if args.rules:
        rule_names = [part.strip() for part in args.rules.split(",") if part.strip()]

    if args.list_rules:
        catalogue = resolve_rules(rule_names)
        if args.json:
            payload = {"version": 1, "rules": [rule.describe() for rule in catalogue]}
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            for rule in catalogue:
                print(f"{rule.id}  {rule.name}  [{rule.severity}, {rule.category}]")
                print(f"    {rule.invariant}")
        return 0

    if args.selftest:
        failures = selftest(rule_names)
        if args.json:
            print(_json.dumps(
                {"version": 1, "failures": failures}, indent=2, sort_keys=True
            ))
        else:
            for failure in failures:
                print(f"selftest: FAIL {failure}")
            if not failures:
                count = len(resolve_rules(rule_names))
                print(f"selftest: all {count} rules fire on bad / stay silent on good")
        return 1 if failures else 0

    # Baseline resolution: an explicit --baseline must exist (Baseline.load
    # errors otherwise); the default one is picked up only when present, so
    # fresh checkouts and temp dirs lint without ceremony.
    baseline = args.baseline
    if baseline is None:
        default = Path("tools") / "reprolint_baseline.json"
        if default.exists():
            baseline = str(default)

    if args.update_baseline:
        target = args.baseline or str(Path("tools") / "reprolint_baseline.json")
        existing = baseline if baseline is not None and Path(baseline).exists() else None
        report = run_lint(args.paths, rules=rule_names, baseline=existing)
        updated = report.updated_baseline()
        updated.save(target)
        print(
            f"wrote {len(updated)} baseline entr"
            f"{'y' if len(updated) == 1 else 'ies'} to {target}"
        )
        return 0

    report = run_lint(args.paths, rules=rule_names, baseline=baseline)
    if args.json:
        print(render_json(report))
    elif args.stats:
        print(render_stats(report))
    else:
        print(render_human(report))
    return report.exit_code


#: serving is not a registry — its components are the fixed serving stack,
#: listed alongside the registries so deployment tooling can discover them
_SERVING_COMPONENTS = {
    "engine": "InferenceSession — micro-batched prediction over pre-computed features",
    "controller": "ServingController — zero-downtime hot-swap on streaming deltas",
    "server": "ServingServer — stdlib asyncio HTTP endpoint (python -m repro serve)",
    "wal": "DeltaWAL — durable write-ahead delta log with snapshot checkpoints",
    "replicated": "ReplicatedServer — coordinator + SO_REUSEPORT worker pool over "
                  "mmap-shared model versions (python -m repro serve --workers N)",
}

_SERVING_ENDPOINTS = (
    "GET /healthz",
    "GET /stats",
    "GET /metrics",
    "POST /predict",
    "POST /delta",
)


#: text-listing title of each ``list`` section
_LIST_TITLES = {
    "datasets": "datasets",
    "condensers": "condensers",
    "models": "models",
    "target-stages": "target stages",
    "other-stages": "father/leaf stages",
    "serving": "serving",
    "lint": "lint rules (python -m repro lint)",
}


def _listing(what: str) -> dict[str, object]:
    """The ``list`` payload: every requested section, as JSON-safe data."""

    def names(reg: registry.Registry) -> dict[str, dict]:
        return {name: {"aliases": list(reg.aliases_of(name))} for name in reg.names()}

    def lint() -> dict:
        from repro.lint import all_rules

        return {
            "rules": {rule.id: rule.describe() for rule in all_rules()},
            "subcommand": "python -m repro lint",
        }

    sections: dict[str, Callable[[], object]] = {
        "datasets": lambda: {
            name: {
                "aliases": list(registry.datasets.aliases_of(name)),
                "paper_ratios": [float(r) for r in registry.datasets.get(name).paper_ratios],
                "max_hops": int(registry.datasets.get(name).max_hops),
            }
            for name in registry.datasets.names()
        },
        "condensers": lambda: names(registry.condensers),
        "models": lambda: names(registry.models),
        "target-stages": lambda: names(registry.target_stages),
        "other-stages": lambda: names(registry.other_stages),
        "serving": lambda: {
            "components": dict(_SERVING_COMPONENTS),
            "endpoints": list(_SERVING_ENDPOINTS),
            "subcommand": "python -m repro serve",
        },
        "lint": lint,
    }
    wanted = sections if what == "all" else {what: sections[what]}
    return {name: build() for name, build in wanted.items()}


def _cmd_list(args: argparse.Namespace) -> int:
    listing = _listing(args.what)
    if args.json:
        import json as _json

        print(_json.dumps(listing, indent=2, sort_keys=True))
        return 0
    for section, entries in listing.items():
        print(f"{_LIST_TITLES[section]}:")
        if section == "serving":
            for name, description in entries["components"].items():
                print(f"  {name}  {description}")
            print(f"  endpoints: {', '.join(entries['endpoints'])}")
        elif section == "lint":
            for rule in entries["rules"].values():
                print(f"  {rule['id']}  {rule['name']}  [{rule['severity']}]")
        else:
            for name, entry in entries.items():
                aliases = entry["aliases"]
                line = f"  {name}  (aliases: {', '.join(aliases)})" if aliases else f"  {name}"
                if "paper_ratios" in entry:
                    ratios = ", ".join(f"{r:g}" for r in entry["paper_ratios"])
                    line += f"  [paper ratios: {ratios}; max hops: {entry['max_hops']}]"
                print(line)
        print()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Parameters
    ----------
    argv:
        Argument list (defaults to ``sys.argv[1:]``).

    Returns
    -------
    int
        ``0`` on success, ``2`` on a library-level error (unknown dataset,
        infeasible ratio, ...).
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its usage/choice message; translate the
        # exit into a plain return code (2 for bad usage, 0 for --help) so
        # programmatic callers never see a SystemExit traceback.
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _maybe_trace(args):
            return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer went away (e.g. `python -m repro list | head`):
        # silence the shutdown-time flush error and exit cleanly.
        import os

        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except KeyboardInterrupt:
        return 130
