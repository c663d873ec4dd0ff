"""Process-pool trace propagation: parallel span trees match serial ones.

The runner ships the trace context into every ProcessPoolExecutor
submission and merges the workers' spans back into the parent collector —
so the *name-path structure* of a traced parallel run must be identical
to the same run executed serially (only scopes and timings differ), for
sweep plans and scenario-matrix plans alike.
"""

from __future__ import annotations

from repro import obs
from repro.evaluation.pipeline import ExperimentConfig
from repro.obs.report import TreeNode, build_tree
from repro.runner import MatrixConfig, execute_plan, plan_matrix, plan_ratio_sweep

TINY = dict(
    dataset="acm",
    ratios=(0.2,),
    methods=("random-hg", "freehgc"),
    model="heterosgc",
    scale=0.1,
    seeds=1,
    epochs=5,
    hidden_dim=8,
    max_hops=2,
)

PLANS = {
    # methods + the whole-graph baseline
    "sweep": lambda: plan_ratio_sweep(ExperimentConfig(**TINY)),
    "matrix": lambda: plan_matrix(
        MatrixConfig(
            datasets=("acm",),
            scales=(0.08,),
            regimes=("steady", "hub-deletion"),
            steps=2,
            max_hops=2,
        )
    ),
}


def name_tree(node: TreeNode):
    """Recursive (name, count, children) shape, order-insensitive."""
    return (
        node.name,
        node.count,
        tuple(sorted(name_tree(c) for c in node.children.values())),
    )


def traced_run(plan, trace_id, **kwargs):
    with obs.tracing(trace_id) as tracer:
        with obs.span("plan"):
            outcomes = execute_plan(plan, **kwargs)
        spans = tracer.drain_spans()
    return outcomes, spans


def test_parallel_span_tree_matches_serial():
    for kind, make_plan in PLANS.items():
        check_parallel_tree_matches_serial(kind, make_plan())


def check_parallel_tree_matches_serial(kind, plan):
    # force=True bypasses the per-process condensed-artifact memo: forked
    # workers inherit the parent's memo, which would hide their condense
    # spans and make the trees trivially different.  The dataset memo is
    # warmed instead: otherwise the serial run's first cell generates the
    # graph under a ``datasets.generate`` span that the forked workers,
    # inheriting the loaded graph, never open.
    execute_plan(plan)
    serial_outcomes, serial_spans = traced_run(plan, "t-serial", force=True)
    parallel_outcomes, parallel_spans = traced_run(plan, "t-parallel", workers=2, force=True)

    if kind == "sweep":
        for a, b in zip(serial_outcomes, parallel_outcomes):
            assert a.result.accuracies == b.result.accuracies

    # Every worker span must have merged back into the parent collector and
    # parent into the same name-paths the serial run produces.
    assert name_tree(build_tree(serial_spans)) == name_tree(build_tree(parallel_spans))
    assert any(s.scope.startswith("cell-") for s in parallel_spans)
    assert all(s.scope == "main" for s in serial_spans)
    for spans in (serial_spans, parallel_spans):
        # one runner.cell span per plan cell ...
        cells = {s.span_id: s for s in spans if s.name == "runner.cell"}
        assert len(cells) == len(plan) == len(serial_outcomes)
        if kind == "matrix":
            # ... with that cell's delta replay beneath it
            steps = [s for s in spans if s.name == "stream.step"]
            assert len(steps) == sum(cell.steps for cell in plan)
            for cell_span in cells.values():
                under = [s for s in steps if s.parent_id == cell_span.span_id]
                assert len(under) == plan.cells[cell_span.attrs["index"]].steps
