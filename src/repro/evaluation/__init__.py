"""Evaluation pipeline: the condense → train → test-on-full-graph protocol."""

from repro._lazy import lazy_exports

# Resolved on first access (PEP 562): the serving tier reads
# ``repro.evaluation.timing`` without loading the pipeline and the models.
_EXPORTS = {
    "repro.evaluation.pipeline": (
        "ExperimentConfig",
        "CONDENSER_NAMES",
        "make_condenser",
        "make_model_factory",
        "run_ratio_sweep",
        "run_generalization_study",
    ),
    "repro.evaluation.protocol": (
        "MethodEvaluation",
        "evaluate_condenser",
        "train_on_condensed",
        "whole_graph_reference",
    ),
    "repro.evaluation.reporting": (
        "format_table",
        "format_markdown_table",
        "format_series",
        "write_report",
        "SWEEP_COLUMNS",
        "TIMING_COLUMNS",
        "sweep_columns",
    ),
    "repro.evaluation.storage": (
        "storage_bytes",
        "storage_megabytes",
        "storage_reduction_percent",
    ),
    "repro.evaluation.timing": ("Stopwatch", "timed", "percentile", "summarize_latencies"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
