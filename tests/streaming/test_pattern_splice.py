"""A streaming step splices each patched path's kept index pattern.

NIM's operator ``S`` is rebuilt on the spliced pattern, so after every step
the pattern and ``S`` of each patched path must equal a from-scratch build
byte for byte: same values, same index arrays, same dtypes.  No multi-hop
path may hold unit CSR data after any step.
"""

from __future__ import annotations

import pytest

import repro.streaming.patch as patch_module
from repro.core import FreeHGC
from repro.core.metapaths import MetaPath, compose_packed
from repro.core.neighbor_influence import _scaled_adjacency
from repro.datasets import load_acm
from repro.datasets.generators import generate_delta_schedule
from repro.streaming import IncrementalCondenser
from tests.core.test_packed_kernels import assert_no_unit_data

STEPS = 4


def same_bytes(arrays, expected) -> bool:
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(arrays, expected)
    )


def check_patched_paths(incremental: IncrementalCondenser) -> tuple[list, list]:
    """(patched paths with a kept pattern, those that differ from a fresh build)."""
    context = incremental.context
    checked, stale = [], []
    for key in incremental.last_report.apply_report.patched_paths:
        packed = context.cached_packed(key)
        if packed.kept_pattern is None:
            continue
        fresh = compose_packed(incremental.graph, MetaPath(key))
        operator, expected = packed.derived(_scaled_adjacency), _scaled_adjacency(fresh)
        checked.append(key)
        if not (
            same_bytes(packed.kept_pattern, fresh.pattern())
            and same_bytes(
                (operator.data, operator.indices, operator.indptr),
                (expected.data, expected.indices, expected.indptr),
            )
        ):
            stale.append(key)
    return checked, stale


def run_schedule() -> list[tuple[list, list]]:
    graph = load_acm(scale=0.3, seed=0)
    schedule = generate_delta_schedule(
        graph, steps=STEPS, seed=2, edge_churn=0.004, relations=("paper-author", "paper-term")
    )
    incremental = IncrementalCondenser(
        graph, condenser=FreeHGC(max_hops=3), ratio=0.1, recondense_threshold=1.0
    )
    incremental.condense()
    results = []
    for delta in schedule:
        assert incremental.step(delta).mode == "incremental"
        results.append(check_patched_paths(incremental))
        context = incremental.context
        for key in context.cached_path_keys():
            if len(key) > 2:
                assert_no_unit_data(context.cached_packed(key), key)
    return results


def test_patched_patterns_and_operators_match_a_fresh_build():
    results = run_schedule()
    assert [stale for _checked, stale in results] == [[]] * STEPS
    checked = {key for paths, _stale in results for key in paths}
    assert any(len(key) > 2 for key in checked)  # expanded patterns were spliced too
    assert all(paths for paths, _stale in results)


@pytest.fixture
def stale_splice(monkeypatch):
    """A splice that leaves the first changed row with its old indices."""
    real = patch_module._splice_rows

    def splice(old, rows, block, shape):
        indptr, indices = block
        rest = (indptr[1:] - indptr[1], indices[indptr[1] :])
        return real(old, rows[1:], rest, shape)

    monkeypatch.setattr(patch_module, "_splice_rows", splice)


def test_a_stale_splice_fails_at_its_first_patched_step(stale_splice):
    results = run_schedule()
    assert results[0][0]  # the first step patches a kept pattern ...
    assert results[0][1]  # ... and the check names it stale
