"""Output checks of the benchmark, and a self-test that each one bites.

Every check returns ``None`` when the output is right and a one-line reason
when it is not; the workloads feed the reasons to a
:class:`harness.Ledger`, and any failed operation fails the run.
"""

from __future__ import annotations

import json

import numpy as np

from harness import Ledger


def check_read(ids, status, body: bytes, labels_for) -> str | None:
    """One ``/predict`` exchange against the labels of the version it names.

    ``status`` is None for a connection error.  ``labels_for(version)``
    returns the expected label of every target for a published version, or
    None for a version that was never published.
    """
    if status is None:
        return f"/predict connection error: {body.decode(errors='replace')}"
    if status != 200:
        return f"/predict answered {status}: {body[:200].decode(errors='replace')}"
    try:
        reply = json.loads(body)
        version = int(reply["version"])
        labels = [int(label) for label in reply["labels"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"/predict reply is malformed ({exc}): {body[:200]!r}"
    expected = labels_for(version)
    if expected is None:
        return f"/predict stamped version {version}, which was never published"
    if labels != expected[np.asarray(ids)].tolist():
        return f"/predict labels for {ids[:4]}... differ from version {version}'s"
    return None


def check_delta(status, body: bytes, expected_version: int, workers: int) -> str | None:
    """One ``/delta`` reply: 200, the next version, acknowledged by every worker."""
    if status is None:
        return f"/delta connection error: {body.decode(errors='replace')}"
    if status != 200:
        return f"/delta answered {status}: {body[:200].decode(errors='replace')}"
    try:
        reply = json.loads(body)
        version = int(reply["version"])
        acked = int(reply["acked_workers"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"/delta reply is malformed ({exc}): {body[:200]!r}"
    if version != expected_version:
        return f"/delta published version {version}, expected {expected_version}"
    if acked != workers:
        return f"/delta version {version} was acked by {acked} of {workers} workers"
    return None


def check_graphs(reference, candidate, what: str) -> str | None:
    """Byte identity of two condensed graphs."""
    from repro.streaming import GraphMismatchError, assert_graphs_equal

    try:
        assert_graphs_equal(reference, candidate)
    except GraphMismatchError as exc:
        return f"{what}: {exc}"
    return None


def check_logits(replayed: np.ndarray, published: np.ndarray, version: int) -> str | None:
    """Byte identity of replayed and published logits of one version."""
    if (
        replayed.dtype != published.dtype
        or replayed.shape != published.shape
        or replayed.tobytes() != np.asarray(published).tobytes()
    ):
        return f"replayed logits of version {version} differ from the published ones"
    return None


# ---------------------------------------------------------------------- #
def selftest() -> list[str]:
    """Feed every check a bad output; returns the cases that were not caught."""
    from repro.core import FreeHGC
    from repro.datasets import load_dataset

    labels = np.arange(8) % 3
    published = {1: labels}
    ids = [0, 1, 2, 3]
    flipped = labels[ids].tolist()
    flipped[2] = (flipped[2] + 1) % 3

    graph = load_dataset("acm", scale=0.1)
    condensed = FreeHGC(max_hops=2).condense(graph, 0.2, seed=0)
    tampered = condensed.copy()
    name = sorted(tampered.adjacency)[0]
    matrix = tampered.adjacency[name].tolil()
    rows, cols = np.nonzero(matrix.toarray() == 0)
    matrix[rows[0], cols[0]] = 1.0
    tampered.adjacency[name] = matrix.tocsr()

    reply = json.dumps({"labels": flipped, "version": 1}).encode()
    stale = json.dumps({"labels": labels[ids].tolist(), "version": 7}).encode()
    cases = {
        "flipped label": check_read(ids, 200, reply, published.get),
        "version never published": check_read(ids, 200, stale, published.get),
        "non-200 reply": check_read(ids, 503, b'{"error": "busy"}', published.get),
        "non-200 delta reply": check_delta(500, b'{"error": "boom"}', 2, 1),
        "condensed graph with one extra edge": check_graphs(condensed, tampered, "condense"),
        "logits off by one ulp": check_logits(
            np.ones((2, 2)), np.nextafter(np.ones((2, 2)), 2.0), 2
        ),
    }
    missed = []
    for case, problem in cases.items():
        ledger = Ledger()
        ledger.record(problem)
        if ledger.failed != 1:
            missed.append(case)
        else:
            print(f"selftest: caught {case}: {problem}")
    if check_graphs(condensed, condensed.copy(), "condense") is not None:
        missed.append("an identical graph was reported as different")
    if check_read(ids, 200, json.dumps({"labels": labels[ids].tolist(), "version": 1}).encode(),
                  published.get) is not None:
        missed.append("a correct reply was reported as wrong")
    return missed
