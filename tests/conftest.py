"""Shared fixtures for the test suite.

The fixtures build small, deterministic heterogeneous graphs so every test
runs in milliseconds: a hand-built "toy" graph with a known structure (root /
father / leaf hierarchy), plus tiny instances of the synthetic benchmark
datasets.
"""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.datasets import load_acm, load_dblp, load_imdb
from repro.hetero import HeteroGraphBuilder, HeteroSchema, Relation


def build_toy_schema() -> HeteroSchema:
    """Paper / author / venue / term schema with a root→father→leaf chain."""
    return HeteroSchema(
        node_types=("paper", "author", "venue", "term"),
        relations=(
            Relation("writes", "author", "paper"),
            Relation("published", "paper", "venue"),
            Relation("mentions", "paper", "term"),
            Relation("cites", "paper", "paper"),
        ),
        target_type="paper",
        num_classes=2,
        name="toy",
    )


def build_toy_graph(seed: int = 0, n_paper: int = 40):
    """Small deterministic graph with planted 2-class structure."""
    rng = np.random.default_rng(seed)
    schema = build_toy_schema()
    builder = HeteroGraphBuilder(schema)

    n_author, n_venue, n_term = 30, 6, 20
    labels = np.arange(n_paper) % 2
    author_topic = np.arange(n_author) % 2
    venue_topic = np.arange(n_venue) % 2
    term_topic = np.arange(n_term) % 2

    def features(topics: np.ndarray, dim: int, noise: float) -> np.ndarray:
        means = np.stack([np.ones(dim), -np.ones(dim)])
        return means[topics] + noise * rng.standard_normal((topics.shape[0], dim))

    builder.add_nodes("paper", n_paper, features(labels, 8, 0.8))
    builder.add_nodes("author", n_author, features(author_topic, 6, 0.5))
    builder.add_nodes("venue", n_venue, features(venue_topic, 4, 0.3))
    builder.add_nodes("term", n_term, features(term_topic, 4, 0.5))

    def sample_edges(src_topics, dst_topics, per_src, affinity=0.85):
        src_list, dst_list = [], []
        dst_index = np.arange(dst_topics.shape[0])
        for src in range(src_topics.shape[0]):
            for _ in range(per_src):
                if rng.random() < affinity:
                    pool = dst_index[dst_topics == src_topics[src]]
                else:
                    pool = dst_index
                dst_list.append(int(rng.choice(pool)))
                src_list.append(src)
        return np.array(src_list), np.array(dst_list)

    a_src, a_dst = sample_edges(author_topic, labels, 3)
    builder.add_edges("writes", a_src, a_dst)
    v_src, v_dst = sample_edges(labels, venue_topic, 1)
    builder.add_edges("published", v_src, v_dst)
    t_src, t_dst = sample_edges(labels, term_topic, 2)
    builder.add_edges("mentions", t_src, t_dst)
    c_src, c_dst = sample_edges(labels, labels, 2)
    builder.add_edges("cites", c_src, c_dst)

    builder.set_labels(labels)
    order = rng.permutation(n_paper)
    n_train = max(4, int(0.3 * n_paper))
    n_val = max(2, int(0.1 * n_paper))
    builder.set_splits(order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    builder.set_metadata(name="toy")
    return builder.build()


@pytest.fixture(scope="session")
def toy_schema() -> HeteroSchema:
    return build_toy_schema()


@pytest.fixture(scope="session")
def toy_graph():
    return build_toy_graph(seed=0)


@pytest.fixture(scope="session")
def tiny_acm():
    return load_acm(scale=0.25, seed=1)


@pytest.fixture(scope="session")
def tiny_dblp():
    return load_dblp(scale=0.25, seed=1)


@pytest.fixture(scope="session")
def tiny_imdb():
    return load_imdb(scale=0.25, seed=1)


@pytest.fixture()
def io_log(monkeypatch):
    """Record every fsync (file or directory) and rename, in call order.

    Entries are ``("fsync" | "dirsync" | "rename", path)``; a rename records
    its source, including a directory exchange by ``repro.utils.durable``.
    """
    from repro.utils import durable

    log: list[tuple[str, str]] = []
    real_fsync, real_replace, real_exchange = os.fsync, os.replace, durable._exchange

    def fsync(fd: int) -> None:
        kind = "dirsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync"
        log.append((kind, os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def replace(src, dst) -> None:
        log.append(("rename", os.fspath(src)))
        real_replace(src, dst)

    def exchange(staged, path) -> None:
        log.append(("rename", os.fspath(staged)))
        real_exchange(staged, path)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(durable, "_exchange", exchange)
    return log
