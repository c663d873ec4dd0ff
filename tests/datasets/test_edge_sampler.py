"""The synthetic edge sampler against its ``rng.choice`` reference loop.

``_sample_relation_edges`` must make the draws that
:func:`tests.oracles.sample_relation_edges_reference` makes, in the same
order.  Each case runs both from the same bit-generator state and asserts
the same ``(src, dst)`` arrays and the same state afterwards; the state
includes PCG64's ``has_uint32`` carry, which the next draw reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    RelationSpec,
    available_datasets,
    dataset_config,
    generators,
    load_dataset,
)
from tests.oracles import sample_relation_edges_reference


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _state(seed: int = 11, carry: bool = False) -> dict:
    """A PCG64 state; ``carry`` leaves half of a 64-bit draw buffered."""
    rng = np.random.default_rng(seed)
    if carry:
        rng.integers(0, 10, size=1)
    state = rng.bit_generator.state
    assert state["has_uint32"] == int(carry)
    return state


def _assert_same_draws(rel, src_topics, dst_topics, num_topics, state):
    fast_rng, reference_rng = _generator(state), _generator(state)
    fast = generators._sample_relation_edges(rel, src_topics, dst_topics, num_topics, fast_rng)
    reference = sample_relation_edges_reference(
        rel, src_topics, dst_topics, num_topics, reference_rng
    )
    for got, want in zip(fast, reference):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    assert fast_rng.bit_generator.state == reference_rng.bit_generator.state
    return fast


def _relation(**kwargs) -> RelationSpec:
    return RelationSpec("ab", "a", "b", **kwargs)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("scale", [0.05, 1.0])
@pytest.mark.parametrize("name", available_datasets())
def test_every_registered_relation_draws_like_choice(monkeypatch, name, scale, seed):
    """Each relation of a real generation, replayed from the state it began in."""
    calls = []
    sample = generators._sample_relation_edges

    def record(rel, src_topics, dst_topics, num_topics, rng):
        calls.append((rel, src_topics, dst_topics, num_topics, rng.bit_generator.state))
        return sample(rel, src_topics, dst_topics, num_topics, rng)

    monkeypatch.setattr(generators, "_sample_relation_edges", record)
    load_dataset(name, scale=scale, seed=seed)
    monkeypatch.undo()
    assert [call[0] for call in calls] == list(dataset_config(name).relations)
    for call in calls:
        _assert_same_draws(*call)


class TestHandBuiltPools:
    def test_destination_topic_without_members(self):
        src_topics = np.arange(30) % 3
        dst_topics = np.arange(20) % 2  # topic 2 has no destinations
        src, dst = _assert_same_draws(_relation(affinity=0.9), src_topics, dst_topics, 3, _state())
        assert src.size == dst.size > 30

    @pytest.mark.parametrize("n_src, n_dst", [(0, 12), (12, 0), (0, 0)])
    def test_empty_side_draws_nothing(self, n_src, n_dst):
        state = _state(carry=True)
        src_topics = np.arange(n_src) % 2
        dst_topics = np.arange(n_dst) % 2
        src, dst = _assert_same_draws(_relation(), src_topics, dst_topics, 2, state)
        assert src.size == dst.size == 0
        rng = _generator(state)
        generators._sample_relation_edges(_relation(), src_topics, dst_topics, 2, rng)
        assert rng.bit_generator.state == state

    def test_one_member_pool(self):
        src_topics = np.arange(40) % 2
        dst_topics = np.array([0, 1, 1, 1, 1])  # topic 0's pool is node 0 alone
        src, dst = _assert_same_draws(_relation(affinity=1.0), src_topics, dst_topics, 2, _state())
        assert np.all(dst[src_topics[src] == 0] == 0)

    @pytest.mark.parametrize("affinity", [0.0, 1.0])
    @pytest.mark.parametrize("carry", [False, True])
    def test_affinity_extremes(self, affinity, carry):
        src_topics = np.arange(50) % 4
        dst_topics = np.arange(60) % 4
        src, dst = _assert_same_draws(
            _relation(affinity=affinity), src_topics, dst_topics, 4, _state(carry=carry)
        )
        same_topic = src_topics[src] == dst_topics[dst]
        if affinity == 1.0:
            assert same_topic.all()
        else:
            assert not same_topic.all()

    @settings(max_examples=60, deadline=None)
    @given(
        n_src=st.integers(0, 40),
        n_dst=st.integers(0, 40),
        num_topics=st.integers(1, 5),
        avg_degree=st.floats(0.1, 6.0),
        affinity=st.floats(0.0, 1.0),
        degree_skew=st.floats(0.5, 4.0),
        seed=st.integers(0, 2**32 - 1),
        carry=st.booleans(),
    )
    def test_random_configs(
        self, n_src, n_dst, num_topics, avg_degree, affinity, degree_skew, seed, carry
    ):
        # Topics may exceed num_topics: sources wrap around, such destinations
        # join no pool.
        topics = np.random.default_rng(seed)
        src_topics = topics.integers(0, num_topics + 1, size=n_src)
        dst_topics = topics.integers(0, num_topics + 1, size=n_dst)
        rel = _relation(avg_degree=avg_degree, affinity=affinity, degree_skew=degree_skew)
        _assert_same_draws(rel, src_topics, dst_topics, num_topics, _state(seed, carry))


class TestChoiceChecks:
    """A popularity that overflows to NaN fails ``choice``'s checks of ``p``."""

    src_topics = np.arange(100) % 2
    dst_topics = np.arange(400) % 2

    def test_nan_pool_raises_at_its_first_draw(self):
        rel = _relation(degree_skew=1e-3)
        state = _state()
        reference_rng, fast_rng = _generator(state), _generator(state)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as want:
                sample_relation_edges_reference(
                    rel, self.src_topics, self.dst_topics, 2, reference_rng
                )
            with pytest.raises(ValueError) as got:
                generators._sample_relation_edges(
                    rel, self.src_topics, self.dst_topics, 2, fast_rng
                )
        assert str(got.value) == str(want.value) == "Probabilities contain NaN"
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_nan_pool_without_same_topic_draws_raises_nowhere(self):
        rel = _relation(degree_skew=1e-3, affinity=0.0)
        with np.errstate(all="ignore"):
            _assert_same_draws(rel, self.src_topics, self.dst_topics, 2, _state())
