"""The seeded stream: bulk draws against single draws."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import Rng


def test_pick_weighted_all_zero_weights_lands_in_last_bucket():
    # No bucket catches the draw, so the last one absorbs it.
    assert Rng(0).pick_weighted([0.0, 0.0]) == 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 2000),
    k=st.integers(0, 5000),
)
def test_uniforms_match_single_draws(seed, offset, k):
    # 5000 draws take 10,000 words, so the bulk draw crosses the
    # generator's 624-word regeneration many times from any offset.
    bulk, single = Rng(seed), Rng(seed)
    for _ in range(offset):
        bulk.uniform()
        single.uniform()
    generator = bulk._random.__self__
    assert bulk.uniforms(k).tolist() == [single.uniform() for _ in range(k)]
    assert bulk.uniform() == single.uniform()
    assert bulk._random.__self__ is generator
    assert generator.getstate() == single._random.__self__.getstate()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.lists(st.one_of(st.none(), st.integers(0, 1500)), max_size=12),
)
def test_interleaved_draws_follow_one_stream_and_one_twister(seed, draws):
    # None is one scalar draw, k a bulk draw of k; both read one sequence.
    rng, plain = Rng(seed), random.Random(seed)
    twisters = []
    for k in draws:
        if k is None:
            assert rng.uniform() == plain.random()
        else:
            assert rng.uniforms(k).tolist() == [plain.random() for _ in range(k)]
            twisters.append(rng._twister)
    assert rng._random.__self__.getstate() == plain.getstate()
    assert all(twister is twisters[0] for twister in twisters)
