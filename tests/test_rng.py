"""The seeded stream: bulk draws of raw words against single draws."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim import Rng
import oracle


def test_pick_weighted_all_zero_weights_lands_in_last_bucket():
    # No bucket catches the draw, so the last one absorbs it.
    assert Rng(0).pick_weighted([0.0, 0.0]) == 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 2000),
    k=st.integers(0, 5000),
)
def test_words_match_single_draws(seed, offset, k):
    # 5000 words cross the generator's 624-word regeneration several
    # times from any offset; an odd offset leaves the stream mid-double.
    bulk, plain = Rng(seed), random.Random(seed)
    assert bulk.words(offset).tolist() == [plain.getrandbits(32) for _ in range(offset)]
    generator = bulk._random.__self__
    assert bulk.words(k).tolist() == [plain.getrandbits(32) for _ in range(k)]
    assert bulk.uniform() == plain.random()
    assert bulk._random.__self__ is generator
    assert generator.getstate() == plain.getstate()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.lists(
        st.one_of(
            st.just(("uniform", None)),
            st.just(("coin", None)),
            st.tuples(st.just("below"), st.integers(1, 10**9)),
            st.tuples(st.just("words"), st.integers(0, 1500)),
        ),
        max_size=24,
    ),
)
def test_interleaved_draws_follow_one_stream_and_one_twister(seed, draws):
    # uniform, coin and below read one random() each, words(k) k getrandbits(32): all one sequence.
    rng, plain = Rng(seed), random.Random(seed)
    twisters = []
    for name, arg in draws:
        if name == "uniform":
            assert rng.uniform() == plain.random()
        elif name == "coin":
            assert rng.coin() == (1 if plain.random() < 0.5 else 0)
        elif name == "below":
            assert rng.below(arg) == min(int(plain.random() * arg), arg - 1)
        else:
            assert rng.words(arg).tolist() == [plain.getrandbits(32) for _ in range(arg)]
            twisters.append(rng._twister)
    assert rng._random.__self__.getstate() == plain.getstate()
    assert all(twister is twisters[0] for twister in twisters)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.lists(
        st.one_of(
            st.just(("uniform", None)),
            st.just(("coin", None)),
            st.tuples(st.just("bulk"), st.lists(st.integers(0, 1500), max_size=4)),
        ),
        max_size=16,
    ),
)
def test_draws_under_one_loan_follow_one_stream(seed, draws):
    # Several words(k) under one bulk(), between scalar draws, read getrandbits(32) in turn.
    rng, plain = Rng(seed), random.Random(seed)
    for name, arg in draws:
        if name == "uniform":
            assert rng.uniform() == plain.random()
        elif name == "coin":
            assert rng.coin() == (1 if plain.random() < 0.5 else 0)
        else:
            with rng.bulk() as words:
                for k in arg:
                    assert words(k).tolist() == [plain.getrandbits(32) for _ in range(k)]
    assert rng._random.__self__.getstate() == plain.getstate()


def test_an_error_inside_a_loan_keeps_the_draws_made():
    rng, plain = Rng(41), random.Random(41)
    with pytest.raises(RuntimeError, match="mid-loan"):
        with rng.bulk() as words:
            drawn = words(701).tolist() + words(299).tolist()
            raise RuntimeError("mid-loan")
    assert drawn == [plain.getrandbits(32) for _ in range(1000)]
    assert rng.uniform() == plain.random()
    assert rng._random.__self__.getstate() == plain.getstate()


def test_uniform_survives_a_slotted_subclass():
    # The shape of a subclass that wraps __init__, such as the benchmark tracer's.
    class Wrapped(Rng):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)

    rng, plain = Wrapped(77), random.Random(77)
    assert [rng.uniform() for _ in range(1000)] == [plain.random() for _ in range(1000)]
    assert rng.uniform.__self__ is rng._random.__self__


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 2000), m=st.integers(0, 2000))
@example(seed=0, n=2000, m=1000)
@example(seed=1, n=1, m=1)
@example(seed=2**32, n=0, m=0)
def test_permutation_and_sample_positions_match_fisher_yates(seed, n, m):
    order, draw = oracle.permutation(seed, n)
    rng = Rng(seed)
    assert rng.permutation(n) == order
    assert rng.uniform() == draw()
    assert Rng(seed).sample_positions(n, m) == sorted(order[:m])
