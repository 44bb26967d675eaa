"""Reconciliation and privacy amplification."""

import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim import (
    PublicTranscript,
    Rng,
    apply_subsets,
    leaked_bits_bound,
    privacy_amplify,
    reconcile,
)
from qkdsim import distill
from qkdsim.distill import _parity, default_block_policy
from qkdsim.errors import KeyExhausted
from util import subset_parity_information

PA_BOUND_S3 = 0.5**3 / math.log(2)  # mean information ceiling at s = 3


def _random_bits(rng, n):
    return [rng.coin() for _ in range(n)]


def _flip_fraction(rng, bits, p):
    return [b ^ 1 if rng.uniform() < p else b for b in bits]


def _scalar_nonempty_row(plain, n):
    """A random nonempty subset of range(n) from raw words: its ascending positions and its row's hex.

    The row is ceil(n/32) ``getrandbits(32)`` words, little-endian, cut
    to ceil(n/8) bytes; position i is bit 7 - i % 8 of byte i // 8, and
    the bits from n on are cleared.  An empty row is rejected and drawn
    again.
    """
    while True:
        words = [plain.getrandbits(32) for _ in range(-(-n // 32))]
        row = b"".join(word.to_bytes(4, "little") for word in words)[: -(-n // 8)]
        pad = 8 * len(row) - n  # the row's bits past position n - 1
        value = int.from_bytes(row, "big") >> pad << pad
        subset = [i for i in range(n) if value >> (8 * len(row) - 1 - i) & 1]
        if subset:
            return subset, value.to_bytes(len(row), "big").hex()


def _scalar_privacy_amplify(key, k, s, plain, transcript):
    """Amplification one subset at a time from a ``random.Random``: the oracle for the chunked version."""
    n = len(key)
    subsets = []
    final = []
    for _ in range(n - k - s):
        subset, payload = _scalar_nonempty_row(plain, n)
        transcript.post("alice", "pa-subset", payload)
        subsets.append(subset)
        final.append(_parity(key, subset))
    return final, subsets


class _CountedLoans(Rng):
    """An Rng that counts how often its stream is lent to numpy."""

    __slots__ = ("loans",)

    def __init__(self, seed):
        super().__init__(seed)
        self.loans = 0

    def bulk(self):
        self.loans += 1
        return super().bulk()


@st.composite
def _amplification_case(draw):
    n = draw(st.integers(1, 300))
    key = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    other = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    s = draw(st.integers(0, n - 1 - k))
    return key, other, k, s


@st.composite
def _key_pair(draw):
    key_a = draw(st.lists(st.integers(0, 1), max_size=300))
    kind = draw(st.sampled_from(["identical", "complemented", "flipped"]))
    if kind == "identical":
        key_b = list(key_a)
    elif kind == "complemented":
        key_b = [b ^ 1 for b in key_a]
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(key_a), max_size=len(key_a)))
        key_b = [b ^ f for b, f in zip(key_a, flips)]
    return key_a, key_b


class TestBlockLength:
    def test_small_rate(self):
        assert default_block_policy(0.01, 10_000) == 73

    def test_zero_rate_floors_at_one_percent(self):
        assert default_block_policy(0.0, 10_000) == 73

    def test_large_rate_clamps_to_minimum(self):
        # ceil(0.73 / 0.25) = 3, clamped up to 4.
        assert default_block_policy(0.25, 10_000) == 4

    def test_key_length_cap(self):
        assert default_block_policy(0.0, 10) == 10

    def test_three_percent_rate(self):
        assert default_block_policy(0.03, 4096) == 25


class TestReconcile:
    def test_identical_inputs_lose_only_parity_discards(self):
        rng = Rng(100)
        key = _random_bits(rng, 200)
        t = PublicTranscript()
        rec_a, rec_b, acct = reconcile(key, list(key), 0.0, Rng(101), t)
        assert rec_a == rec_b
        assert acct.bisections == 0
        assert len(rec_a) == len(key) - acct.bits_discarded
        # Discard hygiene: one bit per posted comparison.
        assert acct.bits_discarded == acct.parity_bits_disclosed
        alice_parities = sum(1 for m in t if m.tag == "parity" and m.sender == "alice")
        assert alice_parities == acct.parity_bits_disclosed

    def test_single_error_locating_fixture(self):
        # 64 bits (a 16-bit pattern four times), one flip; rate 0.1 selects
        # 8-bit blocks, so the bisective search needs at most
        # ceil(log2 8) = 3 levels.  The full procedure would consume a
        # 16-bit key outright.
        key_a = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0] * 4
        key_b = list(key_a)
        key_b[5] ^= 1
        rec_a, rec_b, acct = reconcile(key_a, key_b, 0.1, Rng(102), PublicTranscript())
        assert rec_a == rec_b
        assert rec_a
        assert acct.max_bisection_depth <= 3

    def test_random_keys_with_three_percent_errors(self):
        failures = 0
        for seed in range(10):
            rng = Rng(200 + seed)
            key_a = _random_bits(rng, 4096)
            key_b = _flip_fraction(rng, key_a, 0.03)
            rec_a, rec_b, acct = reconcile(key_a, key_b, 0.03, Rng(300 + seed), PublicTranscript())
            assert len(rec_a) == len(rec_b)
            assert acct.bits_discarded == acct.parity_bits_disclosed
            if rec_a != rec_b:
                failures += 1
        assert failures == 0

    def test_equal_length_outputs_always(self):
        rng = Rng(103)
        key_a = _random_bits(rng, 500)
        key_b = _flip_fraction(rng, key_a, 0.1)
        rec_a, rec_b, _ = reconcile(key_a, key_b, 0.1, Rng(104), PublicTranscript())
        assert len(rec_a) == len(rec_b)

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            reconcile([0, 1, 1], [0, 1], 0.1, Rng(105), PublicTranscript())


@settings(max_examples=200, deadline=None)
@given(
    keys=_key_pair(),
    rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_reconcile_ends_within_one_check_per_bit(keys, rate, seed):
    # Every check discards one live bit, so the subset phase cannot
    # outlast the key, whatever the keys disagree on.
    key_a, key_b = keys
    t = PublicTranscript()
    rec_a, rec_b, acct = reconcile(key_a, key_b, rate, Rng(seed), t)
    assert len(rec_a) == len(rec_b)
    assert sum(1 for m in t if m.tag == "subset") <= len(key_a)
    assert len(key_a) - len(rec_a) == acct.parity_bits_disclosed == acct.bits_discarded


class TestLeakedBitsBound:
    def test_zero_rate(self):
        assert leaked_bits_bound(0.0, 500) == 0

    def test_quarter_rate(self):
        assert leaked_bits_bound(0.25, 100) == 50

    def test_small_rate_exact_ceiling(self):
        assert leaked_bits_bound(0.01, 1000) == 20

    def test_capped_at_length(self):
        assert leaked_bits_bound(0.9, 100) == 100

    def test_consistent_with_opaque_information(self):
        # Monte-Carlo consistency: under full interception Eve knows the
        # bit on matched-basis slots (half of them) and nothing
        # elsewhere, so her per-bit information 1 - H2(confidence)
        # averages 2R = 0.5 -- the same quantity the bound charges.
        from qkdsim import OpaqueEve, SessionConfig
        from qkdsim.eve import eve_guess
        from qkdsim.protocol import make_tap, run_stage1_bb84, sift_bb84

        cfg = SessionConfig("bb84", 40_000, eve=OpaqueEve(1.0), seed=105)
        rng = Rng(cfg.seed)
        tap = make_tap(cfg, rng)
        record = run_stage1_bb84(cfg, rng, tap)
        transcript = PublicTranscript()
        sift = sift_bb84(record, transcript)
        guesses = eve_guess(tap, transcript)

        def h2(p):
            if p in (0.0, 1.0):
                return 0.0
            return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

        info = sum(1 - h2(conf) for _, (_, conf) in guesses.items())
        per_bit = info / len(sift.raw_alice)
        sigma = math.sqrt(0.25 / len(sift.raw_alice))
        assert abs(per_bit - 0.5) < 3 * sigma


class TestPrivacyAmplify:
    def test_output_length(self):
        final, subsets = privacy_amplify(
            [1, 1, 0, 0], 0, 2, Rng(106), PublicTranscript()
        )
        assert len(final) == 2 and len(subsets) == 2

    def test_known_subsets_parity(self):
        assert apply_subsets([1, 1, 0, 0], [[0, 1], [2, 3]]) == [0, 0]

    @pytest.mark.parametrize(
        "subsets, message",
        [
            ([[-3]], "subset 0 holds index -3, outside range(3)"),
            ([[5]], "subset 0 holds index 5, outside range(3)"),
            ([[0, 0]], "subset 0 holds index 0 more than once"),
        ],
    )
    def test_bad_plain_indices_are_refused(self, subsets, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_subsets([1, 0, 0], subsets)

    def test_subsets_of_another_length_are_refused(self):
        # A 3-bit and a 4-bit key pack into the same one byte.
        _, subsets = privacy_amplify([1, 1, 0, 0], 0, 2, Rng(106), PublicTranscript())
        with pytest.raises(ValueError):
            apply_subsets([1, 1, 0], subsets)

    def test_exhausted_key(self):
        with pytest.raises(KeyExhausted):
            privacy_amplify([1, 0, 1], 2, 1, Rng(107), PublicTranscript())

    def test_an_exhausted_key_draws_nothing(self):
        rng = _CountedLoans(126)
        with pytest.raises(KeyExhausted):
            privacy_amplify([1, 0, 1], 2, 1, rng, PublicTranscript())
        assert rng.loans == 0
        assert rng.uniform() == Rng(126).uniform()

    def test_both_parties_agree_via_transcript(self):
        rng = Rng(108)
        key = _random_bits(rng, 64)
        final, subsets = privacy_amplify(key, 5, 3, Rng(109), PublicTranscript())
        assert apply_subsets(key, subsets) == final
        assert len(final) == 64 - 5 - 3

    def test_subsets_are_posted(self):
        # Each payload is the hex of the subset's packed row.
        t = PublicTranscript()
        _, subsets = privacy_amplify([1, 0, 1, 1, 0, 1], 1, 2, Rng(110), t)
        posted = [m for m in t if m.tag == "pa-subset"]
        assert len(posted) == len(subsets)
        for message, subset in zip(posted, subsets):
            row = np.frombuffer(bytes.fromhex(message.payload), dtype=np.uint8)
            assert np.flatnonzero(np.unpackbits(row)).tolist() == list(subset)

    def test_desk_scale_information_bound(self):
        # Exhaustive-posterior oracle at n=12, k=4, s=3 over seeded
        # subset draws; the mean information must sit under 2^-3/ln 2.
        rng = Rng(111)
        true_bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0]
        total = 0.0
        draws = 60
        for _ in range(draws):
            _, subsets = privacy_amplify(true_bits, 4, 3, rng, PublicTranscript())
            total += subset_parity_information(subsets, 12, 4, true_bits)
        assert total / draws <= PA_BOUND_S3

    def test_security_parameter_monotonicity(self):
        # One extra security bit should roughly halve the measured mean.
        rng = Rng(112)
        true_bits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1]
        means = {}
        for s in (2, 3, 4):
            total = 0.0
            draws = 120
            for _ in range(draws):
                _, subsets = privacy_amplify(true_bits, 4, s, rng, PublicTranscript())
                total += subset_parity_information(subsets, 12, 4, true_bits)
            means[s] = total / draws
        assert means[2] > means[3] > means[4]
        assert 1.2 < means[2] / means[3] < 4.0
        assert 1.2 < means[3] / means[4] < 4.0

    def test_temporary_memory_stays_small(self):
        # A 10k-pulse session reconciles about 3,400 bits.  What PA
        # allocates and frees again, beyond the subsets and payloads it
        # keeps, adds to every session's peak RSS.
        key = _random_bits(Rng(113), 3400)
        transcript = PublicTranscript()
        tracemalloc.start()
        try:
            result = privacy_amplify(key, 0, 200, Rng(114), transcript)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result[1]) == len(transcript) == 3200
        assert peak - retained <= 6 * 2**20

    def test_retained_memory_is_the_packed_rows(self):
        # The transcript keeps each chunk's block of packed rows, which
        # the subsets read too, and renders its payloads from them when
        # read.
        key = _random_bits(Rng(115), 3400)
        transcript = PublicTranscript()
        tracemalloc.start()
        try:
            _, subsets = privacy_amplify(key, 0, 200, Rng(116), transcript)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(subsets) == len(transcript) == 3200
        held = sum(block.nbytes for block in subsets.blocks) + sum(size.nbytes for size in subsets.sizes)
        assert retained <= held + 2 * 2**20

    def test_sizes_are_counted_without_unpacking(self):
        key = _random_bits(Rng(117), 300)
        _, subsets = privacy_amplify(key, 0, 20, Rng(118), PublicTranscript())

        def refuse(*args, **kwargs):
            raise AssertionError("unpacked a row")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "unpackbits", refuse)
            count, indices = len(subsets), sum(map(len, subsets))
        unpacked = [list(subset) for subset in subsets]
        assert count == len(unpacked) == 280
        assert indices == sum(map(len, unpacked))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.integers(0, 2000),
    case=_amplification_case(),
    chunk_bytes=st.integers(1, 5000),  # from under one row (one row a chunk) to past the whole key
)
# One- to three-bit keys draw empty rows often; each is redrawn.
@example(seed=23, offset=0, case=([1], [0], 0, 0), chunk_bytes=distill.PA_CHUNK_BYTES)
@example(seed=5, offset=3, case=([0, 1], [1, 1], 0, 0), chunk_bytes=distill.PA_CHUNK_BYTES)
@example(seed=9, offset=1, case=([1, 0, 1], [0, 0, 1], 0, 0), chunk_bytes=4)
# Keys on either side of a byte and of a word: 7, 8, 9, 31, 32, 33, 64 and 65 bits.
@example(seed=30, offset=0, case=([1, 0] * 3 + [1], [0] * 7, 0, 0), chunk_bytes=4)
@example(seed=31, offset=1, case=([1, 1, 0, 0] * 2, [1] * 8, 1, 0), chunk_bytes=12)
@example(seed=32, offset=0, case=([0, 1, 1] * 3, [1, 0, 1] * 3, 2, 1), chunk_bytes=distill.PA_CHUNK_BYTES)
@example(seed=33, offset=5, case=([1] * 31, [0, 1] * 15 + [0], 0, 0), chunk_bytes=20)
@example(seed=34, offset=0, case=([0, 1] * 16, [1, 1, 0, 0] * 8, 10, 2), chunk_bytes=4)
@example(seed=35, offset=2, case=([1, 0, 0] * 11, [1] * 33, 0, 0), chunk_bytes=8 * 33)
@example(seed=36, offset=0, case=([1, 1, 0, 1] * 16, [0] * 64, 30, 3), chunk_bytes=16)
@example(seed=37, offset=3, case=([0, 1] * 32 + [1], [1, 0] * 32 + [0], 0, 0), chunk_bytes=12 * 65)
# A 10,001-bit key draws 313 words a row, in chunks of one row and of the whole key.
@example(seed=40, offset=0, case=([1, 0] * 5000 + [1], [0, 1, 1] * 3333 + [0, 1], 9998, 0), chunk_bytes=1)
@example(seed=41, offset=1, case=([0, 1] * 5000 + [0], [1, 1, 0] * 3333 + [1, 0], 9995, 0), chunk_bytes=distill.PA_CHUNK_BYTES)
def test_privacy_amplify_matches_scalar_oracle(seed, offset, case, chunk_bytes):
    key, other, k, s = case
    fast_rng, plain = _CountedLoans(seed), random.Random(seed)
    for _ in range(offset):
        assert fast_rng.uniform() == plain.random()
    fast_t, oracle_t = PublicTranscript(), PublicTranscript()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distill, "PA_CHUNK_BYTES", chunk_bytes)
        final, subsets = privacy_amplify(key, k, s, fast_rng, fast_t)
    want_final, want_subsets = _scalar_privacy_amplify(key, k, s, plain, oracle_t)
    assert final == want_final
    assert [m.payload for m in fast_t] == [m.payload for m in oracle_t]
    # The hashed lines and the lines read come from the same rendering of the rows.
    assert fast_t.digest() == oracle_t.digest() == hashlib.sha256(fast_t.serialize().encode("utf-8")).hexdigest()
    assert [list(subset) for subset in subsets] == want_subsets
    assert fast_rng.loans == 1
    assert fast_rng.uniform() == plain.random()
    want_parities = [_parity(other, subset) for subset in want_subsets]
    assert apply_subsets(other, subsets) == apply_subsets(other, want_subsets) == want_parities
