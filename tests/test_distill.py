"""Reconciliation and privacy amplification."""

import math

import pytest

from qkdsim import (
    PublicTranscript,
    ReconcileParams,
    Rng,
    apply_subsets,
    default_block_policy,
    leaked_bits_bound,
    privacy_amplify,
    reconcile,
)
from qkdsim.errors import KeyExhausted
from util import subset_parity_information

PA_BOUND_S3 = 0.5**3 / math.log(2)  # mean information ceiling at s = 3


def _random_bits(rng, n):
    return [rng.coin() for _ in range(n)]


def _flip_fraction(rng, bits, p):
    return [b ^ 1 if rng.uniform() < p else b for b in bits]


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
        rec_a, rec_b, acct = reconcile(key, list(key), 0.0, ReconcileParams(), Rng(101), t)
        assert rec_a == rec_b
        assert acct.bisections == 0
        assert len(rec_a) == len(key) - acct.bits_discarded
        # Discard hygiene: one bit per posted comparison.
        assert acct.bits_discarded == acct.parity_bits_disclosed
        alice_parities = sum(1 for m in t.read_all() if m.tag == "parity" and m.sender == "alice")
        assert alice_parities == acct.parity_bits_disclosed

    def test_single_error_locating_fixture(self):
        # 16 bits, one flip; rate 0.1 selects 8-bit blocks, so the
        # bisective search needs at most ceil(log2 8) = 3 levels.
        key_a = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0]
        key_b = list(key_a)
        key_b[5] ^= 1
        params = ReconcileParams(max_passes=1, n_clean=3)
        rec_a, rec_b, acct = reconcile(key_a, key_b, 0.1, params, Rng(102), PublicTranscript())
        assert rec_a == rec_b
        assert acct.max_bisection_depth <= 3

    def test_random_keys_with_three_percent_errors(self):
        failures = 0
        for seed in range(10):
            rng = Rng(200 + seed)
            key_a = _random_bits(rng, 4096)
            key_b = _flip_fraction(rng, key_a, 0.03)
            rec_a, rec_b, acct = reconcile(
                key_a, key_b, 0.03, ReconcileParams(), Rng(300 + seed), PublicTranscript()
            )
            assert len(rec_a) == len(rec_b)
            assert acct.bits_discarded == acct.parity_bits_disclosed
            if rec_a != rec_b:
                failures += 1
        assert failures == 0

    def test_equal_length_outputs_always(self):
        rng = Rng(103)
        key_a = _random_bits(rng, 500)
        key_b = _flip_fraction(rng, key_a, 0.1)
        rec_a, rec_b, _ = reconcile(
            key_a, key_b, 0.1, ReconcileParams(), Rng(104), PublicTranscript()
        )
        assert len(rec_a) == len(rec_b)


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
        from qkdsim import OpaqueEve, SessionConfig, eve_guess
        from qkdsim.protocol import make_tap, run_stage1_bb84, sift_bb84

        cfg = SessionConfig("bb84", 40_000, eve=OpaqueEve(1.0), seed=105)
        rng = Rng(cfg.seed)
        tap = make_tap(cfg, rng)
        record = run_stage1_bb84(cfg, rng, tap)
        transcript = PublicTranscript()
        sift = sift_bb84(record, transcript)
        guesses = eve_guess(tap.record, transcript)

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

    def test_exhausted_key(self):
        with pytest.raises(KeyExhausted):
            privacy_amplify([1, 0, 1], 2, 1, Rng(107), PublicTranscript())

    def test_both_parties_agree_via_transcript(self):
        rng = Rng(108)
        key = _random_bits(rng, 64)
        final, subsets = privacy_amplify(key, 5, 3, Rng(109), PublicTranscript())
        assert apply_subsets(key, subsets) == final
        assert len(final) == 64 - 5 - 3

    def test_subsets_are_posted(self):
        t = PublicTranscript()
        _, subsets = privacy_amplify([1, 0, 1, 1, 0, 1], 1, 2, Rng(110), t)
        posted = [m for m in t.read_all() if m.tag == "pa-subset"]
        assert len(posted) == len(subsets)
        assert posted[0].payload == ",".join(map(str, subsets[0]))

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
