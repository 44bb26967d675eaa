"""Session engine: stages, sifting, estimation, full runs."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim import (
    Ket2,
    NoEve,
    NoiseModel,
    OpaqueEve,
    PhotonSplitEve,
    PublicTranscript,
    Rng,
    SessionConfig,
    b92_alphabet,
    build_document,
    build_povm,
    entangling_swap_attack,
    identity_translucent,
    inner,
    povm_probabilities,
    render_json,
    run_session,
    translucent_swap_attack,
)
from qkdsim.errors import EmptySiftedKey, RestartRequired, ThetaOutOfRange
from qkdsim.eve import eve_guess
from qkdsim.protocol import (
    Stage1Record,
    estimate_error,
    make_tap,
    run_stage1_b92,
    run_stage1_bb84,
    session_transcript,
    sift_b92,
    sift_bb84,
)
import oracle
from util import binomial_sigma

# Recorded ten-slot exchange used across the sift tests (0 = "+", 1 = "x").
ALICE_ALPHAS = [0, 1, 1, 1, 0, 1, 0, 1, 0, 1]
ALICE_BITS = [1, 0, 0, 1, 1, 0, 0, 1, 0, 1]
BOB_ALPHAS = [1, 1, 0, 1, 0, 1, 0, 0, 0, 0]
BOB_BITS_QUIET = [1, 0, 1, 1, 1, 0, 0, 0, 0, 0]
BOB_BITS_TAPPED = [1, 0, 1, 1, 1, 1, 1, 0, 0, 0]


def _recorded_stage1(bob_bits):
    return Stage1Record(
        list(ALICE_BITS),
        [True] * 10,
        list(bob_bits),
        alice_alphabets=list(ALICE_ALPHAS),
        bob_alphabets=list(BOB_ALPHAS),
    )


class TestStage1Bb84:
    def test_alphabet_match_fraction(self):
        cfg = SessionConfig("bb84", 100_000, seed=120)
        record = run_stage1_bb84(cfg, Rng(cfg.seed), None)
        matches = sum(
            1 for a, b in zip(record.alice_alphabets, record.bob_alphabets) if a == b
        )
        assert abs(matches / cfg.n_pulses - 0.5) < 0.01

    def test_matched_slots_agree_exactly(self):
        cfg = SessionConfig("bb84", 50_000, seed=121)
        record = run_stage1_bb84(cfg, Rng(cfg.seed), None)
        for a_alpha, b_alpha, a_bit, b_bit in zip(
            record.alice_alphabets, record.bob_alphabets, record.alice_bits, record.bob_bits
        ):
            if a_alpha == b_alpha:
                assert a_bit == b_bit

    def test_mismatched_slots_agree_half_the_time(self):
        cfg = SessionConfig("bb84", 100_000, seed=122)
        record = run_stage1_bb84(cfg, Rng(cfg.seed), None)
        pairs = [
            (a_bit, b_bit)
            for a_alpha, b_alpha, a_bit, b_bit in zip(
                record.alice_alphabets, record.bob_alphabets, record.alice_bits, record.bob_bits
            )
            if a_alpha != b_alpha
        ]
        agree = sum(1 for a, b in pairs if a == b) / len(pairs)
        assert abs(agree - 0.5) < 0.01


class TestSiftBb84:
    def test_recorded_quiet_exchange(self):
        sift = sift_bb84(_recorded_stage1(BOB_BITS_QUIET), PublicTranscript())
        assert sift.slots == [1, 3, 4, 5, 6, 8]
        assert sift.raw_alice == [0, 1, 1, 0, 0, 0]
        assert sift.raw_bob == [0, 1, 1, 0, 0, 0]

    def test_recorded_tapped_exchange(self):
        sift = sift_bb84(_recorded_stage1(BOB_BITS_TAPPED), PublicTranscript())
        assert sift.raw_bob == [0, 1, 1, 1, 1, 0]
        diffs = [i for i, (a, b) in enumerate(zip(sift.raw_alice, sift.raw_bob)) if a != b]
        assert [sift.slots[i] for i in diffs] == [5, 6]

    def test_announcements_are_posted(self):
        t = PublicTranscript()
        sift_bb84(_recorded_stage1(BOB_BITS_QUIET), t)
        alphabets = t.find("bob", "alphabets")
        kept = t.find("alice", "kept")
        assert alphabets.payload == "xx+x+x++++"
        assert kept.payload == "1,3,4,5,6,8"

    def test_empty_sift(self):
        record = Stage1Record(
            [0, 1],
            [True, True],
            [0, 1],
            alice_alphabets=[0, 1],
            bob_alphabets=[1, 0],
        )
        with pytest.raises(EmptySiftedKey):
            sift_bb84(record, PublicTranscript())

    def test_lost_slots_are_dropped(self):
        record = Stage1Record(
            [0, 1, 1],
            [True, False, True],
            [0, None, 1],
            alice_alphabets=[0, 1, 1],
            bob_alphabets=[0, None, 1],
        )
        t = PublicTranscript()
        sift = sift_bb84(record, t)
        assert sift.slots == [0, 2]
        assert t.find("bob", "alphabets").payload == "+-x"

    def test_symmetric_lengths_and_slots(self):
        cfg = SessionConfig("bb84", 20_000, noise=NoiseModel(loss_p=0.2), seed=123)
        record = run_stage1_bb84(cfg, Rng(cfg.seed), None)
        sift = sift_bb84(record, PublicTranscript())
        assert len(sift.raw_alice) == len(sift.raw_bob) == len(sift.slots)
        assert sift.slots == sorted(sift.slots)

    def test_sifted_fraction_tracks_loss(self):
        cfg = SessionConfig("bb84", 100_000, noise=NoiseModel(loss_p=0.3), seed=124)
        record = run_stage1_bb84(cfg, Rng(cfg.seed), None)
        sift = sift_bb84(record, PublicTranscript())
        expected = (1 - 0.3) / 2
        sigma = binomial_sigma(expected, cfg.n_pulses)
        assert abs(len(sift.slots) / cfg.n_pulses - expected) < 3 * sigma


class TestStage1B92:
    def test_conclusive_fraction(self):
        # Quadratic-form oracle first: the conclusive probability for a
        # code state is 1 - cos 2t.
        t = math.pi / 8
        povm = build_povm(t)
        alpha = b92_alphabet(t)
        for bit in (0, 1):
            probs = povm_probabilities(alpha[bit], povm)
            assert sum(probs[:2]) == pytest.approx(1 - math.cos(2 * t), abs=1e-12)

        cfg = SessionConfig("b92", 100_000, seed=125)
        record = run_stage1_b92(cfg, Rng(cfg.seed), None)
        conclusive = sum(1 for b in record.bob_bits if b is not None)
        assert abs(conclusive / cfg.n_pulses - 0.29289) < 0.01

    def test_conclusive_outcomes_never_err(self):
        cfg = SessionConfig("b92", 50_000, seed=126)
        record = run_stage1_b92(cfg, Rng(cfg.seed), None)
        for a_bit, b_bit in zip(record.alice_bits, record.bob_bits):
            if b_bit is not None:
                assert a_bit == b_bit

    def test_loss_fraction(self):
        cfg = SessionConfig("b92", 100_000, noise=NoiseModel(loss_p=0.5), seed=127)
        record = run_stage1_b92(cfg, Rng(cfg.seed), None)
        got = sum(record.received) / cfg.n_pulses
        assert abs(got - 0.5) < 0.01


class TestSiftB92:
    def test_clean_channel_keys_match(self):
        cfg = SessionConfig("b92", 20_000, seed=128)
        record = run_stage1_b92(cfg, Rng(cfg.seed), None)
        sift = sift_b92(record, PublicTranscript())
        assert sift.raw_alice == sift.raw_bob

    def test_all_inconclusive_raises(self):
        # Both slots received, both inconclusive.
        record = Stage1Record([0, 1], [True, True], [None, None])
        with pytest.raises(EmptySiftedKey):
            sift_b92(record, PublicTranscript())

    def test_opaque_tap_induces_errors(self):
        # Enumeration oracle: average the POVM response over Alice's bit,
        # Eve's basis choice, and Eve's outcome to get the conclusive
        # error rate, then check the sampled rate against it.
        theta = math.pi / 8
        alpha = b92_alphabet(theta)
        povm = build_povm(theta)
        plus, minus = alpha[1], alpha[0]
        menu = {
            "p": (plus.orthogonal(), plus),
            "m": (minus, minus.orthogonal()),
        }
        err_mass = 0.0
        conclusive_mass = 0.0
        for a_bit in (0, 1):
            sent = alpha[a_bit]
            for basis in menu.values():
                for outcome_state in basis:
                    weight = 0.25 * abs(inner(outcome_state, sent)) ** 2
                    p_zero, p_one, _ = povm_probabilities(outcome_state, povm)
                    conclusive_mass += weight * (p_zero + p_one)
                    err_mass += weight * (p_one if a_bit == 0 else p_zero)
        oracle_rate = err_mass / conclusive_mass
        assert oracle_rate > 0

        cfg = SessionConfig("b92", 60_000, eve=OpaqueEve(1.0), seed=129, r_max=1.0)
        rng = Rng(cfg.seed)
        record = run_stage1_b92(cfg, rng, make_tap(cfg, rng))
        sift = sift_b92(record, PublicTranscript())
        errors = sum(1 for a, b in zip(sift.raw_alice, sift.raw_bob) if a != b)
        rate = errors / len(sift.raw_alice)
        sigma = binomial_sigma(oracle_rate, len(sift.raw_alice))
        assert abs(rate - oracle_rate) < 3 * sigma
        # Detectability: more than five sigma above a quiet channel.
        assert rate > 5 * binomial_sigma(0.01, len(sift.raw_alice))


class TestEstimateError:
    def test_identical_keys(self):
        raw = [0, 1, 1, 0, 1, 0, 1, 1]
        rate, tent_a, tent_b = estimate_error(raw, list(raw), 2, Rng(130), PublicTranscript(), r_max=1.0)
        assert rate == 0.0
        assert tent_a == tent_b
        assert len(tent_a) == len(raw) - 2  # 2 disclosed and removed

    def test_recorded_tapped_keys_full_disclosure(self):
        sift = sift_bb84(_recorded_stage1(BOB_BITS_TAPPED), PublicTranscript())
        rate, tent_a, tent_b = estimate_error(
            sift.raw_alice, sift.raw_bob, len(sift.raw_alice), Rng(131), PublicTranscript(), r_max=1.0
        )
        assert rate == pytest.approx(2 / 6)
        assert tent_a == [] and tent_b == []

    def test_threshold_abort(self):
        with pytest.raises(RestartRequired) as exc:
            estimate_error([0] * 50, [1] * 50, 10, Rng(132), PublicTranscript(), r_max=0.12)
        assert exc.value.rate == 1.0

    def test_empty_keys_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            estimate_error([], [], 1, Rng(134), PublicTranscript(), r_max=1.0)

    def test_disclosure_is_posted(self):
        t = PublicTranscript()
        estimate_error([0, 1, 1, 0], [0, 1, 0, 0], 2, Rng(133), t, r_max=1.0)
        assert t.find("bob", "sample") is not None
        assert t.find("alice", "sample-bits") is not None
        assert t.find("bob", "sample-bits") is not None


class TestRunSession:
    def test_clean_bb84_example(self):
        report = run_session(SessionConfig("bb84", 10_000, sec_param=10, seed=134))
        assert not report.aborted
        assert report.error_rate == 0.0
        assert report.final_key_alice == report.final_key_bob
        assert report.final_key_length == report.reconciled_length - report.leaked_bits - 10

    def test_opaque_aborts_at_threshold(self):
        report = run_session(
            SessionConfig("bb84", 20_000, eve=OpaqueEve(1.0), r_max=0.12, seed=135)
        )
        assert report.aborted
        assert report.abort_reason == "error_rate_exceeds_threshold"
        assert abs(report.error_rate - 0.25) < 0.03
        assert report.final_key_length == 0

    def test_reports_are_deterministic(self):
        cfg = SessionConfig("b92", 5_000, noise=NoiseModel(flip_p=0.01), seed=136)
        first, second = run_session(cfg), run_session(cfg)
        t1, t2 = session_transcript(first), session_transcript(second)
        first.timings = second.timings = {}
        assert first.__dict__.keys() == second.__dict__.keys()
        assert t1.serialize() == t2.serialize()
        for field in ("error_rate", "final_key_alice", "final_key_bob", "sifted_count"):
            assert getattr(first, field) == getattr(second, field)

    def test_clean_seeds_property(self):
        # Reduced-width version of the thousand-seed clean-channel sweep
        # the acceptance suite runs.
        for seed in range(25):
            for protocol in ("bb84", "b92"):
                report = run_session(SessionConfig(protocol, 400, sec_param=4, seed=seed))
                assert not report.aborted
                assert report.error_rate == 0.0
                assert report.final_key_alice == report.final_key_bob

    @pytest.mark.parametrize("seed", [25, 268])
    def test_differing_final_keys_are_an_abort(self, seed):
        # The error sample underestimates a 6% flip rate, reconciliation
        # leaves errors behind, and amplification spreads them over both keys.
        # These are the only two of seeds 0-399 that do so under schema 2.
        cfg = SessionConfig("bb84", 1500, noise=NoiseModel(flip_p=0.06), r_max=0.2, seed=seed)
        report = run_session(cfg)
        assert report.aborted
        assert report.abort_reason == "key_mismatch"
        assert report.reconciled_length is not None
        assert report.final_key_length == 0
        assert report.final_key_alice == report.final_key_bob == ""

    def test_eve_accuracy_reproducible_from_transcript(self):
        cfg = SessionConfig("b92", 15_000, eve=translucent_swap_attack(math.pi / 8), seed=137, r_max=1.0)
        report = run_session(cfg)
        transcript = session_transcript(report)
        rng = Rng(cfg.seed)
        tap = make_tap(cfg, rng)
        record = run_stage1_b92(cfg, rng, tap)
        sift = sift_b92(record, PublicTranscript())
        guesses = eve_guess(tap, transcript)
        alice = dict(zip(sift.slots, sift.raw_alice))
        accuracy = sum(1 for s, (b, _) in guesses.items() if alice.get(s) == b) / len(guesses)
        assert accuracy == pytest.approx(report.eve_guess_accuracy)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig("b92x", 100)
        with pytest.raises(ValueError):
            SessionConfig("bb84", 0)
        with pytest.raises(ValueError):
            SessionConfig("bb84", 100, eve=translucent_swap_attack(math.pi / 8))
        with pytest.raises(ValueError):
            SessionConfig(
                "b92",
                100,
                eve=translucent_swap_attack(math.pi / 8),
                noise=NoiseModel(multi_p=0.1),
            )
        with pytest.raises(ValueError):
            SessionConfig("b92", 100, theta=0.3, eve=translucent_swap_attack(math.pi / 8))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"sample_fraction": 0.0}, "sample_fraction"),
            ({"sample_fraction": 1.0}, "sample_fraction"),
            ({"r_max": -0.01}, "r_max"),
            ({"r_max": 1.5}, "r_max"),
            ({"sec_param": -1}, "sec_param"),
            ({"seed": -1}, "seed must be non-negative"),
        ],
    )
    def test_config_ranges(self, setting, message):
        with pytest.raises(ValueError, match=message):
            SessionConfig("bb84", 100, **setting)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_pulses", 100.5),
            ("n_pulses", True),
            ("sec_param", 2.5),
            ("sec_param", True),
            ("seed", 1.5),
            ("seed", False),
            ("seed", "1"),
            ("r_max", True),
            ("flip_p", True),
            ("loss_p", False),
            ("multi_p", True),
            ("theta", True),
            ("sample_fraction", np.True_),
            ("fraction", True),
            ("r_max", "0.5"),
            ("theta", 0.3j),
            ("flip_p", None),
        ],
    )
    def test_config_refuses_non_integral_or_bool(self, name, value):
        # Refused when built: 100.5 pulses would fail inside stage 1, sec_param 2.5 on amplification's
        # helper thread, and seed 1.5 would run the seed-1 stream but report "seed": 1.5.
        with pytest.raises(ValueError, match=f"^{name} must"):
            if name.endswith("_p"):
                NoiseModel(**{name: value})
            elif name == "fraction":
                OpaqueEve(value)
            else:
                SessionConfig(**{"protocol": "bb84", "n_pulses": 100, name: value})

    def test_config_integers_are_stored_as_int(self):
        cfg = SessionConfig("bb84", np.int64(300), sec_param=np.int32(4), seed=np.uint8(5))
        assert [type(v) for v in (cfg.n_pulses, cfg.sec_param, cfg.seed)] == [int, int, int]
        plain = SessionConfig("bb84", 300, sec_param=4, seed=5)
        assert render_json(build_document(run_session(cfg), cfg)) == render_json(
            build_document(run_session(plain), plain)
        )

    @pytest.mark.parametrize(
        "given, plain",
        [
            ({"r_max": 1}, {"r_max": 1.0}),
            ({"r_max": Fraction(1, 2)}, {"r_max": 0.5}),
            ({"sample_fraction": Fraction(1, 4)}, {"sample_fraction": 0.25}),
            ({"theta": np.float32(0.5)}, {"theta": 0.5}),
            ({"noise": NoiseModel(flip_p=0, loss_p=Fraction(1, 8))}, {"noise": NoiseModel(loss_p=0.125)}),
            ({"eve": OpaqueEve(1)}, {"eve": OpaqueEve(1.0)}),
            ({"eve": OpaqueEve(np.float64(0.5))}, {"eve": OpaqueEve(0.5)}),
        ],
    )
    def test_config_floats_are_stored_as_float(self, given, plain):
        # Equal configs, equal report bytes: an int r_max was echoed as 1, and a Fraction
        # ran a whole session before render_json refused it.
        cfg = SessionConfig("bb84", 300, seed=2, **given)
        want = SessionConfig("bb84", 300, seed=2, **plain)
        floats = [cfg.theta, cfg.sample_fraction, cfg.r_max, cfg.noise.flip_p, cfg.noise.loss_p, cfg.noise.multi_p]
        if isinstance(cfg.eve, OpaqueEve):
            floats.append(cfg.eve.fraction)
        assert {type(v) for v in floats} == {float}
        assert render_json(build_document(run_session(cfg), cfg)) == render_json(
            build_document(run_session(want), want)
        )

    @pytest.mark.parametrize("theta", [0.0, -0.1, math.pi / 4, 1.0])
    def test_b92_theta_out_of_range(self, theta):
        # Refused when the config is built; BB84 does not use theta.
        with pytest.raises(ThetaOutOfRange):
            SessionConfig("b92", 10, theta=theta)
        SessionConfig("bb84", 10, theta=theta)


ABORT_REASONS = ("empty_sifted_key", "error_rate_exceeds_threshold", "key_exhausted", "key_mismatch")


# The B92 couplings, each built at the session theta; they assume single-photon pulses.
COUPLINGS = {
    "translucent": translucent_swap_attack,
    "entangle": entangling_swap_attack,
    "identity": identity_translucent,
}


@settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(["bb84", "b92"]),
    eve=st.one_of(
        st.just(NoEve()),
        st.builds(OpaqueEve, st.floats(0.0, 1.0)),
        st.just(PhotonSplitEve()),
        st.sampled_from(sorted(COUPLINGS)),
    ),
    theta=st.floats(1e-6, math.pi / 4, exclude_max=True),
    flip=st.floats(0.0, 1.0),
    loss=st.floats(0.0, 1.0),
    multi=st.floats(0.0, 1.0),
    r_max=st.floats(0.0, 1.0),
    sample_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    sec_param=st.integers(0, 60),
    n_pulses=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
# Nearly every sifted bit is disclosed, so nothing is left to reconcile or amplify.
@example(
    protocol="bb84", eve=NoEve(), theta=math.pi / 8, flip=0.0, loss=0.0, multi=0.0, r_max=0.12,
    sample_fraction=0.999999, sec_param=0, n_pulses=600, seed=1,
)
def test_session_ends_in_a_shared_key_or_a_known_abort(
    protocol, eve, theta, flip, loss, multi, r_max, sample_fraction, sec_param, n_pulses, seed
):
    if isinstance(eve, str):
        protocol, multi, eve = "b92", 0.0, COUPLINGS[eve](theta)
    noise = NoiseModel(flip_p=flip, loss_p=loss, multi_p=multi)
    cfg = SessionConfig(
        protocol, n_pulses, theta=theta, noise=noise, eve=eve,
        sample_fraction=sample_fraction, r_max=r_max, sec_param=sec_param, seed=seed,
    )
    report = run_session(cfg)
    if report.aborted:
        assert report.abort_reason in ABORT_REASONS
    else:
        assert report.abort_reason is None
        assert report.final_key_alice == report.final_key_bob
        assert report.final_key_length == len(report.final_key_alice) > 0
    # The report's counts follow from the public transcript alone.
    posted = {"kept": 0, "conclusive": 0, "sample": 0, "parity": 0, "pa-subset": 0}
    for msg in session_transcript(report):
        if msg.tag in ("kept", "conclusive", "sample"):
            posted[msg.tag] += len([slot for slot in msg.payload.split(",") if slot])
        elif msg.tag == "pa-subset" or (msg.tag, msg.sender) == ("parity", "alice"):
            posted[msg.tag] += 1
    assert report.sifted_count == posted["kept"] + posted["conclusive"]
    assert report.disclosed_count == posted["sample"]
    if report.reconciled_length is not None:
        assert report.reconciled_length == report.sifted_count - report.disclosed_count - posted["parity"]
    if report.abort_reason != "key_mismatch":
        assert report.final_key_length == posted["pa-subset"]
    if not report.aborted:
        assert report.leaked_bits == report.reconciled_length - report.final_key_length - sec_param


STAGE1_KINDS = [
    ("bb84", "none"),
    ("bb84", "opaque"),
    ("bb84", "pns"),
    ("b92", "none"),
    ("b92", "opaque"),
    ("b92", "pns"),
    ("b92", "translucent"),
    ("b92", "entangle"),
]


def _held(record):
    # A stored photon or a probe is a Ket2, which compares by identity; compare amplitudes.
    return {slot: (v.a0, v.a1) if isinstance(v, Ket2) else v for slot, v in record.items()}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(STAGE1_KINDS),
    fraction=st.floats(0.0, 1.0),
    flip=st.floats(0.0, 1.0),
    loss=st.floats(0.0, 1.0),
    multi=st.floats(0.0, 1.0),
    theta=st.floats(1e-6, math.pi / 4, exclude_max=True),
    n_pulses=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
# Below tolerance the two code states are one state to the translucent tap.
@example(kind=("b92", "translucent"), fraction=1.0, flip=0.1, loss=0.1, multi=0.0, theta=1e-6, n_pulses=200, seed=7)
@example(kind=("b92", "entangle"), fraction=1.0, flip=0.0, loss=0.0, multi=0.0, theta=1e-6, n_pulses=200, seed=8)
def test_stage1_matches_per_slot_oracle(kind, fraction, flip, loss, multi, theta, n_pulses, seed):
    protocol, eve_name = kind
    strategies = {
        "none": NoEve(),
        "opaque": OpaqueEve(fraction),
        "pns": PhotonSplitEve(),
        "translucent": translucent_swap_attack(theta),
        "entangle": entangling_swap_attack(theta),
    }
    if eve_name in ("translucent", "entangle"):
        multi = 0.0  # the couplings assume single-photon pulses
    noise = NoiseModel(flip_p=flip, loss_p=loss, multi_p=multi)
    cfg = SessionConfig(protocol, n_pulses, theta=theta, noise=noise, eve=strategies[eve_name], seed=seed)
    fast_rng, oracle_rng = Rng(seed), Rng(seed)
    tap = make_tap(cfg, fast_rng)
    oracle_tap = None if tap is None else oracle.Tap(cfg.eve, protocol, oracle_rng, theta)
    if protocol == "bb84":
        record = run_stage1_bb84(cfg, fast_rng, tap)
        want = oracle.run_stage1_bb84(cfg, oracle_rng, oracle_tap)
    else:
        record = run_stage1_b92(cfg, fast_rng, tap)
        want = oracle.run_stage1_b92(cfg, oracle_rng, oracle_tap)
    assert record == want
    if tap is not None:
        assert _held(tap.record) == _held(oracle_tap.record)
    assert fast_rng._random.__self__.getstate() == oracle_rng._random.__self__.getstate()
